import json

import pytest

from dworkbench.cli import main
from dworkbench.errors import Infeasible
from dworkbench.harness import check_det_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weights_build_v_json(capsys):
    code, out, _ = run(capsys, "weights", "build-v", "--n", "4", "--N", "9", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["v"] == [0, 0, 0, 0, 0, 2, 3, 5, 8]
    assert obj["rank"] == 4


def test_weights_hyper_data_schema(capsys):
    code, out, _ = run(capsys, "weights", "hyper-data", "--n", "2", "--N", "7")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"v", "s_chi", "s_rho", "rank"}
    assert obj["s_chi"] == [1, 6] and obj["s_rho"] == [0, 0]


def test_char_gauss_json_weight(capsys):
    code, out, _ = run(capsys, "char", "gauss", "--q", "29", "--chi-order", "7", "--chi-exp", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    re, im = obj["embedding"]
    assert abs((re * re + im * im) - 29) < 1e-6


def test_char_gauss_rejects_bad_order(capsys):
    for order in ("5", "0", "-7"):
        code, _, err = run(capsys, "char", "gauss", "--q", "29", "--chi-order", order)
        assert code == 2, order
        assert "config error" in err


def test_hyper_trace_rows(capsys):
    code, out, _ = run(capsys, "hyper", "trace", "--q", "29", "--n", "2", "--N", "7",
                       "--method", "conv", "--t", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert set(rows[0]) == {"t", "value", "abs2"}


def test_hyper_trace_naive_rows_equal_conv(capsys):
    trace = ("hyper", "trace", "--q", "29", "--n", "2", "--N", "7", "--json", "--method")
    code, out, _ = run(capsys, *trace, "naive")
    assert code == 0
    naive = json.loads(out)
    code, out, _ = run(capsys, *trace, "conv")
    assert code == 0
    assert [r["t"] for r in naive] == list(range(2, 29))
    assert [r["value"] for r in naive] == [r["value"] for r in json.loads(out)]
    code, out, _ = run(capsys, *trace, "naive", "--t", "5")
    assert code == 0 and [r["value"] for r in json.loads(out)] == [naive[3]["value"]]


def test_hyper_trace_has_no_mellin_method():
    with pytest.raises(SystemExit) as ei:
        main(["hyper", "trace", "--q", "29", "--n", "2", "--N", "7", "--method", "mellin"])
    assert ei.value.code == 2


def test_dwork_trace_single_point(capsys):
    code, out, _ = run(capsys, "dwork", "trace", "--N", "7", "--n", "2", "--q", "29",
                       "--t", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["t"] == 2
    assert "torus" in rows[0]["strata"]


def test_dwork_trace_bad_t(capsys):
    for argv, error in [
        (("trace", "--N", "7", "--n", "2", "--q", "29", "--t", "0"), "BadT"),
        (("trace", "--N", "7", "--n", "2", "--q", "29", "--t", "abc"), "BadT"),
        (("count", "--N", "3", "--q", "7", "--t", "3", "--ext", "0"), "BadParams"),
        (("count", "--N", "3", "--q", "7", "--t", "3", "--ext", "-1"), "BadParams"),
    ]:
        code, _, err = run(capsys, "dwork", *argv)
        assert code == 2, argv
        assert error in err


def test_dwork_count(capsys):
    code, out, _ = run(capsys, "dwork", "count", "--N", "3", "--q", "7", "--t", "3", "--ext", "1")
    assert code == 0
    assert out.strip() == "9"


def test_signs_check(capsys):
    code, out, _ = run(capsys, "signs", "check", "--l", "5", "--seed", "0", "--count", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True


def test_signs_dim_guard(capsys):
    # every example is 2x2, so there is no --dim option to pass
    with pytest.raises(SystemExit) as exc:
        main(["signs", "check", "--l", "5", "--dim", "2"])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err


@pytest.mark.parametrize("argv, match", [
    (("--l", "5", "--count", "0"), "count = 0"),
    (("--l", "5", "--count", "-5"), "count = -5"),
    (("--l", "4"), "l = 4 must be an odd prime"),
], ids=["count-0", "count-minus-5", "l-4"])
def test_signs_refuses_bad_input(capsys, argv, match):
    code, out, err = run(capsys, "signs", "check", *argv)
    assert code == 2 and out == ""
    assert "BadParams" in err and match in err


def test_verify_det_hcan(capsys):
    code, out, _ = run(capsys, "verify", "det-hcan", "--q", "29", "--n", "2", "--N", "7")
    assert code == 0
    assert "exponent=half" in out


def test_verify_n3_writes_report(capsys, tmp_path):
    out_path = tmp_path / "n3.json"
    code, out, _ = run(capsys, "verify", "n3", "--q", "7", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["check"] == "n3" and payload["pass"] is True


def test_verify_n3_larger_field(capsys):
    # the fixed-point oracle over F_{31^3} runs in about a second
    code, out, _ = run(capsys, "verify", "n3", "--q", "31")
    assert code == 0
    assert "n3 q=31: PASS" in out


def test_verify_katz_writes_report(capsys, tmp_path):
    out_path = tmp_path / "katz.json"
    code, out, _ = run(capsys, "verify", "katz", "--n", "2", "--N", "7", "--q", "29",
                       "--json", str(out_path))
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out_path.read_text())
    assert payload["adjudications"]["orientation"] == "direct"


def test_verify_katz_past_the_int64_range(capsys):
    # the Dwork engine continues in Python integers where int64 could overflow
    code, out, _ = run(capsys, "verify", "katz", "--n", "4", "--N", "17", "--q", "239")
    assert code == 0
    assert "PASS" in out


def test_verify_all_campaign(capsys, tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("checks = build-v, signs\n")
    code, out, _ = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 0
    assert "campaign: PASS" in out


def test_verify_all_keeps_reports_written_before_a_refusal(capsys, tmp_path):
    # hyper-cross refuses q = 71 after build-v and gauss-suite have passed
    outdir = tmp_path / "reports"
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"q = 71\noutdir = {outdir}\n")
    code, _, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert "Infeasible" in err
    assert sorted(p.name for p in outdir.iterdir()) == ["00-build-v.json", "01-gauss-suite.json"]


def test_verify_all_missing_config(capsys):
    code, _, err = run(capsys, "verify", "all", "--config", "/nonexistent/camp.txt")
    assert code == 2


def test_verify_all_bad_config(capsys, tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("junk = here\n")
    code, _, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert "config error" in err


def test_verify_all_rejects_threads_key(capsys, tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("checks = build-v\nthreads = 2\n")
    code, _, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err and "threads" in err


def test_verify_all_rejects_tolerance_key(capsys, tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("checks = build-v\ntolerance = 1e-6\n")
    code, _, err = run(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err and "tolerance" in err


def test_verify_det_trad_refuses_large_field(capsys, refused_peak):
    # one dense convolution over Z/(1009 * 1008) would take 10^12 multiply-adds
    code, _, err = run(capsys, "verify", "det-trad", "--q", "1009", "--k", "2")
    assert code == 2
    assert "Infeasible: kernel cost" in err and "L = 1017072" in err
    # the command's check refuses before it allocates
    assert refused_peak(lambda: check_det_oracle(q=1009, k=2), Infeasible, "L = 1017072") < 8 << 20


@pytest.mark.parametrize("argv", [("--q", "2"), ("--q", "29", "--k", "1"), ("--q", "29", "--k", "4")])
def test_verify_det_trad_refuses_bad_input(capsys, argv):
    code, out, err = run(capsys, "verify", "det-trad", *argv)
    assert code == 2 and not out
    assert err.startswith("error: BadParams: det-oracle needs")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["hyper", "nonsense"])
    assert ei.value.code == 2


def test_dwork_trace_all_rows_share_their_strata(capsys):
    # one memo for the whole table: the output equals a fresh serialization
    # per row, and a stratum shared by the fibers is serialized once
    from dworkbench.dwork import eigentrace_all_t
    from dworkbench.finitefield import build_field
    from dworkbench.weights import build_v

    code, out, _ = run(capsys, "dwork", "trace", "--N", "9", "--n", "4", "--q", "73", "--t", "all", "--json")
    assert code == 0
    table = eigentrace_all_t(build_field(73), 9, build_v(4, 9))
    assert out == json.dumps([table[t].to_json() for t in sorted(table)], sort_keys=True) + "\n"
    memo = {}
    rows = [table[t].to_json(memo) for t in sorted(table)]
    shared = [k for k in rows[0]["strata"] if k != "torus"]
    assert shared and all(r["strata"][k] is rows[0]["strata"][k] for r in rows for k in shared)
