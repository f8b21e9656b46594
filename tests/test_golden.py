"""Golden digests of report bytes.

Every entry of golden_digests.json is the sha256 of one run's canonical
report bytes: a check's `canonical_bytes()`, a campaign's reports joined by
newlines, a CLI command's standard output or the report file it writes
(without its runtime_ms line), or a trace table's exact values as JSON.
A change that claims identical bytes changes no entry; one that changes
bytes on purpose regenerates the entries it changes with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and says which, and why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import tempfile

import pytest

from dworkbench import harness
from dworkbench.cli import main
from dworkbench.finitefield import build_field
from dworkbench.hypergeometric import HyperSpec, canonical_trace, trad_trace_conv, trad_trace_naive
from dworkbench.weights import build_v

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_digests.json"

# katz families: the benchmark's four, then larger and smaller primes
KATZ = ((4, 9, 73), (6, 11, 67), (2, 17, 103), (4, 17, 103), (2, 7, 29), (2, 7, 43), (4, 17, 239),
        (4, 9, 19), (2, 7, 71), (4, 17, 137), (6, 11, 89))
# labels whose character data the weights CLI prints
LABELS = ((2, 7), (4, 9), (6, 11), (4, 17), (8, 13))
# signs moduli: l = 1 and l = 3 mod 4 both occur
SIGN_LS = (7, 11, 17, 29, 37)


def _campaign(seed):
    cfg = harness.CampaignConfig(checks=(*harness._DEFAULT_CHECKS, "psi2"), seed=seed)
    return harness.run_campaign(cfg)[1]


def _values(values):
    return json.dumps([v.to_json() for v in values], sort_keys=True).encode()


def _hyper(route, E_degree=1):
    """The (2, 7) label's trace values at q = 29, every t, one route."""
    spec = HyperSpec.from_label(build_field(29), build_v(2, 7))
    if route == "naive":
        return _values(trad_trace_naive(spec, range(2, 29)))
    table = trad_trace_conv(spec, E_degree) if route == "conv" else canonical_trace(spec)
    return _values(v for _, v in table.items())


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


def _cli_report(*argv):
    """The bytes of the report file that a verify command writes with
    --json, its runtime_ms line removed."""
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "report.json"
        _cli(*argv, "--json", str(path))
        data = path.read_bytes()
    stripped, count = re.subn(rb'\n "runtime_ms": [0-9]+,', b"", data)
    assert count == 1
    return stripped


RUNS = {
    **{f"campaign+psi2 seed={s}": (lambda s=s: _campaign(s)) for s in range(4)},
    **{f"katz{f} seed={s}": (lambda f=f, s=s: [harness.katz_check(*f, seed=s).to_result()])
       for f in KATZ for s in (0, 1)},
    "weil-duality(4, 9, 73)": lambda: [harness.check_weil_duality(4, 9, qs=(73,))],
    **{f"n3 q={q}": (lambda q=q: [harness.validate_n3(q)]) for q in (7, 13, 19)},
    "n3 q=7 corrupt": lambda: [harness.validate_n3(7, corrupt=True)],
    **{f"det-oracle q={q}": (lambda q=q: [harness.check_det_oracle(q=q)]) for q in (29, 43)},
    "det-oracle q=7 k=3": lambda: [harness.check_det_oracle(q=7, k=3)],
    "canonical-paths": lambda: [harness.check_canonical_paths()],
    "hyper-cross": lambda: [harness.check_hyper_cross()],
    "det-hcan": lambda: [harness.check_det_hcan()],
    "gauss-suite exhaustive": lambda: [harness.check_gauss_suite(sample=10 ** 9)],
    "hyper conv (2, 7, 29) E=1": lambda: _hyper("conv"),
    "hyper conv (2, 7, 29) E=2": lambda: _hyper("conv", 2),
    "hyper naive (2, 7, 29)": lambda: _hyper("naive"),
    "hyper canonical (2, 7, 29)": lambda: _hyper("canonical"),
    "cli dwork trace (4, 17, 103)": lambda: _cli("dwork", "trace", "--n", "4", "--N", "17", "--q", "103",
                                                 "--t", "all", "--json"),
    **{f"cli weights hyper-data {l}": (lambda n=l[0], N=l[1]: _cli("weights", "hyper-data", "--n", str(n),
                                                                  "--N", str(N), "--json"))
       for l in LABELS},
    **{f"cli weights build-v {l}": (lambda n=l[0], N=l[1]: _cli("weights", "build-v", "--n", str(n), "--N", str(N)))
       for l in LABELS},
    "cli char gauss q=29 order=7": lambda: _cli("char", "gauss", "--q", "29", "--chi-order", "7", "--json"),
    "cli hyper trace conv (2, 7, 29)": lambda: _cli("hyper", "trace", "--q", "29", "--n", "2", "--N", "7",
                                                    "--method", "conv", "--json"),
    "cli verify katz (4, 17, 103)": lambda: _cli("verify", "katz", "--n", "4", "--N", "17", "--q", "103"),
    "cli verify katz (4, 17, 103) --json": lambda: _cli_report("verify", "katz", "--n", "4", "--N", "17", "--q", "103"),
    "cli verify n3 q=13": lambda: _cli("verify", "n3", "--q", "13"),
    "cli verify n3 q=13 --json": lambda: _cli_report("verify", "n3", "--q", "13"),
    "cli verify det-hcan (2, 7, 29)": lambda: _cli("verify", "det-hcan", "--q", "29", "--n", "2", "--N", "7"),
    **{f"signs {SIGN_LS} seed={s}": (lambda s=s: [harness.check_signs(ls=SIGN_LS, seed=s)]) for s in (0, 1)},
}


def digest(name):
    out = RUNS[name]()
    data = out if isinstance(out, bytes) else b"\n".join(r.canonical_bytes() for r in out)
    return hashlib.sha256(data).hexdigest()


def test_every_run_has_one_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden_digest(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(RUNS)}, indent=1, sort_keys=True))
