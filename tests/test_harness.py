import inspect
import itertools
import json
import operator
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.characters import AddChar, MultChar, gauss_sum, jacobi_sum
from dworkbench.cyclotomic import common, ctx_for
from dworkbench.errors import BadParams, ConfigError, Infeasible, MissingLambda
from dworkbench.finitefield import build_field, is_prime
from dworkbench.harness import (
    CampaignConfig,
    CheckResult,
    _control_label,
    check_build_v,
    check_det_hcan,
    check_det_oracle,
    check_gauss_suite,
    check_hyper_cross,
    check_signs,
    katz_check,
    psi2_weight_note,
    run_campaign,
    validate_n3,
)
from dworkbench.weights import build_v


def test_check_result_round_trip():
    res = CheckResult("demo", {"q": 7}, True, {"orientation": None, "conv_sign": "-1", "det_hcan_exponent": None}, [{"x": 1}], 0, 42)
    obj = res.to_json()
    assert obj["check"] == "demo"
    assert obj["pass"] is True
    assert obj["runtime_ms"] == 42
    assert obj["adjudications"]["conv_sign"] == "-1"


def test_canonical_bytes_exclude_timing():
    a = CheckResult("demo", {"q": 7}, True, {}, [], 0, 10)
    b = CheckResult("demo", {"q": 7}, True, {}, [], 0, 9999)
    assert a.canonical_bytes() == b.canonical_bytes()
    # canonical form is valid compact json
    parsed = json.loads(a.canonical_bytes())
    assert "runtime_ms" not in parsed


def test_build_v_check_passes():
    assert check_build_v().ok


def test_n3_validation_passes_and_corrupt_fails():
    good = validate_n3(7)
    assert good.ok
    bad = validate_n3(7, corrupt=True)
    assert not bad.ok


def test_n3_makes_one_pass_per_label_and_group_element(monkeypatch):
    # every t reads one eigentrace table per label and one fixed-point
    # count per group element
    from dworkbench import harness

    calls = []
    for name in ("fix_count_bruteforce", "eigentrace_all_t"):
        def spy(*args, _name=name, _f=getattr(harness, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(harness, name, spy)
    assert validate_n3(13).ok
    assert sorted(calls) == ["eigentrace_all_t"] * 3 + ["fix_count_bruteforce"] * 3


def test_n3_passes_at_q61():
    res = validate_n3(61)
    assert res.ok
    assert [r["t"] for r in res.rows] == res.params["smooth_t"] and len(res.rows) == 57
    assert all(r["ok"] for r in res.rows)


def test_n3_bytes_repeat_in_process():
    # no point cache outlives a call; test_11 compares spawned processes
    assert validate_n3(7).canonical_bytes() == validate_n3(7).canonical_bytes()


def test_signs_bytes_deterministic():
    a = check_signs(ls=(5,), count=10, seed=4)
    b = check_signs(ls=(5,), count=10, seed=4)
    assert a.canonical_bytes() == b.canonical_bytes()
    c = check_signs(ls=(5,), count=10, seed=5)
    assert a.canonical_bytes() != c.canonical_bytes()


def test_psi2_needs_lambda():
    with pytest.raises(MissingLambda):
        psi2_weight_note(2, 7, 29, None)


def test_psi2_weight_closes(f29):
    rep = katz_check(2, 7, 29)
    note = psi2_weight_note(2, 7, 29, rep.lam)
    assert note.ok
    assert [r["abs2_is_target"] for r in note.rows if "abs2_is_target" in r] == [True]
    assert not psi2_weight_note(2, 7, 29, rep.lam * 2).ok


def test_config_parsing_full():
    text = """
    # campaign file
    n = 2
    N = 7
    q = 29, 43
    checks = build-v, signs
    seed = 3
    """
    cfg = CampaignConfig.from_text(text)
    assert cfg.n == 2 and cfg.N == 7
    assert cfg.qs == (29, 43)
    assert cfg.checks == ("build-v", "signs")
    assert cfg.seed == 3


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        CampaignConfig.from_text("zzz = 1")
    with pytest.raises(ConfigError, match="line 2"):
        CampaignConfig.from_text("n = 2\nN seven")
    with pytest.raises(ConfigError, match="line 1: n must be even"):
        CampaignConfig.from_text("n = 3")
    with pytest.raises(ConfigError, match="line 1: q = 30"):
        CampaignConfig.from_text("q = 30")
    with pytest.raises(ConfigError, match="line 2: q = 29 is not 1 mod N = 9"):
        CampaignConfig.from_text("# q keeps its default\nN = 9")
    with pytest.raises(ConfigError, match="line 3: unknown checks"):
        CampaignConfig.from_text("n = 2\n\nchecks = nonsense")
    with pytest.raises(ConfigError, match="line 1: q needs"):
        CampaignConfig.from_text("q =")
    with pytest.raises(ConfigError, match="line 1: unknown key 'tolerance'"):
        CampaignConfig.from_text("tolerance = 1e-6")
    with pytest.raises(ConfigError, match="line 2: q = 8 is not prime"):
        CampaignConfig.from_text("n = 2\nq = 29, 8")  # 8 = 1 mod 7
    for q in (-13, 1):  # both are 1 mod 7
        with pytest.raises(ConfigError, match=f"line 1: q = {q} is below 3"):
            CampaignConfig.from_text(f"q = {q}")
    with pytest.raises(ConfigError, match="line 2: N = 7 is below n [+] 5 = 9"):
        CampaignConfig.from_text("n = 4\nN = 7")
    with pytest.raises(ConfigError, match="line 1: N = 7 is below n [+] 5 = 11"):
        CampaignConfig.from_text("n = 6")


_CONFIG_KEYS = ["n", "N", "q", "checks", "seed", "outdir", "tolerance", "threads", ""]
_config_line = st.one_of(
    st.text(max_size=16),
    st.builds(
        "{} = {}".format,
        st.sampled_from(_CONFIG_KEYS),
        st.one_of(st.text(max_size=10), st.integers(-30, 60).map(str), st.sampled_from(["29, 43", "signs", "build-v"])),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_config_line, max_size=6).map("\n".join))
def test_config_rejections_name_the_offending_line(text):
    try:
        cfg = CampaignConfig.from_text(text)
    except ConfigError as e:
        head, sep, _ = str(e).partition(": ")
        assert sep and head.startswith("line "), str(e)
        line = text.splitlines()[int(head[5:]) - 1]
        assert line.split("#", 1)[0].strip(), f"{e} names a blank line"
    else:
        # what is accepted can build its label and its fields
        assert cfg.N >= cfg.n + 5
        assert all(q >= 3 and is_prime(q) and q % cfg.N == 1 for q in cfg.qs)


def test_hyper_cross_mellin_fails_at_exactly_the_corrupted_t(monkeypatch):
    from dworkbench import hypergeometric

    real = hypergeometric._trad_rows

    def corrupted(spec, m):
        E, C = real(spec, m)
        C = C.copy()
        C[int(E.DLOG[11]), 5] += 1
        return E, C

    monkeypatch.setattr(hypergeometric, "_trad_rows", corrupted)
    res = check_hyper_cross(2, 7, 29)
    assert not res.ok
    assert [r["t"] for r in res.rows if not r["mellin_ok"]] == [11]


def _bump_nth_call(monkeypatch, name, n, bump):
    """Wrap hypergeometric.<name> so that its n-th call (from 0) returns bump(result)."""
    from dworkbench import hypergeometric

    real = getattr(hypergeometric, name)
    calls = []

    def wrapped(*args):
        out = real(*args)
        calls.append(None)
        return bump(out, *args) if len(calls) == n + 1 else out

    monkeypatch.setattr(hypergeometric, name, wrapped)


def _bump_gauss(G, psi, chis, M):
    G = G.copy()
    G[1, 3] = (G[1, 3] + 1) % M
    return G


def _bump_p2(out, spec, m, t_code=None):
    E, C = out
    if m != 2:
        return out
    C = C.copy()
    C[0, 7] += 1
    return E, C


@pytest.mark.parametrize("row", range(6))
def test_det_oracle_fails_at_exactly_the_corrupted_row(monkeypatch, row):
    # det_agrees forms one Gauss exponent table and one p_2 per row: a bumped
    # exponent or count changes that row's side by a nonzero element
    with monkeypatch.context() as mp:
        _bump_nth_call(mp, "gauss_exponents", row, _bump_gauss)
        res = check_det_oracle(q=29)
    assert [i for i, r in enumerate(res.rows) if not r["ok"]] == [row]
    with monkeypatch.context() as mp:
        # _trad_rows runs at m = 1 and m = 2 for each row; the bump lands on m = 2
        _bump_nth_call(mp, "_trad_rows", 2 * row + 1, _bump_p2)
        res = check_det_oracle(q=29)
    assert [i for i, r in enumerate(res.rows) if not r["ok"]] == [row]


def test_det_oracle_builds_no_cyclotomic_field():
    ctx_for.cache_clear()
    assert check_det_oracle(q=29).ok
    assert ctx_for.cache_info().currsize == 0


def test_det_oracle_peak_memory():
    # as power-basis elements of Q(zeta_4970) the two sides peaked at 205 MiB here
    build_field(71)
    build_field(71, 2)
    tracemalloc.start()
    try:
        res = check_det_oracle(q=71)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok
    assert peak < 24 << 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_det_oracle_refuses_bad_parameters_before_any_work(refused_peak):
    for q, k in ((2, 2), (3, 2), (29, 1), (29, 4)):
        assert refused_peak(lambda: check_det_oracle(q=q, k=k), BadParams, "det-oracle needs") < 1 << 16
    # at q = 151 the Gauss side fits the budget and Newton's does not: both
    # are refused before either is built
    assert refused_peak(lambda: check_det_oracle(q=151), Infeasible, "L = 22650") < 1 << 20


def test_campaign_small_run(tmp_path):
    cfg = CampaignConfig.from_text(
        f"checks = build-v, signs\noutdir = {tmp_path}\n"
    )
    code, results = run_campaign(cfg)
    assert code == 0
    assert [r.check for r in results] == ["build-v", "signs"]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["00-build-v.json", "01-signs.json"]
    payload = json.loads((tmp_path / "01-signs.json").read_text())
    assert payload["pass"] is True


def test_every_report_is_a_check_result_timed_and_written_in_one_place(monkeypatch, tmp_path):
    # katz's report is a CheckResult that a campaign writes as it is, and
    # every runner's runtime_ms comes from the one timer, read twice a call
    from dworkbench import harness

    assert isinstance(katz_check(2, 7, 29), CheckResult)
    assert "with_control" not in inspect.signature(katz_check).parameters
    ticks = itertools.count()
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(monotonic=lambda: Fraction(7 * next(ticks), 1000)))
    monkeypatch.setattr(harness.KatzReport, "to_result", lambda self: pytest.fail("to_result called"))
    code, results = run_campaign(CampaignConfig(checks=(*harness._DEFAULT_CHECKS, "psi2"), outdir=str(tmp_path)))
    assert code == 0
    assert [r.check for r in results].count("katz") == 2
    assert [r.runtime_ms for r in results] == [7] * len(results)
    written = sorted(tmp_path.iterdir())
    assert [p.name for p in written] == [f"{i:02d}-{r.check}.json" for i, r in enumerate(results)]
    for path, r in zip(written, results):
        assert json.loads(path.read_text()) == json.loads(json.dumps(r.to_json()))


def test_det_hcan_suite_consistency():
    res = check_det_hcan()
    assert res.ok
    assert res.adjudications["det_hcan_exponent"] == "half"
    assert {r["q"] for r in res.rows} == {29, 43, 19}


def test_katz_small_report_shape(f29):
    rep = katz_check(2, 7, 29)
    res = rep.to_result()
    assert res.ok
    obj = res.to_json()
    assert obj["adjudications"]["orientation"] == "direct"
    assert obj["params"]["image_points"] == 3
    assert obj["params"]["perturbed_control_constant"] is False
    # every smooth point appears exactly once
    assert len(obj["rows"]) == 21


@pytest.mark.parametrize("n,N", [(2, 7), (4, 9), (6, 11), (2, 17), (4, 17)])
def test_katz_control_label_zero_sum_and_inequivalent(n, N):
    v = build_v(n, N).entries
    c = _control_label(v, N)
    assert sum(c) % N == 0
    assert sum(a != b for a, b in zip(c, v)) == 2
    equivalent = {tuple(sorted((s * e + k) % N for e in v)) for s in (1, -1) for k in range(N)}
    assert tuple(sorted(c)) not in equivalent


@pytest.mark.parametrize("n,N,q", [(2, 7, 29), (4, 9, 37), (4, 17, 239)])
def test_katz_control_breaks_constancy(n, N, q):
    # (4, 17, 239) takes the engine past int64
    rep = katz_check(n, N, q)
    assert rep.params["image_points"] > 1
    assert rep.control_constant is False
    assert rep.to_result().ok


def test_katz_control_resumes_from_the_label_orbit_state(monkeypatch):
    # the labels differ in two coordinates, stepped last: N - 1 torus steps
    # for the label, then one for the control
    from dworkbench import dwork

    steps = []
    step = dwork._orbit_step

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(dwork, "_orbit_step", counted)
    rep = katz_check(4, 17, 103)
    assert rep.to_result().ok and rep.control_constant is False
    assert len(steps) == 17


def _gauss_suite_by_products(qs, seed=0, sample=150):
    """The gauss suite's rows from CycloElem products: the literal reference
    for check_gauss_suite, which decides the same identities on count vectors."""
    rows = []
    for q in qs:
        field = build_field(q)
        psi = AddChar(field)
        triv_ok = gauss_sum(psi, MultChar(field, 0)) == -1
        mod_ok = True
        for j in range(1, q - 1):
            chi = MultChar(field, j)
            g = gauss_sum(psi, chi)
            if g * g.conjugate() != q:
                mod_ok = False
                break
        pairs = [(a, b) for a in range(1, q - 1) for b in range(1, q - 1) if (a + b) % (q - 1) != 0]
        if len(pairs) > sample:
            rng = random.Random(seed * 7919 + q)
            pairs = rng.sample(pairs, sample)
        jac_ok = True
        gcache = {j: gauss_sum(psi, MultChar(field, j)) for j in set(x for pr in pairs for x in pr) | {(a + b) % (q - 1) for a, b in pairs}}
        for a, b in pairs:
            J = jacobi_sum(MultChar(field, a), MultChar(field, b))
            lhs = operator.mul(*common(J, gcache[(a + b) % (q - 1)]))
            rhs = operator.mul(*common(gcache[a], gcache[b]))
            la, rb = common(lhs, rhs)
            if la != rb:
                jac_ok = False
                break
        rows.append({"q": q, "trivial_is_minus_one": triv_ok, "modulus": mod_ok, "jacobi_pairs": len(pairs), "jacobi": jac_ok})
    return rows


@pytest.mark.parametrize("qs,seed,sample", [((5, 7, 11, 13), 0, 10 ** 9)] + [((29,), s, 150) for s in range(3)])
def test_gauss_suite_rows_match_the_product_reference(qs, seed, sample):
    res = check_gauss_suite(qs, seed=seed, sample=sample)
    assert res.ok
    assert res.rows == _gauss_suite_by_products(qs, seed=seed, sample=sample)


def _swap_dlog(field):
    dlog = field.DLOG.copy()
    dlog[[3, 5]] = dlog[[5, 3]]
    return dlog


def _bump_trace(field):
    tr = field.trace_abs_table().copy()
    tr[4] = (tr[4] + 1) % field.p
    return tr


@pytest.mark.parametrize("attr,corrupt", [("DLOG", _swap_dlog), ("_trabs", _bump_trace)])
def test_gauss_suite_fails_like_the_reference_on_corrupt_tables(monkeypatch, attr, corrupt):
    field = build_field(13)
    monkeypatch.setattr(field, attr, corrupt(field))
    res = check_gauss_suite((13,), sample=10 ** 9)
    assert not res.ok
    assert res.rows == _gauss_suite_by_products((13,), sample=10 ** 9)


def test_gauss_suite_peak_memory(f29):
    check_gauss_suite((7,), sample=10 ** 9)  # module caches are not the suite's temporaries
    tracemalloc.start()
    try:
        assert check_gauss_suite((29,), sample=10 ** 9).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_katz_ratio_memo_keeps_a_changed_value(monkeypatch):
    # one T_v moved at a t whose image class holds earlier t: a memo keyed
    # on t^N alone would reuse their ratio and report a false constant
    from dworkbench import harness

    n, N, q = 2, 7, 29
    assert katz_check(n, N, q).constant
    direct = harness.eigentrace_all_t

    def bumped(*args):
        table = direct(*args)
        seen = set()
        for t in table:
            if pow(t, N, q) in seen:
                last = t
            seen.add(pow(t, N, q))
        table[last].value = table[last].value + 1
        return table

    monkeypatch.setattr(harness, "eigentrace_all_t", bumped)
    rep = katz_check(n, N, q)
    assert rep.constant is False and rep.orientation is None


def test_ratio_table_forms_one_product_per_distinct_value(monkeypatch):
    # constancy is decided by the cross-products a c0 = a0 c: at most two
    # products per distinct (T_v, t^N) key in each orientation, and no inverse
    from dworkbench.cyclotomic import CycloElem
    from dworkbench.dwork import eigentrace_all_t
    from dworkbench.harness import _constant, _ratio_table
    from dworkbench.hypergeometric import HyperSpec, canonical_trace

    n, N, q = 4, 9, 73
    field, v = build_field(q), build_v(n, N)
    ev = eigentrace_all_t(field, N, v)
    can_table = canonical_trace(HyperSpec.from_label(field, v))
    keys, skipped = _ratio_table(ev, can_table, N, q)
    assert not skipped and len(keys) == len(ev) == 63
    distinct = set(keys.values())
    assert len(distinct) == len({(tr.value, pow(t, N, q)) for t, tr in ev.items()}) == 7
    products, inverted = [], []
    mul, invert = CycloElem.__mul__, CycloElem.invert

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    def counted_invert(self):
        inverted.append(self)
        return invert(self)

    monkeypatch.setattr(CycloElem, "__mul__", counted)
    monkeypatch.setattr(CycloElem, "invert", counted_invert)
    direct = {tn: can_table.value_at(tn) for _, tn in distinct}
    for can, constant in ((direct, True), ({tn: c.conjugate() for tn, c in direct.items()}, False)):
        products.clear()
        assert _constant(keys.values(), can) is constant
        assert 0 < len(products) <= 2 * len(distinct)
    assert inverted == []


def test_katz_inverts_each_canonical_value_once(monkeypatch):
    # a constant check inverts one canonical value, lambda's, besides
    # canonical_trace's own inverse of its lambda; the control inverts none
    from dworkbench import harness
    from dworkbench.cyclotomic import CycloElem

    n, N, q = 2, 7, 29
    tables = []
    canonical = harness.canonical_trace

    def kept(*args, **kwargs):
        tables.append(canonical(*args, **kwargs))
        return tables[-1]

    inverted = []
    invert = CycloElem.invert

    def counted(self):
        inverted.append(self)
        return invert(self)

    monkeypatch.setattr(harness, "canonical_trace", kept)
    monkeypatch.setattr(CycloElem, "invert", counted)
    rep = katz_check(n, N, q)
    assert rep.constant and rep.control_constant is False and rep.orientation == "direct"
    (can_table,) = tables
    assert set(can_table._values) == {pow(row["t"], N, q) for row in rep.rows}  # only the image points are made
    first = next(row["t"] for row in rep.rows if "ratio" in row)
    assert len(inverted) == 2
    assert inverted[1] is can_table.value_at(pow(first, N, q))
    assert {json.dumps(row["ratio"]) for row in rep.rows if "ratio" in row} == {json.dumps(rep.lam.to_json())}


@pytest.mark.parametrize("n,N,q", [(2, 7, 29), (4, 9, 73)])
def test_katz_rows_serialize_each_distinct_value_once(n, N, q):
    # the rows and lambda come from one memo: the bytes equal a fresh
    # to_json() per cell, and equal values share one dict
    from dworkbench.dwork import eigentrace_all_t
    from dworkbench.hypergeometric import HyperSpec, canonical_trace

    rep = katz_check(n, N, q)
    res = rep.to_result()
    field, v = build_field(q), build_v(n, N)
    ev = eigentrace_all_t(field, N, v)
    can = canonical_trace(HyperSpec.from_label(field, v))
    want = []
    for t in sorted(ev):
        row = {"t": t, "T_v": ev[t].value.to_json(), "T_can_at_tN": can.value_at(pow(t, N, q)).to_json()}
        if str(t) in rep.params["skipped"]:
            row["skip"] = rep.params["skipped"][str(t)]
        else:
            row["ratio"] = rep.lam.to_json()
        want.append(row)
    assert json.dumps(res.rows, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert res.params["lambda"] == rep.lam.to_json()

    cells = {}
    for row in res.rows:
        for key in ("T_v", "T_can_at_tN", "ratio"):
            if key in row:
                cells.setdefault(json.dumps(row[key], sort_keys=True), set()).add(id(row[key]))
    assert all(len(ids) == 1 for ids in cells.values())
    assert {id(row["ratio"]) for row in res.rows} == {id(res.params["lambda"])}


def test_gauss_suite_rows_do_not_depend_on_the_block(monkeypatch):
    # each step takes a slice of the characters or pairs and of their
    # precomputed Jacobi exponents; the last step may be short
    from dworkbench import harness

    want = check_gauss_suite(qs=(7, 13), sample=10 ** 9)
    assert want.ok
    for block in (1, 5, 1000):
        monkeypatch.setattr(harness, "_SUITE_BLOCK", block)
        assert check_gauss_suite(qs=(7, 13), sample=10 ** 9).canonical_bytes() == want.canonical_bytes()
