"""End-to-end gate: every numbered check below prints one PASS/FAIL line.

Budgets are wall-clock seconds on a single worker.  The final stretch run
is reported but does not gate the suite.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from dworkbench.harness import (
    check_canonical_paths,
    check_det_oracle,
    check_gauss_suite,
    check_hyper_cross,
    check_signs,
    check_weil_duality,
    katz_check,
    validate_n3,
)
from dworkbench.hypergeometric import verify_det_hcan
from dworkbench.weights import build_v, is_self_dual, rank_of


def _line(tag: str, ok: bool, secs: float, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    pad = "." * max(1, 44 - len(tag))
    extra = f"  {detail}" if detail else ""
    print(f"[{tag}] {pad} {mark} ({secs:.1f}s){extra}")


def _timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def hyper_cross_t1():
    return _timed(check_hyper_cross, n=2, N=7, q=29)


@pytest.fixture(scope="module")
def n3_t1():
    r7, s7 = _timed(validate_n3, 7)
    r13, s13 = _timed(validate_n3, 13)
    return (r7, r13), s7 + s13


@pytest.fixture(scope="module")
def katz_t1():
    r29, s29 = _timed(katz_check, 2, 7, 29)
    r43, s43 = _timed(katz_check, 2, 7, 43)
    return (r29, r43), (s29, s43)


def test_01_weight_labels():
    t0 = time.monotonic()
    v49 = build_v(4, 9)
    ok = v49.entries == (0, 0, 0, 0, 0, 2, 3, 5, 8)
    for n, N in ((2, 7), (4, 9), (6, 11)):
        v = build_v(n, N)
        ok = ok and rank_of(v) == n
        ok = ok and is_self_dual(v) == (n == 2)
    secs = time.monotonic() - t0
    _line("01 weight labels", ok and secs < 1.0, secs)
    assert ok
    assert secs < 1.0


def test_02_gauss_jacobi_suite():
    res, secs = _timed(check_gauss_suite, qs=(7, 13, 29), sample=10 ** 9)
    ok = res.ok and secs < 5.0
    _line("02 gauss and jacobi identities", ok, secs, f"rows={len(res.rows)}")
    assert res.ok
    assert secs < 5.0


def test_03_trace_cross_validation(hyper_cross_t1):
    res, secs = hyper_cross_t1
    exact = all(r["conv_eq_naive"] for r in res.rows)
    approx = all(r["mellin_ok"] for r in res.rows)
    ok = res.ok and exact and approx and len(res.rows) == 27 and secs < 30.0
    _line("03 trace method cross-validation", ok, secs)
    assert exact and approx and res.ok
    assert len(res.rows) == 27
    assert secs < 30.0


def test_04_canonical_two_paths():
    res, secs = _timed(check_canonical_paths, n=2, N=7, qs=(29, 43))
    signs = {r["global_sign"] for r in res.rows}
    ok = res.ok and len(signs) == 1 and secs < 60.0
    _line("04 canonical two-path equality", ok, secs, f"sign={signs}")
    assert res.ok and len(signs) == 1
    assert secs < 60.0


def test_05_determinant_oracle():
    res, secs = _timed(check_det_oracle, q=29, k=2, count=6, seed=0)
    cases = {r["kummer_case"] for r in res.rows}
    ok = res.ok and len(res.rows) >= 5 and cases == {"absent", "present"} and secs < 120.0
    _line("05 determinant vs newton oracle", ok, secs, f"specs={len(res.rows)}")
    assert res.ok and len(res.rows) >= 5
    assert cases == {"absent", "present"}
    assert secs < 120.0


def test_06_normalized_det_exponent():
    t0 = time.monotonic()
    rows = [verify_det_hcan(2, 7, 29), verify_det_hcan(2, 7, 43), verify_det_hcan(4, 9, 19)]
    unique = all(r["match_half"] != r["match_full"] for r in rows)
    winners = {r["exponent"] for r in rows}
    stable = len(winners) == 1 and winners < {"half", "full"}
    indep = all(r["point_independent"] for r in rows)
    secs = time.monotonic() - t0
    ok = unique and stable and indep and secs < 120.0
    _line("06 normalized determinant exponent", ok, secs, f"exponent={winners}")
    assert unique and stable and indep
    assert secs < 120.0


def test_07_layered_oracle_n3(n3_t1):
    (r7, r13), secs = n3_t1
    ok = r7.ok and r13.ok and secs < 60.0
    _line("07 cubic-family layered oracle", ok, secs)
    assert r7.ok and r13.ok
    assert secs < 60.0


def test_08_eigentrace_vs_canonical(katz_t1):
    (r29, r43), (s29, s43) = katz_t1
    ok = True
    for rep, q, budget, secs in ((r29, 29, 180.0, s29), (r43, 43, 900.0, s43)):
        res = rep.to_result()
        ok = ok and res.ok and rep.constant and rep.weight_ok
        ok = ok and rep.orientation in ("direct", "conjugate")
        ok = ok and rep.control_constant is False  # perturbed label must break it
        ok = ok and secs < budget
    _line("08 eigentrace to canonical comparison", ok, s29 + s43,
          f"lambda29={r29.lam} lambda43={r43.lam}")
    for rep in (r29, r43):
        assert rep.constant and rep.weight_ok and rep.to_result().ok
        assert rep.control_constant is False
    assert s29 < 180.0 and s43 < 900.0


def test_09_weil_translate_duality():
    res, secs = _timed(check_weil_duality, n=2, N=7, qs=(29, 43))
    ok = res.ok
    _line("09 weil bound, translate, duality", ok, secs)
    assert res.ok


def test_10_sign_product_laws():
    res, secs = _timed(check_signs, ls=(5, 13), count=100, seed=0)
    ok = res.ok and secs < 10.0
    _line("10 pairing sign laws", ok, secs)
    assert res.ok
    assert secs < 10.0


def test_11_report_determinism(hyper_cross_t1, n3_t1, katz_t1):
    # the same reports from two spawned workers: cold caches, own hash seeds
    t0 = time.monotonic()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [
            pool.submit(check_hyper_cross, n=2, N=7, q=29),
            pool.submit(validate_n3, 7),
            pool.submit(validate_n3, 13),
            pool.submit(katz_check, 2, 7, 29),
        ]
        spawned = [f.result() for f in futures]
    ok = True
    for one, many in zip([hyper_cross_t1[0], *n3_t1[0], katz_t1[0][0]], spawned):
        a = one.canonical_bytes() if hasattr(one, "canonical_bytes") else one.to_result().canonical_bytes()
        b = many.canonical_bytes() if hasattr(many, "canonical_bytes") else many.to_result().canonical_bytes()
        ok = ok and a == b and len(a) > 2
    secs = time.monotonic() - t0
    _line("11 report byte determinism", ok, secs)
    assert ok


def test_12_stretch_larger_label():
    # q = 37 gives three image points, so constancy and the control are real
    rep, secs = _timed(katz_check, 4, 9, 37)
    try:
        assert rep.constant and rep.weight_ok
        assert rep.control_constant is False
        assert rep.lam is not None
        assert abs(rep.lam.abs2() - float(37 ** 4)) <= 1e-6 * 37 ** 4
        assert secs < 900.0
    except AssertionError as e:
        _line("12 stretch: rank-4 label", False, secs, "(non-gating)")
        pytest.xfail(f"stretch target missed: {e}")
    _line("12 stretch: rank-4 label", True, secs, f"lambda={rep.lam}")
