import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.cyclotomic import CycloElem, common
from dworkbench.errors import BadN, BadT, Infeasible, SizeMismatch
from dworkbench.finitefield import build_field
from dworkbench.hypergeometric import (
    HyperSpec,
    _fold_point,
    canonical_paths_compare,
    canonical_trace,
    det_trad,
    det_via_newton,
    lambda_can,
    mellin_fast,
    trad_trace_conv,
    trad_trace_naive,
    verify_det_hcan,
)
from dworkbench.weights import build_v


@pytest.fixture(scope="module")
def spec29(f29):
    return HyperSpec.from_label(f29, build_v(2, 7))


def test_from_label_canonical(spec29):
    assert spec29.s_chi == (1, 6)
    assert spec29.s_rho == (0, 0)
    assert spec29.k == 2


def test_spec_validation(f29):
    with pytest.raises(BadN):
        HyperSpec(f29, 5, (1,), (0,))
    with pytest.raises(SizeMismatch):
        HyperSpec(f29, 7, (1, 2), (0,))


def test_conv_equals_naive_spot(spec29):
    table = trad_trace_conv(spec29)
    for t in (2, 5, 17, 28):
        assert table.value_at(t) == trad_trace_naive(spec29, t)


def test_conv_equals_naive_extension(f7):
    spec = HyperSpec(f7, 3, (1, 2), (0, 0))
    table = trad_trace_conv(spec, E_degree=2)
    for t in (2, 3, 5):
        assert table.value_at(t) == trad_trace_naive(spec, t, E_degree=2)


@pytest.mark.slow
def test_conv_equals_naive_extension_large(spec29):
    table = trad_trace_conv(spec29, E_degree=2)
    assert table.value_at(3) == trad_trace_naive(spec29, 3, E_degree=2)


def test_mellin_close_to_exact(spec29):
    conv = trad_trace_conv(spec29)
    mell = mellin_fast(spec29)
    for t, val in conv.items():
        approx = complex(mell.value_at(t))
        exact = val.embed()
        assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_trace_table_boundary(spec29):
    table = trad_trace_conv(spec29)
    with pytest.raises(BadT):
        table.value_at(0)
    with pytest.raises(BadT):
        table.value_at(1)
    assert len(table) == 27
    ts = [t for t, _ in table.items()]
    assert ts == sorted(ts) and 0 not in ts and 1 not in ts


def test_canonical_two_paths_agree(spec29):
    agree, sign = canonical_paths_compare(spec29)
    assert agree and sign in (1, -1)


def test_canonical_trace_paths_pointwise(spec29):
    a = canonical_trace(spec29, path="conv-of-canonical")
    b = canonical_trace(spec29, path="trad-over-phi")
    _, sign = canonical_paths_compare(spec29)
    for t, val in a.items():
        x, y = common(val, b.value_at(t) * sign)
        assert x == y


def _random_disjoint(field, rng, k=2, equal_sums=None):
    N = field.q - 1
    while True:
        chis = tuple(sorted(rng.sample(range(N), k)))
        rhos = tuple(sorted(rng.sample(range(N), k)))
        if set(chis) & set(rhos):
            continue
        if equal_sums is not None and (sum(chis) % N == sum(rhos) % N) != equal_sums:
            continue
        return HyperSpec(field, N, chis, rhos)


def test_det_newton_matches_direct(f29):
    rng = random.Random(7)
    for equal in (True, False):
        spec = _random_disjoint(f29, rng, equal_sums=equal)
        for t in (2, 9):
            a = det_trad(spec, t)
            b = det_via_newton(spec, t)
            x, y = common(a, b)
            assert x == y, (spec, t)


def test_det_newton_infeasible_for_rank_three(f29):
    rng = random.Random(1)
    spec = _random_disjoint(f29, rng, k=3)
    with pytest.raises(Infeasible):
        det_via_newton(spec, 2)


def test_det_hcan_adjudication(f29):
    r = verify_det_hcan(2, 7, 29)
    assert r["exponent"] == "half"
    assert r["match_half"] and not r["match_full"]
    assert r["point_independent"]


def test_lambda_can_unit_weight(f29):
    # the rank-1 normalizing constants are Weil numbers of weight zero
    for a in (1, 6):
        for n in (2, 4):
            lam = lambda_can(f29, 7, a, n)
            assert abs(lam.abs2() - 1.0) < 1e-9


def test_purity_of_canonical_trace(spec29):
    # squared modulus bounded by the rank-squared times q^(n-1)
    q, n = 29, 2
    bound = n * n * q ** (n - 1)
    for _, val in canonical_trace(spec29).items():
        assert val.abs2() <= bound + 1e-6


def test_det_newton_rank_three(f7):
    for chis, rhos, t in (((1, 1, 2), (0, 0, 3), 3), ((1, 2, 4), (0, 3, 5), 5)):
        spec = HyperSpec(f7, 6, chis, rhos)
        x, y = common(det_trad(spec, t), det_via_newton(spec, t))
        assert x == y, (spec, t)


def _fold_reference(A, B, dt, R, L):
    out = [0] * L
    for d in range(R):
        for e1 in range(L):
            for e2 in range(L):
                out[(e1 + e2) % L] -= int(A[d][e1]) * int(B[(dt - d) % R][e2])
    return out


@st.composite
def _fold_case(draw, bound):
    R = draw(st.integers(min_value=1, max_value=6))
    L = draw(st.integers(min_value=1, max_value=6))
    cell = st.integers(min_value=-bound, max_value=bound)
    A = draw(st.lists(st.lists(cell, min_size=L, max_size=L), min_size=R, max_size=R))
    B = draw(st.lists(st.lists(cell, min_size=L, max_size=L), min_size=R, max_size=R))
    return A, B, draw(st.integers(min_value=0, max_value=R - 1)), R, L


@settings(max_examples=80, deadline=None)
@given(_fold_case(3))
def test_fold_point_matches_triple_loop_int64(case):
    A, B, dt, R, L = case
    got = _fold_point(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), dt, R, L)
    assert got == _fold_reference(A, B, dt, R, L)


@settings(max_examples=80, deadline=None)
@given(_fold_case(1 << 70))
def test_fold_point_matches_triple_loop_object(case):
    A, B, dt, R, L = case
    got = _fold_point(np.array(A, dtype=object), np.array(B, dtype=object), dt, R, L)
    assert got == _fold_reference(A, B, dt, R, L)


def test_fold_point_exact_above_float_bound():
    # odd products near 2^60 lose their low bits in float64
    R, L = 3, 4
    rng = random.Random(5)
    A = [[rng.randrange(1 << 29, 1 << 30) | 1 for _ in range(L)] for _ in range(R)]
    B = [[-(rng.randrange(1 << 29, 1 << 30) | 1) for _ in range(L)] for _ in range(R)]
    want = _fold_reference(A, B, 1, R, L)
    As, Bs = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
    Bt = Bs[(1 - np.arange(R)) % R]
    exact = As.astype(object).T @ Bt.astype(object)  # sums of three odd products: odd
    approx = (As.astype(np.float64).T @ Bt.astype(np.float64)).astype(np.int64)
    assert (approx != exact).all()
    assert _fold_point(As, Bs, 1, R, L) == want
