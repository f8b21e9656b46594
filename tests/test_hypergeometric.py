import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworkbench.characters import gauss_sum, phi_inverse, teich_char
from dworkbench.cyclotomic import CycloElem, cconv, common, to_cyclo, vanishes
from dworkbench import characters, cyclotomic, dwork, finitefield, hypergeometric
from dworkbench.errors import BadN, BadParams, BadT, Infeasible, SizeMismatch
from dworkbench.finitefield import build_field, is_prime
from dworkbench.hypergeometric import (
    HyperSpec,
    _KERNEL_BUDGET,
    _det_budget,
    _kernel_cost,
    _rank1_trad,
    _shift_hist,
    _trace_rows,
    _trad_rows,
    canonical_paths_compare,
    canonical_trace,
    det_agrees,
    det_trad,
    det_via_newton,
    lambda_can,
    mellin_agrees,
    mellin_rows,
    trad_trace_conv,
    trad_trace_naive,
    verify_det_hcan,
)
from dworkbench.harness import CampaignConfig, _random_disjoint_spec
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


def test_spec_refuses_overlapping_multisets(f29):
    # Katz's data are disjoint: a residue in both multisets is refused,
    # whether it pairs with itself, crosses pairs or only agrees mod N
    for chis, rhos in (((1, 2), (1, 0)), ((1, 2), (2, 1)), ((8,), (1,))):
        with pytest.raises(BadParams, match="disjoint"):
            HyperSpec(f29, 7, chis, rhos)


@st.composite
def _campaign_label(draw):
    """An (n, N) that CampaignConfig accepts and a prime q = 1 mod N."""
    n = 2 * draw(st.integers(1, 6))
    N = n + 5 + 2 * draw(st.integers(0, 8))
    q = draw(st.sampled_from([q for q in range(2 * N + 1, 60 * N, 2 * N) if is_prime(q)]))
    return n, N, q


@settings(max_examples=40, deadline=None)
@given(_campaign_label())
def test_labels_give_disjoint_data(case):
    # the label's cancelled data pass HyperSpec's disjointness check
    n, N, q = case
    assert CampaignConfig(n=n, N=N, qs=(q,))._invalid() is None
    spec = HyperSpec.from_label(build_field(q), build_v(n, N))
    assert not set(spec.s_chi) & set(spec.s_rho)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 13, 29]), st.sampled_from([2, 3]), st.integers(0, 1 << 32), st.booleans())
def test_det_oracle_draws_are_accepted(q, k, seed, equal):
    spec = _random_disjoint_spec(build_field(q), random.Random(seed), k, force_equal_sums=equal)
    assert spec.k == k and not set(spec.s_chi) & set(spec.s_rho)


def test_conv_equals_naive_spot(spec29):
    table = trad_trace_conv(spec29)
    ts = (2, 5, 17, 28)
    assert [table.value_at(t) for t in ts] == trad_trace_naive(spec29, ts)


def test_conv_equals_naive_extension(f7):
    spec = HyperSpec(f7, 3, (1, 2), (0, 0))
    table = trad_trace_conv(spec, E_degree=2)
    ts = (2, 3, 5)
    assert [table.value_at(t) for t in ts] == trad_trace_naive(spec, ts, E_degree=2)


@pytest.mark.slow
def test_conv_equals_naive_extension_large(spec29):
    table = trad_trace_conv(spec29, E_degree=2)
    assert [table.value_at(3)] == trad_trace_naive(spec29, [3], E_degree=2)


@st.composite
def _disjoint_spec(draw):
    p, m = draw(st.sampled_from([(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)]))
    field = build_field(p, m)
    R = field.q - 1
    N = draw(st.sampled_from([n for n in range(2, R + 1) if R % n == 0]))
    k = draw(st.integers(min_value=1, max_value=3))
    # chi and rho residues from the two sides of a random split of Z/N
    order = draw(st.permutations(range(N)))
    cut = draw(st.integers(1, N - 1))
    chis = draw(st.lists(st.sampled_from(order[:cut]), min_size=k, max_size=k))
    rhos = draw(st.lists(st.sampled_from(order[cut:]), min_size=k, max_size=k))
    return HyperSpec(field, N, chis, rhos)


@settings(max_examples=60, deadline=None)
@given(_disjoint_spec())
@example(spec=HyperSpec(build_field(29), 7, (1, 6), (0, 0)))
def test_mellin_matches_conv_rows(spec):
    _, C = _trad_rows(spec, 1)
    assert mellin_agrees(spec, C).all()


def test_mellin_agrees_decides_int64_counts_when_proved_in_range(monkeypatch):
    # at q = 29 every entry of the difference is far below 2^63, so the
    # lift of C takes int64 and vanishes receives int64 counts
    from dworkbench import hypergeometric

    dtypes = []
    decide = hypergeometric.vanishes

    def spy(counts, M):
        dtypes.append(counts.dtype)
        return decide(counts, M)

    spec = HyperSpec(build_field(29), 7, (1, 6), (0, 0))
    _, C = _trad_rows(spec, 1)
    monkeypatch.setattr(hypergeometric, "vanishes", spy)
    assert mellin_agrees(spec, C).all()
    assert dtypes == [np.int64]


def test_mellin_budget_refuses_before_allocating(refused_peak):
    # q = 1009, k = 2: about 10^15 multiply-adds of convolution over Z/p(q-1)
    spec = HyperSpec(build_field(1009), 7, (1, 2), (0, 3))
    assert refused_peak(lambda: mellin_rows(spec), Infeasible, "mellin cost") < 1 << 20


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
    # conv-of-canonical against trad-over-phi, the traditional table times
    # the inverse of the Gauss-sum normalization
    a = canonical_trace(spec29)
    trad = trad_trace_conv(spec29)
    pin = phi_inverse(spec29.field, spec29.N, spec29.s_chi, spec29.s_rho)
    _, sign = canonical_paths_compare(spec29)
    for t, val in a.items():
        x, y = common(val, trad.value_at(t) * pin * sign)
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


def _point_trace_conv(spec, t_code, m):
    """The trace at one point over the degree-m extension, convolution route."""
    E, C = _trad_rows(spec, m, t_code)
    return to_cyclo(C[0], E.p * spec.N)


def kummer_trace(field, N, chi_res, t, flavor="x"):
    """Frobenius trace of a rank-1 power-residue twist, extended by zero: the
    literal Kummer factors of _det_trad_by_products.

    flavor "x": value chi(t), zero at t = 0.  flavor "one_minus_x": value
    chi(1-t), zero at t = 1.
    """
    chi = teich_char(field, N) ** (chi_res % N)
    x = int(t) % field.q
    if flavor == "x":
        arg = x
    elif flavor == "one_minus_x":
        arg = field.add_code(1, field.neg_code(x))
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    if arg == 0:
        return CycloElem.zero(N)
    return chi(arg).coerce(N)


def test_kummer_trace_values(f29):
    chi = teich_char(f29, 7)
    assert kummer_trace(f29, 7, 1, 0).is_zero()
    assert kummer_trace(f29, 7, 1, 5) == chi(5).coerce(7)
    assert kummer_trace(f29, 7, 2, 1, flavor="one_minus_x").is_zero()
    got = kummer_trace(f29, 7, 2, 3, flavor="one_minus_x")
    assert got == (chi ** 2)(f29.neg_code(2)).coerce(7)
    with pytest.raises(ValueError):
        kummer_trace(f29, 7, 1, 2, flavor="y")


def _det_trad_by_products(spec, t):
    """det_trad as a product of CycloElem factors in Q(zeta_pN): the literal
    reference for det_trad, which forms the same product on count vectors."""
    f, N, k = spec.field, spec.N, spec.k
    M = f.p * N
    tch = teich_char(f, N)
    psibar = spec.psi().bar()
    neg1 = f.neg_code(1) if (k - 1) % 2 == 1 else 1
    acc = CycloElem.rational(M, Fraction(f.q) ** (k * (k - 1) // 2))
    for a in spec.s_chi:
        acc = acc * (tch ** a)(neg1).coerce(M)
    for a in spec.s_chi:
        for b in spec.s_rho:
            acc = acc * (-gauss_sum(psibar, tch ** ((a - b) % N))).coerce(M)
    acc = acc ** f.m
    sa = sum(spec.s_chi) % N
    sb = sum(spec.s_rho) % N
    acc = acc * kummer_trace(f, N, sa, t, "x").coerce(M)
    if sa != sb:
        acc = acc * kummer_trace(f, N, (sb - sa) % N, t, "one_minus_x").coerce(M)
    return acc


@pytest.mark.parametrize("q", [7, 13, 29])
def test_det_trad_matches_the_product_reference(q):
    field = build_field(q)
    rng = random.Random(q)
    for i in range(8):
        spec = _random_disjoint(field, rng, k=3 if q == 13 and i % 2 else 2, equal_sums=i < 4)
        t = rng.randrange(2, q)
        assert det_trad(spec, t) == _det_trad_by_products(spec, t), (spec, t)


def test_det_trad_matches_the_product_reference_over_extensions_and_rank_four(f7, f19):
    # F_{3^2} and F_{5^2}: the f-th power of the constant is a repeated convolution
    for p in (3, 5):
        field = build_field(p, 2)
        rng = random.Random(p)
        for equal in (True, False):
            spec = _random_disjoint(field, rng, equal_sums=equal)
            t = rng.randrange(2, field.q)
            assert det_trad(spec, t) == _det_trad_by_products(spec, t), (spec, t)
    # the k = 3 specs of test_det_newton_rank_three, and det-hcan's k = 4 spec,
    # whose (q-1)^16 terms take the Python-integer path
    for chis, rhos, t in (((1, 1, 2), (0, 0, 3), 3), ((1, 2, 4), (0, 3, 5), 5)):
        spec = HyperSpec(f7, 6, chis, rhos)
        assert det_trad(spec, t) == _det_trad_by_products(spec, t)
    spec = HyperSpec.from_label(f19, build_v(4, 9))
    assert det_trad(spec, 2) == _det_trad_by_products(spec, 2)


def test_extensions_of_a_non_prime_field_are_refused(monkeypatch):
    # over F_{3^2}, traces over an extension and Newton's determinant are
    # refused before the extension is built; det_trad takes no extension
    field = build_field(3, 2)
    spec = _random_disjoint(field, random.Random(3))
    t = 5

    def fail(*args):
        raise AssertionError("extension field built")

    monkeypatch.setattr(hypergeometric, "build_field", fail)
    for call in (
        lambda: trad_trace_conv(spec, E_degree=2),
        lambda: trad_trace_naive(spec, [t], E_degree=2),
        lambda: det_agrees(spec, t),
    ):
        with pytest.raises(BadParams, match="F_9 = F_3\\^2"):
            call()
    assert det_trad(spec, t) == _det_trad_by_products(spec, t)


def test_det_via_newton_is_newton_of_point_traces(f7, f29):
    rng = random.Random(3)
    for equal in (True, False):
        spec = _random_disjoint(f29, rng, equal_sums=equal)
        t = rng.randrange(2, 29)
        p1, p2 = (_point_trace_conv(spec, t, m) for m in (1, 2))
        assert det_via_newton(spec, t) == (p1 * p1 - p2) / 2
    spec = HyperSpec(f7, 6, (1, 2, 4), (0, 3, 5))
    p1, p2, p3 = (_point_trace_conv(spec, 5, m) for m in (1, 2, 3))
    assert det_via_newton(spec, 5) == (p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3) / 6


def test_det_budget_refuses_before_allocating(refused_peak):
    # q = 1009, N = 1008: one dense convolution over Z/1017072 alone is 10^12
    spec = HyperSpec(build_field(1009), 1008, (1, 2), (3, 5))
    assert refused_peak(lambda: det_trad(spec, 2), Infeasible, "L = 1017072") < 1 << 20
    # over Z/17030 one convolution (k = 2) fits, the four that pair nine sums (k = 3) do not
    f131 = build_field(131)
    assert _det_budget(HyperSpec(f131, 130, (1, 2), (3, 5))) == 17030
    spec = HyperSpec(f131, 130, (1, 2, 4), (3, 5, 6))
    assert refused_peak(lambda: det_trad(spec, 2), Infeasible, "L = 17030") < 1 << 20


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


def _rank1_trad_counts(E, N, a, b):
    """Literal R x L table of the rank-1 traditional trace, row d = dlog u.

    Row d holds the exponent counts (over zeta_{pN}, flattened) of
    -chi(u) sum_y psi(y(u-1)) (chi rhobar)(y) at u = g^d, the u = 1 row
    included.
    """
    q, p = E.q, E.p
    R, L = q - 1, p * N
    counts = np.zeros((R, L), dtype=np.int64)
    diff = (a - b) % N
    TR = E.trace_abs_table()
    d = np.arange(R)
    UM1 = E.add_codes(E.EXP[d], np.full(R, E.neg_code(1), dtype=np.int64))
    Y = E.EXP[d]
    chunk = max(1, (4 << 20) // R)
    for lo in range(0, R, chunk):
        hi = min(R, lo + chunk)
        w = E.mul_codes(Y[None, :], UM1[lo:hi, None])
        cexp = (a * d[lo:hi, None] + diff * d[None, :]) % N
        e = (TR[w] * N + cexp * p) % L
        cells = (np.arange(hi - lo)[:, None] * L + e).ravel()
        counts[lo:hi] -= np.bincount(cells, minlength=(hi - lo) * L).reshape(hi - lo, L)
    return counts


@pytest.mark.parametrize(
    "p, m, N, pairs",
    [
        (29, 1, 7, ((1, 0), (3, 5), (6, 0))),
        (29, 2, 28, ((1, 0), (5, 17), (27, 2))),
        (13, 2, 12, ((1, 0), (4, 7), (11, 3))),
        (7, 3, 6, ((1, 0), (2, 5), (5, 1))),
        (13, 1, 4, ((2, 1), (3, 0))),
    ],
)
def test_rank1_row_identity(p, m, N, pairs):
    E = build_field(p, m)
    for a, b in pairs:
        ref = _rank1_trad_counts(E, N, a, b)
        base, s = _rank1_trad(E, N, a, b)
        # chi != rho: the literal u = 1 row sums to zero in Q(zeta_pN)
        assert vanishes(ref[:1], p * N).all()
        for d in range(1, E.q - 1):
            assert (ref[d] == -np.roll(base, p * int(s[d]))).all(), (a, b, d)


def _conv_reference(x, y, L=None):
    L = len(x) if L is None else L
    out = [0] * L
    for i in range(len(x)):
        for j in range(len(y)):
            for e in range(L):
                if (i + j - e) % L == 0:
                    out[e] += int(x[i]) * int(y[j])
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda L: st.tuples(*[st.lists(st.integers(-(1 << 70), 1 << 70), min_size=L, max_size=L)] * 2)
), st.booleans())
def test_cconv_matches_triple_loop(xy, small):
    x, y = xy
    if small:  # the int64 path
        x, y = [v >> 60 for v in x], [v >> 60 for v in y]
    got = cconv(np.array(x, dtype=object), np.array(y, dtype=object))
    assert got.tolist() == _conv_reference(x, y)
    if small:
        assert cconv(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)).tolist() == _conv_reference(x, y)


@st.composite
def _tiered_operands(draw):
    # operands no longer than L whose linear product covers Z/L, with entries
    # of 2^20 to 2^40 in size: the bound min(max|x| sum|y|, sum|x| max|y|)
    # then falls on both sides of 2^53 and of 2^63
    L = draw(st.integers(min_value=1, max_value=7))
    lx = draw(st.integers(min_value=(L + 1) // 2, max_value=L))
    ly = draw(st.integers(min_value=max(1, L + 1 - lx), max_value=L))
    x, y = (
        draw(st.lists(st.integers(-(1 << b), 1 << b), min_size=n, max_size=n))
        for b, n in ((draw(st.integers(20, 40)), lx), (draw(st.integers(20, 40)), ly))
    )
    return x, y, L


@settings(max_examples=150, deadline=None)
@given(_tiered_operands())
@example(([1, 1], [(1 << 53) - 2, 1], 2))  # bound 2^53 - 1: float64
@example(([1, 1], [(1 << 53) - 1, 2], 2))  # bound 2^53 + 1: int64, where float64 would round
@example(([1 << 31, -(1 << 31)], [(1 << 32) - 1, 1 << 32], 2))  # bound 2^64 - 2^31: Python integers
def test_cconv_matches_the_literal_loop_in_every_tier(xyL):
    x, y, L = xyL
    want = _conv_reference(x, y, L)
    assert cconv(np.array(x, dtype=object), np.array(y, dtype=object), L).tolist() == want
    assert cconv(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), L).tolist() == want


@pytest.mark.parametrize(
    "top, dtype",
    [((1 << 53) - 1, np.float64), (1 << 53, np.int64), ((1 << 63) - 1, np.int64), (1 << 63, object)],
)
def test_cconv_computes_in_the_tier_of_its_bound(monkeypatch, top, dtype):
    # x = (1, 1) and y = (top, 0) bound every coefficient by min(1 top, 2 top)
    # = top, half of sum|x| sum|y|, whether the operands come as Python or
    # as int64 integers; the result leaves in int64 or Python integers,
    # never in float64
    seen = []
    convolve = np.convolve

    def spy(a, b):
        seen.append((a.dtype, b.dtype))
        return convolve(a, b)

    monkeypatch.setattr(cyclotomic.np, "convolve", spy)
    for operand in (object, np.int64) if top < 1 << 63 else (object,):
        got = cconv(np.array([1, 1], dtype=operand), np.array([top, 0], dtype=operand))
        assert seen.pop() == (np.dtype(dtype), np.dtype(dtype))
        assert got.dtype == np.dtype(np.int64 if top < 1 << 63 else object)
        assert got.tolist() == [top, top]


def test_cconv_refuses_operands_longer_than_L():
    with pytest.raises(ValueError, match="longer than L = 3"):
        cconv(np.ones(4, dtype=np.int64), np.ones(3, dtype=np.int64), 3)
    with pytest.raises(ValueError, match="longer than L = 3"):
        cconv(np.ones(3, dtype=np.int64), np.ones(4, dtype=np.int64))


def test_cconv_pinned_pair_rounds_in_float64(monkeypatch):
    # every operand and product is below 2^53, but the coefficient
    # 2 + (2^53 - 1) = 2^53 + 1 is not a double: the bound 2^53 + 1 keeps
    # this pair in int64, and a float64 tier raised past it rounds
    x, y = np.array([1, 1], dtype=np.int64), np.array([(1 << 53) - 1, 2], dtype=np.int64)
    want = [(1 << 53) + 1] * 2
    assert cconv(x, y).tolist() == want
    monkeypatch.setattr(cyclotomic, "_FLOAT_EXACT", 1 << 54)
    assert cconv(x, y).tolist() != want


def test_cconv_blocks_no_dot_past_the_blas_threading_length(monkeypatch):
    # np.convolve sees blocks of x of at most _DOT_TERMS entries, so no dot
    # product it hands BLAS is longer; the blocks add up to the same sums
    monkeypatch.setattr(cyclotomic, "_DOT_TERMS", 3)
    seen = []
    convolve = np.convolve

    def spy(a, b):
        seen.append(min(len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(cyclotomic.np, "convolve", spy)
    rng = random.Random(5)
    for L, top in [(8, 1 << 10), (10, 1 << 28), (7, 1 << 62)]:  # float64, int64, Python integers
        x = [rng.randrange(-top, top) for _ in range(L)]
        y = [rng.randrange(-top, top) for _ in range(L - 1)]
        got = cconv(np.array(x, dtype=object), np.array(y, dtype=object), L)
        assert got.tolist() == _conv_reference(x, y, L)
    assert seen and max(seen) <= 3


def test_cconv_exact_past_int64():
    # the int64 path would wrap here; the Python-integer path must not
    x = np.array([(1 << 40) + 1, 3, -(1 << 40)], dtype=np.int64)
    y = np.array([(1 << 30) - 1, -(1 << 30), 7], dtype=np.int64)
    assert (1 << 40) * (1 << 30) * 4 > 1 << 63
    assert cconv(x, y).tolist() == _conv_reference(x.tolist(), y.tolist())


def _hist_reference(shifts, R, N):
    out = [[0] * N for _ in range(R)]
    for ds in itertools.product(range(1, R), repeat=len(shifts)):
        j = sum(int(s[d]) for s, d in zip(shifts, ds))
        out[sum(ds) % R][j % N] += 1
    return out


@st.composite
def _hist_case(draw):
    R = draw(st.integers(min_value=1, max_value=7))
    N = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    shifts = [np.array(draw(st.lists(st.integers(0, N - 1), min_size=R, max_size=R)), dtype=np.int64) for _ in range(k)]
    row = draw(st.none() | st.integers(0, R - 1))
    return shifts, R, N, row


@settings(max_examples=120, deadline=None)
@given(_hist_case())
def test_shift_hist_matches_loop(case):
    shifts, R, N, row = case
    want = _hist_reference(shifts, R, N)
    assert _shift_hist(shifts, R, N, row).tolist() == (want if row is None else [want[row]])


@pytest.mark.parametrize("row", [None, 3])
def test_shift_hist_widens_fold_by_fold(monkeypatch, row):
    # with exact_dtype's limit at 20, each fold's shift_sums returns Python
    # integers exactly when its own bound, max|H| (R-1), reaches the limit:
    # the folds to 2 and 3 factors (bounds 4 and 8) stay int64 and only the
    # last (28) widens; the histogram is the loop's either way
    R, N = 5, 3
    shifts = [np.array([0, 1, 2, 0, 1]), np.array([0, 2, 2, 1, 0]), np.array([0, 0, 1, 2, 1]), np.array([0, 1, 1, 0, 2])]
    seen = []
    fold = hypergeometric.shift_sums

    def spy(T, *sets, row=None):
        out = fold(T, *sets, row=row)
        seen.append((int(T.max()) * (R - 1), out.dtype))
        return out

    monkeypatch.setattr(hypergeometric, "shift_sums", spy)
    monkeypatch.setattr(cyclotomic, "_INT64_LIMIT", 20)
    want = _hist_reference(shifts, R, N)
    assert _shift_hist(shifts, R, N, row).tolist() == (want if row is None else [want[row]])
    assert seen == [(4, np.int64), (8, np.int64), (28, object)]


def _dense(factor, R, N, L):
    base, s = factor
    T = [[0] * L for _ in range(R)]
    for d in range(1, R):
        for e in range(L):
            T[d][(e + (L // N) * int(s[d])) % L] += int(base[e])
    return T


@st.composite
def _tables_case(draw, bound):
    R = draw(st.integers(min_value=1, max_value=5))
    N = draw(st.integers(min_value=1, max_value=3))
    L = N * draw(st.integers(min_value=1, max_value=3))
    vec = st.lists(st.integers(-bound, bound), min_size=L, max_size=L).map(lambda v: np.array(v, dtype=object))
    shifts = st.lists(st.integers(0, N - 1), min_size=R, max_size=R).map(lambda v: np.array(v, dtype=np.int64))
    factors = [(draw(vec), draw(shifts)) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return factors, R, N, L


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 1 << 70]).flatmap(_tables_case))
def test_trace_rows_match_dense_convolution(case):
    factors, R, N, L = case
    acc = _dense(factors[0], R, N, L)
    for factor in factors[1:]:
        B = _dense(factor, R, N, L)
        out = [[0] * L for _ in range(R)]
        for d1, d2, e1, e2 in itertools.product(range(R), range(R), range(L), range(L)):
            out[(d1 + d2) % R][(e1 + e2) % L] -= acc[d1][e1] * B[d2][e2]
        acc = out
    assert _trace_rows(factors, R, N).tolist() == acc


@pytest.mark.parametrize("b, dtype", [((1 << 31) - 1, np.int64), (1 << 31, object)])
def test_trace_rows_take_int64_exactly_when_proved_in_range(b, dtype):
    # hist_conv picks its own width: int64 while max|P| times the largest
    # row sum of H is below 2^63.  Over
    # R = 3, N = 1, two one-hot factors give row sums (2, 1, 1), and the
    # convolved base P is 2^31 b
    s = np.zeros(3, dtype=np.int64)
    got = _trace_rows([(np.array([1 << 31]), s), (np.array([b]), s)], 3, 1)
    assert got.dtype == dtype
    assert got.tolist() == [[-(2 << 31) * b], [-(1 << 31) * b], [-(1 << 31) * b]]


def test_trace_rows_empty_histogram_keeps_python_integers():
    # an all-zero histogram still counts as 1 in the bound, so an entry of
    # 2^63 is never cast to int64
    got = _trace_rows([(np.array([1 << 63], dtype=object), np.zeros(1, dtype=np.int64))], 1, 1)
    assert got.dtype == object and got.tolist() == [[0]]


def _literal_points(spec, m, dts):
    """k = 2 point traces over F_{q^m} at t = g^dt from the literal R x L tables."""
    E, sh = spec.extension(m)
    N, R, L = spec.N, E.q - 1, E.p * spec.N
    A, B = (_rank1_trad_counts(E, N, a * sh % N, b * sh % N) for a, b in zip(spec.s_chi, spec.s_rho))
    e1 = np.arange(L)[:, None]
    out = []
    for dt in dts:
        M = A.T @ B[(dt - np.arange(R)) % R]  # M[e1, e2] = sum_d A[d, e1] B[dt - d, e2]
        out.append(to_cyclo((-M[e1, (np.arange(L)[None, :] - e1) % L].sum(axis=0)).tolist(), L))
    return out


def test_conv_past_old_row_bound():
    # 3480 rows, past the 3000 rows the R x L chain allowed, under the budget;
    # two rows against the literal tables folded at one point
    spec = HyperSpec(build_field(59), 2, (1, 1), (0, 0))
    E, _ = spec.extension(2)
    R, L = E.q - 1, 59 * 2
    assert R > 3000 and _kernel_cost(R, 2, L, R, 2) <= _KERNEL_BUDGET
    table = trad_trace_conv(spec, E_degree=2)
    dts = (1, 1234)
    assert [table.value_at(int(E.EXP[dt])) for dt in dts] == _literal_points(spec, 2, dts)


def test_conv_at_wide_rows():
    # L = 7 * 127 = 889 and, over F_{43^2}, 1848 rows of L = 301: sizes whose
    # cost is set by applying the histogram to the convolved base row
    spec = HyperSpec(build_field(127), 7, (1, 2), (0, 3))
    table = trad_trace_conv(spec)
    ts = (2, 3, 100)
    assert [table.value_at(t) for t in ts] == trad_trace_naive(spec, ts)
    spec = HyperSpec(build_field(43), 7, (1, 2), (0, 3))
    E, _ = spec.extension(2)
    table = trad_trace_conv(spec, E_degree=2)
    dts = (5, 1000)
    assert [table.value_at(int(E.EXP[dt])) for dt in dts] == _literal_points(spec, 2, dts)


def test_kernel_budget_refuses_before_allocating(refused_peak):
    # det_via_newton at q = 181, k = 2, N = 180: the F_{181^2} point trace,
    # one base convolution over L = 32580, is just past the budget
    spec = HyperSpec(build_field(181), 180, (1, 2), (3, 5))
    cost = _kernel_cost(181 ** 2 - 1, 180, 181 * 180, 1, 2)
    assert _KERNEL_BUDGET < cost < 1.1 * _KERNEL_BUDGET
    assert refused_peak(lambda: det_via_newton(spec, 2), Infeasible, "kernel cost") < 8 << 20


def test_naive_budget_refuses_before_building_the_extension(refused_peak):
    # 1009^(2 * 3) naive tuples over F_{1009^2}; building that field alone
    # took 87.5 s when the budget was checked after it
    spec = HyperSpec(build_field(1009), 7, (1, 2), (0, 3))
    assert refused_peak(lambda: trad_trace_naive(spec, [2], E_degree=2), Infeasible, "naive cost") < 1 << 20


def _naive_one(spec, t, E_degree=1):
    """The literal trace at one point: the whole enumeration for this t alone."""
    E, s = spec.extension(E_degree)
    k, N, p, R = spec.k, spec.N, E.p, E.q - 1
    L = p * N
    EXP, TR = E.EXP, E.trace_abs_table()
    dt = int(E.DLOG[int(t) % spec.field.q])
    aN = [(a * s) % N for a in spec.s_chi]
    bN = [(b * s) % N for b in spec.s_rho]
    nfree = 2 * k - 1
    total = R ** nfree
    counts = np.zeros(L, dtype=np.int64)
    for lo in range(0, total, 1 << 18):
        rem = np.arange(lo, min(total, lo + (1 << 18)), dtype=np.int64)
        digs = []
        for _ in range(nfree):
            digs.append(rem % R)
            rem = rem // R
        dx, dy = digs[:k], digs[k:]
        dy_all = dy + [(sum(dx) - dt - sum(dy)) % R]
        sx = EXP[dx[0]]
        for dd in dx[1:]:
            sx = E.add_codes(sx, EXP[dd])
        sy = EXP[dy_all[0]]
        for dd in dy_all[1:]:
            sy = E.add_codes(sy, EXP[dd])
        tr = TR[E.add_codes(sx, E.neg_codes(sy))]
        cexp = sum(a_i * dd for a_i, dd in zip(aN, dx)) - sum(b_j * dd for b_j, dd in zip(bN, dy_all))
        counts += np.bincount((tr * N + (cexp % N) * p) % L, minlength=L)
    return -to_cyclo(counts.tolist(), L)


def test_naive_all_points_match_one_point_at_a_time(spec29, f7):
    ts = range(2, 29)
    assert trad_trace_naive(spec29, ts) == [_naive_one(spec29, t) for t in ts]
    # k = 1 over F_{29^2}: no free y, and the extension's trace table
    spec = HyperSpec(spec29.field, 7, (2,), (5,))
    assert trad_trace_naive(spec, [3], E_degree=2) == [_naive_one(spec, 3, E_degree=2)]
    # k = 3 at q = 7: two free y per tuple, and a repeated point
    spec = HyperSpec(f7, 6, (1, 2, 4), (0, 3, 3))
    ts = [2, 3, 6, 2]
    assert trad_trace_naive(spec, ts) == [_naive_one(spec, t) for t in ts]


def test_naive_refuses_points_off_the_locus(spec29):
    for ts in ([0], [2, 1], [29]):
        with pytest.raises(BadT):
            trad_trace_naive(spec29, ts)
    assert trad_trace_naive(spec29, []) == []


@pytest.mark.parametrize("q", [29, 43])
def test_naive_all_points_peak_memory(q):
    # one chunk holds 2^14 (t, tuple) cells, or 2 L per t when that is more
    spec = HyperSpec.from_label(build_field(q), build_v(2, 7))
    tracemalloc.start()
    try:
        trad_trace_naive(spec, range(2, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_naive_extension_peak_memory():
    # over F_{13^2} the tables of the solved coordinate take (number of t)
    # x (q - 1) cells: nothing of size q^2 or q (q - 1) N is built
    spec = HyperSpec(build_field(13), 3, (1, 2), (0, 0))
    ts = (2, 5, 11)
    tracemalloc.start()
    try:
        got = trad_trace_naive(spec, ts, E_degree=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak / 2 ** 20:.2f} MiB"
    table = trad_trace_conv(spec, E_degree=2)
    assert got == [table.value_at(t) for t in ts]


def _entered(run):
    """The program functions run enters, as "module.qualname", comprehensions
    left out; every cache of the program is cleared first, so a cached
    function is entered by each side that calls it."""
    for module in (characters, cyclotomic, dwork, finitefield, hypergeometric):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    src, seen = Path(hypergeometric.__file__).parent, set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and "<" not in code.co_qualname and Path(code.co_filename).parent == src:
            seen.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


# the count-vector kernels of cyclotomic
_KERNELS = {"cyclotomic.cconv", "cyclotomic.shift_sums", "cyclotomic.window_sums", "cyclotomic.hist_conv", "cyclotomic.combo"}


def test_conv_route_shares_pinned_functions_with_mellin_and_naive():
    # the independence ledger of hyper-cross at q = 29: the program functions
    # the convolution table shares with each route it is checked against.
    # A set that grows is a new shared fault line, to be declared
    spec = HyperSpec.from_label(build_field(29), build_v(2, 7))  # the field is built before tracing
    conv = _entered(lambda: trad_trace_conv(spec).counts)
    mellin = conv & _entered(lambda: mellin_rows(spec))
    naive = conv & _entered(lambda: trad_trace_naive(spec, range(2, 29)))
    assert mellin == {
        "cyclotomic._abs_max", "cyclotomic._abs_max_sum", "cyclotomic._work_dtype", "cyclotomic.cconv",
        "cyclotomic.exact_dtype", "finitefield.FqField.neg_code", "finitefield.FqField.neg_codes",
        "finitefield.FqField.trace_abs_table", "hypergeometric.HyperSpec.k",
    }
    assert naive == {
        "cyclotomic.CycloCtx.__init__", "cyclotomic._poly_div_exact", "cyclotomic._prime_powers",
        "cyclotomic._work_dtype", "cyclotomic.ctx_for", "cyclotomic.cyclotomic_poly", "cyclotomic.euler_phi",
        "cyclotomic.exact_dtype", "finitefield.FqField.add_codes", "finitefield.FqField.neg_codes",
        "finitefield.FqField.trace_abs_table", "finitefield.prime_factors", "hypergeometric.HyperSpec.extension",
        "hypergeometric.HyperSpec.k",
    }
    # the Mellin route shares no count-vector kernel but cconv, the naive one none
    assert mellin & _KERNELS == {"cyclotomic.cconv"} and not naive & _KERNELS
