import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworkbench import cyclotomic
from dworkbench.errors import TooLarge
from dworkbench.cyclotomic import (
    CycloElem,
    common,
    ctx_for,
    cyclotomic_poly,
    combo,
    euler_phi,
    exponent_counts,
    hist_conv,
    root_of_unity,
    shift_sums,
    to_cyclo,
    vanishes,
    window_sums,
)


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 7, 12, 203)] == [1, 1, 2, 2, 6, 4, 168]


def test_cyclotomic_poly_twelve():
    # x^4 - x^2 + 1
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_order():
    for M in (3, 5, 7, 12):
        z = root_of_unity(M)
        assert z ** M == CycloElem.one(M)
        for k in range(1, M):
            assert z ** k != CycloElem.one(M)


def test_power_relation():
    z = root_of_unity(7)
    assert root_of_unity(7, 3) == z ** 3
    assert z ** -1 == z ** 6


def test_embed_matches_complex_exponential():
    for M in (3, 7, 9):
        for k in range(M):
            got = root_of_unity(M, k).embed()
            want = cmath.exp(2j * cmath.pi * k / M)
            assert abs(got - want) < 1e-12


def test_embedding_choice():
    z = root_of_unity(5)
    assert abs(z.embed(2) - (z ** 2).embed()) < 1e-12


def test_geometric_sum_vanishes():
    for M in (3, 5, 7):
        acc = CycloElem.zero(M)
        for k in range(M):
            acc = acc + root_of_unity(M, k)
        assert acc.is_zero()


def test_rational_fractions():
    a = CycloElem.rational(7, Fraction(2, 3))
    b = CycloElem.rational(7, Fraction(1, 6))
    assert (a + b).as_rational() == Fraction(5, 6)
    assert (a * b).as_rational() == Fraction(1, 9)
    assert (a / b).as_rational() == 4


small = st.integers(min_value=-9, max_value=9)


def _elem(M, coeffs):
    acc = CycloElem.zero(M)
    for k, c in enumerate(coeffs):
        acc = acc + root_of_unity(M, k) * c
    return acc


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=12, max_size=12), st.lists(small, min_size=12, max_size=12), st.lists(small, min_size=12, max_size=12))
def test_ring_axioms_mod_twelve(ca, cb, cc):
    a, b, c = (_elem(12, v) for v in (ca, cb, cc))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=6, max_size=6), st.lists(small, min_size=6, max_size=6))
def test_conjugation_is_a_ring_map(ca, cb):
    a, b = _elem(7, ca), _elem(7, cb)
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=6, max_size=6))
def test_abs2_matches_embedding(ca):
    a = _elem(7, ca)
    prod = a * a.conjugate()
    assert abs(prod.embed().imag) < 1e-9
    assert abs(a.abs2() - abs(a.embed()) ** 2) < 1e-6 * max(1.0, a.abs2())


def from_json(obj):
    """The element that CycloElem.to_json serialized, read back."""
    fracs = [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]
    assert len(fracs) == euler_phi(obj["M"])
    den = math.lcm(*(f.denominator for f in fracs))
    return to_cyclo([int(f * den) for f in fracs], obj["M"], den)


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=6, max_size=6))
def test_json_round_trip(ca):
    a = _elem(7, ca) / 3
    assert from_json(a.to_json()) == a


@settings(max_examples=30, deadline=None)
@given(st.lists(small, min_size=4, max_size=4))
def test_inversion(ca):
    a = _elem(5, ca)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.invert()
    else:
        assert a * a.invert() == CycloElem.one(5)


def test_galois_action_multiplicative():
    z = root_of_unity(7)
    a = z + z * 3 ** 2
    b = z ** 4 - 2
    for e in (2, 3, 6):
        assert (a * b).galois(e) == a.galois(e) * b.galois(e)
    assert a.galois(6) == a.conjugate()


def test_coerce_and_common():
    z3 = root_of_unity(3)
    z6 = root_of_unity(6)
    up = z3.coerce(6)
    assert up == z6 ** 2
    a, b = common(z3, root_of_unity(2))
    assert a.M == b.M
    assert abs(a.embed() - z3.embed()) < 1e-12


def test_coerce_rejects_non_multiple():
    with pytest.raises(Exception):
        root_of_unity(7).coerce(10)


def test_to_cyclo_counts():
    # 2 + 3 z - z^2 over M = 3, denominator 2
    v = to_cyclo([2, 3, -1], 3, den=2)
    want = (CycloElem.rational(3, 2) + root_of_unity(3) * 3 - root_of_unity(3, 2)) / 2
    assert v == want
    # counts from 2^63 up stay Python integers (numpy reads an untyped list
    # holding 2^63 as floats), repeats modulo M included
    assert to_cyclo([0, 0, 2 ** 63], 3) == root_of_unity(3, 2) * 2 ** 63
    assert to_cyclo([2 ** 70, 5, -(2 ** 64), -3], 3) == to_cyclo([2 ** 70 - 3, 5, -(2 ** 64)], 3)


def test_context_basis_size():
    ctx = ctx_for(7)
    assert ctx.phi == 6


def _literal(M, coeffs, exps):
    # sum_i coeffs[i] * z^exps[i] in Python integers, without the engine's
    # table: the polynomial sum_i coeffs[i] x^(exps[i] mod M) (z^M = 1),
    # reduced by long division by the monic Phi_M
    poly = cyclotomic_poly(M)
    phi = len(poly) - 1
    rem = [0] * M
    for c, e in zip(coeffs, exps):
        rem[e % M] += c
    for i in range(M - 1, phi - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(poly):
                rem[i - phi + j] -= c * p
    return rem[:phi]


def _literal_mul(M, a, b):
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _literal(M, conv, range(len(conv)))


# small values take the int64 paths, huge ones the Python-integer paths
coeff = st.one_of(small, st.integers(min_value=-(2 ** 70), max_value=2 ** 70))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((7, 12, 28, 63, 105, 210)), st.data())
def test_arithmetic_matches_literal_power_vectors(M, data):
    phi = ctx_for(M).phi
    a = data.draw(st.lists(coeff, min_size=phi, max_size=phi))
    b = data.draw(st.lists(coeff, min_size=phi, max_size=phi))
    x, y = to_cyclo(a, M), to_cyclo(b, M)
    assert list(x.coeffs) == a
    assert list((x * y).coeffs) == _literal_mul(M, a, b)
    assert list(x.coerce(2 * M).coeffs) == _literal(2 * M, a, range(0, 2 * phi, 2))
    assert list(x.galois(M - 1).coeffs) == _literal(M, a, range(0, (M - 1) * phi, M - 1))
    counts = data.draw(st.lists(coeff, max_size=2 * M))
    assert list(to_cyclo(counts, M).coeffs) == _literal(M, counts, range(len(counts)))


def test_mul_above_int64_bound_is_exact():
    M, phi = 28, 12
    a = [2 ** 40 + i for i in range(phi)]
    b = [3 * i - 2 ** 40 for i in range(phi)]
    got = list((to_cyclo(a, M) * to_cyclo(b, M)).coeffs)
    assert got == _literal_mul(M, a, b)
    assert max(abs(v) for v in got) >= 2 ** 63  # an int64 product would have wrapped


def test_small_products_take_the_int64_path(monkeypatch):
    # a product reduces in float64 exactly while the proved bound
    # max|f| (1 + r pmax) is below 2^53, in int64 while it is below 2^63,
    # where f is the linear product folded modulo z^M = 1 and r counts its
    # nonzero coefficients past z^(phi - 1), and in Python integers from
    # there on; at M = 7 one row, z^6, reduces and pmax = 1, so a times z
    # has the bound 2 max|a|
    assert euler_phi(7) == 6 and ctx_for(7).pmax == 1
    a, b = [3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5, -8]
    bigs = [[top, -top, 5, 0, 1, -top] for top in (2 ** 52 - 1, 2 ** 52, 2 ** 62 - 1, 2 ** 62)]
    x, y, z = to_cyclo(a, 7), to_cyclo(b, 7), root_of_unity(7)
    big = [to_cyclo(v, 7) for v in bigs]
    seen = []
    einsum = np.einsum

    def spy(spec, f, rows):
        seen.append(f.dtype)
        return einsum(spec, f, rows)

    monkeypatch.setattr(cyclotomic.np, "einsum", spy)
    products = [x * y] + [v * z for v in big]
    monkeypatch.undo()
    assert seen == [np.dtype(t) for t in (np.float64, np.float64, np.int64, np.int64, object)]
    assert list(products[0].coeffs) == _literal_mul(7, a, b)
    for v, p in zip(bigs, products[1:]):
        assert list(p.coeffs) == _literal_mul(7, v, [0, 1, 0, 0, 0, 0])


def test_context_keeps_one_narrow_table():
    # Q(zeta_812): the 476 x 336 reducing rows z^336 .. z^811 fit int8,
    # 0.15 MiB (all 812 power vectors would take 0.26 MiB)
    ctx_for.cache_clear()
    tracemalloc.start()
    try:
        ctx = ctx_for(812)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ctx.powers.shape == (476, 336) and ctx.powers.dtype == np.int8
    assert kept < 1 << 18, f"{kept / 2 ** 20:.2f} MiB"


def test_context_build_refuses_to_leave_int64(monkeypatch):
    # each step of the power recurrence is refused before its entries could
    # reach the limit: at a limit of 3, Q(zeta_105), whose Phi has a
    # coefficient -2, is refused, and Q(zeta_7), whose entries stay at 1, is not
    monkeypatch.setattr(cyclotomic, "_INT64_LIMIT", 3)
    with pytest.raises(ArithmeticError, match="zeta_105"):
        cyclotomic.CycloCtx(105)
    assert cyclotomic.CycloCtx(7).pmax == 1


def _int64_powers(M, poly):
    # the power recurrence z^(e+1) = z z^e in one int64 table, row by row:
    # shift, then subtract the top coordinate times Phi's lower coefficients
    phi = len(poly) - 1
    pw = np.zeros((M, phi), dtype=np.int64)
    pw[np.arange(phi), np.arange(phi)] = 1
    low = np.array(poly[:phi], dtype=np.int64)
    for e in range(phi, M):
        pw[e, 1:] = pw[e - 1, :-1]
        pw[e] -= pw[e - 1, -1] * low
    return pw


def _assert_table_is_recurrence(ctx, poly):
    # the context keeps the rows z^phi .. z^(M-1); pmax is 1 when there are none
    want = _int64_powers(ctx.M, poly)[len(poly) - 1 :]
    pmax = int(np.abs(want).max(initial=1))
    assert np.array_equal(ctx.powers, want), ctx.M
    assert ctx.pmax == pmax and ctx.powers.dtype == np.min_scalar_type(-pmax - 1), ctx.M


@pytest.mark.parametrize("Ms", [range(1, 301), (812, 1155, 1751)], ids=["M<=300", "large"])
def test_context_table_is_the_int64_recurrence(Ms):
    for M in Ms:
        _assert_table_is_recurrence(cyclotomic.CycloCtx(M), cyclotomic_poly(M))


def test_context_widens_the_table_before_storing_a_wide_row(monkeypatch):
    # no real modulus up to 3570 passes int8, so a polynomial with large
    # coefficients drives the rows of Q(zeta_15) (phi = 8) through int16,
    # int32 and int64: a row stored before the table widened would wrap
    fake = (200, 0, -3, 0, 0, 0, 0, 90, 1)
    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", lambda M: fake)
    ctx = cyclotomic.CycloCtx(15)
    assert ctx.powers.dtype == np.int64 and ctx.pmax > 1 << 31
    _assert_table_is_recurrence(ctx, fake)


def test_context_build_peaks_near_its_kept_table():
    # Q(zeta_1751) keeps its 119 x 1632 reducing rows in int8, 0.19 MiB; an
    # int64 table of the same rows would take 1.5 MiB, and all 1751 power
    # vectors in int8 2.7 MiB
    cyclotomic_poly(1751)
    tracemalloc.start()
    try:
        ctx = cyclotomic.CycloCtx(1751)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.powers.dtype == np.int8 and ctx.powers.nbytes < 1 << 18
    assert peak < 1 << 19, f"{peak / 2 ** 20:.2f} MiB"


def test_shared_json_serializes_each_distinct_element_once():
    memo = {}
    a, b = to_cyclo([1, 2, 3], 7), root_of_unity(7, 2)
    first = cyclotomic.shared_json(a, memo)
    assert first == a.to_json()
    assert cyclotomic.shared_json(to_cyclo([1, 2, 3], 7), memo) is first  # equal, not identical, elements
    assert cyclotomic.shared_json(b, memo) == b.to_json()
    # a rational value is one element per modulus
    assert cyclotomic.shared_json(CycloElem(14, 2), memo) == CycloElem(14, 2).to_json()
    assert cyclotomic.shared_json(CycloElem(7, 2), memo)["M"] == 7
    assert len(memo) == 4
    assert cyclotomic.shared_json(a, {}) is not first  # one memo per report


def test_poly_and_reduction_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for M in list(range(1, 61)) + [105, 812]:
        want = sympy.Poly(sympy.cyclotomic_poly(M, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_poly(M)) == want
    for M in (28, 63, 105, 812):
        phi = euler_phi(M)
        phi_m = sympy.Poly(sympy.cyclotomic_poly(M, x), x)
        # below 812 every power up to z^max(M - 1, 2 phi - 2); at 812 the
        # last unit vector, the first and last rows a product reads, and z^(M - 1)
        es = range(max(M, 2 * phi - 1)) if M < 812 else (phi - 1, phi, phi + 1, 2 * phi - 2, M - 1)
        for e in es:
            rem = sympy.Poly(x ** e, x).rem(phi_m).all_coeffs()[::-1]
            assert list(root_of_unity(M, e).coeffs) == rem + [0] * (phi - len(rem))


def test_ctx_budget_refuses_before_allocating(refused_peak):
    # the largest modulus the default campaign builds is 301 = 43 * 7 (the
    # gauss suite at q = 29 works over Z/812 on count vectors and builds no
    # context), far inside the budget even at 812; the first modulus whose
    # M * phi passes the budget is refused before its polynomial or table exists
    budget = cyclotomic._CTX_BUDGET
    assert 812 * euler_phi(812) * 300 < budget
    M = next(m for m in range(10 ** 4, 2 * 10 ** 4) if m * euler_phi(m) > budget)
    assert M * euler_phi(M) < 1.01 * budget
    assert refused_peak(lambda: ctx_for(M), TooLarge, f"zeta_{M}") < 1 << 20


# -- exponent-count vectors --------------------------------------------------

VANISH_MODULI = (1, 2, 4, 8, 9, 12, 28, 105, 203, 360, 812)


def _primes_of(M):
    return [l for l in range(2, M + 1) if M % l == 0 and all(l % d for d in range(2, l))]


def _kernel_generators(M, l):
    """Row i: x^i (1 + x^(M/l) + ... + x^((l-1)M/l)), the generators of the
    kernel of Z[Z/M] -> Z[zeta_M] (Phi_M(x) x^i, through Phi_M's factors)."""
    gens = np.zeros((M, M), dtype=np.int64)
    for v in range(l):
        gens[np.arange(M), (np.arange(M) + v * (M // l)) % M] += 1
    return gens


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(VANISH_MODULI), st.data())
def test_vanishes_matches_power_basis(M, data):
    # half the draws are kernel combinations, so both answers occur often
    c = np.array(data.draw(st.lists(coeff, min_size=M, max_size=M)), dtype=object)
    if data.draw(st.booleans()):
        c = np.zeros(M, dtype=object)
        for l in _primes_of(M):
            gens = _kernel_generators(M, l)
            for i in data.draw(st.lists(st.integers(0, M - 1), max_size=4)):
                c = c + data.draw(coeff) * gens[i].astype(object)
        if data.draw(st.booleans()):
            c[data.draw(st.integers(0, M - 1))] += data.draw(coeff)
    assert bool(vanishes(c, M)) == to_cyclo(c.tolist(), M).is_zero()


@pytest.mark.parametrize("M", VANISH_MODULI)
def test_kernel_generators_vanish_and_units_break_them(M):
    rng = np.random.default_rng(M)
    for l in _primes_of(M):
        gens = _kernel_generators(M, l) * rng.integers(-5, 6, size=(M, 1))
        assert vanishes(gens, M).all()
        for shift in (0, int(rng.integers(M))):
            bumped = gens + np.roll(np.eye(M, dtype=np.int64), shift, axis=1)
            assert not vanishes(bumped, M).any()
    assert vanishes(np.zeros(M, dtype=np.int64), M)
    assert not vanishes(np.eye(M, dtype=np.int64), M).any()


def test_vanishes_past_int64_takes_the_exact_path(monkeypatch):
    # over Z/6 the coordinates are (c0 - c3 - c2 + c5, c4 - c1 - c2 + c5):
    # here (2^64, 0), which int64 steps would wrap to all zeros
    t = 2 ** 62
    c = [t, t, -t, -t, -t, t]
    assert not to_cyclo(c, 6).is_zero()
    assert not vanishes(np.array(c, dtype=object), 6)
    assert not vanishes(np.array(c, dtype=np.int64), 6)
    monkeypatch.setattr(cyclotomic, "_INT64_LIMIT", 1 << 200)  # forces the int64 steps
    assert vanishes(np.array(c, dtype=np.int64), 6)
    monkeypatch.undo()
    gens = [_kernel_generators(812, l).astype(object) for l in (29, 7)]
    big = gens[0][5] * (2 ** 62 + 1) - gens[1][3] * 2 ** 70
    assert vanishes(big, 812)
    big[17] += 1
    assert not vanishes(big, 812)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VANISH_MODULI), st.integers(0, 5), st.data())
def test_vanishes_batch_equals_single_calls(M, k, data):
    rows = []
    for _ in range(2 * k):
        gens = _kernel_generators(M, data.draw(st.sampled_from(_primes_of(M) or [1])))
        row = gens[data.draw(st.integers(0, M - 1))] * data.draw(small)
        if data.draw(st.booleans()):
            row[data.draw(st.integers(0, M - 1))] += 1
        rows.append(row)
    batch = np.array(rows, dtype=np.int64).reshape(2, k, M)
    got = vanishes(batch, M)
    assert got.shape == (2, k)
    assert got.tolist() == [[bool(vanishes(r, M)) for r in b] for b in batch]


def test_vanishes_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 12"):
        vanishes(np.zeros(13, dtype=np.int64), 12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 7, 12)), st.lists(st.lists(st.integers(-30, 30), min_size=5, max_size=5), max_size=4))
def test_exponent_counts_match_a_loop(M, exps):
    got = exponent_counts(np.array(exps, dtype=np.int64).reshape(len(exps), 5), M)
    want = np.zeros((len(exps), M), dtype=np.int64)
    for i, row in enumerate(exps):
        for e in row:
            want[i, e % M] += 1
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((7, 12)),
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=6, max_size=6),
    st.integers(-90, 90).filter(bool),
)
@example(7, [0] * 6, 5)
@example(12, [-4, 6, 0, 9], -6)
def test_to_json_matches_fraction_rendering(M, num, den):
    a = cyclotomic._make(M, num[: euler_phi(M)], den)
    want = [[str(f.numerator), str(f.denominator)] for f in a.coeffs]
    assert a.to_json() == {"M": M, "coeffs": want}


# -- exact count-vector kernels ---------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda N: st.tuples(
    st.just(N),
    st.integers(min_value=1, max_value=3),
    st.lists(st.lists(st.integers(0, 1 << 62), min_size=N, max_size=N), min_size=1, max_size=3),
)), st.lists(st.integers(-(1 << 70), 1 << 70), min_size=12, max_size=12), st.booleans())
def test_hist_conv_matches_loop(shape, vals, small):
    N, c, H = shape
    L = N * c
    P = [v >> 62 if small else v for v in vals[:L]]  # small: sums in int64 range
    if small:
        H = [[h >> 56 for h in row] for row in H]

    def loop(P, H):
        return [[sum(H[r][j] * P[(e - c * j) % L] for j in range(N)) for e in range(L)] for r in range(len(H))]

    want = loop(P, H)
    assert hist_conv(np.array(P, dtype=object), np.array(H, dtype=object)).tolist() == want
    # a leading batch axis: each P row with its own histogram
    batch = [(P, H), (P[::-1], H[::-1])]
    got = hist_conv(np.array([p for p, _ in batch], dtype=object), np.array([h for _, h in batch], dtype=object))
    assert got.tolist() == [loop(p, h) for p, h in batch]
    if small:  # the bound is below 2^63, so the sums are int64
        got = hist_conv(np.array(P, dtype=np.int64), np.array(H, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want


def _shift_sums_reference(T, sets):
    D, N = len(T), len(T[0])
    return [
        [[sum(T[(d - a) % D][(e - b) % N] for a, b in zip(A, B)) for e in range(N)] for d in range(D)]
        for A, B in sets
    ]


@st.composite
def _shift_sums_case(draw):
    D = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=1, max_value=5))
    big = draw(st.booleans())  # Python-integer cells, past int64
    cell = st.integers(-(1 << 70), 1 << 70) if big else st.integers(-1000, 1000)
    T = draw(st.lists(st.lists(cell, min_size=N, max_size=N), min_size=D, max_size=D))
    sets = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=8))
        shift = st.lists(st.integers(-12, 12), min_size=n, max_size=n)  # repeats modulo D and N
        sets.append((draw(shift), draw(shift)))
    row = draw(st.none() | st.integers(0, D - 1))
    block = draw(st.sampled_from([1 << 20, 1, 7]))  # 1 and 7 force several window blocks
    return T, sets, row, block, big


@settings(max_examples=150, deadline=None)
@given(_shift_sums_case())
@example(case=([[1, 2], [3, 4], [5, 6]], [([1, 1, 4, -2], [0, 0, 2, 1]), ([], [])], None, 1, False))
@example(case=([[1 << 70, -3]], [([0, 0], [1, 1])], 0, 1, True))
@example(case=([[5, -3], [2, 0]], [([0, 1], [1, 1])], None, 1, True))  # Python integers that fit int64
def test_shift_sums_matches_loop(case):
    T, sets, row, block, big = case
    table = np.array(T, dtype=object if big else np.int64)
    arrays = [(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) for a, b in sets]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_BLOCK_CELLS", block)
        got = shift_sums(table, *arrays, row=row)
    want = _shift_sums_reference(T, sets)
    # the kernel's own width, from max|T| times the longest set (at least 1)
    bound = max(abs(c) for r in T for c in r) * max([1, *(len(a) for a, _ in sets)])
    assert got.dtype == (np.int64 if bound < 1 << 63 else object)
    assert got.tolist() == (want if row is None else [w[row : row + 1] for w in want])


def _int64_cells(data, m, shape):
    """An int64 array of the given shape with entries in [-m, m], often at
    the ends."""
    cell = st.one_of(st.sampled_from([m, -m]), st.integers(-m, m))
    return np.array(data.draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape))), dtype=np.int64).reshape(shape)


def _compositions(n):
    """The ordered ways to write n as a sum of positive integers."""
    return [[n]] + [[k, *rest] for k in range(1, n) for rest in _compositions(n - k)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["shift_sums", "shift_sums at a row", "hist_conv", "combo", "window_sums"]), st.integers(1, 5), st.data())
def test_kernels_never_wrap(kernel, terms, data):
    # int64 operands whose largest |entry| times the number of terms a result
    # sums lies just below or just above 2^63: each kernel sizes its own
    # result, so every value equals a loop's in Python integers
    m = min((1 << 63) // terms + data.draw(st.integers(-2, 2)), (1 << 63) - 1)
    dims = st.integers(1, 3)
    if kernel.startswith("shift_sums"):
        D, N = data.draw(dims), data.draw(dims)
        T = _int64_cells(data, m, (D, N))
        shift = st.integers(-5, 5)
        sets = [data.draw(st.tuples(st.lists(shift, min_size=n, max_size=n), st.lists(shift, min_size=n, max_size=n)))
                for n in [terms, *data.draw(st.lists(st.integers(0, terms), max_size=2))]]
        row = data.draw(st.integers(0, D - 1)) if kernel.endswith("row") else None
        got = shift_sums(T, *[(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) for a, b in sets], row=row)
        want = _shift_sums_reference(T.tolist(), sets)
        want = want if row is None else [w[row : row + 1] for w in want]
    elif kernel == "hist_conv":
        N, c, R = data.draw(dims), data.draw(dims), data.draw(dims)
        L = N * c
        # nonnegative rows that sum to at most terms, the first to terms
        rows = st.lists(st.integers(0, N - 1), max_size=terms).map(lambda js: np.bincount(js, minlength=N).tolist())
        H = [np.bincount(data.draw(st.lists(st.integers(0, N - 1), min_size=terms, max_size=terms)), minlength=N).tolist()]
        H += [data.draw(rows) for _ in range(R - 1)]
        P = _int64_cells(data, m, (L,))
        got = hist_conv(P, np.array(H, dtype=np.int64))
        want = [[sum(H[r][j] * int(P[(e - c * j) % L]) for j in range(N)) for e in range(L)] for r in range(R)]
    elif kernel == "combo":
        # coefficients whose |c| sum to terms, on arrays of one shape
        cs = [c * data.draw(st.sampled_from([1, -1])) for c in data.draw(st.sampled_from(_compositions(terms)))]
        n = data.draw(dims)
        vs = [_int64_cells(data, m, (n,)) for _ in cs]
        got = combo(*zip(cs, vs))
        want = [sum(c * int(v[i]) for c, v in zip(cs, vs)) for i in range(n)]
    else:
        M, D = data.draw(dims), data.draw(dims)
        V = _int64_cells(data, m, (terms, M))
        S = data.draw(st.lists(st.lists(st.integers(0, M - 1), min_size=D, max_size=D), min_size=terms, max_size=terms))
        got = window_sums(V, np.array(S, dtype=np.int64))
        want = [[sum(int(V[j, (e + S[j][d]) % M]) for j in range(terms)) for e in range(M)] for d in range(D)]
    assert got.tolist() == want
