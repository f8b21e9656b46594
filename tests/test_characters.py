import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworkbench.characters import (
    AddChar,
    MultChar,
    gauss_sum,
    grossen_value,
    jacobi_sum,
    phi_inverse,
    teich_char,
)
from dworkbench.cyclotomic import CycloElem, common, root_of_unity, to_cyclo
from dworkbench.errors import BadN, TooLarge, TrivialAdditive
from dworkbench.finitefield import build_field


def test_mult_char_multiplicative(f13):
    chi = MultChar(f13, 3)
    for x in range(1, 13):
        for y in range(1, 13):
            assert chi(f13.mul_code(x, y)) == chi(x) * chi(y)
    assert chi(0).is_zero()


def test_add_char_homomorphism(f13):
    psi = AddChar(f13)
    for x in range(13):
        for y in range(13):
            assert psi(f13.add_code(x, y)) == psi(x) * psi(y)


def test_add_char_orthogonality(f13):
    psi = AddChar(f13)
    acc = CycloElem.zero(13)
    for x in range(f13.q):
        acc = acc + psi(x)
    assert acc.is_zero()


def test_teich_char_has_exact_order(f29):
    chi = teich_char(f29, 7)
    assert chi.order == 7
    g = f29.generator.code
    assert chi(g).coerce(7) == root_of_unity(7)
    with pytest.raises(BadN):
        teich_char(f29, 5)


def test_trivial_gauss_sum_is_minus_one(f7, f13, f29):
    for f in (f7, f13, f29):
        g = gauss_sum(AddChar(f), MultChar(f, 0))
        assert g == CycloElem.rational(g.M, -1)


def test_gauss_sum_rejects_trivial_additive(f7):
    with pytest.raises(TrivialAdditive):
        gauss_sum(AddChar(f7, 0), MultChar(f7, 1))


def test_gauss_modulus_all_characters(f13):
    q = 13
    for j in range(1, q - 1):
        g = gauss_sum(AddChar(f13), MultChar(f13, j))
        prod = g * g.conjugate()
        assert prod == CycloElem.rational(prod.M, q)


def _mul(a, b):
    x, y = common(a, b)
    return x * y


def test_gauss_conjugate_reflection(f13):
    # g(chi-bar) = chi(-1) conj(g(chi))
    psi = AddChar(f13)
    for j in range(1, 12):
        chi = MultChar(f13, j)
        lhs = gauss_sum(psi, chi.bar())
        rhs = _mul(chi(f13.neg_code(1)), gauss_sum(psi, chi).conjugate())
        a, b = common(lhs, rhs)
        assert a == b


def test_jacobi_factorization_all_pairs(f13):
    psi = AddChar(f13)
    cache = {j: gauss_sum(psi, MultChar(f13, j)) for j in range(12)}
    for a in range(1, 12):
        for b in range(1, 12):
            if (a + b) % 12 == 0:
                continue
            J = jacobi_sum(MultChar(f13, a), MultChar(f13, b))
            lhs = _mul(J, cache[(a + b) % 12])
            rhs = _mul(cache[a], cache[b])
            x, y = common(lhs, rhs)
            assert x == y


def test_sums_refuse_an_oversized_field_before_counting(refused_peak):
    # g(psi, chi) for chi of order 1008 lives in Q(zeta_1017072), whose
    # counts alone take 8 MiB; 14159 is the first prime q with Q(zeta_{q-1})
    # past the context budget
    f = build_field(1009)
    assert refused_peak(lambda: gauss_sum(AddChar(f), MultChar(f, 1)), TooLarge, "zeta_1017072") < 1 << 20
    f = build_field(14159)
    assert refused_peak(lambda: jacobi_sum(MultChar(f, 1), MultChar(f, 1)), TooLarge, "zeta_14158") < 1 << 20


def test_jacobi_rejects_mixed_fields(f7, f13):
    with pytest.raises(ValueError):
        jacobi_sum(MultChar(f7, 1), MultChar(f13, 1))


def test_grossen_value_abs2(f29):
    # nondegenerate pairs carry weight one
    v = grossen_value(f29, 7, 1, 3)
    assert abs(v.abs2() - 29) < 1e-9


def phi_value(field, N, s_chi, s_rho):
    """The reference phi_inverse inverts: the product of -g(psi, t^a) over
    s_chi and -g(psibar, t^-b) over s_rho in Q(zeta_pN), psi = psi_1 and t
    the order-N character, to the degree power."""
    psi = AddChar(field)
    M, t = field.p * N, teich_char(field, N)
    out = CycloElem.one(M)
    for a in s_chi:
        out = out * (-gauss_sum(psi, t ** (a % N))).coerce(M)
    for b in s_rho:
        out = out * (-gauss_sum(psi.bar(), (t ** (b % N)).bar())).coerce(M)
    return out ** field.m


def test_phi_value_inverse_cancel(f29):
    val = phi_value(f29, 7, (1, 6), (0, 0))
    inv = phi_inverse(f29, 7, (1, 6), (0, 0))
    prod = val * inv
    assert prod == CycloElem.one(prod.M)


def test_phi_value_weight(f29):
    # trivial slots contribute unit factors, nontrivial ones weight q each
    assert abs(phi_value(f29, 7, (1, 6), (0, 0)).abs2() - 29 ** 2) < 1e-4
    assert abs(phi_value(f29, 7, (1, 6), (2, 3)).abs2() - 29 ** 4) < 1e-4


# -- character identities through CycloElem, over F_q and F_{q^2} -------------

FIELDS = ((5, 1), (7, 1), (11, 1), (13, 1), (29, 1), (3, 2), (5, 2), (7, 2))


@st.composite
def field_psi(draw):
    f = build_field(*draw(st.sampled_from(FIELDS)))
    return f, AddChar(f, draw(st.integers(1, f.q - 1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 10 ** 6))
@example((3, 2), 1)
@example((5, 2), 7)
@example((7, 2), 5)
def test_characters_read_every_argument_as_a_code(pm, j):
    # the shift c and every point are codes mod q, never F_p constants: over
    # F_{p^2} psibar negates c digitwise, and chi reads a code x >= p
    # through dlog x
    f = build_field(*pm)
    for c in range(f.q):
        psi = AddChar(f, c)
        bar = psi.bar()
        assert bar.c == f.neg_code(c), c
        assert all((psi.exp_of(x) + bar.exp_of(x)) % f.p == 0 for x in range(f.q)), c
    chi = MultChar(f, j)
    for x in range(f.p, f.q):
        assert chi(x) == root_of_unity(chi.order, chi.j0 * int(f.DLOG[x])), x


def _gauss_loop(psi, chi):
    # the scalar loop gauss_sum ran before its terms were built in one array
    f = psi.field
    p, ordc = f.p, chi.order
    L = p * ordc // math.gcd(p, ordc)
    sp, sc = L // p, L // ordc
    counts = [0] * L
    for code in range(1, f.q):
        e = (psi.exp_of(code) * sp + (chi.j0 * int(f.DLOG[code])) % ordc * sc) % L
        counts[e] += 1
    return to_cyclo(counts, L)


def _jacobi_loop(a, b):
    f = a.field
    oa, ob = a.order, b.order
    L = oa * ob // math.gcd(oa, ob)
    sa, sb = L // oa, L // ob
    counts = [0] * L
    for code in range(2, f.q):
        comp = f.add_code(1, f.neg_code(code))  # 1 - x
        counts[(a.exp_of(code) * sa + b.exp_of(comp) * sb) % L] += 1
    return to_cyclo(counts, L)


@settings(max_examples=60, deadline=None)
@given(field_psi(), st.data())
def test_gauss_sum_times_its_conjugate_character(fpsi, data):
    f, psi = fpsi
    chi = MultChar(f, data.draw(st.integers(1, f.q - 2)))
    sign = chi(f.neg_code(1)).as_rational()
    assert sign in (1, -1)
    assert _mul(gauss_sum(psi, chi), gauss_sum(psi, chi.bar())) == sign * f.q


@settings(max_examples=60, deadline=None)
@given(field_psi(), st.data())
def test_jacobi_times_gauss_is_a_gauss_product(fpsi, data):
    f, psi = fpsi
    a = data.draw(st.integers(1, f.q - 2))
    b = data.draw(st.integers(1, f.q - 2).filter(lambda b: (a + b) % (f.q - 1)))
    A, B = MultChar(f, a), MultChar(f, b)
    lhs, rhs = common(_mul(jacobi_sum(A, B), gauss_sum(psi, MultChar(f, a + b))), _mul(gauss_sum(psi, A), gauss_sum(psi, B)))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(field_psi(), st.data())
def test_sums_match_the_scalar_loops(fpsi, data):
    f, psi = fpsi
    a, b = (MultChar(f, data.draw(st.integers(0, f.q - 2))) for _ in range(2))
    assert gauss_sum(psi, a).to_json() == _gauss_loop(psi, a).to_json()
    assert jacobi_sum(a, b).to_json() == _jacobi_loop(a, b).to_json()
