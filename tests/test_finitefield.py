import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench import finitefield
from dworkbench.errors import BadParams, NotPrime, TooLarge
from dworkbench.finitefield import build_field, is_prime, prime_factors


def test_primality_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(29) == [29]


def test_build_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        build_field(15)


def test_build_field_refuses_a_degree_below_1():
    for m in (0, -1):
        with pytest.raises(BadParams, match="degree"):
            build_field(7, m)


def _power(E, code, k):
    """code^k through the log tables, with 0^k = 0 for k > 0."""
    return 0 if code == 0 else int(E.EXP[k * int(E.DLOG[code]) % (E.q - 1)])


def test_prime_field_basics(f29):
    assert f29.q == 29 and f29.p == 29 and f29.m == 1
    g = f29.generator.code
    seen = {pow(g, k, 29) for k in range(28)}
    assert len(seen) == 28
    assert len(f29.DLOG) == 29
    assert sorted(f29.EXP.tolist()) == list(range(1, 29))  # the units are the codes 1..28


def test_dlog_exp_round_trip(f29):
    for code in range(1, 29):
        d = int(f29.DLOG[code])
        assert pow(f29.generator.code, d, 29) == int(f29.EXP[d]) == code


codes29 = st.integers(min_value=0, max_value=28)


@settings(max_examples=80, deadline=None)
@given(codes29, codes29, codes29)
def test_prime_field_axioms(a, b, c):
    f = build_field(29)
    add, mul = f.add_code, f.mul_code
    assert add(a, b) == (a + b) % 29
    assert mul(a, b) == (a * b) % 29
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, f.neg_code(a)) == 0


def test_negative_powers_and_division(f29):
    inv = _power(f29, 5, -1)
    assert f29.mul_code(inv, 5) == 1
    assert f29.mul_code(f29.mul_code(12, inv), 5) == 12


def test_extension_field_arithmetic():
    E = build_field(7, 2)
    assert E.q == 49
    g = E.generator.code
    powers = [1]  # g^0 .. g^48 by slow products, not through the tables
    for _ in range(48):
        powers.append(E._mul_code_slow(powers[-1], g))
    assert powers[48] == 1 and 1 not in powers[1:48]
    assert powers[:48] == E.EXP.tolist() and int(E.DLOG[g]) == 1
    # frobenius x -> x^7 fixes exactly the prime subfield
    fixed = [c for c in range(E.q) if _power(E, c, 7) == c]
    assert len(fixed) == 7


def test_field_of_two_elements():
    # 1 generates the trivial unit group
    f = finitefield.FqField(2, 1)
    assert f.generator.code == 1
    assert f.EXP.tolist() == [1] and f.DLOG[1] == 0
    assert f.add_code(1, 1) == 0 and f.mul_code(1, 1) == 1


def test_subfield_embedding_is_constant_code():
    E = build_field(7, 2)
    for c in range(7):
        assert _power(E, c, 7) == c


def test_norm_onto_subfield_units():
    E = build_field(7, 2)
    vals = {E.norm(c) for c in range(1, E.q)}
    assert len(vals) == 6 and 0 not in vals
    x = E.generator.code
    y = _power(E, x, 5)
    lhs = E.norm(E.mul_code(x, y))
    assert lhs == E.mul_code(E.norm(x), E.norm(y))


def test_vector_code_ops_match_scalar(f29):
    rng = np.random.default_rng(0)
    A = rng.integers(0, 29, size=200)
    B = rng.integers(0, 29, size=200)
    add = f29.add_codes(A.copy(), B.copy())
    mul = f29.mul_codes(A.copy(), B.copy())
    neg = f29.neg_codes(A.copy())
    for i in range(200):
        assert add[i] == f29.add_code(int(A[i]), int(B[i]))
        assert mul[i] == f29.mul_code(int(A[i]), int(B[i]))
        assert neg[i] == f29.neg_code(int(A[i]))


def test_vector_code_ops_match_scalar_extension():
    E = build_field(7, 2)
    rng = np.random.default_rng(1)
    A = rng.integers(0, 49, size=120)
    B = rng.integers(0, 49, size=120)
    add = E.add_codes(A.copy(), B.copy())
    mul = E.mul_codes(A.copy(), B.copy())
    for i in range(120):
        assert add[i] == E.add_code(int(A[i]), int(B[i]))
        assert mul[i] == E.mul_code(int(A[i]), int(B[i]))
    tr = E.trace_abs_table()
    assert np.array_equal(tr[add], (tr[A] + tr[B]) % 7)  # the absolute trace is additive


def test_field_cache_identity():
    # one object per (p, m), however the degree is passed
    assert build_field(29) is build_field(29) is build_field(29, 1) is build_field(29, m=1)


def test_table_bound_refuses_before_allocating(refused_peak):
    # 2^25 is the first power of 2 past the bound; its exp and dlog tables
    # would take 512 MiB
    assert 2 ** 24 == finitefield._TABLE_BOUND
    assert refused_peak(lambda: build_field(2, 25), TooLarge, "2\\^24") < 1 << 20


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(7, 2), (13, 3), (47, 2)]), st.data())
def test_vector_codes_match_digit_addition_and_field_axioms(pm, data):
    # addition is digitwise at every size: digit i of a + b is a_i + b_i mod p
    E = build_field(*pm)
    codes = st.lists(st.integers(0, E.q - 1), min_size=1, max_size=40)
    A, B, C = (np.array(data.draw(codes)) for _ in range(3))
    n = min(len(A), len(B), len(C))
    A, B, C = A[:n], B[:n], C[:n]
    add, mul = E.add_codes, E.mul_codes
    digits = lambda X: np.array([[c // E.p ** i % E.p for i in range(E.m)] for c in X.tolist()])
    assert np.array_equal(digits(add(A, B)), (digits(A) + digits(B)) % E.p)
    outer = add(A[:, None], B[None, :])  # shaped by the broadcast of A and B
    assert outer.shape == (n, n) and np.array_equal(outer.diagonal(), add(A, B))
    assert np.array_equal(add(A, B), add(B, A))
    assert np.array_equal(add(add(A, B), C), add(A, add(B, C)))
    assert np.array_equal(add(A, np.zeros_like(A)), A)
    assert np.array_equal(add(A, E.neg_codes(A)), np.zeros_like(A))
    assert np.array_equal(mul(A, B), mul(B, A))
    assert np.array_equal(mul(mul(A, B), C), mul(A, mul(B, C)))
    assert np.array_equal(mul(A, np.ones_like(A)), A)
    assert np.array_equal(mul(A, np.zeros_like(A)), np.zeros_like(A))
    assert np.array_equal(mul(A, add(B, C)), add(mul(A, B), mul(A, C)))
    units = A[A != 0]
    inv = E.EXP[(-E.DLOG[units]) % (E.q - 1)]
    assert np.all(mul(units, inv) == 1)


# sha256 of EXP and DLOG bytes with the least primitive modulus; (7, 2) to
# (29, 2) are the extension fields the golden runs read, so a moved modulus
# (which relabels hyper trace --E 2 rows) fails here as well as there
_TABLE_DIGESTS = {
    (2, 7): "702fea0f1ba1037ddfc0218675a44ee692dcf2866d18aaafa0b43a6e9d1b3dc7",
    (3, 5): "d332ecc0eb6de04854099d1c8e145d2313c4a9bf507a8ab12d87f411fa6313dd",
    (13, 3): "3c04b1f8557c559308866ae76cf66b1a20ec5fd0f7f4536ed49ae68ddc98c0fc",
    (43, 2): "75ffcf5a47911de2b08119937a1608072473afa2f244f066d4a3e6df93f71c25",
    (29, 1): "ac929ce5b25ca62e42ed341cf95f4b1e8c0d2f75fb909ec59f560d975bd19e67",
    (7, 2): "20762616ecacc91779b6da1746959485b46b139f1bf47964afa08d2558ce4a7f",
    (7, 3): "41fac469da5508266e40990f453b81143c3f03ce2e97d83078a208fbf82bbd49",
    (19, 3): "f6c383cf462538d0be0833564ea0876865b8f3def82087f6052662216673c0ac",
    (29, 2): "5a9486beecd7562cf7d24c4aa6f29ccf4feaf0c72df82fb433ce8dc028a9b9a0",
}


@pytest.mark.parametrize("p, m", sorted(_TABLE_DIGESTS))
def test_log_tables_step_by_the_generator(p, m):
    # F_{2^7} has q - 1 = 127 prime, so its blocks of 11 powers do not tile
    # the group; each table is checked against the slow product element by
    # element
    E = finitefield.FqField(p, m)
    R, g = E.q - 1, E._gen_code
    exp = E.EXP.tolist()
    assert exp[0] == 1 and len(exp) == R
    assert all(exp[k + 1] == E._mul_code_slow(exp[k], g) for k in range(R - 1))
    assert E._mul_code_slow(exp[-1], g) == 1
    assert E.DLOG[0] == -1 and np.array_equal(E.DLOG[E.EXP], np.arange(R))
    assert hashlib.sha256(E.EXP.tobytes() + E.DLOG.tobytes()).hexdigest() == _TABLE_DIGESTS[(p, m)]


@pytest.mark.parametrize("gen, match", [(7, "no discrete log"), (0, "order check")])
def test_log_tables_refuse_a_non_generator(monkeypatch, gen, match):
    # the modulus x - gen makes x = gen: (22, 1) and (0, 1) in F_29.  7 has
    # order 7, so 7^28 = 1 and only the unit check sees that its powers miss
    # 24 units; the non-unit 0 fails the order check
    monkeypatch.setattr(finitefield, "_least_primitive", lambda p, m: (-gen % p, 1))
    with pytest.raises(ArithmeticError, match=match):
        finitefield.FqField(29, 1)


def _order_of_x(f, p):
    """The order of x mod the monic f (constant first) over F_p, by repeated
    multiplication by x; 0 if x has not returned to 1 after p^m - 1 steps."""
    m = len(f) - 1
    one = [1] + [0] * (m - 1)
    cur = finitefield._poly_mulmod([0, 1], one, f, p)
    for k in range(1, p ** m):
        if cur == one:
            return k
        cur = finitefield._poly_mulmod(cur, [0, 1], f, p)
    return 0


@pytest.mark.parametrize("p, m", [*((2, m) for m in range(2, 8)), (3, 5), (7, 2), (7, 3), (13, 3)])
def test_modulus_is_the_least_primitive_in_conways_order(p, m):
    # f = x^m - a_1 x^(m-1) + ... + (-1)^m a_m for (a_1, ..., a_m) in
    # lexicographic order: the modulus is the first f in which x has order
    # p^m - 1, and x is the generator, code p
    for a in itertools.product(range(p), repeat=m):
        f = [(-1) ** (m - i) * a[m - 1 - i] % p for i in range(m)] + [1]
        if a[-1] and _order_of_x(f, p) == p ** m - 1:
            break
    E = build_field(p, m)
    assert E.modulus == tuple(f)
    assert E.generator.code == p and E.EXP[1] == p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23, 29, 41, 43, 71, 191, 911])
def test_prime_field_generator_is_the_least_primitive_root(p):
    least = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    E = build_field(p)
    assert E.generator.code == least and E.modulus == (-least % p, 1)
