import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.errors import BadParams, NotSignDefinite
from dworkbench.finitefield import is_prime
from dworkbench.pairings import (
    PairedRep,
    cj_sign,
    convert_pairing,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    random_sd_example,
    sd_sign,
    sqrt_minus_one,
)


def test_matrix_helpers():
    l = 7
    A = mat([[1, 2], [3, 4]], l)
    B = mat_inv(A, l)
    assert mat_mul(A, B, l) == ((1, 0), (0, 1))
    assert mat_det(A, l) == (1 * 4 - 2 * 3) % l
    with pytest.raises(BadParams):
        mat_inv(mat([[1, 2], [2, 4]], l), l)


def test_mat_refuses_other_shapes():
    with pytest.raises(BadParams):
        mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5)
    with pytest.raises(BadParams):
        PairedRep(5, [[1, 0], [0, 1]], [[[1, 0, 0], [0, 1, 0]]], [1])


_entries = st.lists(st.integers(-40, 40), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7, 13, 17]), _entries, _entries)
def test_inverse_and_multiplicative_det(l, a, b):
    A, B = mat([a[:2], a[2:]], l), mat([b[:2], b[2:]], l)
    assert mat_det(mat_mul(A, B, l), l) == mat_det(A, l) * mat_det(B, l) % l
    if mat_det(A, l):
        assert mat_mul(mat_inv(A, l), A, l) == ((1, 0), (0, 1))
    else:
        with pytest.raises(BadParams):
            mat_inv(A, l)


def _draws_digest() -> str:
    def rows(M):
        return [[int(x) for x in r] for r in M]

    h = hashlib.sha256()
    for l in (5, 7, 13, 17):
        for seed in range(4):
            for kind in (None, "det", "orth"):
                rng = random.Random(seed)
                for _ in range(10):
                    rep, c, chi_c = random_sd_example(l, rng, kind=kind)
                    h.update(repr((rows(rep.pairing), [rows(g) for g in rep.gens], list(rep.chi), rows(c), chi_c)).encode())
    return h.hexdigest()


def test_example_draws_are_pinned():
    # the draws of the numpy-matrix generator these examples were first
    # made with: the same randrange/choice calls in the same order
    assert _draws_digest() == "8345f9ae843c3241e0c99d54d1edc91dea9f2ab06330600faef520d78e5c0152"


def test_examples_refuse_a_modulus_that_is_not_an_odd_prime():
    for l in (2, 4, 9):
        with pytest.raises(BadParams, match="odd prime"):
            random_sd_example(l, random.Random(0))


def test_sqrt_mod_exhaustive():
    # -1 is a square mod l exactly when l = 1 mod 4
    for l in filter(is_prime, range(3, 100)):
        r = sqrt_minus_one(l)
        if l % 4 == 1:
            assert r is not None and (r * r) % l == l - 1
        else:
            assert r is None and all((x * x) % l != l - 1 for x in range(l))


def test_example_generator_equivariance():
    rng = random.Random(0)
    for _ in range(25):
        rep, c, chi_c = random_sd_example(5, rng)
        assert rep.flavor == "SD"
        assert rep.equivariant()
        assert sd_sign(rep) in (1, -1)
        assert chi_c in (1, 4)  # plus or minus one mod 5


def test_sign_product_law():
    # twisting by an involution multiplies the symmetry type by its character
    for l in (5, 13):
        rng = random.Random(l)
        for _ in range(40):
            rep, c, chi_c = random_sd_example(l, rng)
            before = sd_sign(rep)
            twisted = convert_pairing(rep, c, chi_c)
            assert twisted.flavor == "CJ"
            assert twisted.equivariant()
            after = cj_sign(twisted)
            chi_sign = 1 if chi_c == 1 else -1
            assert after == before * chi_sign


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 13, 17]), st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([None, "det", "orth"]))
def test_sign_product_law_on_random_reps(l, seed, kind):
    rep, c, chi_c = random_sd_example(l, random.Random(seed), kind=kind)
    assert chi_c in (1, l - 1)
    chi_sign = 1 if chi_c == 1 else -1
    assert cj_sign(convert_pairing(rep, c, chi_c)) == sd_sign(rep) * chi_sign
    if kind == "det":
        assert sd_sign(rep) == -1


def test_det_kind_always_antisymmetric():
    rng = random.Random(9)
    for _ in range(30):
        rep, _, _ = random_sd_example(5, rng, kind="det")
        assert sd_sign(rep) == -1


def test_det_kind_pairing_det_is_square():
    # conjugating a fixed form by a frame scales the det by a square
    rng = random.Random(2)
    for _ in range(10):
        rep, _, _ = random_sd_example(5, rng, kind="det")
        assert pow(mat_det(rep.pairing, 5), 2, 5) == 1  # Euler's criterion


def test_rep_validation_rejects_bad_input():
    l = 5
    eye = mat([[1, 0], [0, 1]], l)
    with pytest.raises(BadParams):
        PairedRep(4, eye, [eye], [1])  # modulus not prime
    with pytest.raises(BadParams):
        PairedRep(l, mat([[1, 2], [2, 4]], l), [eye], [1])  # singular pairing
    with pytest.raises(BadParams):
        PairedRep(l, eye, [eye], [0])  # character value not a unit
    with pytest.raises(BadParams):
        PairedRep(l, eye, [eye], [1], flavor="CJ")  # missing partner list


def test_not_sign_definite():
    l = 5
    eye = mat([[1, 0], [0, 1]], l)
    rep = PairedRep(l, mat([[1, 1], [0, 1]], l), [eye], [1])
    assert rep.equivariant()
    with pytest.raises(NotSignDefinite):
        sd_sign(rep)


def test_sign_needs_equivariance():
    l = 5
    g = mat([[2, 0], [0, 1]], l)  # scales the form, not equivariant for chi = 1
    rep = PairedRep(l, mat([[0, 1], [4, 0]], l), [g], [1])
    assert not rep.equivariant()
    with pytest.raises(BadParams):
        sd_sign(rep)


def test_convert_requires_involution():
    l = 5
    eye = mat([[1, 0], [0, 1]], l)
    rep = PairedRep(l, mat([[0, 1], [4, 0]], l), [eye], [1])
    c = mat([[2, 0], [0, 2]], l)  # c^2 = 4 I, not an involution
    with pytest.raises(BadParams):
        convert_pairing(rep, c, 1)
