import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkbench.errors import BadParams, NotSignDefinite
from dworkbench.pairings import (
    PairedRep,
    cj_sign,
    convert_pairing,
    mat,
    mat_det,
    mat_inv,
    random_sd_example,
    sd_sign,
    sqrt_mod,
)


def test_matrix_helpers():
    l = 7
    A = mat([[1, 2], [3, 4]], l)
    B = mat_inv(A, l)
    assert ((A @ B) % l == np.eye(2, dtype=np.int64)).all()
    assert mat_det(A, l) == (1 * 4 - 2 * 3) % l
    with pytest.raises(BadParams):
        mat_inv(mat([[1, 2], [2, 4]], l), l)


def test_det_three_by_three():
    l = 13
    A = mat([[2, 0, 1], [1, 3, 0], [0, 5, 4]], l)
    # cofactor expansion by hand: 2*(12-0) - 0 + 1*(5-0) = 29
    assert mat_det(A, l) == 29 % 13


def test_sqrt_mod_exhaustive():
    for l in (5, 13, 17):
        squares = {(x * x) % l for x in range(l)}
        for a in range(l):
            r = sqrt_mod(a, l)
            if a in squares:
                assert r is not None and (r * r) % l == a
            else:
                assert r is None


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
        assert sqrt_mod(mat_det(rep.pairing, 5), 5) is not None


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


def test_elements_closure():
    rng = random.Random(5)
    rep, _, _ = random_sd_example(5, rng, kind="det")
    els = rep.elements(budget=5000)
    # closed under the generators
    keys = {e.tobytes() for e in els}
    for e in els[:10]:
        for g in rep.gens:
            assert ((e @ g) % 5).tobytes() in keys
