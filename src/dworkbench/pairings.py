"""Sign formalism for equivariant pairings over F_l.

A finite matrix group acts on F_l^2 preserving a bilinear pairing up to a
similitude character, either plainly (self-dual flavor) or twisted through
an involutive outer map (conjugate flavor).  The pairing's symmetry type is
the sign; converting between flavors multiplies the sign by the similitude
value of the twisting involution.

Every example is two-dimensional, so a matrix is a pair of rows, each a
pair of Python integers reduced mod l: the determinant is ad - bc, the
inverse is the adjugate over the determinant, and equal matrices compare
equal as tuples.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import BadParams, NotSignDefinite
from .finitefield import is_prime

Mat = tuple[tuple[int, int], tuple[int, int]]


def require_odd_prime(l: int) -> None:
    if l < 3 or not is_prime(l):
        raise BadParams(f"modulus l = {l} must be an odd prime")


def mat(rows: Sequence[Sequence[int]], l: int) -> Mat:
    """A 2x2 matrix with entries reduced mod l; any other shape is refused."""
    try:
        (a, b), (c, d) = rows
    except (TypeError, ValueError):
        raise BadParams("matrices must be 2x2") from None
    return ((int(a) % l, int(b) % l), (int(c) % l, int(d) % l))


def mat_mul(A: Mat, B: Mat, l: int) -> Mat:
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return (((a * e + b * g) % l, (a * f + b * h) % l), ((c * e + d * g) % l, (c * f + d * h) % l))


def transpose(A: Mat) -> Mat:
    (a, b), (c, d) = A
    return ((a, c), (b, d))


def scale(s: int, A: Mat, l: int) -> Mat:
    (a, b), (c, d) = A
    return ((s * a % l, s * b % l), (s * c % l, s * d % l))


def mat_det(A: Mat, l: int) -> int:
    (a, b), (c, d) = A
    return (a * d - b * c) % l


def mat_inv(A: Mat, l: int) -> Mat:
    """Adjugate over the determinant mod l; raises BadParams when singular."""
    det = mat_det(A, l)
    if det == 0:
        raise BadParams("singular matrix mod l")
    u = pow(det, -1, l)
    (a, b), (c, d) = A
    return ((d * u % l, -b * u % l), (-c * u % l, a * u % l))


IDENTITY: Mat = ((1, 0), (0, 1))


def _symmetry_type(P: Mat, l: int) -> int:
    (a, b), (c, d) = P
    if b == c:
        return 1
    if a == 0 and d == 0 and (b + c) % l == 0:
        return -1
    raise NotSignDefinite("pairing is neither symmetric nor antisymmetric")


class PairedRep:
    """Matrix group generators with a similitude character and a pairing.

    flavor "SD": g^T P g = chi(g) P for every generator.
    flavor "CJ": g^T P jc(g) = chi(g) P, jc an involutive map on generators.
    """

    __slots__ = ("l", "gens", "chi", "pairing", "flavor", "jc")

    def __init__(self, l: int, pairing, gens: Sequence, chi: Sequence[int], flavor: str = "SD", jc: Sequence | None = None):
        require_odd_prime(l)
        if flavor not in ("SD", "CJ"):
            raise BadParams(f"unknown flavor {flavor!r}")
        self.l = l
        self.pairing = mat(pairing, l)
        if mat_det(self.pairing, l) == 0:
            raise BadParams("pairing must be invertible")
        self.gens = tuple(mat(g, l) for g in gens)
        self.chi = tuple(int(c) % l for c in chi)
        if len(self.chi) != len(self.gens):
            raise BadParams("one character value per generator")
        if any(c == 0 for c in self.chi):
            raise BadParams("character values must be units")
        if any(mat_det(g, l) == 0 for g in self.gens):
            raise BadParams("generators must be invertible")
        self.flavor = flavor
        if flavor == "CJ":
            if jc is None:
                raise BadParams("CJ flavor needs the twisted images of the generators")
            self.jc = tuple(mat(g, l) for g in jc)
            if len(self.jc) != len(self.gens):
                raise BadParams("one twisted image per generator")
        else:
            self.jc = None

    def equivariant(self) -> bool:
        P, l = self.pairing, self.l
        for i, g in enumerate(self.gens):
            partner = g if self.flavor == "SD" else self.jc[i]
            if mat_mul(mat_mul(transpose(g), P, l), partner, l) != scale(self.chi[i], P, l):
                return False
        return True


def sd_sign(rep: PairedRep) -> int:
    if rep.flavor != "SD":
        raise BadParams("plain self-dual sign needs the SD flavor")
    if not rep.equivariant():
        raise BadParams("pairing is not equivariant for the given generators")
    return _symmetry_type(rep.pairing, rep.l)


def cj_sign(rep: PairedRep) -> int:
    if rep.flavor != "CJ":
        raise BadParams("conjugate sign needs the CJ flavor")
    if not rep.equivariant():
        raise BadParams("pairing is not equivariant for the given generators")
    return _symmetry_type(rep.pairing, rep.l)


def convert_pairing(rep: PairedRep, c, chi_c: int) -> PairedRep:
    """Twist an SD pairing by an involution c into the CJ flavor.

    New pairing P c; generator images twisted by conjugation with c.  The
    sign comes out multiplied by chi(c).
    """
    if rep.flavor != "SD":
        raise BadParams("conversion starts from the SD flavor")
    l = rep.l
    c = mat(c, l)
    if mat_mul(c, c, l) != IDENTITY:
        raise BadParams("twisting element must square to the identity")
    chi_c = int(chi_c) % l
    if (chi_c * chi_c) % l != 1:
        raise BadParams("similitude value of the involution must square to 1")
    if mat_mul(mat_mul(transpose(c), rep.pairing, l), c, l) != scale(chi_c, rep.pairing, l):
        raise BadParams("involution is not a similitude of the pairing")
    jc = tuple(mat_mul(mat_mul(c, g, l), c, l) for g in rep.gens)  # c is its own inverse
    return PairedRep(l, mat_mul(rep.pairing, c, l), rep.gens, rep.chi, flavor="CJ", jc=jc)


def sqrt_minus_one(l: int) -> int | None:
    """A square root of -1 mod the odd prime l, or None when l = 3 mod 4.

    For l = 1 mod 4 and z the first non-residue, z^((l-1)/2) = -1, so
    w = z^((l-1)/4) squares to -1.  The root returned is (-1)^((q+1)/2) w,
    q the odd part of l - 1: the sign picks the involution of the
    orthogonal examples, whose draws the tests pin.
    """
    if l % 4 != 1:
        return None
    q = l - 1
    while q % 2 == 0:
        q //= 2
    z = next(z for z in range(2, l) if pow(z, (l - 1) // 2, l) == l - 1)
    return pow(-1, (q + 1) // 2, l) * pow(z, (l - 1) // 4, l) % l


# -- randomized admissible examples -----------------------------------------


def _random_gl(rng: random.Random, l: int) -> Mat:
    while True:
        # entries drawn row by row
        g = ((rng.randrange(l), rng.randrange(l)), (rng.randrange(l), rng.randrange(l)))
        if mat_det(g, l) != 0:
            return g


def random_sd_example(l: int, rng: random.Random, kind: str | None = None) -> tuple[PairedRep, Mat, int]:
    """A dimension-2 SD-equivariant rep with an admissible involution.

    kind "det": the determinant pairing (antisymmetric) with chi = det, any
    invertible generators.  kind "orth": a symmetric pairing with a signed
    permutation group.  Returns (rep, c, chi_c).
    """
    require_odd_prime(l)
    if kind is None:
        kind = rng.choice(["det", "orth"])
    frame = _random_gl(rng, l)
    frame_inv = mat_inv(frame, l)
    if kind == "det":
        # v, w -> det(v|w): g^T J g = det(g) J for every 2x2 matrix
        P0 = mat([[0, 1], [-1, 0]], l)
        gens0 = [_random_gl(rng, l) for _ in range(rng.randrange(1, 4))]
        chi = [mat_det(g, l) for g in gens0]
        cands = [
            (IDENTITY, 1),
            (mat([[-1, 0], [0, -1]], l), 1),
            (mat([[1, 0], [0, -1]], l), l - 1),
            (mat([[0, 1], [1, 0]], l), l - 1),
        ]
    elif kind == "orth":
        P0 = IDENTITY
        swap = mat([[0, 1], [1, 0]], l)
        flip = mat([[1, 0], [0, -1]], l)
        s = rng.randrange(1, l)
        gens0 = [swap, flip, ((s, 0), (0, s))]
        chi = [1, 1, (s * s) % l]
        cands = [(swap, 1), (flip, 1), (mat([[-1, 0], [0, -1]], l), 1)]
        r = sqrt_minus_one(l)
        if r is not None:
            cands.append((mat([[0, r], [-r, 0]], l), l - 1))
    else:
        raise BadParams(f"unknown example kind {kind!r}")
    c0, chi_c = cands[rng.randrange(len(cands))]
    # change of frame: congruent pairing, conjugated group
    P = mat_mul(mat_mul(transpose(frame), P0, l), frame, l)
    gens = [mat_mul(mat_mul(frame_inv, g, l), frame, l) for g in gens0]
    c = mat_mul(mat_mul(frame_inv, c0, l), frame, l)
    rep = PairedRep(l, P, gens, chi)
    return rep, c, chi_c
