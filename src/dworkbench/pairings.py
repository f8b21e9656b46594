"""Sign formalism for equivariant pairings over F_l.

A finite matrix group acts on F_l^n preserving a bilinear pairing up to a
similitude character, either plainly (self-dual flavor) or twisted through
an involutive outer map (conjugate flavor).  The pairing's symmetry type is
the sign; converting between flavors multiplies the sign by the similitude
value of the twisting involution.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .errors import BadParams, NotSignDefinite
from .finitefield import is_prime

Mat = np.ndarray


def mat(rows: Sequence[Sequence[int]], l: int) -> Mat:
    return np.asarray(rows, dtype=np.int64) % l


def mat_inv(A: Mat, l: int) -> Mat:
    """Gauss-Jordan inverse mod l; raises BadParams when singular."""
    n = A.shape[0]
    M = np.concatenate([A % l, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r, col] % l), None)
        if piv is None:
            raise BadParams("singular matrix mod l")
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] = (M[col] * pow(int(M[col, col]), -1, l)) % l
        for r in range(n):
            if r != col and M[r, col]:
                M[r] = (M[r] - M[r, col] * M[col]) % l
    return M[:, n:]


def mat_det(A: Mat, l: int) -> int:
    M = (A % l).copy()
    n = M.shape[0]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r, col] % l), None)
        if piv is None:
            return 0
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
            det = -det
        det = (det * int(M[col, col])) % l
        inv = pow(int(M[col, col]), -1, l)
        M[col] = (M[col] * inv) % l
        for r in range(col + 1, n):
            if M[r, col]:
                M[r] = (M[r] - M[r, col] * M[col]) % l
    return det % l


def _symmetry_type(P: Mat, l: int) -> int:
    if np.array_equal(P % l, P.T % l):
        return 1
    if np.array_equal(P % l, (-P.T) % l):
        return -1
    raise NotSignDefinite("pairing is neither symmetric nor antisymmetric")


class PairedRep:
    """Matrix group generators with a similitude character and a pairing.

    flavor "SD": g^T P g = chi(g) P for every generator.
    flavor "CJ": g^T P jc(g) = chi(g) P, jc an involutive map on generators.
    """

    __slots__ = ("l", "n", "gens", "chi", "pairing", "flavor", "jc")

    def __init__(self, l: int, pairing, gens: Sequence, chi: Sequence[int], flavor: str = "SD", jc: Sequence | None = None):
        if l < 3 or not is_prime(l):
            raise BadParams("modulus must be an odd prime")
        if flavor not in ("SD", "CJ"):
            raise BadParams(f"unknown flavor {flavor!r}")
        self.l = l
        self.pairing = np.asarray(pairing, dtype=np.int64) % l
        self.n = self.pairing.shape[0]
        if self.pairing.shape != (self.n, self.n):
            raise BadParams("pairing must be square")
        if mat_det(self.pairing, l) == 0:
            raise BadParams("pairing must be invertible")
        self.gens = tuple(np.asarray(g, dtype=np.int64) % l for g in gens)
        self.chi = tuple(int(c) % l for c in chi)
        if len(self.chi) != len(self.gens):
            raise BadParams("one character value per generator")
        if any(c == 0 for c in self.chi):
            raise BadParams("character values must be units")
        for g in self.gens:
            if g.shape != (self.n, self.n) or mat_det(g, l) == 0:
                raise BadParams("generators must be invertible and match the pairing size")
        self.flavor = flavor
        if flavor == "CJ":
            if jc is None:
                raise BadParams("CJ flavor needs the twisted images of the generators")
            self.jc = tuple(np.asarray(g, dtype=np.int64) % l for g in jc)
            if len(self.jc) != len(self.gens):
                raise BadParams("one twisted image per generator")
        else:
            self.jc = None

    def equivariant(self) -> bool:
        P, l = self.pairing, self.l
        for i, g in enumerate(self.gens):
            partner = g if self.flavor == "SD" else self.jc[i]
            if not np.array_equal((g.T @ P @ partner) % l, (self.chi[i] * P) % l):
                return False
        return True

    def elements(self, budget: int = 200000) -> list[Mat]:
        """Closure of the generators under product (small groups only)."""
        seen = {}
        frontier = [np.eye(self.n, dtype=np.int64)]
        seen[frontier[0].tobytes()] = frontier[0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.gens:
                    b = (a @ g) % self.l
                    k = b.tobytes()
                    if k not in seen:
                        if len(seen) >= budget:
                            raise BadParams("group closure exceeds budget")
                        seen[k] = b
                        nxt.append(b)
            frontier = nxt
        return list(seen.values())


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
    c = np.asarray(c, dtype=np.int64) % l
    if not np.array_equal((c @ c) % l, np.eye(rep.n, dtype=np.int64)):
        raise BadParams("twisting element must square to the identity")
    chi_c = int(chi_c) % l
    if (chi_c * chi_c) % l != 1:
        raise BadParams("similitude value of the involution must square to 1")
    if not np.array_equal((c.T @ rep.pairing @ c) % l, (chi_c * rep.pairing) % l):
        raise BadParams("involution is not a similitude of the pairing")
    jc = tuple((c @ g @ c) % l for g in rep.gens)  # c is its own inverse
    return PairedRep(l, (rep.pairing @ c) % l, rep.gens, rep.chi, flavor="CJ", jc=jc)


def sqrt_mod(a: int, l: int) -> int | None:
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        return None
    # Tonelli-Shanks
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    s, q = 0, l - 1
    while q % 2 == 0:
        s += 1
        q //= 2
    z = next(z for z in range(2, l) if pow(z, (l - 1) // 2, l) == l - 1)
    m, cc, t, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = (t2 * t2) % l
            i += 1
        b = pow(cc, 1 << (m - i - 1), l)
        m, cc = i, (b * b) % l
        t, r = (t * cc) % l, (r * b) % l
    return r


# -- randomized admissible examples -----------------------------------------


def _random_gl(rng: random.Random, n: int, l: int) -> Mat:
    while True:
        g = np.array([[rng.randrange(l) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if mat_det(g, l) != 0:
            return g


def random_sd_example(l: int, rng: random.Random, kind: str | None = None) -> tuple[PairedRep, Mat, int]:
    """A dimension-2 SD-equivariant rep with an admissible involution.

    kind "det": the determinant pairing (antisymmetric) with chi = det, any
    invertible generators.  kind "orth": a symmetric pairing with a signed
    permutation group.  Returns (rep, c, chi_c).
    """
    if kind is None:
        kind = rng.choice(["det", "orth"])
    n = 2
    frame = _random_gl(rng, n, l)
    frame_inv = mat_inv(frame, l)
    if kind == "det":
        # v, w -> det(v|w): g^T J g = det(g) J for every 2x2 matrix
        P0 = mat([[0, 1], [-1, 0]], l)
        gens0 = [_random_gl(rng, n, l) for _ in range(rng.randrange(1, 4))]
        chi = [mat_det(g, l) for g in gens0]
        cands = [
            (mat([[1, 0], [0, 1]], l), 1),
            (mat([[-1, 0], [0, -1]], l), 1),
            (mat([[1, 0], [0, -1]], l), l - 1),
            (mat([[0, 1], [1, 0]], l), l - 1),
        ]
    elif kind == "orth":
        P0 = np.eye(n, dtype=np.int64)
        swap = mat([[0, 1], [1, 0]], l)
        flip = mat([[1, 0], [0, -1]], l)
        scal = mat([[rng.randrange(1, l), 0], [0, 0]], l)
        scal[1, 1] = scal[0, 0]
        gens0 = [swap, flip, scal]
        chi = [1, 1, (int(scal[0, 0]) ** 2) % l]
        cands = [(swap, 1), (flip, 1), (mat([[-1, 0], [0, -1]], l), 1)]
        r = sqrt_mod(-1, l)
        if r is not None:
            anti = mat([[0, r], [-r, 0]], l)
            cands.append((anti, l - 1))
    else:
        raise BadParams(f"unknown example kind {kind!r}")
    c0, chi_c = cands[rng.randrange(len(cands))]
    # change of frame: congruent pairing, conjugated group
    P = (frame.T @ P0 @ frame) % l
    gens = [(frame_inv @ g @ frame) % l for g in gens0]
    c = (frame_inv @ c0 @ frame) % l
    rep = PairedRep(l, P, gens, chi)
    return rep, c, chi_c
