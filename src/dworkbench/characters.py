"""Characters of finite fields and their standard sums.

Multiplicative characters are powers of a fixed dlog identification
x -> zeta_{q-1}^{dlog x}; additive characters are shifts of
x -> zeta_p^{abs trace x}.  A point, and the shift c of an additive
character, is its integer code in `finitefield`, read as int(x) % q; only
`FqField.generator` comes as an object.  Every term of a Gauss or Jacobi
sum is a root of unity zeta_M^e, and `gauss_exponents` /
`jacobi_exponents` build the exponents e of all terms at once, over Z/M
for any common multiple M of the orders involved.  `gauss_sum` and
`jacobi_sum` are the elements of their exponent counts; the identity
checks decide on the counts directly (see `cyclotomic.vanishes`).  The
order-N "power residue" character sends the field's generator to zeta_N:
x mod the least primitive modulus (see `finitefield`), the least primitive
root g for a prime field.  No verified identity depends on that choice.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycloElem, ctx_for, exponent_counts, root_of_unity, to_cyclo
from .errors import BadN, NotAMultiple, SizeMismatch, TrivialAdditive, ZeroInput
from .finitefield import FqField


class MultChar:
    """Multiplicative character x -> zeta_{q-1}^{j * dlog x}, with chi(0) = 0."""

    __slots__ = ("field", "j", "order", "j0")

    def __init__(self, field: FqField, j: int):
        self.field = field
        self.j = j % (field.q - 1) if field.q > 2 else 0
        d = math.gcd(self.j, field.q - 1)
        self.order = (field.q - 1) // d
        self.j0 = self.j // d  # chi(x) = zeta_order^{j0 * dlog x}

    def is_trivial(self) -> bool:
        return self.j == 0

    def exp_of(self, code: int) -> int:
        """Exponent k with chi(x) = zeta_order^k, for a nonzero element code."""
        if code == 0:
            raise ZeroInput("character exponent of zero")
        return (self.j0 * int(self.field.DLOG[code])) % self.order

    def __call__(self, x: int) -> CycloElem:
        code = int(x) % self.field.q
        if code == 0:
            return CycloElem.zero(self.order)
        return root_of_unity(self.order, self.exp_of(code))

    def __pow__(self, k: int) -> "MultChar":
        return MultChar(self.field, self.j * k)

    def bar(self) -> "MultChar":
        """Complex conjugate, i.e. inverse, character."""
        return MultChar(self.field, -self.j)

    def __repr__(self) -> str:
        return f"MultChar(q={self.field.q}, j={self.j})"


class AddChar:
    """Additive character x -> zeta_p^{abs trace(c x)}, c a code."""

    __slots__ = ("field", "c")

    def __init__(self, field: FqField, c: int = 1):
        self.field = field
        self.c = int(c) % field.q

    def is_trivial(self) -> bool:
        return self.c == 0

    def exp_of(self, code: int) -> int:
        f = self.field
        return int(f.trace_abs_table()[f.mul_code(self.c, code)])

    def __call__(self, x: int) -> CycloElem:
        return root_of_unity(self.field.p, self.exp_of(int(x) % self.field.q))

    def bar(self) -> "AddChar":
        return AddChar(self.field, self.field.neg_code(self.c))

    def __repr__(self) -> str:
        return f"AddChar(q={self.field.q}, c={self.c})"


def teich_char(field: FqField, N: int) -> MultChar:
    """The order-N character sending the field generator to zeta_N."""
    if N < 1 or (field.q - 1) % N != 0:
        raise BadN(f"N = {N} does not divide q - 1 = {field.q - 1}")
    return MultChar(field, (field.q - 1) // N)


def _char_exponents(chis: Sequence[MultChar], dlogs: np.ndarray, M: int) -> np.ndarray:
    """Exponent over Z/M of chi(x) for each chi in chis and each unit x with
    dlog x in dlogs: shape (len(chis), len(dlogs))."""
    j0 = np.array([c.j0 for c in chis], dtype=np.int64)[:, None]
    order = np.array([c.order for c in chis], dtype=np.int64)[:, None]
    if np.any(M % order):
        raise NotAMultiple(f"{M} is not a multiple of every character order")
    return (j0 * dlogs) % order * (M // order)


def gauss_exponents(psi: AddChar, chis: Sequence[MultChar], M: int) -> np.ndarray:
    """Exponent over Z/M of every term psi(x) chi(x) of g(psi, chi), x running
    over the units in code order, for each chi in chis: shape
    (len(chis), q - 1).  M is any common multiple of p and the orders."""
    f = psi.field
    if M % f.p:
        raise NotAMultiple(f"{M} is not a multiple of p = {f.p}")
    units = np.arange(1, f.q, dtype=np.int64)
    add = f.trace_abs_table()[f.mul_codes(psi.c, units)] * (M // f.p)
    return (add + _char_exponents(chis, f.DLOG[units], M)) % M


def jacobi_exponents(field: FqField, a: Sequence[MultChar], b: Sequence[MultChar], M: int) -> np.ndarray:
    """Exponent over Z/M of every term a(x) b(1 - x) of J(a, b), x running over
    the field minus 0 and 1 in code order, for each pair (a[i], b[i]): shape
    (len(a), q - 2).  M is any common multiple of the orders."""
    if any(c.field is not field for c in (*a, *b)):
        raise ValueError("characters of different fields")
    x = np.arange(2, field.q, dtype=np.int64)
    comp = field.add_codes(1, field.neg_codes(x))  # 1 - x, digitwise
    dlog = field.DLOG
    return (_char_exponents(a, dlog[x], M) + _char_exponents(b, dlog[comp], M)) % M


def gauss_sum(psi: AddChar, chi: MultChar) -> CycloElem:
    """Sum of psi(x) chi(x) over the units, exact in Q(zeta_{p * ord chi})."""
    if psi.is_trivial():
        raise TrivialAdditive("gauss sum needs a nontrivial additive character")
    L = math.lcm(psi.field.p, chi.order)
    ctx_for(L)  # refuses an oversized field before its counts are built
    return to_cyclo(exponent_counts(gauss_exponents(psi, [chi], L), L)[0], L)


def jacobi_sum(a: MultChar, b: MultChar) -> CycloElem:
    """Sum of a(x) b(1-x) over x, with the chi(0) = 0 convention throughout."""
    L = math.lcm(a.order, b.order)
    ctx_for(L)
    return to_cyclo(exponent_counts(jacobi_exponents(a.field, [a], [b], L), L)[0], L)


def grossen_value(field: FqField, N: int, chi_res: int, rho_res: int) -> CycloElem:
    """Negative Jacobi sum attached to the residue pair, in Q(zeta_N).

    chi_res and rho_res are characters of the order-N subgroup written
    additively; the value is -J(chi, rho/chi) through the power-residue
    identification.
    """
    t = teich_char(field, N)
    chi = t ** (chi_res % N)
    ratio = t ** ((rho_res - chi_res) % N)
    return (-jacobi_sum(chi, ratio)).coerce(N)


def phi_inverse(field: FqField, N: int, s_chi: Iterable[int], s_rho: Iterable[int]) -> CycloElem:
    """Exact inverse of phi, the Frobenius value of the rank-1 normalization
    by which the pulled-back traditional sheaf differs from the canonical
    one: the product of the negated Gauss sums over both multisets, to the
    degree power, with psi = psi_1.

    Each nontrivial factor -g(psi, chi) inverts to -g(psibar, chibar) / q,
    avoiding division; trivial factors are already 1.
    """
    psi = AddChar(field)
    s_chi, s_rho = list(s_chi), list(s_rho)
    if len(s_chi) != len(s_rho):
        raise SizeMismatch("character multisets of unequal size")
    M = field.p * N
    q = field.q
    t = teich_char(field, N)
    psibar = psi.bar()
    out = CycloElem.one(M)
    for a in s_chi:
        chi = t ** (a % N)
        if chi.is_trivial():
            continue  # -g(psi, 1) = 1
        out = out * (-gauss_sum(psibar, chi.bar())).coerce(M) / q
    for b in s_rho:
        rho = t ** (b % N)
        if rho.is_trivial():
            continue
        out = out * (-gauss_sum(psi, rho)).coerce(M) / q
    return out ** field.m
