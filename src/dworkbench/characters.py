"""Characters of finite fields and their standard sums.

Multiplicative characters are powers of a fixed dlog identification
x -> zeta_{q-1}^{dlog x}; additive characters are shifts of
x -> zeta_p^{abs trace x}.  Gauss and Jacobi sums are accumulated as exact
root-of-unity count vectors, so every identity check is exact cyclotomic
arithmetic.  The order-N "power residue" character sends the chosen
generator to zeta_N; that identification is a recorded convention, and no
verified identity depends on it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .cyclotomic import CycloElem, root_of_unity, to_cyclo
from .errors import BadN, SizeMismatch, TrivialAdditive, ZeroInput
from .finitefield import FqElem, FqField


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

    def __call__(self, x: "FqElem | int") -> CycloElem:
        code = x.code if isinstance(x, FqElem) else self.field.el(x).code
        if code == 0:
            return CycloElem.zero(self.order)
        return root_of_unity(self.order, self.exp_of(code))

    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise ValueError("characters of different fields")
        return MultChar(self.field, self.j + other.j)

    def __truediv__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise ValueError("characters of different fields")
        return MultChar(self.field, self.j - other.j)

    def __pow__(self, k: int) -> "MultChar":
        return MultChar(self.field, self.j * k)

    def bar(self) -> "MultChar":
        """Complex conjugate, i.e. inverse, character."""
        return MultChar(self.field, -self.j)

    def compose_norm(self, E: FqField) -> "MultChar":
        """chi composed with the norm from E down to this prime base field."""
        base = self.field
        if base.m != 1 or E.p != base.q:
            raise ValueError("norm composition needs E over the prime base")
        # the norm of E's generator is a base unit; shift by its dlog
        ncode = E.norm_to_subfield(E.generator, 1).code
        s = int(base.DLOG[ncode])
        jE = self.j * s * (E.q - 1) // (base.q - 1)
        return MultChar(E, jE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultChar):
            return self.field is other.field and self.j == other.j
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.j))

    def __repr__(self) -> str:
        return f"MultChar(q={self.field.q}, j={self.j})"


class AddChar:
    """Additive character x -> zeta_p^{abs trace(c x)}."""

    __slots__ = ("field", "c")

    def __init__(self, field: FqField, c: "FqElem | int" = 1):
        self.field = field
        self.c = c.code if isinstance(c, FqElem) else field.el(c).code

    def is_trivial(self) -> bool:
        return self.c == 0

    def exp_of(self, code: int) -> int:
        f = self.field
        return int(f.trace_abs_table()[f.mul_code(self.c, code)])

    def __call__(self, x: "FqElem | int") -> CycloElem:
        code = x.code if isinstance(x, FqElem) else self.field.el(x).code
        return root_of_unity(self.field.p, self.exp_of(code))

    def bar(self) -> "AddChar":
        return AddChar(self.field, self.field.neg_code(self.c))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AddChar):
            return self.field is other.field and self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.c, "add"))

    def __repr__(self) -> str:
        return f"AddChar(q={self.field.q}, c={self.c})"


def teich_char(field: FqField, N: int) -> MultChar:
    """The order-N character sending the field generator to zeta_N."""
    if N < 1 or (field.q - 1) % N != 0:
        raise BadN(f"N = {N} does not divide q - 1 = {field.q - 1}")
    return MultChar(field, (field.q - 1) // N)


def teich(u: FqElem, N: int) -> CycloElem:
    """Image of the unit u under the order-N power-residue character."""
    if u.code == 0:
        raise ZeroInput("power-residue image of zero")
    return teich_char(u.field, N)(u).coerce(N)


def gauss_sum(psi: AddChar, chi: MultChar) -> CycloElem:
    """Sum of psi(x) chi(x) over the units, exact in Q(zeta_{p * ord chi})."""
    if psi.is_trivial():
        raise TrivialAdditive("gauss sum needs a nontrivial additive character")
    f = psi.field
    p, ordc = f.p, chi.order
    L = p * ordc // math.gcd(p, ordc)
    sp, sc = L // p, L // ordc
    counts = [0] * L
    trabs = f.trace_abs_table()
    dlog = f.DLOG
    for code in range(1, f.q):
        e = (psi.exp_of(code) * sp + (chi.j0 * int(dlog[code])) % ordc * sc) % L
        counts[e] += 1
    return to_cyclo(counts, L)


def jacobi_sum(a: MultChar, b: MultChar) -> CycloElem:
    """Sum of a(x) b(1-x) over x, with the chi(0) = 0 convention throughout."""
    f = a.field
    if b.field is not f:
        raise ValueError("characters of different fields")
    oa, ob = a.order, b.order
    L = oa * ob // math.gcd(oa, ob)
    sa, sb = L // oa, L // ob
    counts = [0] * L
    one = 1
    for code in range(1, f.q):
        if code == one:
            continue
        comp = f.add_code(1, f.neg_code(code))  # 1 - x
        counts[(a.exp_of(code) * sa + b.exp_of(comp) * sb) % L] += 1
    return to_cyclo(counts, L)


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


def kummer_trace(field: FqField, N: int, chi_res: int, t: "FqElem | int", flavor: str = "x") -> CycloElem:
    """Frobenius trace of a rank-1 power-residue twist, extended by zero.

    flavor "x": value chi(t), zero at t = 0.  flavor "one_minus_x": value
    chi(1-t), zero at t = 1.
    """
    chi = teich_char(field, N) ** (chi_res % N)
    x = t if isinstance(t, FqElem) else field.el(t)
    if flavor == "x":
        arg = x
    elif flavor == "one_minus_x":
        arg = field.one() - x
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    if arg.code == 0:
        return CycloElem.zero(N)
    return chi(arg).coerce(N)


def _neg_gauss_factors(
    field: FqField, N: int, s_chi: Sequence[int], s_rho: Sequence[int], psi: AddChar
) -> tuple[list[CycloElem], list[CycloElem], int]:
    if len(s_chi) != len(s_rho):
        raise SizeMismatch("character multisets of unequal size")
    M = field.p * N
    t = teich_char(field, N)
    psibar = psi.bar()
    chi_f = [(-gauss_sum(psi, t ** (a % N))).coerce(M) for a in s_chi]
    rho_f = [(-gauss_sum(psibar, (t ** (b % N)).bar())).coerce(M) for b in s_rho]
    return chi_f, rho_f, M


def phi_value(
    field: FqField,
    N: int,
    s_chi: Iterable[int],
    s_rho: Iterable[int],
    psi: AddChar | None = None,
) -> CycloElem:
    """Product of negated Gauss sums over both multisets, to the degree power.

    This is the Frobenius value of the rank-1 normalization by which the
    pulled-back traditional sheaf differs from the canonical one.
    """
    psi = psi or AddChar(field, 1)
    chi_f, rho_f, M = _neg_gauss_factors(field, N, list(s_chi), list(s_rho), psi)
    out = CycloElem.one(M)
    for f in chi_f:
        out = out * f
    for f in rho_f:
        out = out * f
    return out ** field.m


def phi_inverse(
    field: FqField,
    N: int,
    s_chi: Iterable[int],
    s_rho: Iterable[int],
    psi: AddChar | None = None,
) -> CycloElem:
    """Exact inverse of phi_value via conjugate Gauss sums, avoiding division.

    Each nontrivial factor -g(psi, chi) inverts to -g(psibar, chibar) / q;
    trivial factors are already 1.
    """
    psi = psi or AddChar(field, 1)
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
