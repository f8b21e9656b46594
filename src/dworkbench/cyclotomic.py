"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element lives in the power basis 1, z, ..., z^{phi(M)-1} for a fixed
primitive M-th root of unity z, as an integer numerator vector over one
shared positive denominator.  Products are reduced modulo the M-th
cyclotomic polynomial, so the representation is canonical and equality is
literal coefficient equality.  One numpy table per modulus, the power
vectors of z^phi .. z^(M-1), serves every reduction: a product, a Galois
action, a coercion or a sum of roots of unity becomes a coefficient vector
over Z/M, and `_reduce` folds its entries past z^(phi-1) through the table,
in float64, int64 or Python integers as its proved bound allows (see
_work_dtype); no float leaves it or `cconv`.

Sums of roots of unity are also handled before they become elements, as
exponent-count vectors over Z/M (entry e counts zeta_M^e): `to_cyclo` turns
one into an element, and `vanishes` decides whether one is zero in O(M
omega(M)) steps, without the power basis.  An identity between products of
such sums is then one vanishing test on the outer sums of their exponents.
Both trace engines combine such vectors with the exact kernels `cconv`,
`shift_sums`, `window_sums`, `hist_conv` and `combo`.  Each bounds its own
operands and returns its result in `exact_dtype` of that bound, the one
width rule, so no caller chooses a dtype.

Complex embeddings (`embed`, `abs2`) serve printed output only; each call
forms its roots of unity afresh, and no context keeps them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotAMultiple, TooLarge
from .finitefield import prime_factors

Rat = Union[int, Fraction]

# The int64 fast paths run only when every partial sum is proved below this.
_INT64_LIMIT = 1 << 63
# IEEE-754 doubles hold every integer below this exactly, so a product proved
# below it is exact in float64, where numpy has the BLAS it lacks for integers.
_FLOAT_EXACT = 1 << 53
# OpenBLAS threads a float64 dot of over 10^4 terms, slower than one thread
# at L = 12656 and stalling under load: cconv takes x in blocks of this many.
_DOT_TERMS = 8192
# The budget charges M * phi(M) for a context, more than the (M - phi) * phi
# entries its table keeps: the checks also call ctx_for to refuse a modulus
# before they build count vectors over Z/M, and charging the table alone
# would move where those refusals fall.
_CTX_BUDGET = 10 ** 8
_BLOCK_CELLS = 1 << 16  # cells gathered per block of shift_sums or of an outer sum of exponents


def exact_dtype(bound: int) -> type:
    """The dtype of an exact computation whose values and partial sums are
    proved at most bound in magnitude: int64 below 2^63, Python integers
    (object) otherwise."""
    return np.int64 if bound < _INT64_LIMIT else object


def _work_dtype(bound: int) -> type:
    """The dtype to compute in, cast back to exact_dtype(bound) after: float64
    where that is int64 and bound is below 2^53, exact_dtype(bound) otherwise."""
    dt = exact_dtype(bound)
    return np.float64 if dt is np.int64 and bound < _FLOAT_EXACT else dt


def _prime_powers(M: int) -> list[tuple[int, int]]:
    """(l, l^k) for every prime power l^k exactly dividing M, l increasing."""
    # l^k <= M < 2^bitlen <= l^bitlen, so the gcd is the whole l-part of M
    return [(l, math.gcd(M, l ** M.bit_length())) for l in prime_factors(M)]


def euler_phi(M: int) -> int:
    return math.prod(pk // l * (l - 1) for l, pk in _prime_powers(M))


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # den is monic; the division is exact by construction
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dn]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Integer coefficients of the M-th cyclotomic polynomial, low to high."""
    if M == 1:
        return (-1, 1)
    poly = [0] * (M + 1)
    poly[0], poly[M] = -1, 1  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


class CycloCtx:
    """Cached per-modulus data: the power vectors that reduce modulo Phi_M.

    Row e - phi of the (M - phi, phi) array `powers` holds the power-basis
    coordinates of z^e for phi <= e < M, in the narrowest integer dtype that
    holds them, and `pmax` is the largest |entry| (1 with no rows).  Below
    z^phi the power vectors are the unit vectors, and z^M = 1, so these rows
    reduce any coefficient vector over Z/M (see _reduce).
    """

    __slots__ = ("M", "phi", "poly", "powers", "pmax")

    def __init__(self, M: int):
        phi = euler_phi(M)
        if M * phi > _CTX_BUDGET:
            raise TooLarge(f"Q(zeta_{M}) charges M phi = {M} x {phi} to the context budget {_CTX_BUDGET}")
        self.M = M
        self.poly = cyclotomic_poly(M)
        self.phi = phi
        pw = np.zeros((M - phi, phi), dtype=np.int8)
        pmax = top = 1
        zphi = np.array([-c for c in self.poly[:phi]], dtype=np.int64)
        h = int(np.abs(zphi).max())
        row = np.zeros(phi, dtype=np.int64)
        row[-1] = 1  # z^(phi-1)
        # z^(e+1) = z z^e: shift, then the top coordinate times z^phi.
        # Each row is computed in int64, refused before it could leave
        # int64, and stored once the table is wide enough to hold it:
        # setitem casts silently, so the table widens before the store.
        for e in range(phi, M):
            lead = int(row[-1])
            if pmax + abs(lead) * h >= _INT64_LIMIT:
                raise ArithmeticError(f"power vectors of Q(zeta_{M}) leave int64")
            row = np.concatenate(([0], row[:-1]))
            if lead:
                row += lead * zphi
            pmax = max(pmax, int(np.abs(row).max()))
            if pmax > top:
                pw = pw.astype(np.min_scalar_type(-pmax - 1))
                top = int(np.iinfo(pw.dtype).max)
            pw[e - phi] = row
        self.powers = pw
        self.pmax = pmax


@lru_cache(maxsize=None)
def ctx_for(M: int) -> CycloCtx:
    if M < 1:
        raise ValueError("modulus must be positive")
    return CycloCtx(M)


def _reduce(f: np.ndarray, ctx: CycloCtx, bound: int) -> list[int]:
    """Numerator vector of sum_e f[e] z^e, for an integer coefficient vector
    f over Z/M of length phi to M whose entries are at most bound in
    magnitude.

    The nonzero entries past z^(phi-1) fold in through the reducing rows
    they name, so every partial sum is at most bound (1 + rows read * pmax),
    and the sum is taken in _work_dtype of that.  numpy's einsum loop runs
    this vector-matrix product faster than matmul's in int64.
    """
    phi = ctx.phi
    nz = f[phi:].nonzero()[0]
    total = bound * (1 + len(nz) * ctx.pmax)
    f = f.astype(_work_dtype(total), copy=False)
    return (f[:phi] + np.einsum("i,ij->j", f[phi:][nz], ctx.powers[nz])).astype(exact_dtype(total), copy=False).tolist()


def _mul_num(a: Sequence[int], b: Sequence[int], ctx: CycloCtx) -> list[int]:
    """Numerator vector of a * b reduced modulo Phi_M: the linear product,
    folded modulo z^M = 1 when it is longer than M, then reduced with its
    largest |coefficient| as the bound (cconv proves it below 2^63 when
    it returns int64, so abs cannot wrap)."""
    f = cconv(np.array(a, dtype=object), np.array(b, dtype=object), min(ctx.M, 2 * ctx.phi - 1))
    return _reduce(f, ctx, int(np.abs(f).max()))


def _combine(ctx: CycloCtx, coeffs: Sequence[int], step: int) -> list[int]:
    """Numerator vector of sum_i coeffs[i] * z^(step i): the coefficients are
    summed over Z/M, where exponents may repeat, then reduced."""
    bound = sum(map(abs, coeffs))
    dt = exact_dtype(bound)
    f = np.zeros(ctx.M, dtype=dt)
    # typed first: numpy would read Python integers from 2^63 up as floats
    np.add.at(f, np.arange(len(coeffs)) * step % ctx.M, np.array(coeffs, dtype=dt))
    return _reduce(f, ctx, bound)


def _make(M: int, num: list[int], den: int) -> "CycloElem":
    if den < 0:
        den = -den
        num = [-v for v in num]
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    if not any(num):
        den = 1
    el = object.__new__(CycloElem)
    el.M = M
    el._num = tuple(num)
    el._den = den
    return el


class CycloElem:
    """Element of Q(zeta_M) in canonical reduced power-basis form."""

    __slots__ = ("M", "_num", "_den")

    M: int
    _num: tuple[int, ...]
    _den: int

    def __init__(self, M: int, value: Rat = 0):
        ctx = ctx_for(M)
        fr = Fraction(value)
        num = [0] * ctx.phi
        num[0] = fr.numerator
        self.M = M
        self._num = tuple(num)
        self._den = fr.denominator
        if fr.numerator == 0:
            self._den = 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(M: int) -> "CycloElem":
        return CycloElem(M, 0)

    @staticmethod
    def one(M: int) -> "CycloElem":
        return CycloElem(M, 1)

    @staticmethod
    def rational(M: int, value: Rat) -> "CycloElem":
        return CycloElem(M, value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other: Union["CycloElem", Rat]) -> "CycloElem":
        if isinstance(other, CycloElem):
            if other.M != self.M:
                raise ValueError(
                    f"modulus mismatch: {self.M} vs {other.M}; coerce explicitly"
                )
            return other
        return CycloElem(self.M, other)

    def __add__(self, other: Union["CycloElem", Rat]) -> "CycloElem":
        o = self._lift(other)
        da, db = self._den, o._den
        num = [a * db + b * da for a, b in zip(self._num, o._num)]
        return _make(self.M, num, da * db)

    __radd__ = __add__

    def __sub__(self, other: Union["CycloElem", Rat]) -> "CycloElem":
        return self + (-self._lift(other))

    def __rsub__(self, other: Rat) -> "CycloElem":
        return (-self) + other

    def __neg__(self) -> "CycloElem":
        return _make(self.M, [-v for v in self._num], self._den)

    def __mul__(self, other: Union["CycloElem", Rat]) -> "CycloElem":
        o = self._lift(other)
        if o.is_rational():
            fr = o.as_rational()
            return _make(self.M, [v * fr.numerator for v in self._num], self._den * fr.denominator)
        if self.is_rational():
            fr = self.as_rational()
            return _make(self.M, [v * fr.numerator for v in o._num], o._den * fr.denominator)
        return _make(self.M, _mul_num(self._num, o._num, ctx_for(self.M)), self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["CycloElem", Rat]) -> "CycloElem":
        o = self._lift(other)
        if o.is_rational():
            fr = o.as_rational()
            if fr == 0:
                raise ZeroDivisionError("cyclotomic division by zero")
            return _make(self.M, [v * fr.denominator for v in self._num], self._den * fr.numerator)
        return self * o.invert()

    def __pow__(self, k: int) -> "CycloElem":
        if k < 0:
            return self.invert() ** (-k)
        out = CycloElem.one(self.M)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def invert(self) -> "CycloElem":
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycloElem(self.M, 1 / self.as_rational())
        prod = CycloElem.one(self.M)
        for e in range(2, self.M):
            if math.gcd(e, self.M) == 1:
                prod = prod * self.galois(e)
        norm = (self * prod).as_rational()  # field norm, necessarily rational
        return prod * (1 / norm)

    # -- Galois ------------------------------------------------------------

    def galois(self, e: int) -> "CycloElem":
        """Apply the automorphism z -> z^e, e coprime to M."""
        M = self.M
        if math.gcd(e, M) != 1:
            raise ValueError("exponent not coprime to modulus")
        ctx = ctx_for(M)
        out = _combine(ctx, self._num, e)
        return _make(M, out, self._den)

    def conjugate(self) -> "CycloElem":
        return self.galois(self.M - 1) if self.M > 1 else self

    def coerce(self, M2: int) -> "CycloElem":
        """Value-preserving inclusion into Q(zeta_{M2}) for M | M2."""
        if M2 == self.M:
            return self
        if M2 % self.M:
            raise NotAMultiple(f"{M2} is not a multiple of {self.M}")
        out = _combine(ctx_for(M2), self._num, M2 // self.M)
        return _make(M2, out, self._den)

    # -- numerics ----------------------------------------------------------

    def embed(self, e: int = 1) -> complex:
        """Complex value under z -> exp(2 pi i e / M), gcd(e, M) = 1."""
        if math.gcd(e, self.M) != 1:
            raise ValueError("embedding exponent not coprime to modulus")
        M = self.M
        e %= M
        acc = 0 + 0j
        for i, c in enumerate(self._num):
            if c:
                acc += c * cmath.exp(2j * cmath.pi * e * i / M)
        return acc / self._den

    def abs2(self, e: int = 1) -> float:
        v = self.embed(e)
        return v.real * v.real + v.imag * v.imag

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._num)

    def denominator(self) -> int:
        return self._den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloElem):
            return self.M == other.M and self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.M, self._num, self._den))

    def __repr__(self) -> str:
        terms = []
        for i, n in enumerate(self._num):
            if not n:
                continue
            c = str(Fraction(n, self._den))
            terms.append(c if i == 0 else (f"{c}*z{i}" if i > 1 else f"{c}*z"))
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo[{self.M}]({body})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Each coefficient n / den in lowest terms, as a [numerator, denominator] pair."""
        den = self._den
        coeffs = []
        for n in self._num:
            g = math.gcd(n, den)
            coeffs.append([str(n // g), str(den // g)])
        return {"M": self.M, "coeffs": coeffs}


def shared_json(x: CycloElem, memo: dict[CycloElem, dict]) -> dict:
    """x.to_json(), made once per distinct element of one memo.

    The memo is keyed on the element, whose equality is literal, so a report
    that holds the same value in many rows serializes it once.  The dicts
    returned are shared by every row built through the memo: treat them as
    read-only, since an edit to one changes all of them.
    """
    out = memo.get(x)
    if out is None:
        out = memo[x] = x.to_json()
    return out


def root_of_unity(M: int, k: int = 1) -> CycloElem:
    """zeta_M^k in canonical form: a unit vector, or one reducing row."""
    ctx, e = ctx_for(M), k % M
    f = np.zeros(max(ctx.phi, e + 1), dtype=np.int64)
    f[e] = 1
    return _make(M, _reduce(f, ctx, 1), 1)


def to_cyclo(counts: Iterable[int], M: int, den: int = 1) -> CycloElem:
    """Build sum_e counts[e] * zeta_M^e / den from an exponent-count vector."""
    counts = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
    return _make(M, _combine(ctx_for(M), counts, 1), den)


def exponent_counts(exps: np.ndarray, M: int) -> np.ndarray:
    """Exponent-count vectors over Z/M, one per row: row i of the (k, M)
    result counts the entries of exps[i] (of any shape) modulo M."""
    exps = np.asarray(exps, dtype=np.int64)
    k = exps.shape[0]
    flat = exps.reshape(k, math.prod(exps.shape[1:])) % M + np.arange(0, k * M, M)[:, None]
    return np.bincount(flat.ravel(), minlength=k * M).reshape(k, M)


@lru_cache(maxsize=None)
def _crt_layout(M: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The CRT grid of Z/M: a permutation perm and a shape such that
    v[perm].reshape(shape) has, for each prime power l^k || M in turn, a
    digit axis of length l and a residue axis of length l^(k-1), holding at
    (..., d, r, ...) the entry whose exponent is r + d l^(k-1) mod l^k."""
    pps = _prime_powers(M)
    e = np.arange(M, dtype=np.int64)
    pos = np.zeros(M, dtype=np.int64)
    for _, pk in pps:
        pos = pos * pk + e % pk
    perm = np.empty(M, dtype=np.int64)
    perm[pos] = e
    perm.setflags(write=False)  # shared by every caller through the cache
    return perm, tuple(n for l, pk in pps for n in (l, pk // l))


def vanishes(counts: np.ndarray, M: int) -> np.ndarray:
    """Whether sum_e counts[..., e] * zeta_M^e = 0, exactly, for every vector
    along the last axis (of length M); a bool array of the leading shape.

    Z/M is the product of the Z/l^k over the prime powers l^k || M, and
    Z[zeta_M] the tensor product of the Z[zeta_{l^k}], so on the CRT grid a
    count vector is a tensor with a (digit, residue) pair of axes per factor.
    In Z[zeta_{l^k}], z^(r + (l-1) l^(k-1)) = -sum_{d < l-1} z^(r + d l^(k-1)):
    subtracting the top digit block from the others along every digit axis
    leaves the coordinates in a Z-basis of Z[zeta_M], which are all 0 iff the
    sum is.  Each step at most doubles the largest |entry|; the steps run in
    int64 when that stays in range and in Python integers otherwise.
    """
    c = np.asarray(counts)
    if c.shape[-1:] != (M,):
        raise ValueError(f"count vectors must have length {M}, not {c.shape[-1:]}")
    lead = c.shape[:-1]
    if c.size == 0:
        return np.ones(lead, dtype=bool)
    perm, shape = _crt_layout(M)
    steps = len(shape) // 2
    dt = exact_dtype(_abs_max(c) << (steps + 1))
    x = c.astype(dt)[..., perm].reshape(lead + shape)
    for ax in range(len(lead), x.ndim, 2):
        top = x.shape[ax] - 1
        head = (slice(None),) * ax
        x = x[head + (slice(0, top),)] - x[head + (slice(top, top + 1),)]
    return np.all(x.reshape(lead + (-1,)) == 0, axis=-1)


# -- exact count-vector kernels: each casts an operand only to a dtype that holds it


def _abs_max(v: np.ndarray) -> int:
    """max|v|, exactly; 0 for an empty v."""
    return max(int(v.max()), -int(v.min())) if v.size else 0


def _abs_max_sum(v: np.ndarray) -> tuple[int, int]:
    """max|v| and the largest sum of |v| along the last axis, exactly: by numpy
    for an int64 v whose sums are proved in range, else in Python integers."""
    if v.dtype == np.int64:
        top = _abs_max(v)
        if top * v.shape[-1] < _INT64_LIMIT:
            return top, int(np.abs(v).sum(axis=-1).max())
    rows = [list(map(abs, r)) for r in v.reshape(-1, v.shape[-1]).tolist()]
    return max(map(max, rows)), max(map(sum, rows))


def cconv(x: np.ndarray, y: np.ndarray, L: int | None = None) -> np.ndarray:
    """Cyclic convolution over Z/L, exact; L defaults to len(x).

    The operands may be shorter than L, as long as their linear product,
    of length len(x) + len(y) - 1, is at least L long; a longer operand is
    refused.  So a folded coefficient takes at most one term x[i] y[j] per
    i and one per j: every partial sum is at most min(max|x| sum|y|,
    sum|x| max|y|).  np.convolve runs on blocks of x in _work_dtype of that
    bound and the largest |entry|, and the result is in exact_dtype of it.
    """
    L = len(x) if L is None else L
    if max(len(x), len(y)) > L:
        raise ValueError(f"operands of lengths {len(x)} and {len(y)} are longer than L = {L}")
    (mx, sx), (my, sy) = _abs_max_sum(x), _abs_max_sum(y)
    bound = max(mx, my, min(mx * sy, sx * my))
    dt = _work_dtype(bound)
    x, y = x.astype(dt, copy=False), y.astype(dt, copy=False)
    lin = np.zeros(len(x) + len(y) - 1, dtype=dt)
    for lo in range(0, len(x), _DOT_TERMS):
        part = np.convolve(x[lo : lo + _DOT_TERMS], y)
        lin[lo : lo + len(part)] += part
    out = lin[:L].astype(exact_dtype(bound))
    out[: len(lin) - L] += lin[L:].astype(out.dtype)
    return out


def shift_sums(T: np.ndarray, *shift_sets: tuple[np.ndarray, np.ndarray], row: int | None = None) -> np.ndarray:
    """For each shift set (a, b): the table sum_k T[d - a_k, e - b_k] of the
    (D, N) table T, cyclic in both axes, at every row d or at d = row alone;
    shape (len(shift_sets), D or 1, N).

    A sum has a term per shift: the result is in exact_dtype of max|T| times
    the longest set's length (at least 1, so T fits; an empty set sums to
    0).  At one row, each shift gathers one row of T itself: the doubled
    table would hold 4 D N cells.  At every row, each shift names one (D, N)
    window of the doubled table, and a set's sum adds its windows, repeats
    included, gathered a block of at most _BLOCK_CELLS cells (and at least
    one window) at a time.
    """
    D, N = T.shape
    T = T.astype(exact_dtype(_abs_max(T) * max([1, *(len(a) for a, _ in shift_sets)])), copy=False)
    if row is not None:
        e = np.arange(N)
        return np.stack([T[(row - a[:, None]) % D, (e - b[:, None]) % N].sum(axis=0) for a, b in shift_sets])[:, None]
    # window (i, j) of the doubled table is T[(d + i) % D, (e + j) % N]
    W = sliding_window_view(np.tile(T, (2, 2)), (D, N))
    out = np.zeros((len(shift_sets), D, N), dtype=T.dtype)
    step = max(1, _BLOCK_CELLS // (D * N))  # windows per gather
    for acc, (a, b) in zip(out, shift_sets):
        for lo in range(0, len(a), step):
            acc += W[-a[lo : lo + step] % D, -b[lo : lo + step] % N].sum(axis=0)
    return out


def window_sums(V: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """out[d, e] = sum_j V[j, (e + shifts[j, d]) mod M] for a (J, M) table V and
    (J, D) shifts in [0, M), one window of each row of the doubled table per
    output row: J terms, so the result is in exact_dtype of J max|V|."""
    J, M = V.shape
    win = sliding_window_view(np.tile(V.astype(exact_dtype(J * _abs_max(V)), copy=False), 2), M, axis=1)
    return np.stack([win[np.arange(J), s].sum(axis=0) for s in shifts.T])


@lru_cache(maxsize=None)
def _circulant(N: int, L: int) -> np.ndarray:
    """idx[j, e] = (e - (L/N) j) mod L: P[idx] stacks roll(P, (L/N) j) over j."""
    idx = (np.arange(L)[None, :] - (L // N) * np.arange(N)[:, None]) % L
    idx.setflags(write=False)  # shared by every caller through the cache
    return idx


def hist_conv(P: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Rows sum_j H[..., r, j] roll(P, (L/N) j) for L-vectors P and (R, N)
    histograms H, batch axes leading: P convolved over Z/L with each row of
    H placed at the multiples of L/N, by one circulant gather.  An entry
    has one term per cell of its row of H: the result is in exact_dtype of
    max|P| times the largest row sum of |H|, and of each of the two.
    """
    mp, (_, sh) = _abs_max(P), _abs_max_sum(H)
    dt = exact_dtype(max(mp, sh, mp * sh))
    return H.astype(dt, copy=False) @ P.astype(dt, copy=False)[..., _circulant(H.shape[-1], P.shape[-1])]


def combo(*terms: tuple[int, np.ndarray]) -> np.ndarray:
    """sum c v over (c, v) terms of one shape, exact: a new array in exact_dtype
    of sum |c| max|v|, each factor at least 1.  A c of 1 adds without a multiply."""
    dt = exact_dtype(sum(max(1, abs(c)) * max(1, _abs_max(v)) for c, v in terms))
    first, *rest = (v.astype(dt, copy=False) if c == 1 else c * v.astype(dt, copy=False) for c, v in terms)
    return sum(rest, first) if rest else first.copy()


def common(a: CycloElem, b: CycloElem) -> tuple[CycloElem, CycloElem]:
    """Lift both elements into Q(zeta_lcm)."""
    M = a.M * b.M // math.gcd(a.M, b.M)
    return a.coerce(M), b.coerce(M)
