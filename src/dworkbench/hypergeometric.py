"""Hypergeometric trace functions and determinant identities.

Three independent routes to the same trace table: a literal character-sum
enumeration, iterated multiplicative convolution of rank-1 tables, and a
float transform accelerator.  Trace values are carried as exact
root-of-unity count vectors over zeta_{pN} (flattened exponent a*N + b*p),
so cross-algorithm equality checks are integer comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .characters import (
    AddChar,
    gauss_sum,
    grossen_value,
    kummer_trace,
    phi_inverse,
    phi_value,
    teich_char,
)
from .cyclotomic import CycloElem, to_cyclo
from .errors import BadN, BadT, Infeasible, SizeMismatch
from .finitefield import FqField, build_field
from .groupring import convolve_int
from .weights import WeightVector, hyper_data

_NAIVE_BUDGET = 10 ** 9
_CHAIN_ROW_BOUND = 3000  # full 2D convolution refused beyond this many rows
_FLOAT_EXACT = 1 << 53  # float64 represents every integer below this exactly


class HyperSpec:
    """Field, additive character, and paired multisets of order-N residues."""

    __slots__ = ("field", "N", "s_chi", "s_rho", "psi_c")

    def __init__(
        self,
        field: FqField,
        N: int,
        s_chi: Iterable[int],
        s_rho: Iterable[int],
        psi_c: int = 1,
    ):
        if (field.q - 1) % N != 0:
            raise BadN(f"N = {N} does not divide q - 1 = {field.q - 1}")
        sc = tuple(a % N for a in s_chi)
        sr = tuple(b % N for b in s_rho)
        if len(sc) != len(sr) or not sc:
            raise SizeMismatch("character multisets must be nonempty and equal-sized")
        self.field = field
        self.N = N
        self.s_chi = sc
        self.s_rho = sr
        self.psi_c = psi_c % field.p

    @property
    def k(self) -> int:
        return len(self.s_chi)

    def psi(self) -> AddChar:
        return AddChar(self.field, self.psi_c)

    def extension(self, m: int) -> tuple[FqField, int]:
        """The degree-m extension and the dlog shift of norm composition."""
        if m == 1:
            return self.field, 1
        E = build_field(self.field.q, m)
        ncode = E.norm_to_subfield(E.generator, 1).code
        return E, int(self.field.DLOG[ncode])

    @staticmethod
    def from_label(field: FqField, v: "WeightVector | Sequence[int]", N: int | None = None) -> "HyperSpec":
        """Trace data with the characters cancelled out of a weight label."""
        sc, sr = hyper_data(v, N)
        return HyperSpec(field, sc.N, tuple(sc), tuple(sr))

    def __repr__(self) -> str:
        return f"HyperSpec(q={self.field.q}, N={self.N}, chi={list(self.s_chi)}, rho={list(self.s_rho)})"


class TraceTable:
    """Map from field points to trace values, absent on the dropped locus."""

    __slots__ = ("field", "M", "_all", "absent")

    def __init__(self, field: FqField, M: int, values: dict, absent: frozenset[int] = frozenset((0, 1))):
        self.field = field
        self.M = M
        self._all = values  # includes internal rows the public API hides
        self.absent = absent

    def value_at(self, t):
        code = t.code if hasattr(t, "code") else int(t) % self.field.q
        if code in self.absent:
            raise BadT(f"trace undefined at t = {code}")
        if code not in self._all:
            raise BadT(f"no value stored at t = {code}")
        return self._all[code]

    def items(self):
        for code in sorted(self._all):
            if code not in self.absent:
                yield code, self._all[code]

    def __len__(self) -> int:
        return sum(1 for c in self._all if c not in self.absent)


# -- rank-1 count tables ----------------------------------------------------


def _rank1_trad_counts(E: FqField, N: int, a: int, b: int, c_code: int) -> np.ndarray:
    """Counts of the rank-1 traditional trace over E^x, row d = dlog u.

    Row d holds the exponent counts (over zeta_{pN}, flattened) of
    -chi(u) sum_y psi(y(u-1)) (chi rhobar)(y) at u = g^d; the u = 1 row
    keeps its natural column value -(q-1) [chi = rho] or 0.
    """
    q, p = E.q, E.p
    R, L = q - 1, E.p * N
    counts = np.zeros((R, L), dtype=np.int64)
    diff = (a - b) % N
    if diff == 0:
        counts[0, 0] = -(q - 1)
    EXP, DLOG = E.EXP, E.DLOG
    TR = E.trace_abs_table()
    d = np.arange(1, R)
    U = EXP[d]
    UM1 = E.add_codes(U, np.full(R - 1, E.neg_code(1), dtype=np.int64))
    dly = np.arange(R)
    Y = EXP[dly]
    chunk = max(1, (4 << 20) // R)
    for lo in range(0, R - 1, chunk):
        hi = min(R - 1, lo + chunk)
        w = E.mul_codes(Y[None, :], UM1[lo:hi, None])
        tr = (c_code * TR[w]) % p
        cexp = (a * d[lo:hi, None] + diff * dly[None, :]) % N
        e = (tr * N + cexp * p) % L
        cells = (np.arange(hi - lo)[:, None] * L + e).ravel()
        counts[lo + 1 : hi + 1] -= np.bincount(cells, minlength=(hi - lo) * L).reshape(hi - lo, L)
    return counts


def _rank1_canon_counts(field: FqField, N: int, a: int, b: int) -> np.ndarray:
    """Counts over zeta_N of chi(u) (rho/chi)(1-u), zero at u = 1."""
    q = field.q
    R = q - 1
    counts = np.zeros((R, N), dtype=np.int64)
    EXP, DLOG = field.EXP, field.DLOG
    d = np.arange(1, R)
    U = EXP[d]
    OM = field.add_codes(np.full(R - 1, 1, dtype=np.int64), field.neg_codes(U))  # 1 - u
    diff = (b - a) % N
    e = (a * d + diff * DLOG[OM]) % N
    counts[d, e] = 1
    return counts


# -- exact 2D cyclic convolution -------------------------------------------


def _conv2_signed(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], R: int, L: int) -> list[list[int]]:
    """-(A convolved with B) on (Z/R) x (Z/L), exact in big integers."""
    if R > _CHAIN_ROW_BOUND:
        raise Infeasible(f"full convolution refused over {R} rows")
    L2 = 2 * L
    fa = [0] * (R * L2)
    fb = [0] * (R * L2)
    for i in range(R):
        ra, rb = A[i], B[i]
        base = i * L2
        for j in range(L):
            fa[base + j] = int(ra[j])
            fb[base + j] = int(rb[j])
    g = convolve_int(fa, fb)
    out = [[0] * L for _ in range(R)]
    for idx, v in enumerate(g):
        if v:
            i, j = divmod(idx, L2)
            out[i % R][j % L] -= v
    return out


def _fold_point(A: np.ndarray, B: np.ndarray, dt: int, R: int, L: int) -> list[int]:
    """Exponent counts of -(A * B) at the single output row dt.

    M[e1, e2] = sum_d A[d, e1] B[dt - d, e2], and out[e] sums the cyclic
    anti-diagonal M[e1, e - e1].  Every partial sum of both steps is at most
    R L max|A| max|B| in magnitude: below 2^53 float64 (BLAS) computes them
    exactly, otherwise Python integers do.
    """
    Bt = B[(dt - np.arange(R)) % R]
    bound = R * L * int(np.abs(A).max()) * int(np.abs(Bt).max())
    dtype = np.float64 if bound < _FLOAT_EXACT else object
    M = A.astype(dtype).T @ Bt.astype(dtype)
    e1 = np.arange(L)
    out = M[e1[:, None], (e1[None, :] - e1[:, None]) % L].sum(axis=0)
    return [-int(v) for v in out]


# -- trace algorithms -------------------------------------------------------


def trad_trace_naive(spec: HyperSpec, t, E_degree: int = 1) -> CycloElem:
    """Literal character-sum trace over the degree-m extension at one point.

    Enumerates all unit tuples (x_1..x_k, y_1..y_{k-1}) with the last y
    solved from the hypersurface relation prod x = t prod y, accumulating
    psi(sum x - sum y) and the character exponents exactly.
    """
    E, s = spec.extension(E_degree)
    k = spec.k
    if E.q ** (2 * k - 1) > _NAIVE_BUDGET:
        raise Infeasible(f"naive cost {E.q}^{2 * k - 1} exceeds budget")
    t_code = t.code if hasattr(t, "code") else int(t) % spec.field.q
    if t_code in (0, 1):
        raise BadT("trace undefined at t in {0, 1}")
    q, p = E.q, E.p
    R, L = q - 1, p * spec.N
    N = spec.N
    EXP, TR = E.EXP, E.trace_abs_table()
    dt = int(E.DLOG[t_code])
    aN = [(a * s) % N for a in spec.s_chi]
    bN = [(b * s) % N for b in spec.s_rho]
    c = spec.psi_c
    nfree = 2 * k - 1
    total = R ** nfree
    counts = np.zeros(L, dtype=np.int64)
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        digs = []
        rem = idx
        for _ in range(nfree):
            digs.append(rem % R)
            rem = rem // R
        dx = digs[:k]
        dy = digs[k:]
        dy_last = (sum(dx) - dt - sum(dy)) % R
        dy_all = dy + [dy_last]
        sx = EXP[dx[0]]
        for dd in dx[1:]:
            sx = E.add_codes(sx, EXP[dd])
        sy = EXP[dy_all[0]]
        for dd in dy_all[1:]:
            sy = E.add_codes(sy, EXP[dd])
        z = E.add_codes(sx, E.neg_codes(sy))
        tr = (c * TR[z]) % p
        cexp = np.zeros_like(idx)
        for a_i, dd in zip(aN, dx):
            cexp += a_i * dd
        for b_j, dd in zip(bN, dy_all):
            cexp -= b_j * dd
        cexp %= N
        e = (tr * N + cexp * p) % L
        counts += np.bincount(e, minlength=L)
    return -to_cyclo(counts.tolist(), L)


def _rank1_tables(spec: HyperSpec, m: int) -> tuple[FqField, list[np.ndarray]]:
    E, s = spec.extension(m)
    N = spec.N
    tabs = [
        _rank1_trad_counts(E, N, (a * s) % N, (b * s) % N, spec.psi_c)
        for a, b in zip(spec.s_chi, spec.s_rho)
    ]
    return E, tabs


def trad_trace_conv(spec: HyperSpec, E_degree: int = 1) -> TraceTable:
    """Full trace table by iterated convolution of rank-1 tables.

    Each pairwise step applies the fixed sign T_{A*B}(t) = -sum_{xy=t}
    T_A(x) T_B(y); the result must match the literal enumeration pointwise.
    """
    E, tabs = _rank1_tables(spec, E_degree)
    R, L = E.q - 1, E.p * spec.N
    C: list[list[int]] = tabs[0].tolist()
    for Tb in tabs[1:]:
        C = _conv2_signed(C, Tb.tolist(), R, L)
    values = {int(E.EXP[d]): to_cyclo(C[d], L) for d in range(R)}
    values[0] = CycloElem.zero(L)
    return TraceTable(E, L, values)


def _point_trace_conv(spec: HyperSpec, t_code: int, m: int) -> CycloElem:
    """Trace at one point over the degree-m extension, convolution route."""
    E, tabs = _rank1_tables(spec, m)
    R, L = E.q - 1, E.p * spec.N
    dt = int(E.DLOG[t_code])
    k = spec.k
    if k == 1:
        return to_cyclo(tabs[0][dt].tolist(), L)
    if k > 2:
        C = tabs[0].tolist()
        for Tb in tabs[1:-1]:
            C = _conv2_signed(C, Tb.tolist(), R, L)
        A = np.array(C, dtype=object)
    else:
        A = tabs[0]
    row = _fold_point(A, tabs[-1], dt, R, L)
    return to_cyclo(row, L)


def mellin_fast(spec: HyperSpec) -> TraceTable:
    """Float trace table via the transform that diagonalizes convolution."""
    E, tabs = _rank1_tables(spec, 1)
    R, L = E.q - 1, E.p * spec.N
    basis = np.exp(2j * np.pi * np.arange(L) / L)
    rows = [tab @ basis for tab in tabs]
    F = np.ones(R, dtype=complex)
    for r in rows:
        F = F * np.fft.fft(r)
    conv = np.fft.ifft(F)
    sign = -1.0 if spec.k % 2 == 0 else 1.0
    values = {int(E.EXP[d]): sign * conv[d] for d in range(R)}
    values[0] = 0j
    return TraceTable(E, L, values)


def canonical_trace(spec: HyperSpec, path: str = "conv-of-canonical") -> TraceTable:
    """Trace table of the normalized sheaf by either of its two definitions.

    conv-of-canonical: iterated convolution of rank-1 power-residue twists
    divided by their attached negative Jacobi sums; values in Q(zeta_N).
    trad-over-phi: the traditional table times the exact inverse of the
    Gauss-sum normalization; values in Q(zeta_{pN}).  The two agree up to
    one global sign, which the caller records.
    """
    field, N = spec.field, spec.N
    if path == "trad-over-phi":
        tab = trad_trace_conv(spec)
        pin = phi_inverse(field, N, spec.s_chi, spec.s_rho, spec.psi())
        values = {c: v * pin for c, v in tab._all.items()}
        return TraceTable(field, tab.M, values)
    if path != "conv-of-canonical":
        raise ValueError(f"unknown path {path!r}")
    R = field.q - 1
    tabs = [_rank1_canon_counts(field, N, a, b) for a, b in zip(spec.s_chi, spec.s_rho)]
    C: list[list[int]] = tabs[0].tolist()
    for Tb in tabs[1:]:
        C = _conv2_signed(C, Tb.tolist(), R, N)
    lam = CycloElem.one(N)
    for a, b in zip(spec.s_chi, spec.s_rho):
        lam = lam * grossen_value(field, N, a, b)
    lam_inv = lam.invert()
    values = {int(field.EXP[d]): to_cyclo(C[d], N) * lam_inv for d in range(R)}
    values[0] = CycloElem.zero(N)
    return TraceTable(field, N, values)


def canonical_paths_compare(spec: HyperSpec) -> tuple[bool, int]:
    """Pointwise comparison of the two canonical routes on the open locus.

    Returns (agree, sign) where sign is the single global unit in {+1, -1}
    making the conv-of-canonical table equal sign * trad-over-phi.
    """
    M = spec.field.p * spec.N
    t1 = canonical_trace(spec, "conv-of-canonical")
    t2 = canonical_trace(spec, "trad-over-phi")
    sign = 0
    for code, v1 in t1.items():
        v2 = t2.value_at(code)
        a = v1.coerce(M)
        if a.is_zero() and v2.is_zero():
            continue
        if a == v2:
            s = 1
        elif a == -v2:
            s = -1
        else:
            return False, 0
        if sign == 0:
            sign = s
        elif sign != s:
            return False, 0
    return True, sign if sign else 1


# -- determinants -----------------------------------------------------------


def det_trad(spec: HyperSpec, t) -> CycloElem:
    """Closed-form determinant of the rank-k Frobenius action at t.

    Constant part: product over S_chi of chi((-1)^{k-1}), times
    q^{k(k-1)/2}, times the full grid of negated conjugate Gauss sums
    -g(psibar, rhobar_j / chibar_i); then the residue twist (prod chi)(t),
    and when the multiset products differ also (prod rho / prod chi)(1-t).
    """
    f, N, k = spec.field, spec.N, spec.k
    t_el = t if hasattr(t, "code") else f.el(t)
    if t_el.code in (0, 1):
        raise BadT("determinant evaluated off the open locus")
    M = f.p * N
    tch = teich_char(f, N)
    psibar = spec.psi().bar()
    neg1 = f.el(-1) if (k - 1) % 2 == 1 else f.one()
    acc = CycloElem.rational(M, Fraction(f.q) ** (k * (k - 1) // 2))
    for a in spec.s_chi:
        acc = acc * (tch ** a)(neg1).coerce(M)
    for a in spec.s_chi:
        for b in spec.s_rho:
            acc = acc * (-gauss_sum(psibar, tch ** ((a - b) % N))).coerce(M)
    acc = acc ** f.m
    sa = sum(spec.s_chi) % N
    sb = sum(spec.s_rho) % N
    acc = acc * kummer_trace(f, N, sa, t_el, "x").coerce(M)
    if sa != sb:
        acc = acc * kummer_trace(f, N, (sb - sa) % N, t_el, "one_minus_x").coerce(M)
    return acc


def det_via_newton(spec: HyperSpec, t) -> CycloElem:
    """Determinant reconstructed from traces over the first k extensions.

    Power sums p_m are single-point convolution traces over F_{q^m};
    Newton's identities then give the top elementary symmetric function of
    the Frobenius eigenvalues, which is the determinant.
    """
    k = spec.k
    if k > 3:
        raise Infeasible("newton reconstruction supported for k <= 3")
    q = spec.field.q
    if k >= 3 and q ** k > _CHAIN_ROW_BOUND:
        raise Infeasible("extension-field convolution too large for k = 3")
    t_code = t.code if hasattr(t, "code") else int(t) % q
    if t_code in (0, 1):
        raise BadT("determinant evaluated off the open locus")
    ps = [_point_trace_conv(spec, t_code, m) for m in range(1, k + 1)]
    e1 = ps[0]
    if k == 1:
        return e1
    e2 = (e1 * ps[0] - ps[1]) / 2
    if k == 2:
        return e2
    e3 = (e2 * ps[0] - e1 * ps[1] + ps[2]) / 3
    return e3


def lambda_can(field: FqField, N: int, a: int, n: int) -> CycloElem:
    """Frobenius constant of the canonical rank-1 piece for residue a.

    chi((-1)^{n-1}) times -g(psibar, chi) over (-g(psi, chi)) (-g(psibar, 1)),
    assembled with exact conjugate inverses.
    """
    psi = AddChar(field, 1)
    psibar = psi.bar()
    tch = teich_char(field, N)
    chi = tch ** (a % N)
    M = field.p * N
    neg1 = field.el(-1) if (n - 1) % 2 == 1 else field.one()
    out = chi(neg1).coerce(M)
    out = out * (-gauss_sum(psibar, chi)).coerce(M)
    if not chi.is_trivial():
        # (-g(psi, chi))^{-1} = (-g(psibar, chibar)) / q
        out = out * (-gauss_sum(psibar, chi.bar())).coerce(M) / field.q
    # (-g(psibar, trivial)) = 1 contributes nothing
    return out


def verify_det_hcan(n: int, N: int, q: int) -> dict:
    """Adjudicate which power of q closes the canonical determinant identity.

    Compares det of the normalized sheaf at a point (closed form over the
    normalization to the rank-th power) against the product of rank-1
    constants to the n-th power times q^e, for e in {n(n-1)/2, n(n-1)}.
    Returns exact match flags for both exponents plus consistency data.
    """
    from .weights import build_v

    field = build_field(q)
    spec = HyperSpec.from_label(field, build_v(n, N))
    M = field.p * N
    pin = phi_inverse(field, N, spec.s_chi, spec.s_rho, spec.psi())
    t0, t1 = field.el(2), field.el(3)
    lhs = det_trad(spec, t0) * pin ** n
    lhs_other = det_trad(spec, t1) * pin ** n
    lam_prod = CycloElem.one(M)
    for a in spec.s_chi:
        lam_prod = lam_prod * lambda_can(field, N, a, n)
    base = lam_prod ** n
    e_half = n * (n - 1) // 2
    e_full = n * (n - 1)
    match_half = lhs == base * (Fraction(q) ** e_half)
    match_full = lhs == base * (Fraction(q) ** e_full)
    exponent = "half" if match_half and not match_full else ("full" if match_full and not match_half else "ambiguous")
    return {
        "n": n,
        "N": N,
        "q": q,
        "match_half": bool(match_half),
        "match_full": bool(match_full),
        "exponent": exponent,
        "point_independent": bool(lhs == lhs_other),
    }
