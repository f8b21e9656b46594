"""Hypergeometric trace functions and determinant identities.

Three independent routes to the same trace table: a literal character-sum
enumeration, multiplicative convolution of rank-1 tables, and a Mellin
route through products of Gauss sums.  Trace values are carried as exact
root-of-unity count vectors over zeta_{pN} (flattened exponent a*N + b*p),
so cross-algorithm equality checks are integer comparisons.

The data are Katz's (Exponential Sums and Differential Equations, ch. 8):
the additive character psi_1 and disjoint multisets of characters.  A
rank-1 table is never stored whole.  Its rows over u = g^d are one base
row, a literal count over the units of the field, shifted by p s[d] (the
substitution w = y(u-1)); its u = 1 row is zero, as chi != rho.  Every
convolution route then runs on the exact kernels of `cyclotomic`: a
histogram of summed shifts over (Z/q-1) x (Z/N) folded from one-hot tables
(`shift_sums`), cyclic convolution of base rows over Z/pN (`cconv`), and
the histogram applied to the convolved base as shifts by multiples of p
(`hist_conv`).

The Mellin route shares only `cconv` with the rank-1 tables.  Each
factor's Mellin coefficient is a product of two Gauss sums, whose terms
`gauss_exponents` lists; the inverse transform is a shift of count vectors
over zeta_{p(q-1)} (`window_sums`), and `cyclotomic.vanishes` decides the
comparison.

The determinant identity is decided the same way, over Z/pN.  The closed
form is a product of Gauss sums taken from `gauss_exponents` alone, and
Newton's identities take the power sums from one-point kernel traces over
F_{q^m}, m <= k; `det_agrees` compares the two without building Q(zeta_pN),
and `det_trad` and `det_via_newton` are the elements of the same counts.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .characters import (
    AddChar,
    MultChar,
    gauss_exponents,
    gauss_sum,
    grossen_value,
    phi_inverse,
    teich_char,
)
from .cyclotomic import _BLOCK_CELLS, CycloElem, cconv, combo, ctx_for, exponent_counts, hist_conv, shift_sums, to_cyclo, vanishes, window_sums
from .errors import BadN, BadParams, BadT, Infeasible, SizeMismatch
from .finitefield import FqField, build_field
from .weights import WeightVector, build_v, hyper_data

_NAIVE_BUDGET = 10 ** 9  # tuples per point of trad_trace_naive
_NAIVE_CELLS = 1 << 14  # (t, tuple) cells per chunk of trad_trace_naive, or 2 L per t
# cells gathered plus multiply-adds in one _trace_rows or mellin_rows call:
# seconds of numpy work
_KERNEL_BUDGET = 10 ** 9


class HyperSpec:
    """Field and paired multisets of order-N residues, disjoint: the data of
    Katz's H(psi_1; chi's; rho's)."""

    __slots__ = ("field", "N", "s_chi", "s_rho")

    def __init__(self, field: FqField, N: int, s_chi: Iterable[int], s_rho: Iterable[int]):
        if (field.q - 1) % N != 0:
            raise BadN(f"N = {N} does not divide q - 1 = {field.q - 1}")
        sc = tuple(a % N for a in s_chi)
        sr = tuple(b % N for b in s_rho)
        if len(sc) != len(sr) or not sc:
            raise SizeMismatch("character multisets must be nonempty and equal-sized")
        if set(sc) & set(sr):
            raise BadParams(f"character multisets must be disjoint: {sorted(set(sc) & set(sr))} in both")
        self.field = field
        self.N = N
        self.s_chi = sc
        self.s_rho = sr

    @property
    def k(self) -> int:
        return len(self.s_chi)

    def psi(self) -> AddChar:
        return AddChar(self.field)

    def extension(self, m: int) -> tuple[FqField, int]:
        """The degree-m extension and the dlog shift of norm composition.
        Only a prime base field is extended: the shift composes the norm
        down to F_p."""
        if m == 1:
            return self.field, 1
        f = self.field
        if f.m > 1:
            raise BadParams(f"no degree-{m} extension of F_{f.q} = F_{f.p}^{f.m}: the base field must be prime")
        E = build_field(f.q, m)
        return E, int(f.DLOG[E.norm(int(E.EXP[1]))])

    @staticmethod
    def from_label(field: FqField, v: WeightVector) -> "HyperSpec":
        """Trace data with the characters cancelled out of a weight label."""
        sc, sr = hyper_data(v)
        return HyperSpec(field, v.N, sc, sr)

    def __repr__(self) -> str:
        return f"HyperSpec(q={self.field.q}, N={self.N}, chi={list(self.s_chi)}, rho={list(self.s_rho)})"


class TraceTable:
    """Map from the field points t != 0, 1 to trace values: the value at t,
    exponent counts over Z/M in row dlog t of counts (times factor, if one
    is given), is made on its first read and kept."""

    __slots__ = ("field", "M", "counts", "_factor", "_values")

    def __init__(self, field: FqField, M: int, counts: np.ndarray, factor: CycloElem | None = None):
        self.field = field
        self.M = M
        self.counts = counts
        self._factor = factor
        self._values = {}

    def value_at(self, t: int):
        code = int(t) % self.field.q
        if code in (0, 1):
            raise BadT(f"trace undefined at t = {code}")
        if code not in self._values:
            value = to_cyclo(self.counts[self.field.DLOG[code]].tolist(), self.M)
            self._values[code] = value if self._factor is None else value * self._factor
        return self._values[code]

    def items(self):
        return [(code, self.value_at(code)) for code in range(2, self.field.q)]

    def __len__(self) -> int:
        return self.field.q - 2


# -- rank-1 tables: one base row and its shifts -----------------------------


def _rank1_trad(E: FqField, N: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank-1 traditional trace over E^x as (base, s).

    Row d = dlog u of the table holds the exponent counts (over zeta_{pN},
    flattened) of -chi(u) sum_y psi(y(u-1)) (chi rhobar)(y).  Substituting
    w = y(u-1), row d >= 1 is -roll(base, p s[d]): base counts w in E^x at
    tr(w) N + ((a-b) dlog w mod N) p, and s[d] = a d - (a-b) dlog(g^d - 1)
    mod N.  The u = 1 row sums the nontrivial chi rhobar, so is zero; s[0]
    is unused.
    """
    p, R, L = E.p, E.q - 1, E.p * N
    diff = (a - b) % N
    w = np.arange(R)
    base = np.bincount((E.trace_abs_table()[E.EXP[w]] * N + (diff * w % N) * p) % L, minlength=L)
    d = np.arange(1, R)
    um1 = E.add_codes(E.EXP[d], E.neg_code(1))
    s = np.zeros(R, dtype=np.int64)
    s[1:] = (a * d - diff * E.DLOG[um1]) % N
    return base, s


def _rank1_canon_shifts(field: FqField, N: int, a: int, b: int) -> np.ndarray:
    """s[d] with chi(u) (rho/chi)(1-u) = zeta_N^s[d] at u = g^d, d >= 1."""
    R = field.q - 1
    d = np.arange(1, R)
    om = field.add_codes(1, field.neg_codes(field.EXP[d]))  # 1 - u
    s = np.zeros(R, dtype=np.int64)
    s[1:] = (a * d + (b - a) % N * field.DLOG[om]) % N
    return s


# -- rank-1 products: one-hot shift tables over (Z/R) x (Z/N), base rows over Z/L


def _kernel_cost(R: int, N: int, L: int, nrows: int, k: int) -> int:
    """Cells and multiply-adds of _trace_rows over k factors at nrows output
    rows: the one-hot table, k - 2 full folds and one fold at the output
    rows, k - 1 base-row convolutions, and N L per output row to apply the
    histogram."""
    folds = max(k - 2, 0) * R + (nrows if k >= 2 else 0)
    return (1 + folds) * R * N + (k - 1) * L * L + nrows * N * L


def _require_budget(cost: int, L: int, k: int) -> None:
    if cost > _KERNEL_BUDGET:
        raise Infeasible(f"kernel cost {cost} exceeds budget {_KERNEL_BUDGET} (L = {L}, k = {k})")


def _shift_hist(shifts: Sequence[np.ndarray], R: int, N: int, row: int | None = None) -> np.ndarray:
    """Convolution over (Z/R) x (Z/N) of one-hot shift tables, at every row
    or at row alone (shape (1, N)).

    Factor i has a single 1 at (d, shifts[i][d]) in every row d != 0, so
    out[x, j] counts the tuples (d_1..d_k) of nonzero rows with sum d_i = x
    and sum shifts[i][d_i] = j; each fold is one shift_sums, in the width
    its own counts need.
    """
    H = np.zeros((R, N), dtype=np.int64)
    d = np.arange(1, R)
    H[d, shifts[0][1:]] = 1
    k = len(shifts)
    if k < 2:
        return H if row is None else H[row : row + 1]
    for i, s in enumerate(shifts[1:], start=2):
        H = shift_sums(H, (d, s[1:]), row=row if i == k else None)[0]
    return H


def _trace_rows(factors: Sequence[tuple[np.ndarray, np.ndarray]], R: int, N: int, row: int | None = None) -> np.ndarray:
    """Exponent counts of (-1)^(k-1) T_1 * ... * T_k at every row, or at row
    alone (shape (1, L)).

    T_i is a pair (base, shifts), an L-vector and an R-vector: row d != 0 of
    T_i is roll(base, (L/N) shifts[d]), and row 0 is zero.  The product is
    the convolution of the bases over Z/L times the histogram of the shifts
    (_shift_hist), applied as shifts (hist_conv).
    """
    out = hist_conv(functools.reduce(cconv, [base for base, _ in factors]), _shift_hist([s for _, s in factors], R, N, row))
    return out if len(factors) % 2 else -out


# -- trace algorithms -------------------------------------------------------


def trad_trace_naive(spec: HyperSpec, ts: Sequence[int], E_degree: int = 1) -> list[CycloElem]:
    """Literal character-sum traces over the degree-m extension, one per t.

    Enumerates all unit tuples (x_1..x_k, y_1..y_{k-1}) with the last y
    solved from the hypersurface relation prod x = t prod y, accumulating
    psi(sum x - sum y) and the character exponents exactly.  Only the solved
    y = g^(S - dlog t), S = sum dlog x - sum dlog y over the free
    coordinates, depends on t, and psi(z - y) = psi(z) psi(-y) for their sum
    z: a tuple's exponent over Z/L is its own part plus the solved
    coordinate's, read from a (q - 1) x (number of t) table at row S.  Each
    chunk of tuples is enumerated once for every t.  The budget is charged
    per point.
    """
    k = spec.k
    qE = spec.field.q ** E_degree  # refuse before building the extension
    if qE ** (2 * k - 1) > _NAIVE_BUDGET:
        raise Infeasible(f"naive cost {qE}^{2 * k - 1} exceeds budget")
    t_codes = [int(t) % spec.field.q for t in ts]
    if any(c in (0, 1) for c in t_codes):
        raise BadT("trace undefined at t in {0, 1}")
    if not t_codes:
        return []
    E, s = spec.extension(E_degree)
    p, N = E.p, spec.N
    R, L = E.q - 1, p * N
    EXP, TR = E.EXP, E.trace_abs_table()
    NEG_EXP = E.neg_codes(EXP)
    aN = [(a * s) % N for a in spec.s_chi]
    bN = [(b * s) % N for b in spec.s_rho]
    nt, nfree = len(t_codes), 2 * k - 1
    # last[S, i]: the exponent of psi(-y) rhobar_k(y), y = g^(S - dlog t_i),
    # placed in t_i's row of 2 L cells; a tuple's own part lies in [0, L)
    y = (np.arange(R)[:, None] - E.DLOG[np.array(t_codes, dtype=np.int64)]) % R
    last = (TR[NEG_EXP[y]] * N - bN[-1] * y * p) % L + 2 * L * np.arange(nt)
    total = R ** nfree
    counts = np.zeros(nt * 2 * L, dtype=np.int64)
    chunk = max(_NAIVE_CELLS // nt, 2 * L)  # no fewer cells than counts has
    for lo in range(0, total, chunk):
        rem = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        digs = []
        for _ in range(nfree):
            digs.append(rem % R)
            rem = rem // R
        dx, dy = digs[:k], digs[k:]
        z = EXP[dx[0]]  # sum x - sum y over the free coordinates
        for dd in dx[1:]:
            z = E.add_codes(z, EXP[dd])
        for dd in dy:
            z = E.add_codes(z, NEG_EXP[dd])
        cexp = sum(a_i * dd for a_i, dd in zip(aN, dx)) - sum(b_j * dd for b_j, dd in zip(bN, dy))
        own = (TR[z] * N + cexp * p) % L
        S = (sum(dx) - sum(dy)) % R
        counts += np.bincount((last[S] + own[:, None]).ravel(), minlength=nt * 2 * L)
    return [to_cyclo(row, L) for row in -counts.reshape(nt, 2, L).sum(axis=1)]


def _trad_budget(spec: HyperSpec, m: int, nrows: int) -> int:
    """Refuse the kernel cost of _trad_rows over F_{q^m} at nrows rows, before
    anything is built; returns L = pN."""
    L = spec.field.p * spec.N
    _require_budget(_kernel_cost(spec.field.q ** m - 1, spec.N, L, nrows, spec.k), L, spec.k)
    return L


def _trad_rows(spec: HyperSpec, m: int, t_code: int | None = None) -> tuple[FqField, np.ndarray]:
    """Exponent counts over Z/L of the traditional trace over F_{q^m}, at
    t_code or at every row d = dlog t.  The kernel's cost is refused before
    the extension field or any row is built; a caller that makes elements of
    Q(zeta_L) from the rows refuses that field first."""
    N = spec.N
    R = spec.field.q ** m - 1
    _trad_budget(spec, m, R if t_code is None else 1)
    E, sh = spec.extension(m)
    factors = []
    for a, b in zip(spec.s_chi, spec.s_rho):
        base, s = _rank1_trad(E, N, (a * sh) % N, (b * sh) % N)
        factors.append((-base, s))
    return E, _trace_rows(factors, R, N, None if t_code is None else int(E.DLOG[t_code]))


def trad_trace_conv(spec: HyperSpec, E_degree: int = 1) -> TraceTable:
    """Full trace table by convolution of rank-1 tables.

    Each pairwise step applies the fixed sign T_{A*B}(t) = -sum_{xy=t}
    T_A(x) T_B(y); the result must match the literal enumeration pointwise.
    """
    L = _trad_budget(spec, E_degree, spec.field.q ** E_degree - 1)
    ctx_for(L)
    E, C = _trad_rows(spec, E_degree)
    return TraceTable(E, L, C)


def mellin_rows(spec: HyperSpec) -> np.ndarray:
    """Exponent counts over Z/M, M = p(q-1), of (q-1) T(g^d) at every row d,
    by the Mellin transform over the characters omega^j, omega(g) = zeta_{q-1}.

    Substituting x = y u in the rank-1 row -chi(u) sum_y psi(y(u-1))
    (chi rhobar)(y), the u = 1 row included, gives its Mellin coefficient
    sum_u T_i(u) omega^j(u) = -g(psi, chi omega^j) g(psibar, rhobar omega^-j).
    The convolution sign (-1)^(k-1) then leaves
        (q-1) T(g^d) = -sum_j zeta_{q-1}^{-jd}
                        prod_i g(psi, chi_i omega^j) g(psibar, rhobar_i omega^-j),
    where each pair's product is the outer sum of its terms' exponents and
    zeta_{q-1}^{-jd} is a shift by -p j d.  Refused past _KERNEL_BUDGET
    before any table is built.
    """
    f, N, k = spec.field, spec.N, spec.k
    p, R = f.p, f.q - 1
    M = p * R
    # k outer sums of R x R exponents per character, k - 1 convolutions over
    # Z/M per character, R shifted copies of an (R, M) table
    cost = k * R ** 3 + (k - 1) * R * M * M + R * R * M
    if cost > _KERNEL_BUDGET:
        raise Infeasible(f"mellin cost {cost} exceeds budget {_KERNEL_BUDGET} (q = {f.q}, k = {k})")
    chars = [MultChar(f, j) for j in range(R)]
    psi = spec.psi()
    G, Gbar = gauss_exponents(psi, chars, M), gauss_exponents(psi.bar(), chars, M)
    j = np.arange(R)
    step = max(1, _BLOCK_CELLS // (R * R))  # characters per block of outer sums
    V = None
    for a, b in zip(spec.s_chi, spec.s_rho):
        g, gbar = G[(j + a * R // N) % R], Gbar[(-j - b * R // N) % R]
        F = np.concatenate([exponent_counts(g[lo : lo + step, :, None] + gbar[lo : lo + step, None, :], M) for lo in range(0, R, step)])
        V = F if V is None else np.stack([cconv(x, y) for x, y in zip(V, F)])
    # row d shifts each V[j] by p (j d mod R)
    return -window_sums(V, p * (np.outer(j, j) % R))


def mellin_agrees(spec: HyperSpec, C: np.ndarray) -> np.ndarray:
    """Row d: whether C[d], the traditional trace at g^d as counts over
    Z/pN (see _trad_rows), equals the Mellin route's value, exactly.

    C is lifted to Z/M by e -> e (q-1)/N and scaled by q-1; the difference
    from mellin_rows must vanish in Q(zeta_M).
    """
    W = mellin_rows(spec)
    R, M, L = spec.field.q - 1, W.shape[1], C.shape[1]
    lift = np.zeros(W.shape, dtype=C.dtype)
    lift[:, np.arange(L) * (M // L)] = C
    return vanishes(combo((1, W), (-R, lift)), M)


def canonical_trace(spec: HyperSpec) -> TraceTable:
    """Trace table of the normalized sheaf as a convolution of canonical
    pieces: iterated convolution of rank-1 power-residue twists divided by
    their attached negative Jacobi sums; values in Q(zeta_N).
    """
    field, N = spec.field, spec.N
    R = field.q - 1
    _require_budget(_kernel_cost(R, N, N, R, spec.k), N, spec.k)
    # unit bases: the _trace_rows product is the shift histogram, signed (-1)^(k-1)
    H = _shift_hist([_rank1_canon_shifts(field, N, a, b) for a, b in zip(spec.s_chi, spec.s_rho)], R, N)
    C = H if spec.k % 2 else -H
    lam = CycloElem.one(N)
    for a, b in zip(spec.s_chi, spec.s_rho):
        lam = lam * grossen_value(field, N, a, b)
    return TraceTable(field, N, C, lam.invert())


def canonical_paths_compare(spec: HyperSpec) -> tuple[bool, int]:
    """Pointwise comparison of the two canonical routes on the open locus.

    conv-of-canonical is canonical_trace; trad-over-phi is the traditional
    table times the exact inverse of the Gauss-sum normalization, with
    values in Q(zeta_{pN}).  Returns (agree, sign) where sign is the single
    global unit in {+1, -1} making the conv-of-canonical table equal
    sign * trad-over-phi.
    """
    M = spec.field.p * spec.N
    t1 = canonical_trace(spec)
    trad = trad_trace_conv(spec)
    pin = phi_inverse(spec.field, spec.N, spec.s_chi, spec.s_rho)
    sign = 0
    for code, v1 in t1.items():
        v2 = trad.value_at(code) * pin
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
#
# Both sides of the determinant identity are exponent-count vectors over
# Z/L, L = pN: the closed form from Gauss sums alone, Newton's identities
# from the rank-1 kernel alone.  They share only the F_q tables, and
# det_agrees decides their equality with `vanishes`, building no element.


def _locus_code(spec: HyperSpec, t: int) -> int:
    code = int(t) % spec.field.q
    if code in (0, 1):
        raise BadT("determinant evaluated off the open locus")
    return code


def _det_budget(spec: HyperSpec) -> int:
    """Refuse the cost of _det_counts before anything is built; returns L.

    The k^2 Gauss sums are joined pairwise by outer sums of (q-1)^2 cells;
    the ceil(k^2/2) pair vectors, then the f-th power, take dense
    convolutions over Z/L of L^2 multiply-adds each."""
    f, k = spec.field, spec.k
    L = f.p * spec.N
    convs = (k * k + 1) // 2 - 1 + f.m - 1
    _require_budget(k * k // 2 * (f.q - 1) ** 2 + convs * L * L, L, k)
    return L


def _det_counts(spec: HyperSpec, t_code: int) -> np.ndarray:
    """Exponent counts over Z/L of det_trad at t, from one gauss_exponents
    call: the k^2 sums pair by outer sums and the pairs join by cconv; the
    sign (-1)^(k^2) and q^(k(k-1)/2) are an integer factor, and the chi(-1)
    factor and the Kummer twists are shifts by multiples of p."""
    f, N, k = spec.field, spec.N, spec.k
    p, L = f.p, f.p * N
    tch = teich_char(f, N)
    G = gauss_exponents(spec.psi().bar(), [tch ** ((a - b) % N) for a in spec.s_chi for b in spec.s_rho], L)
    half = k * k // 2
    vecs = list(exponent_counts(G[0 : 2 * half : 2, :, None] + G[1 : 2 * half : 2, None, :], L))
    if k % 2:
        vecs.append(exponent_counts(G[-1:], L)[0])
    D = functools.reduce(cconv, [functools.reduce(cconv, vecs)] * f.m)
    sa, sb = sum(spec.s_chi) % N, sum(spec.s_rho) % N
    DLOG = f.DLOG
    # prod chi((-1)^(k-1)) = zeta_N^(sa dlog(-1)) for even k, once per power
    shift = f.m * sa * int(DLOG[f.neg_code(1)]) if k % 2 == 0 else 0
    shift += sa * int(DLOG[t_code])  # (prod chi)(t)
    if sa != sb:  # (prod rho / prod chi)(1 - t)
        shift += (sb - sa) * int(DLOG[f.add_code(1, f.neg_code(t_code))])
    return combo((((-1) ** k * f.q ** (k * (k - 1) // 2)) ** f.m, np.roll(D, p * (shift % N))))


def _newton_budget(spec: HyperSpec) -> int:
    """Refuse the cost of _newton_counts before anything is built; returns L:
    a one-row kernel over each F_{q^m}, m <= k, and k(k-1)/2 dense
    convolutions over Z/L."""
    k, f, N = spec.k, spec.field, spec.N
    if k > 3:
        raise Infeasible("newton reconstruction supported for k <= 3")
    L = f.p * N
    cost = sum(_kernel_cost(f.q ** m - 1, N, L, 1, k) for m in range(1, k + 1))
    _require_budget(cost + k * (k - 1) // 2 * L * L, L, k)
    return L


def _newton_counts(spec: HyperSpec, t_code: int) -> np.ndarray:
    """Exponent counts over Z/L of k! e_k, e_k the top elementary symmetric
    function of the Frobenius eigenvalues at t: each power sum p_m is the
    one-point trace over F_{q^m}, and Newton's identities with the
    denominators cleared give p1, p1^2 - p2 or p1^3 - 3 p1 p2 + 2 p3."""
    ps = [_trad_rows(spec, m, t_code)[1][0] for m in range(1, spec.k + 1)]
    if spec.k == 1:
        return ps[0]
    p11 = cconv(ps[0], ps[0])
    if spec.k == 2:
        return combo((1, p11), (-1, ps[1]))
    return combo((1, cconv(p11, ps[0])), (-3, cconv(ps[0], ps[1])), (2, ps[2]))


def det_trad(spec: HyperSpec, t: int) -> CycloElem:
    """Closed-form determinant of the rank-k Frobenius action at t.

    Constant part: product over S_chi of chi((-1)^{k-1}), times
    q^{k(k-1)/2}, times the full grid of negated conjugate Gauss sums
    -g(psibar, rhobar_j / chibar_i), all to the f-th power for q = p^f;
    then the residue twist (prod chi)(t), and when the multiset products
    differ also (prod rho / prod chi)(1-t).  Built from the counts of
    _det_counts, after their cost and then Q(zeta_pN) are refused.
    """
    t_code = _locus_code(spec, t)
    L = _det_budget(spec)
    ctx_for(L)
    return to_cyclo(_det_counts(spec, t_code), L)


def det_via_newton(spec: HyperSpec, t: int) -> CycloElem:
    """Determinant reconstructed from traces over the first k extensions.

    Power sums p_m are single-point convolution traces over F_{q^m};
    Newton's identities then give the top elementary symmetric function of
    the Frobenius eigenvalues, which is the determinant.  Built from the
    counts of _newton_counts over k!, after their cost and then Q(zeta_pN)
    are refused.
    """
    L = _newton_budget(spec)
    t_code = _locus_code(spec, t)
    ctx_for(L)
    return to_cyclo(_newton_counts(spec, t_code), L, den=math.factorial(spec.k))


def det_agrees(spec: HyperSpec, t: int) -> bool:
    """Whether det_trad and det_via_newton agree at t, exactly: k! det minus
    Newton's counts must vanish in Q(zeta_L).  Both costs are refused
    before either side is built, and no Q(zeta_L) context is."""
    L = _det_budget(spec)
    _newton_budget(spec)
    t_code = _locus_code(spec, t)
    diff = combo((math.factorial(spec.k), _det_counts(spec, t_code)), (-1, _newton_counts(spec, t_code)))
    return bool(vanishes(diff, L))


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
    out = chi(field.neg_code(1) if (n - 1) % 2 == 1 else 1).coerce(M)
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
    field = build_field(q)
    spec = HyperSpec.from_label(field, build_v(n, N))
    M = field.p * N
    pin = phi_inverse(field, N, spec.s_chi, spec.s_rho)
    lhs = det_trad(spec, 2) * pin ** n
    lhs_other = det_trad(spec, 3) * pin ** n
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
