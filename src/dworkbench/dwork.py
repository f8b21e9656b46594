"""Eigenspace Frobenius traces and point counts for the one-parameter
degree-N family sum X_i^N = N t prod X_i in P^{N-1}.

The eigentrace is a stratified character sum: a torus stratum constrained by
s^N = (Nt)^N prod u_i plus boundary strata over vanishing coordinate sets.
Two evaluation routes are kept: eigentrace_all_t, a scaling-orbit engine
that serves every t of a label from one aggregation, and eigentrace_scan,
the literal nested scan of the defining sum at one fiber.  The engine must
agree with the scan, and at N = 3 with brute-force equivariant fixed-point
counts, which fix_count_bruteforce also finds for every t in one pass.

The engine counts m-tuples of units by (sum sigma, dlog sum d mod q-1,
weight e mod N), one unit at a time.  F_q^x scales tuples coordinatewise,
and scaling by g^l is a bijection that maps (sigma, d, e) to
(g^l sigma, d + m l, e + V l), V being the weight sum so far.  So the two
slices T0 = S[sigma = 0] and T1 = S[sigma = 1] determine the whole state:
S[g^j, d, e] = T1[d - m j, e - V j].  Adding a unit is one
`cyclotomic.shift_sums` of T1 over two shift sets given by Zech logarithms
z_j = dlog(1 + g^j) (see _orbit_step): (q-1)^2 N cell updates, against
q (q-1)^2 N for the full state, gathered a block of windows at a time.
The torus stratum reads its rows off both slices, a boundary stratum reads
the slice sigma = -1.  Cells are normalised after each step.  The kernels
choose their own widths (int64, or Python integers past it), so a step
passes its tables as they are and a slice narrows again once it fits.

A boundary stratum tracks no dlog sum, so its slices are rows over Z/N and
each step is a length-N cyclic convolution of T1 with two cached shift
histograms of (q, N, V mod N, w).  It depends only on the multiset of its
weights, so a label's distinct multisets are stepped together, as the rows
of one batch with one `cyclotomic.hist_conv` per depth (see
boundary_terms), and shared by their coordinate sets (see _boundary_strata).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .cyclotomic import CycloElem, combo, hist_conv, shared_json, shift_sums, to_cyclo
from .errors import BadN, BadParams, BadT, Infeasible
from .finitefield import FqField, build_field
from .weights import WeightVector, rank_of

_COUNT_BUDGET = 10 ** 10
# charged q (q-1) N, it bounds the direct shift sum's work: a step gathers
# 2 (q-1)^2 N cells, while the state itself is 2 (q-1) N cells
_STATE_BUDGET = 6 * 10 ** 6


def _entries_of(v: "WeightVector | Sequence[int]", N: int) -> tuple[int, ...]:
    if isinstance(v, WeightVector):
        if v.N != N:
            raise BadParams("label modulus differs from family degree")
        return v.entries
    ent = tuple(int(e) % N for e in v)
    if len(ent) != N:
        raise BadParams(f"expected {N} entries, got {len(ent)}")
    return ent


class DworkFiber:
    """One fiber of the family: prime field, odd degree N, parameter t."""

    __slots__ = ("field", "N", "t_code")

    def __init__(self, field: FqField, N: int, t: int):
        if N < 3 or N % 2 == 0:
            raise BadN("family degree must be odd and at least 3")
        if field.q != field.p or (field.q - 1) % N != 0:
            raise BadN("fiber field must be prime with q = 1 mod N")
        self.field = field
        self.N = N
        self.t_code = int(t) % field.q

    def is_smooth(self) -> bool:
        if self.t_code == 0:
            return True
        d = (int(self.field.DLOG[self.t_code]) * self.N) % (self.field.q - 1)
        return d != 0

    def __repr__(self) -> str:
        return f"DworkFiber(q={self.field.q}, N={self.N}, t={self.t_code})"


class GroupElement:
    """Coordinatewise root-of-unity scaling, modulo the diagonal."""

    __slots__ = ("N", "exps")

    def __init__(self, N: int, exps: Sequence[int]):
        e = [x % N for x in exps]
        if len(e) != N:
            raise BadParams("need one exponent per coordinate")
        if sum(e) % N != 0:
            raise BadParams("exponents must sum to 0 mod N")
        # canonical coset representative: first exponent zero
        self.N = N
        self.exps = tuple((x - e[0]) % N for x in e)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GroupElement):
            return self.N == other.N and self.exps == other.exps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.N, self.exps))

    def __repr__(self) -> str:
        return f"GroupElement(N={self.N}, {list(self.exps)})"


class EigenTrace:
    """Trace value with its stratum breakdown.

    The all-equal label carries the invariant hyperplane classes of every
    even degree, so its middle-degree trace needs the geometric constant
    1 + q + ... + q^{N-2} on top of the stratified sum; every other label
    gets the bare sum.
    """

    __slots__ = ("fiber", "entries", "torus", "strata", "hyperplane", "value")

    def __init__(self, fiber: DworkFiber, entries: tuple[int, ...], torus: CycloElem, strata: dict, hyperplane: CycloElem, value: CycloElem):
        """value = torus + hyperplane + the strata's sum; all but the fiber may be shared."""
        self.fiber = fiber
        self.entries = entries
        self.torus = torus
        self.strata = strata
        self.hyperplane = hyperplane
        self.value = value

    def to_json(self, memo: dict | None = None) -> dict:
        """The trace and its strata, serialized through memo (see
        cyclotomic.shared_json): pass one memo for a table of fibers, whose
        strata are shared, and treat the dicts as read-only."""
        memo = {} if memo is None else memo
        strata = {
            "torus": shared_json(self.torus, memo),
            **{",".join(map(str, z)): shared_json(s, memo) for z, s in sorted(self.strata.items())},
        }
        if not self.hyperplane.is_zero():
            strata["hyperplane"] = shared_json(self.hyperplane, memo)
        return {"t": self.fiber.t_code, "value": shared_json(self.value, memo), "strata": strata}


# -- stratum enumeration ----------------------------------------------------


def strata_sets(entries: Sequence[int]) -> list[tuple[int, ...]]:
    """All coordinate sets Z, 2 <= |Z| <= N-1, with v constant off Z."""
    N = len(entries)
    classes: dict[int, list[int]] = {}
    for i, e in enumerate(entries):
        classes.setdefault(e, []).append(i)
    out: list[tuple[int, ...]] = []
    for members in classes.values():
        top = min(len(members), N - 2)
        for r in range(1, top + 1):
            for comp in combinations(members, r):
                cs = set(comp)
                out.append(tuple(i for i in range(N) if i not in cs))
    out.sort()
    return out


def _normalize(S: np.ndarray) -> np.ndarray:
    """Subtract from each cell its minimum along the last (weight) axis.

    Counts over zeta_N are read only through sum_e S[..., e] zeta_N^e, and
    sum_e zeta_N^e = 0, so this keeps every value while bounding the cells.
    """
    S -= S.min(axis=-1, keepdims=True)
    return S


# -- scaling-orbit step kernel ----------------------------------------------


@lru_cache(maxsize=None)
def _zech(field: FqField) -> np.ndarray:
    """Zech logarithms z[j] = dlog(1 + g^j) of a prime field, -1 at j = (q-1)/2."""
    z = field.DLOG[field.add_codes(field.EXP, 1)]
    z.setflags(write=False)
    return z


def _orbit_step(T0: np.ndarray, T1: np.ndarray, zech: np.ndarray, m: int, V: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Append one unit of weight w to m-tuples of units of weight sum V.

    The state S[sigma, d, e] counts tuples by sum sigma, dlog sum d and
    weight e.  Scaling a tuple by g^l is a bijection, so
    S[g^l sigma, d + m l, e + V l] = S[sigma, d, e] and the slices
    T0 = S[0] and T1 = S[1] hold all of it.  The new unit g^k moves 1 - g^k
    = g^{j_k} (k != 0) or 0 (k = 0) to 1, and -g^k = g^{k+h} to 0, where
    j_k = z[k + h] and h = (q-1)/2:

        T1'[d, e] = T0[d, e] + sum_{k != 0} T1[d - k - m j_k, e - w k - V j_k]
        T0'[d, e] = sum_k T1[d - k - m (k + h), e - w k - V (k + h)]

    Only the torus calls this, with a d axis of length q - 1; the boundary
    strata step as one batch through _line_step.
    """
    Qm1 = len(zech)
    k = np.arange(Qm1)
    kh = (k + Qm1 // 2) % Qm1
    jk = zech[kh]  # -1 at k = 0, which the T1' sum leaves out
    to1, to0 = shift_sums(T1, ((k + m * jk)[1:], (w * k + V * jk)[1:]), (k + m * kh, w * k + V * kh))
    return _normalize(to0), _normalize(combo((1, T0), (1, to1)))


@lru_cache(maxsize=None)
def _line_hists(field: FqField, N: int) -> np.ndarray:
    """Shift histograms of _orbit_step without a dlog axis, for every (V, w).

    With m = 0 the shifts of _orbit_step act on the weight axis alone:
    hist[V, w, 0, s] counts k != 0 with w k + V j_k = s mod N (the T1'
    sum), hist[V, w, 1, s] counts k with w k + V (k + h) = s (the T0' sum).
    Each row sums to at most q - 1.
    """
    Qm1 = field.q - 1
    k = np.arange(Qm1)
    kh = (k + Qm1 // 2) % Qm1
    jk = _zech(field)[kh]
    V, w = np.arange(N)[:, None, None], np.arange(N)[None, :, None]
    cell = (V * N + w) * 2 * N  # flat offset of hist[V, w, 0, 0]
    to1 = cell + (w * k + V * jk) % N
    to0 = cell + N + (w * k + V * kh) % N
    bins = np.concatenate([to1[..., 1:].ravel(), to0.ravel()])
    hist = np.bincount(bins, minlength=2 * N ** 3).reshape(N, N, 2, N)
    hist.setflags(write=False)
    return hist


def _line_step(T0: np.ndarray, T1: np.ndarray, hist: np.ndarray, V: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_orbit_step with m = 0 on (K, N) slices, row i of weight sum V[i]
    taking a unit of weight w[i]: each row of T1 convolves with its own
    (V, w) rows of hist, _line_hists of the field, in one circulant gather."""
    N = T1.shape[-1]
    to = hist_conv(T1, hist[V % N, w % N])
    return _normalize(to[:, 1]), _normalize(combo((1, T0), (1, to[:, 0])))


def boundary_terms(field: FqField, N: int, seqs: Sequence[Sequence[int]]) -> list[CycloElem]:
    """Boundary stratum values, one per weight sequence, stepped as one batch.

    Row i counts the tuples of units with weights seqs[i] and sum -1 by
    total weight, stepped without a dlog axis on (K, N) slices in the order
    of seqs[i], one _line_step per depth over the rows still active; the
    slice sigma = -1 = g^h is read as T1[e - V h].  The active rows come
    back in the width their cells need, as a row stepped alone would; the
    batch only widens to hold them, never narrowing a finished row.
    """
    T0 = np.eye(1, N, dtype=np.int64).repeat(len(seqs), axis=0)  # the empty tuple: sum 0, exponent 0
    T1 = np.zeros_like(T0)
    V = np.zeros(len(seqs), dtype=np.int64)
    for d in range(max(map(len, seqs), default=0)):
        act = np.array([len(seq) > d for seq in seqs])
        w = np.array([seq[d] for seq in seqs if len(seq) > d])
        t0, t1 = _line_step(T0[act], T1[act], _line_hists(field, N), V[act], w)
        T0, T1 = T0.astype(np.result_type(T0, t0), copy=False), T1.astype(np.result_type(T1, t1), copy=False)
        T0[act], T1[act] = t0, t1
        V[act] += w
    h = (field.q - 1) // 2  # N | h for odd N, so this shift is trivial on the family
    return [-to_cyclo(T1[r, (np.arange(N) - V[r] * h) % N].tolist(), N) for r in range(len(seqs))]


def boundary_term(field: FqField, N: int, entries: Sequence[int], Z: Sequence[int], i0: int | None = None) -> CycloElem:
    """One boundary stratum: units on Z summing to zero, first slot pinned.

    The weight is the residue character with exponents v_i - a, a being the
    constant value off Z; the pinned index i0 defaults to min(Z), and for
    labels with zero residue sum the value is independent of the choice.
    With the pinned unit 1, it counts tuples of the other units of Z with sum
    -1: the boundary_terms row of the weights (v_i - a) mod N over Z minus i0.
    """
    Z = tuple(sorted(Z))
    if not (2 <= len(Z) <= N - 1):
        raise BadParams("stratum must omit something and keep two coordinates")
    vals = {entries[i] % N for i in range(N) if i not in Z}
    if len(vals) != 1:
        raise BadParams("label not constant off the stratum")
    a = vals.pop()
    if i0 is None:
        i0 = Z[0]
    elif i0 not in Z:
        raise BadParams("pinned index must lie in the stratum")
    return boundary_terms(field, N, [[(entries[i] - a) % N for i in Z if i != i0]])[0]


def _boundary_strata(field: FqField, N: int, entries: Sequence[int]) -> dict[tuple[int, ...], CycloElem]:
    """Every boundary stratum of a label, one batch row per weight multiset.

    boundary_term at its default anchor reads only the weights
    (v_i - a) mod N over Z minus min(Z): the pinned unit is 1, V and the
    readout shift depend on their sum, and the tuple count does not change
    when slots are permuted together with their weights.  So strata with
    the same sorted weight tuple share one value, for any residue sum; each
    tuple is stepped in the order of the first stratum that has it.
    """
    seqs = {}
    for Z in strata_sets(entries):
        a = entries[min(set(range(N)) - set(Z))]
        seqs[Z] = [(entries[i] - a) % N for i in Z[1:]]
    first = {tuple(sorted(seq)): seq for seq in reversed(seqs.values())}  # the first stratum's order wins
    values = dict(zip(first, boundary_terms(field, N, list(first.values()))))
    return {Z: values[tuple(sorted(seq))] for Z, seq in seqs.items()}


# -- torus stratum, scaling-orbit engine ------------------------------------


def _torus_aggregate(field: FqField, N: int, entries: Sequence[int], orbits: dict | None = None) -> np.ndarray:
    """H[r, e]: counts of torus tuples by constraint residue and weight.

    A tuple contributes at r = (N dlog(s) - sum dlog u_i) mod (q-1) and
    e = sum v_i dlog(u_i) mod N, with s = 1 + sum u_i; the fiber at t reads
    off the single row r_t = N dlog(N t) mod (q-1).  Each row holds the
    counts up to a constant along e (see _normalize), which leaves its value
    over zeta_N unchanged.

    The orbit steps run the first N - 1 weights with the dlog axis, ending
    at m = N - 1 units of weight sum V.  The slice sigma = 0 (s = 1) adds
    T0[d] to row r = -d; the slice sigma = g^j (s = g^{z_j}, z_j the Zech
    logarithm) adds S[g^j, d, e] = T1[d - m j, e - V j] to row
    r = N z_j - d; the slice sigma = -1 (s = 0) is skipped.  So
    H[r] = G[-r] with G = T0 + sum_j T1 shifted by (m j - N z_j, V j).

    orbits, a dict of one field's states, keeps the state before the last
    step under the first N - 2 weights; a label that shares them resumes there.
    """
    q = field.q
    Qm1 = q - 1
    if q * Qm1 * N > _STATE_BUDGET:
        raise Infeasible(f"state space {q * Qm1 * N} exceeds budget")
    zech = _zech(field)
    orbits = {} if orbits is None else orbits
    shared = tuple(entries[: N - 2])
    T0 = np.zeros((Qm1, N), dtype=np.int64)
    T0[0, 0] = 1  # the empty tuple
    T0, T1, V = orbits.get(shared, (T0, np.zeros_like(T0), 0))
    for i in range(N - 2 if shared in orbits else 0, N - 1):
        if i == N - 2:
            orbits[shared] = T0, T1, V
        w = entries[i] % N
        T0, T1 = _orbit_step(T0, T1, zech, i, V, w)
        V += w
    j = np.flatnonzero(zech >= 0)
    G = combo((1, T0), (1, shift_sums(T1, ((N - 1) * j - N * zech[j], V * j))[0]))
    return G[-np.arange(Qm1) % Qm1]


def _torus_row(field: FqField, N: int, t_code: int) -> int:
    dlNt = int(field.DLOG[field.mul_code(N % field.p, t_code)])
    return (N * dlNt) % (field.q - 1)


# -- literal scan (defining sum) -------------------------------------------


def _torus_scan(field: FqField, N: int, entries: Sequence[int], t_code: int) -> CycloElem:
    """The defining torus sum by nested enumeration, last coordinate scanned."""
    Qm1 = field.q - 1
    total = Qm1 ** (N - 1)
    if total > 10 ** 9:
        raise Infeasible(f"torus scan cost {total} too large")
    EXP, dl = field.EXP, field.DLOG
    r_t = _torus_row(field, N, t_code)
    counts = np.zeros(N, dtype=np.int64)
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        rem = idx
        sigma = np.zeros_like(idx)
        dsum = np.zeros_like(idx)
        e = np.zeros_like(idx)
        for i in range(N - 1):
            di = rem % Qm1
            rem = rem // Qm1
            sigma = field.add_codes(sigma, EXP[di])
            dsum += di
            e += (entries[i] % N) * di
        s = field.add_codes(sigma, 1)
        ok = s != 0
        r = (N * dl[np.where(ok, s, 1)] - dsum) % Qm1
        ok &= r == r_t
        counts += np.bincount((e % N)[ok], minlength=N)
    return -to_cyclo(counts.tolist(), N)


def _boundary_scan(field: FqField, N: int, entries: Sequence[int], Z: Sequence[int]) -> CycloElem:
    Z = tuple(sorted(Z))
    comp = [i for i in range(N) if i not in Z]
    a = entries[comp[0]] % N
    Qm1 = field.q - 1
    free = Z[1:]
    total = Qm1 ** len(free)
    EXP = field.EXP
    counts = np.zeros(N, dtype=np.int64)
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(total, lo + chunk), dtype=np.int64)
        rem = idx
        sigma = np.ones_like(idx)
        e = np.zeros_like(idx)
        for i in free:
            di = rem % Qm1
            rem = rem // Qm1
            sigma = field.add_codes(sigma, EXP[di])
            e += ((entries[i] - a) % N) * di
        ok = sigma == 0
        counts += np.bincount((e % N)[ok], minlength=N)
    return -to_cyclo(counts.tolist(), N)


# -- public eigentrace API --------------------------------------------------


def _check_fiber_for_charsum(fiber: DworkFiber) -> None:
    if fiber.t_code == 0:
        raise BadT("character-sum trace needs t != 0")
    if not fiber.is_smooth():
        raise BadT("character-sum trace needs a smooth fiber (t^N != 1)")


def _hyperplane(q: int, N: int, entries: Sequence[int]) -> CycloElem:
    """The invariant hyperplane classes 1 + q + ... + q^{N-2}, on the all-equal label only."""
    if len(set(entries)) == 1:
        return CycloElem.rational(N, (q ** (N - 1) - 1) // (q - 1))
    return CycloElem.zero(N)


def eigentrace_all_t(field: FqField, N: int, v: "WeightVector | Sequence[int]", orbits: dict | None = None) -> dict[int, EigenTrace]:
    """Exact Frobenius traces on the labelled eigenspace of every smooth
    fiber t != 0: one torus aggregation, one set of strata and one
    hyperplane constant per label, shared by every fiber, and one torus
    value per torus row, shared by the fibers that read it.  orbits: see
    _torus_aggregate."""
    entries = _entries_of(v, N)
    H = _torus_aggregate(field, N, entries, orbits)
    strata = _boundary_strata(field, N, entries)
    hyperplane = _hyperplane(field.q, N, entries)
    const = hyperplane + sum(strata.values(), CycloElem.zero(N))
    by_row: dict[int, tuple[CycloElem, CycloElem]] = {}  # torus row -> (torus, value)
    out: dict[int, EigenTrace] = {}
    for t_code in range(1, field.q):
        fiber = DworkFiber(field, N, t_code)
        if not fiber.is_smooth():
            continue
        r = _torus_row(field, N, t_code)
        if r not in by_row:
            torus = -to_cyclo(H[r].tolist(), N)
            by_row[r] = torus, torus + const
        out[t_code] = EigenTrace(fiber, entries, by_row[r][0], strata, hyperplane, by_row[r][1])
    return out


def eigentrace_charsum(v: "WeightVector | Sequence[int]", fiber: DworkFiber) -> EigenTrace:
    """The trace of eigentrace_all_t at one smooth fiber t != 0."""
    _check_fiber_for_charsum(fiber)
    return eigentrace_all_t(fiber.field, fiber.N, v)[fiber.t_code]


def eigentrace_scan(v: "WeightVector | Sequence[int]", fiber: DworkFiber) -> EigenTrace:
    """The same trace by the defining nested sums, the reference route the
    engine of eigentrace_all_t is tested against."""
    _check_fiber_for_charsum(fiber)
    N, field = fiber.N, fiber.field
    entries = _entries_of(v, N)
    torus = _torus_scan(field, N, entries, fiber.t_code)
    strata = {Z: _boundary_scan(field, N, entries, Z) for Z in strata_sets(entries)}
    hyperplane = _hyperplane(field.q, N, entries)
    return EigenTrace(fiber, entries, torus, strata, hyperplane, torus + hyperplane + sum(strata.values(), CycloElem.zero(N)))


def _nonnegative_everywhere(x: CycloElem) -> bool:
    """Whether a totally real x is >= 0 at every embedding, exactly.

    On real x, sigma_e and sigma_-e agree, so its embeddings are sigma_e(x)
    for e < M/2 prime to M.  prod_e (X + sigma_e(x)) is real-rooted with
    rational coefficients, and they are all >= 0 iff no root -sigma_e(x) is
    positive.
    """
    if x.is_rational():
        return x.as_rational() >= 0
    M = x.M
    poly = [CycloElem.one(M)]  # coefficients, constant term first
    for e in range(1, (M + 1) // 2):
        if math.gcd(e, M) == 1:
            s = x.galois(e)
            poly = [a * s + b for a, b in zip([*poly, 0], [0, *poly])]  # times X + s
    return all(c.is_rational() and c.as_rational() >= 0 for c in poly)


def weil_check(trace: EigenTrace) -> bool:
    """Purity bound |T|^2 <= rank^2 q^{N-2} at every embedding, decided
    exactly on the totally real rank^2 q^{N-2} - T conj(T)."""
    N = trace.fiber.N
    q = trace.fiber.field.q
    r = rank_of(trace.entries, N)
    return _nonnegative_everywhere(r * r * q ** (N - 2) - trace.value * trace.value.conjugate())


# -- point counting ---------------------------------------------------------


def count_points(fiber: DworkFiber, m: int = 1) -> int:
    """#Y_t(F_{q^m}) by standard-chart projective enumeration."""
    N = fiber.N
    q = fiber.field.q
    if q ** (m * (N - 1)) > _COUNT_BUDGET:
        raise Infeasible(f"point enumeration cost q^{m * (N - 1)} over budget")
    E = build_field(q, m)
    qe = E.q
    powN = np.zeros(qe, dtype=np.int64)
    dl = E.DLOG
    powN[1:] = E.EXP[(N * dl[1:]) % (qe - 1)]
    nt_code = E.mul_code(N % E.p, fiber.t_code)  # t is a base residue
    total = 0
    chunk = 1 << 20
    # chart j: coords before j vanish, coord j = 1, later coords free; from
    # j = 1 on the product term vanishes with the first coordinate, and at
    # j = N - 1 the equation reads 1 = 0
    for j in range(N - 1):
        nfree = N - 1 - j
        size = qe ** nfree
        rhs = nt_code if j == 0 else 0
        total += sum(_chart_chunk(E, powN, rhs, nfree, lo, min(size, lo + chunk)) for lo in range(0, size, chunk))
    return total


def _chart_chunk(E: FqField, powN: np.ndarray, nt_code: int, nfree: int, lo: int, hi: int) -> int:
    """Solutions of 1 + sum_i x_i^N = nt prod_i x_i among the free coordinate
    tuples with flat indices lo .. hi - 1."""
    qe = E.q
    idx = np.arange(lo, hi, dtype=np.int64)
    rem = idx
    acc = 1
    prod_dl = np.zeros_like(idx)
    any_zero = np.zeros(idx.shape, dtype=bool)
    dl = E.DLOG
    dls = dl.copy()
    dls[0] = 0
    for _ in range(nfree):
        xi = rem % qe
        rem //= qe
        acc = E.add_codes(acc, powN[xi])
        any_zero |= xi == 0
        prod_dl += dls[xi]
    if nt_code == 0:
        rhs = np.zeros_like(idx)
    else:
        rhs = np.where(any_zero, 0, E.EXP[(prod_dl + int(dl[nt_code])) % (qe - 1)])
    return int(np.count_nonzero(acc == rhs))


# -- N = 3 brute-force equivariant fixed points -----------------------------


def _fixed_values(E: FqField, c: int) -> np.ndarray:
    """Codes of zero and of the units x of E = F_{q^3}, q = E.p, with
    (q - 1) dlog x = c mod q^3 - 1 = (q - 1)(q^2 + q + 1), in increasing
    dlog: dlog x = c / (q - 1) + k (q^2 + q + 1) for k < q - 1 when q - 1
    divides c, and no unit otherwise."""
    q, c = E.p, c % (E.q - 1)
    k = np.arange(q - 1 if c % (q - 1) == 0 else 0, dtype=np.int64)
    return np.concatenate(([0], E.EXP[c // (q - 1) + (q * q + q + 1) * k]))


def fix_count_bruteforce(field: FqField, g: GroupElement) -> np.ndarray:
    """Points of each cubic fiber fixed by the scaled Frobenius, counted
    projectively over the cubic extension E: counts[t] for every t in F_q.

    The image of a point c is (zeta_i c_i^q).  It is the same projective
    point exactly when zeta_i c_i^q = lambda c_i for one lambda, that is,
    when dlog zeta_i + (q - 1) dlog c_i agrees over the nonzero coordinates.
    The condition is coordinatewise and free of t: scale the leading nonzero
    coordinate to 1, so lambda = zeta_lead, and _fixed_values lists the
    values each later coordinate may take (q - 1 units, and zero).  The
    fixed points of P^2(E) are the representatives (1 : y : z) and
    (0 : 1 : z) built from those values, and each is bucketed by the fibers
    x^3 + y^3 + z^3 = 3t xyz it lies on: (1 : y : z) with yz != 0 on the one
    fiber with 3t = (1 + y^3 + z^3) / (yz), when that is an F_q constant;
    the others on every fiber when the sum vanishes.  About q^2 tests.
    """
    if g.N != 3:
        raise BadParams("group element degree mismatch")
    q = field.q
    if q != field.p or (q - 1) % 3 != 0:
        raise BadN("fiber field must be prime with q = 1 mod 3")
    E = build_field(q, 3)
    Qe = E.q - 1
    # w^e, w = g^((q-1)/3) a cube root of unity, embeds as a constant
    dz = [int(E.DLOG[field.EXP[(q - 1) // 3 * e]]) for e in g.exps]

    def cubes(c: np.ndarray) -> np.ndarray:
        return np.where(c == 0, 0, E.EXP[(3 * E.DLOG[c]) % Qe])

    ys, zs = _fixed_values(E, dz[0] - dz[1]), _fixed_values(E, dz[0] - dz[2])
    lhs = E.add_codes(E.add_codes(1, cubes(ys))[:, None], cubes(zs)[None, :])
    yz = E.mul_codes(ys[:, None], zs[None, :])
    c3t = E.mul_codes(lhs, E.EXP[-E.DLOG[yz] % Qe])  # lhs / yz where yz != 0
    one = (yz != 0) & (c3t < q)  # the F_q constants are the codes below q
    counts = np.bincount(c3t[one] * pow(3, -1, q) % q, minlength=q)
    at_infinity = E.add_codes(1, cubes(_fixed_values(E, dz[1] - dz[2]))) == 0  # (0 : 1 : z): 1 + z^3 = 0
    return counts + np.count_nonzero((yz == 0) & (lhs == 0)) + np.count_nonzero(at_infinity)
