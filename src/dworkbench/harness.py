"""Verification campaigns tying the trace engines together.

The centerpiece compares eigenspace traces of the degree-N family against
the canonical hypergeometric trace at t^N: their ratio must be a single
constant of the predicted weight.  Around it sit the layered N=3 oracle,
determinant adjudications, sign-law checks, and report plumbing whose
bytes are identical across runs and processes.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .characters import AddChar, MultChar, gauss_exponents, jacobi_exponents
from .cyclotomic import CycloElem, common, exponent_counts, root_of_unity, shared_json, vanishes
from .dwork import (
    DworkFiber,
    GroupElement,
    count_points,
    eigentrace_all_t,
    fix_count_bruteforce,
    weil_check,
)
from .errors import AllRatiosUndefined, BadParams, ConfigError, Infeasible, MissingLambda
from .finitefield import build_field, is_prime
from .hypergeometric import (
    HyperSpec,
    canonical_paths_compare,
    canonical_trace,
    det_agrees,
    lambda_can,
    mellin_agrees,
    trad_trace_conv,
    trad_trace_naive,
    verify_det_hcan,
)
from .pairings import cj_sign, convert_pairing, random_sd_example, require_odd_prime, sd_sign
from .weights import build_v, hyper_data, rank_of, is_self_dual

CONV_SIGN = "-1"  # per-factor sign baked into the convolution trace engine


@dataclass
class CheckResult:
    check: str
    params: dict
    ok: bool
    adjudications: dict
    rows: list
    seed: int
    runtime_ms: int = 0  # stamped by _timed

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.ok,
            "adjudications": self.adjudications,
            "rows": self.rows,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }

    def canonical_bytes(self) -> bytes:
        d = self.to_json()
        d.pop("runtime_ms")
        return json.dumps(d, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)


def _timed(run):
    """Stamp the wall time of each call of a check runner on its report."""

    @functools.wraps(run)
    def timed(*args, **kwargs):
        t0 = time.monotonic()
        res = run(*args, **kwargs)
        res.runtime_ms = int((time.monotonic() - t0) * 1000)
        return res

    return timed


def _digest(parts: Iterable[bytes]) -> str:
    import hashlib  # OpenSSL's libcrypto: loaded only by the checks that digest

    h = hashlib.sha256()
    for p in parts:
        h.update(p)
        h.update(b"|")
    return h.hexdigest()


def _adj(orientation: str | None = None, det_hcan: str | None = None) -> dict:
    return {"orientation": orientation, "conv_sign": CONV_SIGN, "det_hcan_exponent": det_hcan}


# -- eigentrace vs pulled-back canonical trace ------------------------------


@dataclass(kw_only=True)
class KatzReport(CheckResult):
    """A katz report, with the values its callers read besides the params."""

    lam: CycloElem | None
    orientation: str | None
    constant: bool
    weight_ok: bool
    control_constant: bool | None

    def to_result(self) -> CheckResult:
        # the report itself; perfbench/run.py and tests/test_acceptance.py call it
        return self


def _ratio_table(ev_values: dict, can_table, N: int, q: int) -> tuple[dict, dict]:
    """The key (T_v(t), t^N) of each ratio T_v(t) / T_can(t^N), skips annotated.

    A ratio is keyed on the value, not on t^N alone, so a t whose eigentrace
    differs from the rest of its image class gets its own.
    """
    keys, skipped = {}, {}
    for t, tr in ev_values.items():
        tn = pow(t, N, q)
        if can_table.value_at(tn).is_zero():
            skipped[t] = "canonical trace vanishes"
        else:
            keys[t] = (tr.value, tn)
    return keys, skipped


def _constant(keys: Iterable[tuple[CycloElem, int]], can: dict) -> bool:
    """Whether a / can[t^N] is one value over the keys (a, t^N): decided by
    a can[tn0] = a0 can[tn] against the first key, once per distinct key,
    so no value is inverted."""
    distinct = iter(dict.fromkeys(keys))
    a0, tn0 = next(distinct)
    return all(a * can[tn0] == a0 * can[tn] for a, tn in distinct)


@_timed
def katz_check(n: int, N: int, q: int, seed: int = 0) -> KatzReport:
    """Ratio test: eigentrace over canonical trace at t^N is one constant.

    Both orientations of the canonical table are tried by cross-products
    (see _constant); the one giving exact constancy is reported, and its
    lambda is the one quotient formed.  The constant's weight must
    satisfy |ratio|^2 = q^{N-n-1} at every embedding; Q(zeta_M) is abelian,
    so this is the exact identity lam * conj(lam) = q^{N-n-1}.  A perturbed
    label is rerun as a falsifiability control and must break constancy.
    T_v depends only on the multiset of its label, so both labels take the
    two coordinates where they differ last, and the control's torus resumes
    from the label's after their N - 2 shared steps.
    """
    v = build_v(n, N)
    field = build_field(q)
    control = _control_label(v.entries, N)
    order = sorted(range(N), key=lambda i: v.entries[i] != control[i])
    label, control = (tuple(x[i] for i in order) for x in (v.entries, control))
    orbits: dict = {}
    ev = eigentrace_all_t(field, N, label, orbits)
    if not ev:
        raise AllRatiosUndefined("no smooth fibers at this q")
    spec = HyperSpec.from_label(field, v)
    can_table = canonical_trace(spec)

    keys, skipped = _ratio_table(ev, can_table, N, q)
    if not keys:
        raise AllRatiosUndefined("every ratio skipped")
    direct = {tn: can_table.value_at(tn) for _, tn in keys.values()}
    oriented = {"direct": direct, "conjugate": {tn: c.conjugate() for tn, c in direct.items()}}
    chosen = [o for o in oriented if _constant(keys.values(), oriented[o])]
    # self-dual labels can leave both orientations constant: prefer direct
    orientation = chosen[0] if chosen else None
    if orientation is None:
        # ambiguous or failed: report the direct side's quotients, not constant
        lam = None
        ratio = {key: key[0] / direct[key[1]] for key in set(keys.values())}
        weight_ok = False
    else:
        a0, tn0 = next(iter(keys.values()))
        lam = a0 / oriented[orientation][tn0]
        ratio = dict.fromkeys(keys.values(), lam)
        weight_ok = lam * lam.conjugate() == q ** (N - n - 1)

    # each distinct value's JSON, shared by the rows and lambda (see shared_json)
    memo: dict[CycloElem, dict] = {}
    rows = []
    for t in sorted(ev):
        row = {"t": t, "T_v": shared_json(ev[t].value, memo), "T_can_at_tN": shared_json(can_table.value_at(pow(t, N, q)), memo)}
        if t in keys:
            row["ratio"] = shared_json(ratio[keys[t]], memo)
        else:
            row["skip"] = skipped[t]
        rows.append(row)

    control_constant = None
    image_points = len({pow(t, N, q) for t in ev})
    if image_points > 1:
        # a single image point makes every ratio table trivially constant,
        # so the control is only meaningful with at least two
        keys_p, _ = _ratio_table(eigentrace_all_t(field, N, control, orbits), can_table, N, q)
        control_constant = bool(keys_p) and _constant(keys_p.values(), oriented[orientation or "direct"])

    constant = orientation is not None
    params = {
        "n": n,
        "N": N,
        "q": q,
        "lambda": shared_json(lam, memo) if constant else None,
        "constant": constant,
        "weight_ok": weight_ok,
        "lambda_integral": constant and lam.denominator() == 1,
        "skipped": {str(t): why for t, why in sorted(skipped.items())},
        "perturbed_control_constant": control_constant,
        "both_orientations_constant": len(chosen) == 2,
        "image_points": image_points,
    }
    return KatzReport(
        check="katz",
        params=params,
        ok=constant and weight_ok and control_constant is not True,
        adjudications=_adj(orientation=orientation),
        rows=rows,
        seed=seed,
        lam=lam,
        orientation=orientation,
        constant=constant,
        weight_ok=weight_ok,
        control_constant=control_constant,
    )


def _control_label(entries: tuple[int, ...], N: int) -> tuple[int, ...]:
    """The first +1/-1 perturbation of the label not equivalent to it.

    Moving one unit from index b to index a keeps the residue sum zero, so
    the boundary strata do not depend on the anchor.  Labels whose sorted
    entries translate to those of v or -v are skipped, since they share
    v's eigentraces or their conjugates.
    """
    same = {tuple(sorted((s * e + c) % N for e in entries)) for s in (1, -1) for c in range(N)}
    for a in reversed(range(len(entries))):
        for b in range(len(entries)):
            if a == b:
                continue
            label = list(entries)
            label[a] = (label[a] + 1) % N
            label[b] = (label[b] - 1) % N
            if tuple(sorted(label)) not in same:
                return tuple(label)
    raise Infeasible("every unit perturbation is equivalent to the label")


# -- layered N = 3 oracle ---------------------------------------------------

_N3_LABELS = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]


@_timed
def validate_n3(q: int, corrupt: bool = False, seed: int = 0) -> CheckResult:
    """Charsum versus brute-force equivariant fixed points, all smooth t.

    One eigentrace table per label and one fixed-point pass per group
    element serve every t.  The inversion weights fixed-point counts by
    conjugated character values; the all-equal label additionally needs the
    curve's invariant classes 1 + q.  The corrupt flag injects a wrong
    stratum value to prove the oracle can fail.
    """
    field = build_field(q)
    gs = [GroupElement(3, e) for e in _N3_LABELS]
    smooth = [t for t in range(1, q) if DworkFiber(field, 3, t).is_smooth()]
    fixes = {g: fix_count_bruteforce(field, g).tolist() for g in gs}
    traces = {v: eigentrace_all_t(field, 3, v) for v in _N3_LABELS}

    rows = []
    for t in smooth:
        npts = count_points(DworkFiber(field, 3, t), 1)
        row = {"t": t, "fix_counts": [fixes[g][t] for g in gs], "points": npts, "ok": True}
        for v in _N3_LABELS:
            val = traces[v][t].value
            if corrupt and v == (0, 0, 0):
                val = val + 1  # stands in for a corrupted stratum weight
            acc = CycloElem.zero(3)
            for g in gs:
                pair = sum(a * b for a, b in zip(v, g.exps)) % 3
                acc = acc + root_of_unity(3, (-pair) % 3) * fixes[g][t]
            pred = acc * Fraction(-1, 3)
            if v == (0, 0, 0):
                pred = pred + (1 + q)
                if CycloElem.rational(3, 1 + q) - val != npts:
                    row["ok"] = False
            if val != pred:
                row["ok"] = False
        rows.append(row)
    ok = all(r["ok"] for r in rows)
    return CheckResult(
        check="n3",
        params={"q": q, "smooth_t": smooth, "corrupt": corrupt},
        ok=ok,
        adjudications=_adj(),
        rows=rows,
        seed=seed,
    )


# -- determinant weight note ------------------------------------------------


@_timed
def psi2_weight_note(n: int, N: int, q: int, lam: CycloElem | None) -> CheckResult:
    """Weight consistency of the predicted determinant character.

    From the extracted ratio constant lam, form phi = lam * prod(lambda_i)^2
    over the canonical chi residues and the predicted determinant value
    phi^n * q^{n(n-1)/2}; its squared absolute value must be q^{n(N-2)} at
    every embedding, which in the abelian field Q(zeta_M) is the exact
    identity psi2 * conj(psi2) = q^{n(N-2)}.  The full determinant identity
    is out of reach here (it needs second-power traces); only the weight is
    checked.  The
    companion wedge character's triviality is recorded as an external
    assertion, untested.
    """
    if lam is None:
        raise MissingLambda("run the ratio comparison first to extract the constant")
    field = build_field(q)
    v = build_v(n, N)
    chis, _rhos = hyper_data(v)
    prod = CycloElem.one(1)
    for a in chis:
        prod = operator.mul(*common(prod, lambda_can(field, N, a, n) ** 2))
    phi = operator.mul(*common(lam, prod))
    psi2 = phi ** n * (q ** (n * (n - 1) // 2))
    target = q ** (n * (N - 2))
    weight_ok = psi2 * psi2.conjugate() == target
    rows = [
        {"phi": phi.to_json(), "psi2": psi2.to_json(), "target_abs2": str(target), "abs2_is_target": weight_ok},
        {"note": "companion wedge character assumed trivial upstream; not tested"},
    ]
    return CheckResult(
        check="psi2-weight",
        params={"n": n, "N": N, "q": q},
        ok=weight_ok,
        adjudications=_adj(),
        rows=rows,
        seed=0,
    )


# -- criterion runners ------------------------------------------------------


@_timed
def check_build_v(seed: int = 0) -> CheckResult:
    rows = []
    ok = True
    want49 = (0, 0, 0, 0, 0, 2, 3, 5, 8)
    got = build_v(4, 9).entries
    rows.append({"case": "build_v(4,9)", "got": list(got), "want": list(want49), "ok": got == want49})
    for n, N in ((2, 7), (4, 9), (6, 11)):
        v = build_v(n, N)
        r = rank_of(v)
        sd = is_self_dual(v)
        rows.append({"case": f"rank/self-dual ({n},{N})", "rank": r, "self_dual": sd, "ok": r == n and sd == (n == 2)})
    ok = all(r["ok"] for r in rows)
    return CheckResult("build-v", {}, ok, _adj(), rows, seed)


# characters or Jacobi pairs per vectorised step of the gauss suite: at
# q = 29 (M = 812) a step's int64 temporaries are about 50 KB each, so what
# a step frees stays under glibc's default 128 KiB trim threshold and the
# next step reuses it (at 16 a step, the every-pair suite at q = 7, 13, 29
# faulted about 2900 fresh pages a call)
_SUITE_BLOCK = 8


def _modulus_counts(g: np.ndarray, q: int, M: int) -> np.ndarray:
    """Count vectors of g(chi) conj(g(chi)) - q, one per row of Gauss-sum exponents g."""
    out = exponent_counts(g[:, :, None] - g[:, None, :], M)
    out[:, 0] -= q
    return out


def _jacobi_counts(J: np.ndarray, G: np.ndarray, a: np.ndarray, b: np.ndarray, M: int) -> np.ndarray:
    """Count vectors of J(a, b) g(ab) - g(a) g(b), one per pair (a[i], b[i]):
    row i of J holds the exponents of J(chi^a[i], chi^b[i]), row j of G
    those of g(psi, chi^j)."""
    lhs = exponent_counts(J[:, :, None] + G[(a + b) % len(G)][:, None, :], M)
    return lhs - exponent_counts(G[a][:, :, None] + G[b][:, None, :], M)


@_timed
def check_gauss_suite(qs: Sequence[int] = (7, 13, 29), seed: int = 0, sample: int = 150) -> CheckResult:
    """g(psi,1) = -1; g conj(g) = q for nontrivial chi; Jacobi factorization.

    Every sum is its exponent-count vector over Z/M, M = p(q-1); a product
    of sums is the outer sum of their exponents, and each identity holds iff
    the count vector of its two sides' difference vanishes in Q(zeta_M).
    """
    B = _SUITE_BLOCK
    rows = []
    for q in qs:
        field = build_field(q)
        M = field.p * (q - 1)
        chars = [MultChar(field, j) for j in range(q - 1)]
        G = gauss_exponents(AddChar(field), chars, M)
        triv = exponent_counts(G[:1], M)
        triv[0, 0] += 1
        triv_ok = bool(vanishes(triv, M).all())
        mod_ok = all(vanishes(_modulus_counts(G[lo : lo + B], q, M), M).all() for lo in range(1, q - 1, B))
        # Jacobi factorization J(a,b) g(ab) = g(a) g(b) whenever ab nontrivial
        pairs = [(a, b) for a in range(1, q - 1) for b in range(1, q - 1) if (a + b) % (q - 1) != 0]
        if len(pairs) > sample:
            rng = random.Random(seed * 7919 + q)
            pairs = rng.sample(pairs, sample)
        a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        J = jacobi_exponents(field, [chars[i] for i in a], [chars[i] for i in b], M)
        jac_ok = all(
            vanishes(_jacobi_counts(J[lo : lo + B], G, a[lo : lo + B], b[lo : lo + B], M), M).all()
            for lo in range(0, len(pairs), B)
        )
        rows.append({"q": q, "trivial_is_minus_one": triv_ok, "modulus": bool(mod_ok), "jacobi_pairs": len(pairs), "jacobi": bool(jac_ok)})
    ok = all(r["trivial_is_minus_one"] and r["modulus"] and r["jacobi"] for r in rows)
    return CheckResult("gauss-suite", {"qs": list(qs)}, ok, _adj(), rows, seed)


@_timed
def check_hyper_cross(n: int = 2, N: int = 7, q: int = 29, seed: int = 0) -> CheckResult:
    """Convolution, naive, and Gauss-sum Mellin traces agree on the canonical data.

    One convolution table serves both comparisons: conv_eq_naive compares
    elements of Q(zeta_pN), and mellin_ok decides on count vectors over
    Z/p(q-1) (see mellin_agrees).
    """
    field = build_field(q)
    spec = HyperSpec.from_label(field, build_v(n, N))
    table = trad_trace_conv(spec)
    mellin_ok = mellin_agrees(spec, table.counts)
    ts = range(2, q)
    rows = []
    values = []
    for t, naive in zip(ts, trad_trace_naive(spec, ts)):
        cv = table.value_at(t)
        values.append(cv)
        rows.append({"t": t, "conv_eq_naive": cv == naive, "mellin_ok": bool(mellin_ok[field.DLOG[t]])})
    digest = _digest(json.dumps(v.to_json(), sort_keys=True).encode() for v in values)
    ok = all(r["conv_eq_naive"] and r["mellin_ok"] for r in rows)
    return CheckResult("hyper-cross", {"n": n, "N": N, "q": q, "values_sha256": digest}, ok, _adj(), rows, seed)


@_timed
def check_canonical_paths(n: int = 2, N: int = 7, qs: Sequence[int] = (29, 43), seed: int = 0) -> CheckResult:
    rows = []
    for q in qs:
        field = build_field(q)
        spec = HyperSpec.from_label(field, build_v(n, N))
        agree, sign = canonical_paths_compare(spec)
        rows.append({"q": q, "agree": agree, "global_sign": sign})
    ok = all(r["agree"] for r in rows) and len({r["global_sign"] for r in rows}) == 1
    return CheckResult("canonical-paths", {"n": n, "N": N, "qs": list(qs)}, ok, _adj(), rows, seed)


def _random_disjoint_spec(field, rng: random.Random, k: int, force_equal_sums: bool):
    N = field.q - 1
    for _ in range(10000):
        chis = [rng.randrange(N) for _ in range(k)]
        rhos = [rng.randrange(N) for _ in range(k)]
        if set(chis) & set(rhos) or (sum(chis) % N == sum(rhos) % N) != force_equal_sums:
            continue
        return HyperSpec(field, N, chis, rhos)
    raise Infeasible("could not sample a disjoint spec")


@_timed
def check_det_oracle(q: int = 29, k: int = 2, count: int = 6, seed: int = 0) -> CheckResult:
    """det by closed formula equals det from power-sum traces, both cases,
    decided on count vectors (see det_agrees)."""
    # k = 1 has no disjoint spec with equal sums, Newton stops at k = 3, and
    # below q = 5 no disjoint characters of order q - 1 give both Kummer cases
    if k not in (2, 3):
        raise BadParams(f"det-oracle needs k in (2, 3), not {k}")
    if q < 5:
        raise BadParams(f"det-oracle needs q >= 5, not {q}")
    field = build_field(q)
    rng = random.Random(seed * 104729 + q)
    rows = []
    half = count // 2
    for i in range(count):
        spec = _random_disjoint_spec(field, rng, k, force_equal_sums=(i < half))
        t = rng.randrange(2, q)
        rows.append({
            "s_chi": list(spec.s_chi), "s_rho": list(spec.s_rho), "t": t,
            "kummer_case": "absent" if sum(spec.s_chi) % spec.N == sum(spec.s_rho) % spec.N else "present",
            "ok": det_agrees(spec, t),
        })
    ok = all(r["ok"] for r in rows) and {r["kummer_case"] for r in rows} == {"absent", "present"}
    return CheckResult("det-oracle", {"q": q, "k": k, "count": count}, ok, _adj(), rows, seed)


@_timed
def check_det_hcan(seed: int = 0) -> CheckResult:
    rows = []
    for n, N, q in ((2, 7, 29), (2, 7, 43), (4, 9, 19)):
        r = verify_det_hcan(n, N, q)
        rows.append(r)
    exps = {r["exponent"] for r in rows}
    ok = all(r["exponent"] in ("half", "full") for r in rows) and len(exps) == 1 and all(r["point_independent"] for r in rows)
    det_exp = rows[0]["exponent"] if len(exps) == 1 else None
    return CheckResult("det-hcan", {}, ok, _adj(det_hcan=det_exp), rows, seed)


@_timed
def check_weil_duality(n: int = 2, N: int = 7, qs: Sequence[int] = (29, 43), seed: int = 0) -> CheckResult:
    """Purity bound at every computed point; translate and duality laws.

    T_v(t) depends only on t^N, so the exact purity test runs once per
    distinct value.
    """
    rows = []
    for q in qs:
        field = build_field(q)
        v = build_v(n, N)
        tab = eigentrace_all_t(field, N, v)
        weil_ok = all(weil_check(tr) for tr in {tr.value: tr for tr in tab.values()}.values())
        shift = tuple((e + 3) % N for e in v.entries)
        tab_s = eigentrace_all_t(field, N, shift)
        translate_ok = all(tab_s[t].value == tab[t].value for t in tab)
        neg = tuple((-e) % N for e in v.entries)
        tab_n = eigentrace_all_t(field, N, neg)
        dual_ok = all(tab_n[t].value == tab[t].value.conjugate() for t in tab)
        rows.append({"q": q, "weil": weil_ok, "translate": translate_ok, "duality": dual_ok, "points": len(tab)})
    ok = all(r["weil"] and r["translate"] and r["duality"] for r in rows)
    return CheckResult("weil-duality", {"n": n, "N": N, "qs": list(qs)}, ok, _adj(), rows, seed)


@_timed
def check_signs(ls: Sequence[int] = (5, 13), count: int = 100, seed: int = 0) -> CheckResult:
    """Sign product law on randomized examples; det pairing always -1.

    Each l must be an odd prime, and there must be at least one l and one
    draw: an empty draw would pass vacuously.  Both are refused before any
    draw.
    """
    if not ls:
        raise BadParams("ls needs at least one modulus")
    for l in ls:
        require_odd_prime(l)
    if count < 1:
        raise BadParams(f"count = {count} must be at least 1")
    rows = []
    for l in ls:
        rng = random.Random(seed * 31337 + l)
        law_ok = True
        det_ok = True
        for _ in range(count):
            rep, c, chi_c = random_sd_example(l, rng)
            s_sd = sd_sign(rep)
            s_cj = cj_sign(convert_pairing(rep, c, chi_c))
            want = s_sd if chi_c % l == 1 else -s_sd
            if s_cj != want:
                law_ok = False
            rep_d, _, _ = random_sd_example(l, rng, kind="det")
            if sd_sign(rep_d) != -1:
                det_ok = False
        rows.append({"l": l, "count": count, "sign_law": law_ok, "det_pairing_minus_one": det_ok})
    ok = all(r["sign_law"] and r["det_pairing_minus_one"] for r in rows)
    return CheckResult("signs", {"ls": list(ls), "count": count}, ok, _adj(), rows, seed)


# -- campaign orchestration -------------------------------------------------


# the checks a campaign runs by default; psi2 runs only when named
_DEFAULT_CHECKS = (
    "build-v", "gauss-suite", "hyper-cross", "canonical-paths",
    "det-oracle", "det-hcan", "n3", "katz", "weil-duality", "signs",
)


@dataclass
class CampaignConfig:
    n: int = 2
    N: int = 7
    qs: tuple[int, ...] = (29, 43)
    checks: tuple[str, ...] = _DEFAULT_CHECKS
    seed: int = 0
    outdir: str | None = None

    @staticmethod
    def from_text(text: str) -> "CampaignConfig":
        """Parse key=value lines; every rejection names the offending line."""
        cfg = CampaignConfig()
        where: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                if key == "n":
                    cfg.n = int(val)
                elif key == "N":
                    cfg.N = int(val)
                elif key == "q":
                    cfg.qs = tuple(int(x) for x in val.replace(",", " ").split())
                elif key == "checks":
                    cfg.checks = tuple(x for x in val.replace(",", " ").split())
                elif key == "seed":
                    cfg.seed = int(val)
                elif key == "outdir":
                    cfg.outdir = val
                else:
                    raise ConfigError(f"line {lineno}: unknown key {key!r}")
            except ValueError as e:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None
            where[key] = lineno
        bad = cfg._invalid()
        if bad is not None:
            keys, why = bad
            # the defaults are valid, so some key in keys was set by a line
            raise ConfigError(f"line {next(where[k] for k in keys if k in where)}: {why}")
        return cfg

    def _invalid(self) -> tuple[tuple[str, ...], str] | None:
        """The first setting out of range, as (the keys that set it, why)."""
        if self.n < 2 or self.n % 2:
            return ("n",), "n must be even and at least 2"
        if self.N % 2 == 0 or self.N < 3:
            return ("N",), "N must be odd and at least 3"
        if self.N < self.n + 5:
            return ("N", "n"), f"N = {self.N} is below n + 5 = {self.n + 5}"
        if not self.qs:
            return ("q",), "q needs at least one value"
        for q in self.qs:
            if q < 3:
                return ("q",), f"q = {q} is below 3"
            if not is_prime(q):
                return ("q",), f"q = {q} is not prime"
            if q % self.N != 1:
                return ("q", "N"), f"q = {q} is not 1 mod N = {self.N}"
        if not self.checks:
            return ("checks",), "checks needs at least one name"
        bad = set(self.checks) - {*_DEFAULT_CHECKS, "psi2"}
        if bad:
            return ("checks",), f"unknown checks: {sorted(bad)}"
        return None


def run_campaign(cfg: CampaignConfig) -> tuple[int, list[CheckResult]]:
    """Run the selected checks; 0 all pass, 1 any failure.

    Adjudications must agree across every run that makes one; disagreement
    is itself a campaign failure.
    """
    results: list[CheckResult] = []
    lam_by_q: dict[int, CycloElem] = {}
    if cfg.outdir:
        os.makedirs(cfg.outdir, exist_ok=True)

    def add(r: CheckResult) -> None:
        """Keep a report, written to outdir at once so that a later refusal leaves it."""
        if cfg.outdir:
            r.write(os.path.join(cfg.outdir, f"{len(results):02d}-{r.check}.json"))
        results.append(r)

    for name in cfg.checks:
        if name == "build-v":
            add(check_build_v(seed=cfg.seed))
        elif name == "gauss-suite":
            add(check_gauss_suite(seed=cfg.seed))
        elif name == "hyper-cross":
            add(check_hyper_cross(cfg.n, cfg.N, cfg.qs[0], seed=cfg.seed))
        elif name == "canonical-paths":
            add(check_canonical_paths(cfg.n, cfg.N, qs=cfg.qs, seed=cfg.seed))
        elif name == "det-oracle":
            add(check_det_oracle(q=cfg.qs[0], seed=cfg.seed))
        elif name == "det-hcan":
            add(check_det_hcan(seed=cfg.seed))
        elif name == "n3":
            for q in (7, 13):
                add(validate_n3(q, seed=cfg.seed))
        elif name == "katz":
            for q in cfg.qs:
                rep = katz_check(cfg.n, cfg.N, q, seed=cfg.seed)
                if rep.lam is not None:
                    lam_by_q[q] = rep.lam
                add(rep)
        elif name == "weil-duality":
            add(check_weil_duality(cfg.n, cfg.N, qs=cfg.qs, seed=cfg.seed))
        elif name == "signs":
            add(check_signs(seed=cfg.seed))
        elif name == "psi2":
            for q in cfg.qs:
                lam = lam_by_q.get(q)
                if lam is None:
                    lam = katz_check(cfg.n, cfg.N, q, seed=cfg.seed).lam
                add(psi2_weight_note(cfg.n, cfg.N, q, lam))

    ok = all(r.ok for r in results)
    # adjudication consistency across runs
    for key in ("orientation", "det_hcan_exponent"):
        seen = {r.adjudications.get(key) for r in results} - {None}
        if len(seen) > 1:
            ok = False
    return (0 if ok else 1), results
