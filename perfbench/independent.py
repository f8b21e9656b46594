"""Correctness checks made apart from dworkbench.

Every function here reads the program's JSON-level outputs (or plain
numbers) and recomputes a property with its own arithmetic: floating-point
evaluation of cyclotomic coefficient vectors through `cmath`, and naive
enumeration over prime fields.  None of it calls dworkbench, so a fault in
the program's exact arithmetic cannot hide itself here.

Each check returns a list of problems; an empty list means the output
passed.  Prime fields only: a field element's code is its integer value.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

REL_TOL = 1e-9


def embed(value: dict, e: int = 1) -> complex:
    """sum_i c_i zeta_M^(i e) for a `{"M": M, "coeffs": [[num, den], ...]}` value."""
    M = int(value["M"])
    acc = 0j
    for i, (num, den) in enumerate(value["coeffs"]):
        c = Fraction(int(num), int(den))
        if c:
            acc += float(c) * cmath.exp(2j * cmath.pi * ((i * e) % M) / M)
    return acc


def units_mod(M: int) -> list[int]:
    return [e for e in range(1, max(M, 2)) if math.gcd(e, M) == 1]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# -- eigentrace versus canonical trace (katz) --------------------------------


def katz_problems(report: dict, n: int, N: int, q: int) -> list[str]:
    """A `katz` report at (n, N, q): weight, row set, image points, control, Weil.

    |lambda|^2 = q^(N-n-1) at every embedding; one row per smooth t, that is
    q - 1 - N rows; (q - 1)/N - 1 image points t^N, so ratio constancy is not
    trivial; the perturbed control broke constancy; and every eigentrace obeys
    |T_v| <= n q^((N-2)/2) at every embedding (the label has rank n).
    """
    out: list[str] = []
    params = report["params"]
    lam = params.get("lambda")
    if lam is None:
        out.append("no ratio constant")
    else:
        target = float(q) ** (N - n - 1)
        for e in units_mod(int(lam["M"])):
            got = abs(embed(lam, e)) ** 2
            if not close(got, target):
                out.append(f"|lambda|^2 = {got!r} at embedding {e}, want {target!r}")
                break
    ts = [row["t"] for row in report["rows"]]
    smooth = {t for t in range(1, q) if pow(t, N, q) != 1}
    if len(ts) != q - 1 - N or set(ts) != smooth:
        out.append(f"{len(ts)} rows, want one for each of the {q - 1 - N} smooth t")
    images = len({pow(t, N, q) for t in smooth})
    if images != (q - 1) // N - 1 or params.get("image_points") != images:
        out.append(f"image points {params.get('image_points')}, want {(q - 1) // N - 1}")
    if params.get("perturbed_control_constant") is not False:
        out.append("perturbed control did not break constancy")
    out += weil_problems(report["rows"], n, N, q)
    return out


def weil_problems(rows: list[dict], n: int, N: int, q: int) -> list[str]:
    """|T_v(t)| <= n q^((N-2)/2) at every embedding, from each row's `T_v`."""
    bound = n * float(q) ** ((N - 2) / 2)
    for row in rows:
        tv = row["T_v"]
        for e in units_mod(int(tv["M"])):
            size = abs(embed(tv, e))
            if size > bound * (1 + REL_TOL):
                return [f"|T_v({row['t']})| = {size!r} > Weil bound {bound!r} at embedding {e}"]
    return []


# -- layered N = 3 oracle ----------------------------------------------------


def cubic_points(q: int, t: int) -> int:
    """#{x^3 + y^3 + z^3 = 3 t x y z} in P^2(F_q), by naive enumeration."""
    cubes = [pow(x, 3, q) for x in range(q)]
    affine = 0
    for x in range(q):
        for y in range(q):
            s = cubes[x] + cubes[y]
            c = 3 * t * x * y
            for z in range(q):
                if (s + cubes[z] - c * z) % q == 0:
                    affine += 1
    return (affine - 1) // (q - 1)


def n3_problems(report: dict, q: int) -> list[str]:
    """Every `n3` row's point count against naive projective enumeration."""
    out: list[str] = []
    smooth = [t for t in range(1, q) if pow(t, 3, q) != 1]
    if report["params"].get("smooth_t") != smooth or [r["t"] for r in report["rows"]] != smooth:
        out.append(f"rows do not cover the smooth t {smooth}")
    for row in report["rows"]:
        want = cubic_points(q, row["t"])
        if row["points"] != want:
            out.append(f"t={row['t']}: {row['points']} points, naive count {want}")
    return out


# -- determinant oracle ------------------------------------------------------


def det_oracle_problems(report: dict) -> list[str]:
    """Both Kummer cases appear, each label matching the residue sums mod q - 1."""
    out: list[str] = []
    N = report["params"]["q"] - 1
    seen = set()
    for row in report["rows"]:
        case = "absent" if sum(row["s_chi"]) % N == sum(row["s_rho"]) % N else "present"
        if row["kummer_case"] != case:
            out.append(f"row {row['s_chi']}/{row['s_rho']} labelled {row['kummer_case']}, sums say {case}")
        seen.add(case)
    if seen != {"absent", "present"}:
        out.append(f"Kummer cases seen: {sorted(seen)}")
    return out


def adjudication_problems(reports: list[dict]) -> list[str]:
    """Each adjudication key takes at most one non-null value across reports."""
    values: dict[str, set] = {}
    for rep in reports:
        for key, val in rep.get("adjudications", {}).items():
            if val is not None:
                values.setdefault(key, set()).add(val)
    return [f"adjudication {k} disagrees: {sorted(map(str, v))}" for k, v in sorted(values.items()) if len(v) > 1]


# -- Gauss sums ----------------------------------------------------------------


def dlog_table(q: int, gen: int) -> dict[int, int]:
    """x -> k with gen^k = x in F_q, by repeated multiplication."""
    table, x = {}, 1
    for k in range(q - 1):
        table[x] = k
        x = x * gen % q
    if len(table) != q - 1:
        raise ValueError(f"{gen} does not generate F_{q}^*")
    return table


def gauss_problems(q: int, gen: int, sums: list[dict]) -> list[str]:
    """Gauss sums g_j = g(psi, chi^j), j = 0 .. q-2, chi(gen) = zeta_{q-1}, psi(x) = zeta_q^x.

    Fourier inversion: sum_j g_j conj(chi^j(x)) = (q - 1) psi(x) for x != 0;
    and |g_j|^2 = q for every nontrivial chi^j.
    """
    out: list[str] = []
    if len(sums) != q - 1:
        return [f"{len(sums)} Gauss sums, want {q - 1}"]
    g = [embed(s) for s in sums]
    for j in range(1, q - 1):
        if not close(abs(g[j]) ** 2, float(q)):
            out.append(f"|g(psi, chi^{j})|^2 = {abs(g[j]) ** 2!r}, want {q}")
    dlog = dlog_table(q, gen)
    for x in range(1, q):
        k = dlog[x]
        acc = sum(g[j] * cmath.exp(-2j * cmath.pi * j * k / (q - 1)) for j in range(q - 1))
        want = (q - 1) * cmath.exp(2j * cmath.pi * x / q)
        if abs(acc - want) > REL_TOL * q * q:
            out.append(f"Fourier inversion at x={x}: {acc!r}, want {want!r}")
            break
    return out


def gauss_suite_problems(report: dict, qs: tuple[int, ...]) -> list[str]:
    """Every q present, every verdict true, and every Jacobi pair tested."""
    out: list[str] = []
    rows = {r["q"]: r for r in report["rows"]}
    for q in qs:
        r = rows.get(q)
        if r is None:
            out.append(f"no row for q={q}")
            continue
        if r["jacobi_pairs"] != (q - 2) * (q - 3):
            out.append(f"q={q}: {r['jacobi_pairs']} Jacobi pairs, want all {(q - 2) * (q - 3)}")
        if not (r["trivial_is_minus_one"] and r["modulus"] and r["jacobi"]):
            out.append(f"q={q}: row verdicts {r}")
    return out


def weil_duality_problems(report: dict, katz_rows: list[dict], n: int, N: int, q: int) -> list[str]:
    """One row at q with every verdict true and q - 1 - N points; its Weil
    verdict agrees with the bound recomputed from the katz rows' eigentraces."""
    out: list[str] = []
    rows = [r for r in report["rows"] if r["q"] == q]
    if len(rows) != 1:
        return [f"{len(rows)} rows at q={q}"]
    r = rows[0]
    if r["points"] != q - 1 - N:
        out.append(f"{r['points']} points, want {q - 1 - N}")
    if not (r["translate"] and r["duality"]):
        out.append(f"translate/duality verdicts {r}")
    own = not weil_problems(katz_rows, n, N, q)
    if r["weil"] != own:
        out.append(f"Weil verdict {r['weil']}, recomputed {own}")
    return out
