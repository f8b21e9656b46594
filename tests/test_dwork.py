import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworkbench.characters import jacobi_sum, teich_char
from dworkbench.cyclotomic import CycloElem, root_of_unity, to_cyclo
from dworkbench.dwork import (
    _COUNT_BUDGET,
    _STATE_BUDGET,
    DworkFiber,
    EigenTrace,
    GroupElement,
    boundary_term,
    count_points,
    eigentrace_all_t,
    eigentrace_charsum,
    eigentrace_scan,
    fix_count_bruteforce,
    strata_sets,
    weil_check,
)
from dworkbench.errors import BadN, BadParams, BadT, Infeasible
from dworkbench.finitefield import build_field
from dworkbench.weights import build_v


def test_fiber_validation(f7, f29):
    with pytest.raises(BadN):
        DworkFiber(f7, 4, 2)  # even
    with pytest.raises(BadN):
        DworkFiber(f29, 3, 2)  # 3 does not divide 28
    with pytest.raises(BadN):
        DworkFiber(build_field(7, 2), 3, 2)  # extension base
    fib = DworkFiber(f7, 3, 3)
    assert fib.t_code == 3 and DworkFiber(f7, 3, 10).t_code == 3


def test_smoothness_locus(f7):
    # cubes of units are 1, 2, 4; those fibers are singular
    smooth = [t for t in range(7) if DworkFiber(f7, 3, t).is_smooth()]
    assert smooth == [0, 3, 5, 6]


def test_group_element_canonical_form():
    g = GroupElement(3, (1, 2, 0))
    assert g.exps == (0, 1, 2)
    assert g == GroupElement(3, (0, 1, 2)) and hash(g) == hash(GroupElement(3, (0, 1, 2)))
    with pytest.raises(BadParams):
        GroupElement(3, (1, 1, 0))  # exponent sum not divisible by 3


def test_strata_sets_shape():
    sets = strata_sets((0, 0, 0, 2, 3, 4, 5))
    assert all(1 <= 7 - len(Z) <= 5 for Z in sets)
    # complements of the three equal slots: sizes 1 and 2 around index set {0,1,2}
    assert (1, 2, 3, 4, 5, 6) in sets and (0, 2, 3, 4, 5, 6) in sets
    assert (3, 4, 5, 6) in sets
    # no stratum may pin two different values
    assert all(len({(0, 0, 0, 2, 3, 4, 5)[i] for i in range(7) if i not in Z}) == 1 for Z in sets)


def test_boundary_term_anchor_choice_free(f29):
    entries = (0, 0, 0, 2, 3, 4, 5)
    Z = (1, 2, 3, 4, 5, 6)
    vals = [boundary_term(f29, 7, entries, Z, i0=i) for i in (1, 3, 6)]
    assert vals[0] == vals[1] == vals[2]


def test_boundary_term_validation(f29):
    entries = (0, 0, 0, 2, 3, 4, 5)
    with pytest.raises(BadParams):
        boundary_term(f29, 7, entries, (0, 1, 4, 5, 6))  # off-part not constant
    with pytest.raises(BadParams):
        boundary_term(f29, 7, entries, (3,))  # too small


def test_trace_requires_smooth_nonzero_t(f29):
    v = build_v(2, 7)
    singular = next(t for t in range(2, 29) if not DworkFiber(f29, 7, t).is_smooth())
    for route in (eigentrace_charsum, eigentrace_scan):
        with pytest.raises(BadT):
            route(v, DworkFiber(f29, 7, 0))
        with pytest.raises(BadT):
            route(v, DworkFiber(f29, 7, singular))


def test_engine_matches_defining_scan_n3(f7, f13):
    for f, t in ((f7, 3), (f7, 5), (f13, 2)):
        for exps in ((0, 0, 0), (0, 1, 2)):
            fib = DworkFiber(f, 3, t)
            a = eigentrace_charsum(exps, fib)
            b = eigentrace_scan(exps, fib)
            assert a.value == b.value, (f.q, t, exps)


def test_engine_matches_defining_scan_n5():
    f11 = build_field(11)
    fib = DworkFiber(f11, 5, 2)
    assert fib.is_smooth()
    for exps in ((0, 0, 0, 0, 0), (0, 1, 4, 2, 3)):
        a = eigentrace_charsum(exps, fib)
        b = eigentrace_scan(exps, fib)
        assert a.value == b.value


@pytest.mark.slow
def test_engine_matches_defining_scan_n7(f29):
    fib = DworkFiber(f29, 7, 2)
    v = build_v(2, 7)
    a = eigentrace_charsum(v, fib)
    b = eigentrace_scan(v, fib)
    assert a.value == b.value


def test_pinned_production_trace(f29):
    fib = DworkFiber(f29, 7, 2)
    tr = eigentrace_charsum(build_v(2, 7), fib)
    assert tr.value == to_cyclo([-5046, 0, -3364, -5046, -5046, -3364], 7)


def test_hyperplane_block_only_on_constant_labels(f7):
    fib = DworkFiber(f7, 3, 3)
    triv = eigentrace_charsum((0, 0, 0), fib)
    assert triv.hyperplane == CycloElem.rational(3, (7 ** 2 - 1) // 6)
    nontriv = eigentrace_charsum((0, 1, 2), fib)
    assert nontriv.hyperplane.is_zero()
    # total = torus + hyperplane + boundary strata
    acc = triv.torus + triv.hyperplane
    for s in triv.strata.values():
        acc = acc + s
    assert acc == triv.value


def test_all_t_table_matches_single_calls(f13):
    v = (0, 0, 0)
    table = eigentrace_all_t(f13, 3, v)
    smooth = [t for t in range(1, 13) if DworkFiber(f13, 3, t).is_smooth()]
    assert sorted(table) == smooth
    for t in smooth:
        single = eigentrace_charsum(v, DworkFiber(f13, 3, t))
        assert table[t].value == single.value


def test_all_t_fibers_share_the_label_data(f13):
    # one strata dict and one hyperplane constant per label, not per fiber
    table = eigentrace_all_t(f13, 3, (0, 0, 0))
    assert len(table) == 9  # t^3 = 1 at t = 1, 3, 9
    assert len({id(tr.strata) for tr in table.values()}) == 1
    assert len({id(tr.hyperplane) for tr in table.values()}) == 1


def test_weil_bound_holds(f29):
    table = eigentrace_all_t(f29, 7, build_v(2, 7))
    assert all(weil_check(tr) for tr in table.values())


def test_weil_check_is_exact_at_every_embedding(f29):
    tr = eigentrace_all_t(f29, 7, build_v(2, 7))[2]
    bound = 2 ** 2 * 29 ** 5  # rank^2 q^(N-2)
    tr.value = 3 * tr.value
    assert not weil_check(tr)
    # |1 + zeta^3| is 0.45 at e = 1 and 1.80 at e = 5
    tr.value = 9000 * (1 + root_of_unity(7, 3))
    assert abs(tr.value.embed(1)) ** 2 < bound < abs(tr.value.embed(5)) ** 2
    assert not weil_check(tr)
    # the equality case: |J(chi, chi)|^2 = q at every embedding
    chi = teich_char(f29, 7)
    tr.value = 2 * 29 ** 2 * jacobi_sum(chi, chi)
    assert tr.value * tr.value.conjugate() == bound
    assert weil_check(tr)


def test_translate_invariance_explicit(f13):
    # adding the all-ones vector to the label leaves every trace unchanged
    base = (0, 1, 2)
    shifted = tuple((e + 2) % 3 for e in base)
    for t in (2, 5, 6):
        fib = DworkFiber(f13, 3, t)
        assert eigentrace_charsum(base, fib).value == eigentrace_charsum(shifted, fib).value


def test_conjugation_duality_explicit(f13, f29):
    # both negated labels are permutations of translates of the label, so
    # the traces are also real
    v = (0, 1, 2)
    neg = tuple((-e) % 3 for e in v)
    for t in (2, 5):
        fib = DworkFiber(f13, 3, t)
        tv = eigentrace_charsum(v, fib).value
        assert eigentrace_charsum(neg, fib).value == tv.conjugate() == tv
    v = build_v(2, 7)
    tab = eigentrace_all_t(f29, 7, v)
    tab_n = eigentrace_all_t(f29, 7, tuple((-e) % 7 for e in v.entries))
    assert all(tab_n[t].value == tab[t].value.conjugate() == tab[t].value for t in tab)


def test_lefschetz_against_point_count(f7):
    # 1 + q - T = #points for the smooth cubic curve fibers
    for t in (3, 5, 6):
        fib = DworkFiber(f7, 3, t)
        tr = eigentrace_charsum((0, 0, 0), fib)
        total = CycloElem.rational(3, 1 + 7) - tr.value
        assert total == CycloElem.rational(3, count_points(fib))


def test_point_count_pins(f7):
    fib = DworkFiber(f7, 3, 3)
    assert count_points(fib) == 9
    assert count_points(fib, m=2) == 63


def test_point_count_weil_consistency(f7):
    # a curve with 9 rational points over F_7 has trace a = -1, so
    # #E(F_49) = 49 + 1 - (a^2 - 2q) = 63; checked above.  The t = 0 fiber
    # is the Fermat cubic.
    fermat = DworkFiber(f7, 3, 0)
    n1 = count_points(fermat)
    a = 7 + 1 - n1
    n2 = count_points(fermat, m=2)
    assert n2 == 49 + 1 - (a * a - 2 * 7)


def test_point_count_matches_literal_projective_enumeration():
    # (N, q) = (5, 11): the nonzero tuples of F_11^5 on the hypersurface,
    # counted up to scaling; t = 0 is the Fermat quintic
    q, N = 11, 5
    x = np.indices((q,) * N).reshape(N, -1)
    for t in (0, 2):
        on = (np.sum(x ** N, axis=0) - N * t * np.prod(x, axis=0)) % q == 0
        nonzero = int(np.count_nonzero(on)) - 1  # the zero tuple
        assert nonzero % (q - 1) == 0
        assert count_points(DworkFiber(build_field(q), N, t)) == nonzero // (q - 1)


def test_point_count_budget_guard(f29):
    with pytest.raises(Infeasible):
        count_points(DworkFiber(f29, 7, 2), m=2)


def test_count_budget_refuses_before_building_the_extension(f19, refused_peak):
    # 19^(4 * 2) tuples is just past the budget, and refused before
    # F_{19^4} (about 9 s and a 2 MiB peak to build) exists
    assert _COUNT_BUDGET < 19 ** 8 < 2 * _COUNT_BUDGET
    fib = DworkFiber(f19, 3, 2)
    assert refused_peak(lambda: count_points(fib, m=4), Infeasible, "point enumeration") < 1 << 20


def test_state_budget_refuses_before_allocating(refused_peak):
    # q = 953 is the first prime q = 1 mod 7 whose q (q-1) 7 cells pass the
    # budget (911 is the last one under it); at the bound the state is
    # 48 MB of int64 cells and one step gathers twice that
    assert 911 * 910 * 7 <= _STATE_BUDGET < 953 * 952 * 7 < 1.1 * _STATE_BUDGET
    f953 = build_field(953)
    v = build_v(2, 7)
    assert refused_peak(lambda: eigentrace_all_t(f953, 7, v), Infeasible, "state space") < 1 << 20


def test_fix_count_identity_element_is_point_count(f7):
    # every fiber, t = 0 and the singular ones included
    counts = fix_count_bruteforce(f7, GroupElement(3, (0, 0, 0)))
    assert counts.shape == (7,) and counts[3] == 9
    assert counts.tolist() == [count_points(DworkFiber(f7, 3, t)) for t in range(7)]


def test_fix_count_only_cubic(f29):
    with pytest.raises(BadParams):
        fix_count_bruteforce(f29, GroupElement(7, (0,) * 7))
    with pytest.raises(BadN):
        fix_count_bruteforce(build_field(11), GroupElement(3, (0, 0, 0)))  # 3 does not divide 10


_N3_EXPONENTS = [e for e in itertools.product(range(3), repeat=3) if sum(e) % 3 == 0]
_N3_GROUP = [GroupElement(3, e) for e in ((0, 0, 0), (0, 1, 2), (0, 2, 1))]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([7, 13, 19, 31]), st.integers(min_value=0, max_value=100), st.sampled_from(_N3_EXPONENTS))
@example(7, 0, (0, 0, 0))  # the fiber t = 3 over F_7, each eigenspace
@example(7, 0, (0, 1, 2))
@example(7, 0, (0, 2, 1))
def test_group_average_inversion(q, k, label):
    # averaging fixed points against the dual character recovers each trace
    from fractions import Fraction

    f = build_field(q)
    smooth = [t for t in range(1, q) if DworkFiber(f, 3, t).is_smooth()]
    fib = DworkFiber(f, 3, smooth[k % len(smooth)])
    acc = CycloElem.zero(3)
    for g in _N3_GROUP:
        pair = sum(a * b for a, b in zip(label, g.exps))
        acc = acc + root_of_unity(3, (-pair) % 3) * int(fix_count_bruteforce(f, g)[fib.t_code])
    pred = acc * Fraction(-1, 3)
    if len(set(label)) == 1:
        pred = pred + (1 + q)
    assert eigentrace_charsum(label, fib).value == pred, (fib, label)


def test_trace_json_shape(f29):
    tr = eigentrace_charsum(build_v(2, 7), DworkFiber(f29, 7, 2))
    obj = tr.to_json()
    assert set(obj) == {"t", "value", "strata"}
    assert obj["t"] == 2
    assert "torus" in obj["strata"]
    assert obj["value"] == tr.value.to_json()


def _literal_cubic_points(E, ts):
    """Projective points of x^3 + y^3 + z^3 = 3t xyz over E for each t in ts,
    by scalar arithmetic over the representatives (1 : y : z) and (0 : 1 : z)."""
    cube = [E.mul_code(a, E.mul_code(a, a)) for a in range(E.q)]
    c3t = {t: E.mul_code(3, t) for t in ts}
    pts = {t: set() for t in ts}
    for x, y0 in ((1, None), (0, 1)):
        for y in range(E.q) if y0 is None else (y0,):
            for z in range(E.q):
                lhs = E.add_code(E.add_code(cube[x], cube[y]), cube[z])
                xyz = E.mul_code(x, E.mul_code(y, z))
                for t in ts:
                    if lhs == E.mul_code(c3t[t], xyz):
                        pts[t].add((x, y, z))
    return pts


def _power(E, code, k):
    """code^k through the log tables, with 0^k = 0 for k > 0."""
    return 0 if code == 0 else int(E.EXP[k * int(E.DLOG[code]) % (E.q - 1)])


def _literal_fixed(E, q, zetas, pts):
    """Points whose image (zeta_i c_i^q) is a scalar multiple of themselves."""
    cnt = 0
    for p in pts:
        img = [E.mul_code(z, _power(E, c, q)) for z, c in zip(zetas, p)]
        ratios = {E.mul_code(i, _power(E, c, -1)) for c, i in zip(p, img) if c}
        cnt += len(ratios) == 1
    return cnt


@pytest.fixture(scope="module")
def cubic7_points():
    return _literal_cubic_points(build_field(7, 3), range(7))


def test_fix_count_matches_literal_fixed_points(f7, cubic7_points):
    E = build_field(7, 3)
    w = _power(f7, f7.generator.code, 2)  # a cube root of unity
    for exps in ((0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 1, 1)):
        g = GroupElement(3, exps)
        zetas = [_power(f7, w, e) for e in g.exps]
        counts = fix_count_bruteforce(f7, g)
        assert counts.tolist() == [_literal_fixed(E, 7, zetas, cubic7_points[t]) for t in range(7)], exps


def _cubic_grid(E):
    """Every point of every N = 3 fiber over E, tagged with its fiber.

    Returns (P, key): P[i] holds the codes (x, y, z) of one representative.
    A point (1 : y : z) with yz != 0 lies on the one fiber with
    3t = (1 + y^3 + z^3) / (yz), and key[i] is the code of 3t when that is
    an F_p constant (0 when the sum vanishes); a point with xyz = 0 lies on
    every fiber, key -1.  The sum 1 + y^3 + z^3 is formed with Zech
    logarithms over the whole (y, z) grid in row blocks.
    """
    Qe = E.q - 1
    EXP, DLOG = E.EXP, E.DLOG
    sub = Qe // (E.p - 1)  # dlogs of F_p^x inside E^x are the multiples of this
    zech = DLOG[E.add_codes(1, EXP)]  # -1 where 1 + g^n = 0
    d = np.arange(Qe, dtype=np.int64)
    cube = (3 * d) % Qe
    dlu = DLOG[E.add_codes(1, EXP[cube])]  # dlog(1 + y^3), -1 where it vanishes
    ys, zs, keys = [], [], []
    rows = max(1, (1 << 19) // Qe)
    for lo in range(0, Qe, rows):
        dly = d[lo : lo + rows, None]
        u = dlu[lo : lo + rows, None]
        zl = zech[(cube - u) % Qe]
        dlhs = np.where(u < 0, cube, np.where(zl < 0, -1, (u + zl) % Qe))  # -1: sum is 0
        D = (dlhs - dly - d) % Qe
        iy, iz = np.nonzero((dlhs < 0) | (D % sub == 0))
        ys.append(EXP[iy + lo])
        zs.append(EXP[iz])
        keys.append(np.where(dlhs[iy, iz] < 0, 0, EXP[D[iy, iz]]))
    # (1 : 0 : z), (1 : y : 0) and (0 : 1 : z), each with w^3 = -1
    roots = EXP[d[dlu < 0]]
    zero = np.zeros_like(roots)
    one = np.ones_like(roots)
    ys = np.concatenate(ys)
    P = np.concatenate([
        np.stack([np.ones_like(ys), ys, np.concatenate(zs)], axis=1),
        np.stack([one, zero, roots], axis=1),
        np.stack([one, roots, zero], axis=1),
        np.stack([zero, one, roots], axis=1),
    ])
    key = np.concatenate(keys + [np.full(3 * len(roots), -1, dtype=np.int64)])
    return P, key


def _grid_points(fiber, E, grid):
    P, key = grid
    c = E.mul_code(3, fiber.t_code)
    return P[(key == c) | (key < 0)]


def _grid_fix_count(fiber, g, grid):
    """fix_count_bruteforce by filtering the whole cubic family's grid: the
    literal reference for the route that scans fixed coordinates first."""
    q = fiber.field.q
    E = build_field(q, 3)
    w = _power(fiber.field, fiber.field.generator.code, (q - 1) // 3)
    dz = E.DLOG[[_power(fiber.field, w, e) for e in g.exps]]
    pts = _grid_points(fiber, E, grid)
    nz = pts != 0
    ratio = (dz[None, :] + (q - 1) * E.DLOG[pts]) % (E.q - 1)
    first = ratio[np.arange(len(pts)), nz.argmax(axis=1)]
    return int(np.count_nonzero(np.all(~nz | (ratio == first[:, None]), axis=1)))


def test_grid_reference_points_match_literal_enumeration(f7, cubic7_points):
    E = build_field(7, 3)
    grid = _cubic_grid(E)
    for t in range(7):
        got = [tuple(int(c) for c in p) for p in _grid_points(DworkFiber(f7, 3, t), E, grid)]
        assert len(got) == len(set(got)) and set(got) == cubic7_points[t]


@pytest.mark.parametrize("q", [7, 13, 19, 31])
def test_fixed_values_match_the_scan(q):
    # the listed solutions of (q - 1) d = c mod q^3 - 1 equal a scan of
    # every unit of E, in the same order, for every pair of coordinates of
    # all nine exponent vectors
    from dworkbench.dwork import _fixed_values

    E = build_field(q, 3)
    Qe = E.q - 1
    d = np.arange(Qe, dtype=np.int64)
    f = build_field(q)
    w = _power(f, f.generator.code, (q - 1) // 3)
    for exps in _N3_EXPONENTS:
        dz = [int(E.DLOG[_power(f, w, e)]) for e in exps]
        for i, lead in ((1, 0), (2, 0), (2, 1)):
            scan = E.EXP[(dz[i] + (q - 1) * d) % Qe == dz[lead]]
            assert len(scan) == q - 1
            assert np.array_equal(_fixed_values(E, dz[lead] - dz[i]), [0, *scan]), (q, exps, i, lead)
    assert _fixed_values(E, 1).tolist() == [0]  # q - 1 does not divide 1


@pytest.mark.parametrize("q", [7, 13])
def test_fix_count_matches_the_grid_reference(q):
    # every t, singular fibers and t = 0 included, and all nine exponent vectors
    f = build_field(q)
    grid = _cubic_grid(build_field(q, 3))
    assert len(_N3_EXPONENTS) == 9
    for exps in _N3_EXPONENTS:
        g = GroupElement(3, exps)
        counts = fix_count_bruteforce(f, g)
        assert len(counts) == q
        for t in range(q):
            assert counts[t] == _grid_fix_count(DworkFiber(f, 3, t), g, grid), (q, t, exps)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([11, 31, 41]),
    st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5),
    st.integers(min_value=1, max_value=40),
)
def test_normalized_strata_match_scans(q, entries, t):
    # the state engine subtracts per-cell minima along the weight axis
    fib = DworkFiber(build_field(q), 5, t % q or 1)
    if not fib.is_smooth():
        return
    a = eigentrace_charsum(entries, fib)
    b = eigentrace_scan(entries, fib)
    assert a.torus == b.torus and a.strata == b.strata


def _top(v):
    return max((abs(x) for x in np.ravel(v).tolist()), default=0)


def _row_sum(H):
    return max(sum(map(abs, row)) for row in H.reshape(-1, H.shape[-1]).tolist())


# each kernel the engine calls: the bound its docstring states, in Python
# integers, and its table operands
_KERNEL_BOUNDS = {
    "shift_sums": lambda T, *sets, row=None: (_top(T) * max([1, *(len(a) for a, _ in sets)]), [T]),
    "hist_conv": lambda P, H: (max(_top(P), _row_sum(H), _top(P) * _row_sum(H)), [P]),
    "combo": lambda *terms: (sum(max(1, abs(c)) * max(1, _top(v)) for c, v in terms), [v for _, v in terms]),
}


def _engine_run(q, n, N, limit=None):
    """Torus rows, boundary strata and, for the torus and then the boundary
    batch, the (bound, operand dtypes, result dtype) of every kernel call of
    one label's engine run, with exact_dtype's limit set to limit."""
    from dworkbench import cyclotomic, dwork

    calls = []

    def spy(name, kernel):
        def run(*args, **kwargs):
            bound, tables = _KERNEL_BOUNDS[name](*args, **kwargs)
            out = kernel(*args, **kwargs)
            calls.append((bound, {t.dtype for t in tables}, out.dtype))
            return out

        return run

    f, v = build_field(q), build_v(n, N)
    with pytest.MonkeyPatch.context() as mp:
        for name in _KERNEL_BOUNDS:
            mp.setattr(dwork, name, spy(name, getattr(dwork, name)))
        if limit is not None:
            mp.setattr(cyclotomic, "_INT64_LIMIT", limit)
        H = dwork._torus_aggregate(f, N, v.entries)
        torus = calls[:]
        strata = dwork._boundary_strata(f, N, v.entries)
    return H.tolist(), strata, torus, calls[len(torus) :]


@functools.lru_cache(maxsize=None)
def _int64_run(case):
    return _engine_run(*case)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(29, 2, 7), (73, 4, 9), (103, 2, 17)]), st.data())
def test_engine_widens_past_int64_at_every_step(case, data):
    # with the limit of exact_dtype lowered to the bound of one kernel call,
    # each call returns Python integers exactly when its own bound reaches
    # the limit, whatever its operands' dtypes: a table narrows to int64
    # again once its cells fit, and the engine's torus rows and boundary
    # values equal the int64 run's
    H, strata, *int64_calls = _int64_run(case)
    engine = data.draw(st.sampled_from([0, 1]))  # torus or boundary batch
    bounds = [b for b, _, _ in int64_calls[engine]]
    assert all(out == np.int64 for _, _, out in int64_calls[engine])
    limit = data.draw(st.sampled_from(sorted(set(bounds))))
    got = _engine_run(*case, limit=limit)
    assert got[0] == H and got[1] == strata
    calls = got[2 + engine]
    assert [b for b, _, _ in calls] == bounds
    assert [out for _, _, out in calls] == [np.dtype(object) if b >= limit else np.int64 for b in bounds]
    # every call after the first wide one reads Python integers, directly
    # or through the slices it feeds, so narrowing shows wherever a later
    # bound lies below the limit
    narrowed = any(np.dtype(object) in ins and out == np.int64 for _, ins, out in calls)
    first = bounds.index(next(b for b in bounds if b >= limit))
    assert narrowed == any(b < limit for b in bounds[first + 1 :])


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(5, 11), (5, 31), (5, 41), (7, 29)]),
    st.data(),
    st.booleans(),
)
def test_boundary_orbit_kernel_matches_scan_at_every_anchor(Nq, data, balanced):
    # The pinned index is free for labels with zero residue sum (eigenspace
    # labels); otherwise only the default anchor min(Z), which the scan pins too.
    from dworkbench.dwork import _boundary_scan

    N, q = Nq
    f = build_field(q)
    entries = data.draw(st.lists(st.integers(0, N - 1), min_size=N, max_size=N))
    if balanced:
        entries[-1] = -sum(entries[:-1]) % N
    entries = tuple(entries)
    # the scan enumerates (q-1)^(|Z|-1) tuples; keep it small
    for Z in (Z for Z in strata_sets(entries) if (q - 1) ** (len(Z) - 1) <= 10 ** 6):
        want = _boundary_scan(f, N, entries, Z)
        assert boundary_term(f, N, entries, Z) == want, (q, entries, Z)
        for i0 in Z if balanced else ():
            assert boundary_term(f, N, entries, Z, i0=i0) == want, (q, entries, Z, i0)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(5, 11), (5, 31), (5, 41), (7, 29)]),
    st.data(),
    st.booleans(),
)
def test_boundary_strata_equal_direct_terms(Nq, data, zero_sum):
    # one boundary_term per sorted weight tuple stands for every stratum
    # with that tuple, whatever the label's residue sum
    from dworkbench.dwork import _boundary_strata

    N, q = Nq
    f = build_field(q)
    entries = data.draw(st.lists(st.integers(0, N - 1), min_size=N, max_size=N))
    r = 0 if zero_sum else data.draw(st.integers(1, N - 1))
    entries[-1] = (r - sum(entries[:-1])) % N
    entries = tuple(entries)
    strata = _boundary_strata(f, N, entries)
    assert list(strata) == strata_sets(entries)
    for Z, value in strata.items():
        assert value == boundary_term(f, N, entries, Z), (q, entries, Z)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 7), (5, 11), (7, 29), (9, 37), (11, 67), (17, 103)]), st.data())
def test_line_step_matches_general_orbit_step(Nq, data):
    # each row of the batched boundary step is _orbit_step without a dlog
    # axis, exactly, on cells up to the largest a step takes in int64
    from dworkbench.dwork import _line_hists, _line_step, _orbit_step, _zech

    N, q = Nq
    f = build_field(q)
    K = data.draw(st.integers(1, 4))
    top = ((1 << 63) - 1) // (q - 1)
    cells = st.lists(st.lists(st.integers(0, top), min_size=N, max_size=N), min_size=K, max_size=K)
    T0, T1 = (np.array(data.draw(cells), dtype=np.int64) for _ in range(2))
    V = data.draw(st.lists(st.integers(0, 3 * N), min_size=K, max_size=K))
    w = data.draw(st.lists(st.integers(0, N - 1), min_size=K, max_size=K))
    got = _line_step(T0.copy(), T1.copy(), _line_hists(f, N), np.array(V), np.array(w))
    assert all(g.dtype == np.int64 and g.shape == (K, N) for g in got)
    for i in range(K):
        want = _orbit_step(T0[i][None].copy(), T1[i][None].copy(), _zech(f), 0, V[i], w[i])
        for g, x in zip(got, want):
            assert np.array_equal(g[i], x[0]), (q, N, V[i], w[i])


def test_boundary_strata_one_term_per_weight_multiset(monkeypatch):
    # 131 strata of the (6, 11) label over F_67 share 11 weight multisets,
    # stepped as one batch
    from dworkbench import dwork

    calls = []
    direct = dwork.boundary_terms

    def counted(field, N, seqs):
        calls.append([tuple(sorted(seq)) for seq in seqs])
        return direct(field, N, seqs)

    monkeypatch.setattr(dwork, "boundary_terms", counted)
    v = build_v(6, 11)
    table = eigentrace_all_t(build_field(67), 11, v)
    assert len(strata_sets(v.entries)) == 131
    assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 11
    assert all(len(tr.strata) == 131 for tr in table.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=4), st.integers(10, 10 ** 9))
@example([[0, 0, 0], [1, 2, 3, 4, 5]], 10 ** 4)  # the finished row's cells pass the limit
def test_boundary_batch_rows_equal_rows_alone_past_int64(seqs, limit):
    # rows of one batch step as they would alone, in int64 and with the
    # limit of exact_dtype lowered, where a finished row may hold cells past
    # it while the active rows' bound stays below
    from dworkbench import cyclotomic, dwork

    f = build_field(29)
    want = [dwork.boundary_terms(f, 7, [seq])[0] for seq in seqs]
    assert dwork.boundary_terms(f, 7, seqs) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_INT64_LIMIT", limit)
        assert dwork.boundary_terms(f, 7, seqs) == want
        assert [dwork.boundary_terms(f, 7, [seq])[0] for seq in seqs] == want


def test_torus_aggregate_peak_memory():
    # the shift sums gather a block of windows at a time, never every
    # distinct shift of T1 at once (2.8 MiB at this size)
    import tracemalloc

    from dworkbench.dwork import _torus_aggregate

    f = build_field(103)
    entries = build_v(4, 17).entries
    tracemalloc.start()
    try:
        _torus_aggregate(f, 17, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q, count", [(11, None), (31, 3), (41, 2), (61, 1)])
def test_torus_rows_match_scan_n5(q, count):
    from dworkbench.dwork import _torus_aggregate, _torus_row, _torus_scan

    f = build_field(q)
    rng = random.Random(q)
    entries = tuple(rng.randrange(5) for _ in range(5))
    H = _torus_aggregate(f, 5, entries)
    smooth = [t for t in range(1, q) if DworkFiber(f, 5, t).is_smooth()]
    for t in smooth if count is None else rng.sample(smooth, count):
        got = -to_cyclo(H[_torus_row(f, 5, t)].tolist(), 5)
        assert got == _torus_scan(f, 5, entries, t), (q, entries, t)


@pytest.mark.parametrize("n, N, q", [(2, 7, 29), (4, 9, 73), (4, 17, 103)])
def test_eigentraces_depend_only_on_the_label_multiset(n, N, q):
    # katz steps its label and control in an order of its choosing
    field, entries = build_field(q), build_v(n, N).entries
    want = {t: tr.value for t, tr in eigentrace_all_t(field, N, entries).items()}
    rng = random.Random(q)
    for _ in range(3):
        perm = rng.sample(entries, N)
        assert {t: tr.value for t, tr in eigentrace_all_t(field, N, perm).items()} == want, perm


def test_scan_of_a_permuted_label_matches_the_engine():
    # the defining sums, independent of the engine's step order
    N, field = 5, build_field(31)
    table = eigentrace_all_t(field, N, (0, 0, 1, 2, 2))
    for t in sorted(table)[:3]:
        assert eigentrace_scan((2, 0, 1, 2, 0), DworkFiber(field, N, t)).value == table[t].value


def test_torus_resumes_from_the_shared_state():
    # two labels with the same first N - 2 weights share those steps
    from dworkbench.dwork import _torus_aggregate

    field, N = build_field(103), 17
    label = build_v(4, 17).entries
    other = (*label[:-2], (label[-2] + 1) % N, (label[-1] - 1) % N)
    orbits = {}
    first = _torus_aggregate(field, N, label, orbits)
    assert list(orbits) == [label[: N - 2]]
    assert np.array_equal(_torus_aggregate(field, N, other, orbits), _torus_aggregate(field, N, other))
    assert np.array_equal(_torus_aggregate(field, N, label, orbits), first)


def test_katz_bytes_past_the_old_int64_range():
    # (2, 17, 103) wrapped the int64 cells of the unnormalised engine
    import hashlib

    from dworkbench.harness import katz_check

    got = hashlib.sha256(katz_check(2, 17, 103).to_result().canonical_bytes()).hexdigest()
    assert got == "ccef600cc3c5f2ffc5331ce11a88f1849a51d8e61ea5b40b6aa6ea8c4dec309c"
