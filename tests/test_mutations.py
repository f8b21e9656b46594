"""Mutation matrix of the Dwork layer, of the character layer, of the
exact kernels both engines share and of katz's constancy test: each
corruption fails exactly the named checks.

Each case patches one function, in every module that binds it, and runs
gauss-suite, hyper-cross, canonical-paths, det-oracle and det-hcan,
validate_n3 at q = 7 and 13, katz_check at (2, 7, 29) and (2, 7, 43),
check_weil_duality() and signs, all at the default campaign's parameters.
A case also shows that its mutation changes a value those checks read, so
a passing check is a blind spot of that check, not a mutation that
nothing sees.
"""

import random

import pytest

from dworkbench import characters, cyclotomic, dwork, harness, hypergeometric, pairings
from dworkbench.characters import AddChar, MultChar
from dworkbench.cyclotomic import root_of_unity
from dworkbench.dwork import GroupElement
from dworkbench.finitefield import build_field
from dworkbench.hypergeometric import HyperSpec
from dworkbench.weights import build_v

CHECKS = {
    "gauss-suite": lambda: harness.check_gauss_suite(),
    "hyper-cross": lambda: harness.check_hyper_cross(),
    "canonical-paths": lambda: harness.check_canonical_paths(),
    "det-oracle": lambda: harness.check_det_oracle(),
    "det-hcan": lambda: harness.check_det_hcan(),
    "n3 q=7": lambda: harness.validate_n3(7),
    "n3 q=13": lambda: harness.validate_n3(13),
    "katz q=29": lambda: harness.katz_check(2, 7, 29).to_result(),
    "katz q=43": lambda: harness.katz_check(2, 7, 43).to_result(),
    "weil-duality": lambda: harness.check_weil_duality(),
    "signs": lambda: harness.check_signs(),
}
DWORK = {"n3 q=7", "n3 q=13", "katz q=29", "katz q=43"}

# both are lru_cached per field, and _line_hists reads _zech
_CACHED = (dwork._zech, dwork._line_hists)


def _clear_caches() -> None:
    for f in _CACHED:
        f.cache_clear()


def _engine_values() -> list:
    """The eigentraces that katz and weil-duality read at q = 29."""
    return [tr.value for tr in dwork.eigentrace_all_t(build_field(29), 7, build_v(2, 7)).values()]


def _fix_counts() -> list:
    """The fixed-point counts that n3 reads at q = 7."""
    f7 = build_field(7)
    return [harness.fix_count_bruteforce(f7, GroupElement(3, e)).tolist() for e in harness._N3_LABELS]


def _kernel_values() -> tuple:
    """Both engines' outputs at q = 29: the eigentraces, and the traditional
    trace rows that hyper-cross reads (every t but 1, the row d = 0)."""
    spec = HyperSpec.from_label(build_field(29), build_v(2, 7))
    return _engine_values(), hypergeometric._trad_rows(spec, 1)[1][1:].tolist()


def _gauss_terms() -> list:
    """Gauss sum terms at q = 7 over Z/42, as gauss-suite lists them."""
    f7 = build_field(7)
    return harness.gauss_exponents(AddChar(f7), [MultChar(f7, j) for j in range(6)], 42).tolist()


def _canonical_values() -> list:
    """The canonical trace table that canonical-paths reads at q = 29."""
    spec = HyperSpec.from_label(build_field(29), build_v(2, 7))
    return hypergeometric.canonical_trace(spec).items()


def _signs_at_13() -> list:
    """Plain self-dual signs of random examples at l = 13."""
    rng = random.Random(13)
    return [harness.sd_sign(pairings.random_sd_example(13, rng)[0]) for _ in range(20)]


def _first_column_plus_1(original):
    """Add 1 to the first entry of every row of the kernel's output."""

    def kernel(*args, **kwargs):
        out = original(*args, **kwargs)
        out[..., 0] += 1
        return out

    return kernel


def _boundary_plus(delta):
    def mutate(original):
        return lambda field, N, seqs: [x + delta(N) for x in original(field, N, seqs)]

    return mutate


def _first_term_shifted(original):
    """Shift the first term of every Gauss sum by one step of Z/M."""

    def exponents(psi, chis, M):
        out = original(psi, chis, M)
        out[:, 0] = (out[:, 0] + 1) % M
        return out

    return exponents


def _grossen_times_zeta_at_residue_1(original):
    def grossen(field, N, chi_res, rho_res):
        value = original(field, N, chi_res, rho_res)
        return value * root_of_unity(N, 1) if chi_res % N == 1 else value

    return grossen


def _canonical_times_zeta_at_image_of_2(original):
    """The canonical value at t^N, t = 2, times zeta_N; the table's other
    values are made on read as before."""

    def canonical(spec):
        table = original(spec)
        tn = pow(2, spec.N, spec.field.q)
        table._values[tn] = table.value_at(tn) * root_of_unity(spec.N, 1)
        return table

    return canonical


def _sd_sign_flipped_at_13(original):
    return lambda rep: -original(rep) if rep.l == 13 else original(rep)


def _zech_shifted_at(i):
    def mutate(original):
        def zech(field):
            z = original(field).copy()
            z[i] = (z[i] + 1) % (field.q - 1)
            return z

        return zech

    return mutate


def _fix_count_bumped_at_3(original):
    def fix(field, g):
        counts = original(field, g)
        counts[3] += 1
        return counts

    return fix


BOTH = (dwork, hypergeometric)  # the engines that bind the shared kernels

CASES = [
    # weil-duality misses a uniform + 1: its laws compare outputs of one engine
    pytest.param((dwork,), "boundary_terms", _boundary_plus(lambda N: 1), _engine_values, DWORK, id="boundary_term+1"),
    pytest.param((dwork,), "boundary_terms", _boundary_plus(lambda N: root_of_unity(N, 1)), _engine_values,
                 DWORK | {"weil-duality"}, id="boundary_term+zeta_N"),
    pytest.param((harness,), "fix_count_bruteforce", _fix_count_bumped_at_3, _fix_counts, {"n3 q=7"},
                 id="fix_count[3]+1"),
    pytest.param((dwork,), "_zech", _zech_shifted_at(2), _engine_values, DWORK, id="zech[2]+1"),
    # at q = 7 this shift leaves every N = 3 eigentrace unchanged
    pytest.param((dwork,), "_zech", _zech_shifted_at(1), _engine_values,
                 {"n3 q=13", "katz q=29", "katz q=43", "weil-duality"}, id="zech[1]+1"),
    # each shared kernel fails an independent reference on every side it
    # serves: n3 (fixed points) on the Dwork side, hyper-cross (the naive
    # route) on the traditional one
    pytest.param(BOTH, "shift_sums", _first_column_plus_1, _kernel_values,
                 DWORK | {"hyper-cross", "det-oracle", "weil-duality"}, id="shift_sums+1"),
    pytest.param(BOTH, "hist_conv", _first_column_plus_1, _kernel_values,
                 DWORK | {"hyper-cross", "canonical-paths", "det-oracle"}, id="hist_conv+1"),
    # katz's canonical side reads its shift histogram directly, with no cconv
    pytest.param((hypergeometric,), "cconv", _first_column_plus_1, _kernel_values,
                 {"hyper-cross", "canonical-paths", "det-oracle", "det-hcan"}, id="cconv+1"),
    # the character layer: Gauss sums, the canonical normalisation and the
    # sign law each fail the checks that read them
    pytest.param((characters, harness, hypergeometric), "gauss_exponents", _first_term_shifted, _gauss_terms,
                 {"gauss-suite", "hyper-cross", "canonical-paths", "det-oracle", "det-hcan"}, id="gauss_exponents[0]+1"),
    pytest.param((hypergeometric,), "grossen_value", _grossen_times_zeta_at_residue_1, _canonical_values,
                 {"canonical-paths"}, id="grossen_value*zeta_N"),
    pytest.param((harness,), "sd_sign", _sd_sign_flipped_at_13, _signs_at_13, {"signs"}, id="sd_sign@13"),
    # katz decides constancy by cross-products a c0 = a0 c: one canonical
    # value moved breaks them in both orientations
    pytest.param((harness, hypergeometric), "canonical_trace", _canonical_times_zeta_at_image_of_2, _canonical_values,
                 {"canonical-paths", "katz q=29", "katz q=43"}, id="canonical_trace@2^N*zeta_N"),
]


@pytest.fixture(scope="module")
def clean():
    _clear_caches()
    return {name: run() for name, run in CHECKS.items()}


def test_unpatched_checks_pass(clean):
    assert [name for name, res in clean.items() if not res.ok] == []


@pytest.mark.parametrize("modules, name, mutate, probe, fails", CASES)
def test_mutation_fails_exactly_the_named_checks(monkeypatch, clean, modules, name, mutate, probe, fails):
    assert all(res.ok for res in clean.values())
    before = probe()
    _clear_caches()
    for module in modules:
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    try:
        assert probe() != before, "the mutation changes nothing the checks read"
        failed = {check for check, run in CHECKS.items() if not run().ok}
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert failed == fails


KERNELS = {"cconv", "shift_sums", "hist_conv"}


def test_reference_routes_call_no_shared_kernel(monkeypatch):
    # the naive sum, the defining scan and brute-force fixed points stay
    # independent of the kernels of the engines they check; the engines
    # themselves call all three through the same patches
    calls = []

    def recorded(name, original):
        def kernel(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return kernel

    for module in (cyclotomic, *BOTH):
        for name in KERNELS & set(vars(module)):
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    f7, f29 = build_field(7), build_field(29)
    spec = HyperSpec.from_label(f29, build_v(2, 7))
    hypergeometric.trad_trace_naive(spec, [2, 3])
    dwork.eigentrace_scan((0, 0, 1, 2, 2), dwork.DworkFiber(build_field(11), 5, 2))
    dwork.fix_count_bruteforce(f7, GroupElement(3, (0, 1, 2)))
    assert calls == []
    hypergeometric.trad_trace_conv(spec)
    dwork.eigentrace_all_t(f29, 7, build_v(2, 7))
    assert set(calls) == KERNELS
