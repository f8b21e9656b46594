"""Self-tests of the benchmark: every verdict path can fail.

    python3 -m pytest -q perfbench/test_checks.py

Each test feeds a corrupted program output through the same checks the
benchmark applies, and requires the operation to count as failed.
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import independent  # noqa: E402
import spans  # noqa: E402
from run import Op  # noqa: E402

from dworkbench import harness  # noqa: E402
from dworkbench.characters import AddChar, MultChar, gauss_sum  # noqa: E402
from dworkbench.finitefield import build_field  # noqa: E402


@pytest.fixture(scope="module")
def katz_29():
    return harness.katz_check(2, 7, 29).to_result().to_json()


def _bump(value: dict, i: int = 0) -> None:
    num, den = value["coeffs"][i]
    value["coeffs"][i] = [str(int(num) + 1), den]


def test_n3_corrupt_is_a_failed_operation():
    clean = harness.validate_n3(7).to_json()
    assert not Op("n3", clean["pass"], independent.n3_problems(clean, 7)).failed
    bad = harness.validate_n3(7, corrupt=True).to_json()
    op = Op("n3", bad["pass"], independent.n3_problems(bad, 7))
    assert op.failed and not op.passed


def test_n3_wrong_point_count_is_caught():
    rep = harness.validate_n3(7).to_json()
    rep["rows"][0]["points"] += 1
    assert independent.n3_problems(rep, 7)


def test_cubic_points_matches_hasse_interval():
    for q in (7, 13):
        for t in range(1, q):
            if pow(t, 3, q) != 1:
                assert abs(independent.cubic_points(q, t) - (q + 1)) <= 2 * q ** 0.5


def test_katz_clean_passes(katz_29):
    assert independent.katz_problems(katz_29, 2, 7, 29) == []


def test_perturbed_lambda_is_a_failed_operation(katz_29):
    rep = copy.deepcopy(katz_29)
    _bump(rep["params"]["lambda"])
    problems = independent.katz_problems(rep, 2, 7, 29)
    assert any("lambda" in p for p in problems)
    op = Op("katz", rep["pass"], problems)
    assert op.failed and op.passed  # a wrong PASS: the run reports correct = false


def test_control_and_rows_and_weil_are_checked(katz_29):
    rep = copy.deepcopy(katz_29)
    rep["params"]["perturbed_control_constant"] = None
    assert any("control" in p for p in independent.katz_problems(rep, 2, 7, 29))
    rep = copy.deepcopy(katz_29)
    rep["rows"].pop()
    assert any("rows" in p for p in independent.katz_problems(rep, 2, 7, 29))
    rep = copy.deepcopy(katz_29)
    rep["rows"][0]["T_v"]["coeffs"][0] = ["1000000", "1"]
    assert any("Weil" in p for p in independent.katz_problems(rep, 2, 7, 29))


def _gauss_sums(q: int) -> list[dict]:
    field = build_field(q)
    psi = AddChar(field)
    return [gauss_sum(psi, MultChar(field, j)).to_json() for j in range(q - 1)]


def test_perturbed_gauss_vector_is_a_failed_operation():
    q = 7
    gen = build_field(q).generator.code
    sums = _gauss_sums(q)
    assert independent.gauss_problems(q, gen, sums) == []
    _bump(sums[3], 1)
    problems = independent.gauss_problems(q, gen, sums)
    assert problems
    assert Op("gauss-suite", True, problems).failed


def test_fourier_check_needs_the_programs_generator():
    q = 13
    gen = build_field(q).generator.code
    other = next(g for g in range(2, q) if g != gen and len({pow(g, k, q) for k in range(q - 1)}) == q - 1)
    assert independent.gauss_problems(q, other, _gauss_sums(q))


def test_gauss_suite_must_test_every_pair():
    rep = harness.check_gauss_suite(qs=(7,), sample=10 ** 9).to_json()
    assert independent.gauss_suite_problems(rep, (7,)) == []
    sampled = harness.check_gauss_suite(qs=(7,), sample=5).to_json()
    assert independent.gauss_suite_problems(sampled, (7,))


def test_det_oracle_needs_both_kummer_cases():
    rep = {"params": {"q": 29}, "rows": [
        {"s_chi": [1, 2], "s_rho": [3, 0], "kummer_case": "absent"},
        {"s_chi": [1, 2], "s_rho": [3, 4], "kummer_case": "present"},
    ]}
    assert independent.det_oracle_problems(rep) == []
    rep["rows"][1]["kummer_case"] = "absent"
    assert independent.det_oracle_problems(rep)
    rep["rows"].pop()
    assert independent.det_oracle_problems(rep)


def test_adjudications_must_agree():
    reps = [{"adjudications": {"orientation": "direct"}}, {"adjudications": {"orientation": None}}]
    assert independent.adjudication_problems(reps) == []
    reps.append({"adjudications": {"orientation": "conjugate"}})
    assert independent.adjudication_problems(reps)


def test_recorder_spans_self_time_and_restore(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "characters.gone", ("dworkbench.characters", ("no_such_name",)))
    original = harness.check_gauss_suite
    rec = spans.Recorder()
    rec.install()
    try:
        assert harness.check_gauss_suite is not original
        rec.active = True
        harness.check_gauss_suite(qs=(7,), sample=10 ** 9)
        rec.active = False
    finally:
        rec.uninstall()
    assert harness.check_gauss_suite is original
    assert rec.absent == ["characters.gone"]
    m = {k: v for k, (v, _unit) in rec.metrics().items()}
    assert "characters.gone_s" not in m
    assert m["harness.gauss_suite_s"] > 0
    assert m["characters.jacobi_sum_calls"] == 5 * 4
    assert m["cyclotomic.mul_calls"] > 0 and m["cyclotomic.mul_work_phi2"] > 0
    layers = sum(v for k, v in m.items() if k.endswith("_s") and not k.startswith("harness."))
    assert layers <= m["harness.gauss_suite_s"]
