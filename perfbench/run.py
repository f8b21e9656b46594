"""Benchmark for dworkbench: one workload per process, from the source tree.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory):
  campaign      the default `verify all` campaign, entered through the CLI
  gauss-jacobi  check_gauss_suite at q = 7, 13, 29 with every Jacobi pair
  dwork-family  katz_check at four larger Dwork families, plus one
                check_weil_duality

A run repeats whole rounds of the workload's operations (one operation is
one check runner call): floor(--seconds / the workload's nominal round
length) rounds, at least one.  The nominal lengths come from the
reference figures in README.md, so the number of rounds, and with it what
the medians and the peak memory cover, never depends on how fast the
machine happens to run.  After each round the outputs go through the
checks in independent.py.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s are medians over
rounds of the operations' wall and CPU time, setup_s is the time from
process start until the program is imported, peak_rss_mib is the process's
peak resident memory.  --trace 1 wraps the program's public names (see
spans.py), makes one round and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; it is also written under perfbench/results/.
"""

import time

_SCRIPT_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import independent  # noqa: E402
import spans  # noqa: E402


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _SCRIPT_T0


def load_program():
    """Import dworkbench from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import dworkbench.cli
        import dworkbench.harness
    except ImportError as e:
        print(f"error: cannot import dworkbench from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(dworkbench.__file__).resolve().parents:
        print(f"error: dworkbench imported from {dworkbench.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return dworkbench


class Op:
    """One check runner call: the program's verdict and the independent one."""

    def __init__(self, name: str, passed: bool, problems: list[str]):
        self.name = name
        self.passed = passed
        self.problems = problems

    @property
    def failed(self) -> bool:
        return not self.passed or bool(self.problems)


def guarded(name: str, fn, *args, **kwargs):
    """Run one operation; an exception is reported and makes it fail."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the benchmark must finish its round and count it
        print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None


# -- campaign ----------------------------------------------------------------

CAMPAIGN_OPS = (
    "build-v", "gauss-suite", "hyper-cross", "canonical-paths", "det-oracle",
    "det-hcan", "n3", "n3", "katz", "katz", "weil-duality", "signs",
)


class Campaign:
    """`dworkbench verify all` with CampaignConfig() defaults and --seed as its seed."""

    nominal_s = 20.0

    def __init__(self, program, seed: int, workdir: Path):
        self.cli = program.cli
        self.defaults = program.harness.CampaignConfig()
        self.config = workdir / "campaign.txt"
        self.outdir = workdir / "reports"
        self.config.write_text(f"seed = {seed}\noutdir = {self.outdir}\n")

    def prepare(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = guarded("verify all", self.cli.main, ["verify", "all", "--config", str(self.config)])
        return code, out.getvalue()

    def check(self, raw) -> list[Op]:
        code, stdout = raw
        reports = [json.loads(p.read_text()) for p in sorted(self.outdir.glob("*.json"))]
        d = self.defaults
        shared = independent.adjudication_problems(reports)
        all_pass = len(reports) == len(CAMPAIGN_OPS) and all(r["pass"] for r in reports)
        last = stdout.strip().splitlines()[-1:]
        if (code == 0) != all_pass or last != [f"campaign: {'PASS' if all_pass else 'FAIL'}"]:
            shared.append(f"exit code {code} and summary {last} disagree with the reports")
        ops = []
        katz_qs = iter(d.qs)
        n3_qs = iter((7, 13))
        for i, name in enumerate(CAMPAIGN_OPS):
            rep = reports[i] if i < len(reports) else None
            if rep is None or rep["check"] != name:
                ops.append(Op(name, False, [f"report {i} missing or not {name}"]))
                continue
            problems = list(shared)
            if name == "katz":
                q = next(katz_qs)
                problems += independent.katz_problems(rep, d.n, d.N, q)
                name = f"katz(q={q})"
            elif name == "n3":
                q = next(n3_qs)
                problems += independent.n3_problems(rep, q)
                name = f"n3(q={q})"
            elif name == "det-oracle":
                problems += independent.det_oracle_problems(rep)
            ops.append(Op(name, rep["pass"], problems))
        return ops


# -- gauss-jacobi ------------------------------------------------------------

GAUSS_QS = (7, 13, 29)


class GaussJacobi:
    """check_gauss_suite at q = 7, 13, 29, every Jacobi pair (the test_02 parameters)."""

    nominal_s = 6.0

    def __init__(self, program, seed: int, workdir: Path):
        self.harness = program.harness
        self.seed = seed
        self.gauss = None

    def prepare(self) -> None:
        pass

    def run(self):
        return guarded("gauss-suite", self.harness.check_gauss_suite, qs=GAUSS_QS, seed=self.seed, sample=10 ** 9)

    def gauss_sums(self) -> list[str]:
        """The program's Gauss sums g(psi, chi^j) at each q, checked in floating point."""
        from dworkbench.characters import AddChar, MultChar, gauss_sum
        from dworkbench.finitefield import build_field

        problems = []
        for q in GAUSS_QS:
            field = build_field(q)
            psi = AddChar(field)
            sums = [gauss_sum(psi, MultChar(field, j)).to_json() for j in range(q - 1)]
            problems += [f"q={q}: {p}" for p in independent.gauss_problems(q, field.generator.code, sums)]
        return problems

    def check(self, res) -> list[Op]:
        if res is None:
            return [Op("gauss-suite", False, ["raised"])]
        if self.gauss is None:
            self.gauss = self.gauss_sums()
        problems = independent.gauss_suite_problems(res.to_json(), GAUSS_QS) + self.gauss
        return [Op("gauss-suite", res.ok, problems)]


# -- dwork-family ------------------------------------------------------------

# every family has more than one image point t^N, so the perturbed control
# runs; (2, 17, 103) lies past the int64 range of the torus aggregation
FAMILIES = ((4, 9, 73), (6, 11, 67), (2, 17, 103), (4, 17, 103))
WEIL_FAMILY = (4, 9, 73)


class DworkFamily:
    """katz_check at FAMILIES, then check_weil_duality at WEIL_FAMILY."""

    nominal_s = 12.0

    def __init__(self, program, seed: int, workdir: Path):
        self.harness = program.harness
        self.seed = seed

    def prepare(self) -> None:
        pass

    def run(self):
        h = self.harness
        katz = [guarded(f"katz{f}", h.katz_check, *f, seed=self.seed) for f in FAMILIES]
        n, N, q = WEIL_FAMILY
        weil = guarded("weil-duality", h.check_weil_duality, n, N, qs=(q,), seed=self.seed)
        return katz, weil

    def check(self, raw) -> list[Op]:
        katz, weil = raw
        ops = []
        rows = {}
        for fam, rep in zip(FAMILIES, katz):
            name = f"katz{fam}"
            if rep is None:
                ops.append(Op(name, False, ["raised"]))
                continue
            res = rep.to_result().to_json()
            rows[fam] = res["rows"]
            ops.append(Op(name, res["pass"], independent.katz_problems(res, *fam)))
        if weil is None or WEIL_FAMILY not in rows:
            ops.append(Op("weil-duality", False, ["raised, or its katz rows are missing"]))
        else:
            problems = independent.weil_duality_problems(weil.to_json(), rows[WEIL_FAMILY], *WEIL_FAMILY)
            ops.append(Op("weil-duality", weil.ok, problems))
        return ops


WORKLOADS = {"campaign": Campaign, "gauss-jacobi": GaussJacobi, "dwork-family": DworkFamily}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    setup_s = process_age()

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RESULTS))
    recorder = spans.Recorder() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](program, args.seed, workdir)
        if recorder:
            recorder.install()
        n_rounds = 1 if recorder else max(1, int(args.seconds // workload.nominal_s))
        rounds: list[tuple[float, float]] = []
        ops: list[Op] = []
        for _ in range(n_rounds):
            workload.prepare()
            if recorder:
                recorder.active = True
            c0, w0 = time.process_time(), time.perf_counter()
            raw = workload.run()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if recorder:
                recorder.active = False
            rounds.append((wall, cpu))
            print(f"round {len(rounds)}: wall {wall:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
            ops += workload.check(raw)
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops:
        for p in op.problems:
            print(f"{op.name}: {p}", file=sys.stderr)
        if not op.passed:
            print(f"{op.name}: the program reports FAIL", file=sys.stderr)

    if recorder:
        metrics = recorder.metrics()
        for prefix in recorder.absent:
            print(f"absent: {prefix} (its name no longer exists)", file=sys.stderr)
    else:
        metrics = {
            "wall_s": (statistics.median(w for w, _ in rounds), "s"),
            "cpu_s": (statistics.median(c for _, c in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    result = {
        "correct": not any(op.passed and op.problems for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if recorder else "")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if recorder:
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "round_wall_s": rounds[0][0],
            "absent": recorder.absent,
            "spans": recorder.spans,
        }
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
