"""The traced benchmark run still sees every name it wraps.

`perfbench/spans.py` wraps each name in its TARGETS wherever dworkbench
binds it, and a traced run ends with one JSON result line.  A change that
renames or deletes one of those names drops its per-layer metrics, so both
are checked here against BENCHMARK.json's per-layer list.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _strict_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_recorder_finds_every_target():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    rec = spans.Recorder()
    try:
        rec.install()
        assert rec.absent == []
    finally:
        rec.uninstall()


def test_traced_campaign_ends_in_a_full_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "campaign", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_strict_constant)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["failed"] == 0
