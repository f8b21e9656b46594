"""Span recorder that wraps dworkbench's public names from outside.

`harness` imports what it calls with `from .x import name`, so a name is
looked up in several module namespaces.  `Recorder.install` replaces the
original object in every loaded dworkbench module (and the class attribute,
for methods), so each call records one span: name, start, end and the index
of the enclosing span.  Spans stay in memory until the benchmark ends.

A layer's self time is its spans' durations minus the part covered by their
child spans; `harness.*` checks are reported inclusive instead, since they
are the top of every call tree.  A name that no longer exists is reported
as absent and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from typing import Callable

# metric prefix -> (module, attribute paths); one span name per prefix
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "harness.build_v": ("dworkbench.harness", ("check_build_v",)),
    "harness.gauss_suite": ("dworkbench.harness", ("check_gauss_suite",)),
    "harness.hyper_cross": ("dworkbench.harness", ("check_hyper_cross",)),
    "harness.canonical_paths": ("dworkbench.harness", ("check_canonical_paths",)),
    "harness.det_oracle": ("dworkbench.harness", ("check_det_oracle",)),
    "harness.det_hcan": ("dworkbench.harness", ("check_det_hcan",)),
    "harness.n3": ("dworkbench.harness", ("validate_n3",)),
    "harness.katz": ("dworkbench.harness", ("katz_check",)),
    "harness.weil_duality": ("dworkbench.harness", ("check_weil_duality",)),
    "harness.signs": ("dworkbench.harness", ("check_signs",)),
    "hypergeometric.det_via_newton": ("dworkbench.hypergeometric", ("det_via_newton",)),
    "hypergeometric.det_trad": ("dworkbench.hypergeometric", ("det_trad",)),
    "hypergeometric.trad_trace_conv": ("dworkbench.hypergeometric", ("trad_trace_conv",)),
    "hypergeometric.trad_trace_naive": ("dworkbench.hypergeometric", ("trad_trace_naive",)),
    "hypergeometric.canonical_trace": ("dworkbench.hypergeometric", ("canonical_trace",)),
    "hypergeometric.verify_det_hcan": ("dworkbench.hypergeometric", ("verify_det_hcan",)),
    "dwork.eigentrace_all_t": ("dworkbench.dwork", ("eigentrace_all_t",)),
    "dwork.boundary_term": ("dworkbench.dwork", ("boundary_term",)),
    "dwork.fix_count_bruteforce": ("dworkbench.dwork", ("fix_count_bruteforce",)),
    "dwork.eigentrace_charsum": ("dworkbench.dwork", ("eigentrace_charsum",)),
    "dwork.count_points": ("dworkbench.dwork", ("count_points",)),
    "characters.gauss_sum": ("dworkbench.characters", ("gauss_sum",)),
    "characters.jacobi_sum": ("dworkbench.characters", ("jacobi_sum",)),
    "cyclotomic.mul": ("dworkbench.cyclotomic", ("CycloElem.__mul__", "CycloElem.__rmul__")),
    "cyclotomic.coerce": ("dworkbench.cyclotomic", ("CycloElem.coerce",)),
    "cyclotomic.galois": ("dworkbench.cyclotomic", ("CycloElem.galois",)),
    "cyclotomic.invert": ("dworkbench.cyclotomic", ("CycloElem.invert",)),
    "finitefield.build_field": ("dworkbench.finitefield", ("build_field",)),
}

INCLUSIVE = "harness."
MUL_WORK = "cyclotomic.mul_work_phi2"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run can report, with its unit."""
    out = []
    for prefix in TARGETS:
        out.append((f"{prefix}_s", "s"))
        if not prefix.startswith(INCLUSIVE):
            out.append((f"{prefix}_calls", "count"))
        if prefix == "cyclotomic.mul":
            out.append((MUL_WORK, "count"))
    return out


@functools.lru_cache(maxsize=None)
def _totient(M: int) -> int:
    return sum(1 for e in range(1, M + 1) if math.gcd(e, M) == 1)


def _mul_work(a, b) -> int:
    """phi(M)^2 when both factors are non-rational elements, else 0."""
    if type(b) is not type(a) or a.is_rational() or b.is_rational():
        return 0
    return _totient(a.M) ** 2


class Recorder:
    """In-memory spans; records only while `active`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.mul_work = 0
        self.active = False
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, weigh: Callable | None) -> Callable:
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if weigh is not None:
                rec.mul_work += weigh(*args)
            idx = len(rec.spans)
            span = [name, clock(), 0.0, rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                rec.stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target at every place its object is bound."""
        for prefix, (modname, paths) in TARGETS.items():
            found = False
            for path in paths:
                try:
                    owner = importlib.import_module(modname)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    orig = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                weigh = _mul_work if prefix == "cyclotomic.mul" else None
                wrapper = self._wrap(prefix, orig, weigh)
                if outer:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("dworkbench"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
            if not found:
                self.absent.append(prefix)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span; absent layers left out."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        secs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own = end - start
            if not name.startswith(INCLUSIVE):
                own -= child_time[i]
            secs[name] = secs.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, tuple[float, str]] = {}
        for metric, unit in metric_names():
            prefix = metric.rsplit("_", 1)[0]
            if metric == MUL_WORK:
                if "cyclotomic.mul" not in self.absent:
                    out[metric] = (self.mul_work, unit)
            elif prefix not in self.absent:
                out[metric] = (secs.get(prefix, 0.0) if unit == "s" else calls.get(prefix, 0), unit)
        return out
