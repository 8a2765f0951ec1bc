"""One timing helper, one gate table and one report writer for the benches.

A *leg* is a builder: ``build(stack)`` makes fresh, identically seeded
state off the clock (entering anything that needs closing on the
``ExitStack`` it is given) and returns the call to time.
:func:`measure` runs each leg once off the clock as a warm-up and keeps
that output, so parity and agreement are checked on a first pass from
fresh state.  It then takes ``REPEATS`` samples of every leg, flipping
the leg order every round, and each sample repeats build plus call
until at least ``MIN_SAMPLE_S`` of timed work has accumulated on the
gate's clock.  Gates compare ratios of the legs' medians.

Process CPU (:data:`CPU`) times work that runs in this process; wall
time (:data:`WALL`) times gates that overlap slept wire time or run
other processes, which the process clock cannot see.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Timed work per sample and samples per leg, keyed by ``smoke``.
MIN_SAMPLE_S = {False: 0.5, True: 0.05}
REPEATS = {False: 5, True: 3}

CPU = time.process_time
WALL = time.perf_counter

Builder = Callable[[ExitStack], Callable[[], object]]


def pin_one_blas_thread() -> None:
    """One BLAS thread, as ``perfbench/run.py`` runs; takes effect only
    before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


@dataclass
class Leg:
    """Seconds per call of each sample, the calls each sample took, and
    the warm-up call's output."""

    per_call_s: list[float]
    calls: list[int]
    first: object

    @property
    def median_s(self) -> float:
        return statistics.median(self.per_call_s)

    @property
    def iqr_s(self) -> float:
        q1, _, q3 = statistics.quantiles(self.per_call_s, n=4, method="inclusive")
        return q3 - q1

    def summary(self, requests: int | None = None) -> dict:
        out = {
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "samples": len(self.per_call_s),
            "calls_per_sample": self.calls,
        }
        if requests is not None:
            out["requests_per_second"] = requests / self.median_s
        return out


def _timed(build: Builder, clock: Callable[[], float]) -> tuple[float, object]:
    with ExitStack() as stack:
        call = build(stack)
        start = clock()
        output = call()
        return clock() - start, output


def measure(legs: dict[str, Builder], *, clock: Callable[[], float],
            smoke: bool) -> dict[str, Leg]:
    """Time every leg on ``clock``, interleaved; see the module docstring."""
    result = {name: Leg([], [], _timed(build, clock)[1])
              for name, build in legs.items()}
    order = list(legs)
    for round_ in range(REPEATS[smoke]):
        for name in order if round_ % 2 == 0 else order[::-1]:
            spent, calls = 0.0, 0
            while spent < MIN_SAMPLE_S[smoke]:
                spent += _timed(legs[name], clock)[0]
                calls += 1
            result[name].per_call_s.append(spent / calls)
            result[name].calls.append(calls)
    return result


def ratio(legs: dict[str, Leg], slow: str, fast: str) -> float:
    """How many times faster ``fast`` ran than ``slow``, by medians."""
    return legs[slow].median_s / legs[fast].median_s


@dataclass(frozen=True)
class Gate:
    """One gate over one part of a bench's report: ``value`` reads a
    ratio from ``sections[section]`` (``None`` when the measurement could
    not run, as without a C compiler) that must reach the full-run or
    smoke threshold (``None``: not gated at that size), and ``checks``
    reads the correctness conditions, which must all hold."""

    name: str
    section: str
    value: Callable[[dict], float | None] | None
    full: float | None
    smoke: float | None
    checks: Callable[[dict], dict[str, bool]] = field(default=lambda part: {})

    def threshold(self, smoke: bool) -> float | None:
        return self.smoke if smoke else self.full

    def verdict(self, sections: dict, smoke: bool) -> dict:
        part = sections[self.section]
        value = None if self.value is None else self.value(part)
        threshold = self.threshold(smoke)
        checks = {name: bool(ok) for name, ok in self.checks(part).items()}
        passed = all(checks.values()) and (
            threshold is None or value is None or value >= threshold
        )
        return {"value": value, "threshold": threshold, "checks": checks,
                "pass": passed}


def decide(gates: tuple[Gate, ...], sections: dict,
           smoke: bool) -> dict[str, dict]:
    """Every gate's verdict, printed one line each."""
    verdicts = {gate.name: gate.verdict(sections, smoke) for gate in gates}
    for name, v in verdicts.items():
        line = f"{'PASS' if v['pass'] else 'FAIL'}  {name:<20}"
        if v["value"] is not None:
            line += f" {v['value']:6.2f}"
        if v["threshold"] is not None:
            line += f" >= {v['threshold']:.2f}"
        failed = [check for check, ok in v["checks"].items() if not ok]
        if v["checks"]:
            line += f"  checks {len(v['checks']) - len(failed)}/{len(v['checks'])}"
        print(line + "".join(f", failed: {check}" for check in failed))
    return verdicts


def write_report(path: Path, bench: str, sections: dict, verdicts: dict, *,
                 smoke: bool, scale: str) -> None:
    """Merge ``sections`` and the gate verdicts into the JSON report at
    ``path`` (other benches' sections survive) under a host ``meta``."""
    from perfbench.host import fingerprint
    from repro.edge import _fastexec

    report: dict = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError:
            report = {}
    meta = report.setdefault("meta", {})
    meta.update(fingerprint(seed=None), fastexec_variant=_fastexec.variant())
    meta[bench] = {"smoke": smoke, "scale": scale,
                   "min_sample_s": MIN_SAMPLE_S[smoke], "repeats": REPEATS[smoke]}
    report.update(sections)
    report.setdefault("gates", {}).update(verdicts)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
