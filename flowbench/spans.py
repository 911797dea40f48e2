"""In-memory spans around the calls between bracketflow's modules.

A `Tracer` records one span per wrapped call: its name, start, end and the
span that was open when it started (its parent).  `patched(tracer)` swaps
the names that bracketflow's modules look up at call time for timing
wrappers, and restores them on exit, so the package itself is untouched and
untraced runs pay nothing.

`layer_metrics` turns the spans of some traced passes into the per-layer
metrics the benchmark reports (see README.md for their definitions).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array
from types import SimpleNamespace

# Span names are "<module>.<function>" of the layer being entered.
RHS = "flow.rhs"
RICCI = "curvature.ricci_assembly"
CHECK = "algebra.check_conditions"
BRACKET = "algebra.LieBracket"
TRANSFORM = "algebra.transform_bracket"
FIT = "flow.fit_power_blowup"
ESTIMATE = "flow.estimate_report"
INTEGRATE = "flow.integrate"
STEP = "flow.rk_step"
DENSE = "flow.dense"
PUSHED_RIC = "metric_flow.pushed_ric"
METRIC_STEP = "metric_flow.rk_step"
EQUIVALENCE = "metric_flow.equivalence_check"
ORACLE = "curvature.koszul_ricci_oracle"
CSV = "scenario.write_trajectory_csv"
RUN_SCENARIO = "scenario.run_scenario"
CLI_MAIN = "cli.main"


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start and end."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        # Stepper spans: span index -> (attempted steps, accepted).
        self.steps: dict[int, tuple[int, bool]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        nid = self.name_index(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def stepper(self, name: str, base):
        """Subclass of the scipy solver class `base` whose `step` is a span.

        One `step()` call makes one accepted step, after any number of
        rejected attempts; each attempt costs `n_stages` RHS evaluations,
        which the solver counts in `nfev`.
        """
        tracer = self
        nid = self.name_index(name)

        class TracedStepper(base):
            def step(self):
                nfev0 = self.nfev
                idx = tracer.open(nid)
                try:
                    return super().step()
                finally:
                    tracer.close(idx)
                    attempts = (self.nfev - nfev0) // self.n_stages
                    tracer.steps[idx] = (attempts, self.status != "failed")

        TracedStepper.__name__ = base.__name__
        return TracedStepper

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of each span in [lo, hi): its duration minus its children's."""
        hi = len(self) if hi is None else hi
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def write_csv(self, path, lo: int, hi: int) -> None:
        """Write spans [lo, hi) as name,start_s,end_s,parent (times from the first span)."""
        t0 = self.start[lo] if hi > lo else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(lo, hi):
                parent = self.parent[i] - lo if self.parent[i] >= lo else -1
                fh.write(
                    f"{i - lo},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{parent}\n"
                )


def entry_points(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package functions the workloads call, each a span when `tracer` is given."""
    from bracketflow import cli, curvature, flow, metric_flow

    calls = {
        "main": (CLI_MAIN, cli.main),
        "integrate": (INTEGRATE, flow.integrate),
        "ricci_operator": (None, curvature.ricci_operator),
        "koszul_ricci_oracle": (ORACLE, curvature.koszul_ricci_oracle),
        "equivalence_check": (EQUIVALENCE, metric_flow.equivalence_check),
    }
    return SimpleNamespace(
        **{key: tracer.wrap(name, fn) if tracer is not None and name else fn for key, (name, fn) in calls.items()}
    )


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route bracketflow's calls between modules through `tracer`'s wrappers."""
    from bracketflow import cli, flow, metric_flow, scenario

    replacements = [
        (flow, "_default_rhs_tensor", tracer.wrap(RHS, flow._default_rhs_tensor)),
        (flow, "_ricci_from_tensor", tracer.wrap(RICCI, flow._ricci_from_tensor)),
        (flow, "check_conditions", tracer.wrap(CHECK, flow.check_conditions)),
        (flow, "LieBracket", tracer.wrap(BRACKET, flow.LieBracket)),
        (flow, "fit_power_blowup", tracer.wrap(FIT, flow.fit_power_blowup)),
        (flow, "RK45", tracer.stepper(STEP, flow.RK45)),
        (flow, "DenseSolution", _traced_dense(tracer, flow.DenseSolution)),
        (scenario, "integrate", tracer.wrap(INTEGRATE, scenario.integrate)),
        (scenario, "estimate_report", tracer.wrap(ESTIMATE, scenario.estimate_report)),
        (scenario, "write_trajectory_csv", tracer.wrap(CSV, scenario.write_trajectory_csv)),
        (cli, "run_scenario", tracer.wrap(RUN_SCENARIO, cli.run_scenario)),
        (metric_flow, "_pushed_ric", tracer.wrap(PUSHED_RIC, metric_flow._pushed_ric)),
        (metric_flow, "transform_bracket", tracer.wrap(TRANSFORM, metric_flow.transform_bracket)),
        (metric_flow, "RK45", tracer.stepper(METRIC_STEP, metric_flow.RK45)),
        (metric_flow, "integrate", tracer.wrap(INTEGRATE, metric_flow.integrate)),
        (metric_flow, "DenseSolution", _traced_dense(tracer, metric_flow.DenseSolution)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield tracer
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


def _traced_dense(tracer: Tracer, base):
    nid = tracer.name_index(DENSE)

    class TracedDense(base):
        def __call__(self, t_phys):
            idx = tracer.open(nid)
            try:
                return super().__call__(t_phys)
            finally:
                tracer.close(idx)

    TracedDense.__name__ = base.__name__
    return TracedDense


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("algebra.check_conditions.calls", "count"),
    ("algebra.check_conditions.self_s", "s"),
    ("algebra.check_conditions.us_p50", "us"),
    ("algebra.transform_bracket.calls", "count"),
    ("algebra.transform_bracket.self_s", "s"),
    ("algebra.transform_bracket.us_p50", "us"),
    ("algebra.LieBracket.calls", "count"),
    ("algebra.LieBracket.us_p50", "us"),
    ("curvature.ricci_assembly.calls", "count"),
    ("curvature.ricci_assembly.self_s", "s"),
    ("curvature.ricci_assembly.us_p50", "us"),
    ("curvature.koszul_ricci_oracle.calls", "count"),
    ("curvature.koszul_ricci_oracle.us_p50", "us"),
    ("flow.rhs.calls", "count"),
    ("flow.rhs.self_s", "s"),
    ("flow.rhs.us_p50", "us"),
    ("flow.rhs.monitor_calls", "count"),
    ("flow.rk_step.accepted", "count"),
    ("flow.rk_step.rejected", "count"),
    ("flow.rk_step.self_s", "s"),
    ("flow.rhs_per_step", "ratio"),
    ("flow.integrate.self_s", "s"),
    ("flow.fit_power_blowup.calls", "count"),
    ("flow.fit_power_blowup.us_p50", "us"),
    ("flow.estimate_report.calls", "count"),
    ("flow.estimate_report.us_p50", "us"),
    ("metric_flow.pushed_ric.calls", "count"),
    ("metric_flow.pushed_ric.us_p50", "us"),
    ("metric_flow.rk_step.accepted", "count"),
    ("metric_flow.rk_step.rejected", "count"),
    ("metric_flow.rk_step.self_s", "s"),
    ("metric_flow.equivalence_check.self_s", "s"),
    ("flow.dense.calls", "count"),
    ("flow.dense.us_p50", "us"),
    ("scenario.write_trajectory_csv.calls", "count"),
    ("scenario.write_trajectory_csv.us_p50", "us"),
    ("scenario.bytes_written", "bytes"),
    ("scenario.run_scenario.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(tracer: Tracer, passes: list[tuple[int, int]], bytes_written: int) -> dict:
    """Per-layer metrics from the spans of some identical traced passes.

    `passes` lists each traced pass as a [lo, hi) span-index range.  Counts
    come from the first pass (every pass makes the same calls); `self_s` is
    the mean self time per pass; `us_p50` is the median over every call in
    every pass, 0 for a layer that was not called.  `trace.overhead_frac`
    is left to the caller, which timed the untraced passes.
    """
    names = tracer.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    step = {STEP: [0, 0], METRIC_STEP: [0, 0]}  # accepted, attempted
    rhs_in_steps = 0
    monitor_calls = 0
    first = True
    for lo, hi in passes:
        own = tracer.self_times(lo, hi)
        for i in range(lo, hi):
            name = names[tracer.name_id[i]]
            self_s[name] = self_s.get(name, 0.0) + own[i - lo]
            durations.setdefault(name, []).append(tracer.end[i] - tracer.start[i])
            if not first:
                continue
            calls[name] = calls.get(name, 0) + 1
            if name in step:
                attempts, accepted = tracer.steps[i]
                step[name][0] += accepted
                step[name][1] += attempts
            elif name == RHS:
                p = tracer.parent[i]
                parent = names[tracer.name_id[p]] if p >= 0 else None
                rhs_in_steps += parent == STEP
                monitor_calls += parent == INTEGRATE
        first = False
    out = {}
    for full, unit in LAYER_METRICS:
        layer, _, stat = full.rpartition(".")
        if stat == "calls":
            out[full] = (calls.get(layer, 0), unit)
        elif stat == "self_s":
            out[full] = (self_s.get(layer, 0.0) / len(passes), unit)
        elif stat == "us_p50":
            d = durations.get(layer)
            out[full] = (1e6 * statistics.median(d) if d else 0.0, unit)
    for name in (STEP, METRIC_STEP):
        accepted, attempted = step[name]
        out[name + ".accepted"] = (accepted, "count")
        out[name + ".rejected"] = (attempted - accepted, "count")
    out["flow.rhs.monitor_calls"] = (monitor_calls, "count")
    out["flow.rhs_per_step"] = (rhs_in_steps / step[STEP][0] if step[STEP][0] else 0.0, "ratio")
    out["scenario.bytes_written"] = (bytes_written, "bytes")
    return {full: out[full] for full, _ in LAYER_METRICS if full in out}
