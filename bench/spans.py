"""Spans and counters recorded around the solver's module-level functions.

The program is not modified: `Tracer.install` replaces each function in
the namespace its caller looks it up in (several are imported by name,
so one function can need several replacements) and `Tracer.remove` puts
the originals back.  A span records a name, a start, an end and the
index of its parent span; a layer's self time is its span durations
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from robustlq import augment, backward, cli, equilibrium, model, montecarlo

_SPANS = [
    # (module, attribute, span name)
    (equilibrium, "validate_spec", "model.validate"),
    (cli, "validate_spec", "model.validate"),
    (cli, "load_spec", "model.load_spec"),
    (augment, "build_hat", "augment.hat"),
    (augment, "build_check", "augment.check"),
    (augment, "build_blackboard", "augment.blackboard"),
    (augment, "build_cost_weights", "augment.cost_weights"),
    (augment, "build_doublehat", "augment.doublehat"),
    (augment, "build_gain_maps", "augment.gain_maps"),
    (backward, "solve_riccati_follower", "backward.riccati_follower"),
    (backward, "solve_riccati_disturbance", "backward.riccati_disturbance"),
    (backward, "solve_riccati_generalized", "backward.riccati_generalized"),
    (backward, "solve_lyapunov", "backward.lyapunov"),
    (backward, "solve_value_offset", "backward.value_offset"),
    (backward, "solve_offset_b1", "backward.offset"),
    (backward, "solve_offset_b3", "backward.offset"),
    (backward, "solve_offset_b4", "backward.offset"),
    (equilibrium, "solve_game", "equilibrium.solve_game"),
    (equilibrium, "value", "equilibrium.value"),
    (equilibrium, "ensure_diagnostics", "equilibrium.diagnostics"),
    (montecarlo, "ensure_diagnostics", "equilibrium.diagnostics"),
    (montecarlo, "path_increments", "montecarlo.streams"),
    (montecarlo, "simulate", "montecarlo.simulate"),
    (montecarlo, "perturb_best_response", "montecarlo.perturb"),
    (montecarlo, "sampled_convexity", "montecarlo.convexity"),
    (montecarlo, "bvp_oracle", "montecarlo.oracle"),
    (cli, "run", "cli.run"),
]

# Per-layer metric of each span: "self" reports the span's self time,
# "total" its whole duration (the two agree for spans without children).
SPAN_METRICS = {
    "model.validate": ("model.validate_s", "total"),
    "model.load_spec": ("model.load_spec_s", "total"),
    "augment.hat": ("augment.hat_s", "total"),
    "augment.check": ("augment.check_s", "total"),
    "augment.blackboard": ("augment.blackboard_s", "total"),
    "augment.cost_weights": ("augment.cost_weights_s", "total"),
    "augment.doublehat": ("augment.doublehat_s", "total"),
    "augment.gain_maps": ("augment.gain_maps_s", "total"),
    "backward.riccati_follower": ("backward.riccati_follower_s", "total"),
    "backward.riccati_disturbance": ("backward.riccati_disturbance_s", "total"),
    "backward.riccati_generalized": ("backward.riccati_generalized_s", "total"),
    "backward.lyapunov": ("backward.lyapunov_s", "total"),
    "backward.value_offset": ("backward.value_offset_s", "total"),
    "backward.offset": ("backward.offset_s", "total"),
    "equilibrium.solve_game": ("equilibrium.solve_game_self_s", "self"),
    "equilibrium.value": ("equilibrium.value_s", "total"),
    "equilibrium.diagnostics": ("equilibrium.diagnostics_s", "total"),
    "montecarlo.streams": ("montecarlo.streams_s", "total"),
    "montecarlo.simulate": ("montecarlo.simulate_self_s", "self"),
    "montecarlo.perturb": ("montecarlo.perturb_self_s", "self"),
    "montecarlo.convexity": ("montecarlo.convexity_self_s", "self"),
    "montecarlo.oracle": ("montecarlo.oracle_s", "total"),
    "cli.run": ("cli.self_s", "self"),
}

# Counters reported as per-layer metrics; "montecarlo.rows_passed" is
# counted too and reported as a share of "montecarlo.rows".
COUNT_METRICS = ("model.path_at_calls", "backward.rk4_steps",
                 "montecarlo.stream_paths", "montecarlo.path_steps",
                 "montecarlo.blown_paths", "montecarlo.rows")

ROOT = "bench.op"


def _count_results(counts, span, args, result):
    """Counters read off the arguments or results of a wrapped call."""
    if span == "montecarlo.streams":
        count, steps = args[2], args[3]
        counts["montecarlo.stream_paths"] += count
        counts["montecarlo.path_steps"] += count * steps
    elif span == "montecarlo.simulate":
        counts["montecarlo.blown_paths"] += result.blown
    elif span in ("montecarlo.perturb", "montecarlo.convexity"):
        counts["montecarlo.rows"] += len(result.rows)
        counts["montecarlo.rows_passed"] += sum(r.verdict == "pass" for r in result.rows)


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.counts = Counter()
        self.missing = set()   # names the program no longer has
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, name in _SPANS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                continue

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                result = self.span(_name, _fn, *args, **kwargs)
                _count_results(self.counts, _name, args, result)
                return result

            self._replace(owner, attr, wrapper)

        counts = self.counts
        integrate = getattr(backward, "integrate_backward", None)
        if integrate is None:
            self.missing.add("backward.integrate_backward")
        else:
            def integrate_backward(rhs, terminal, grid):
                counts["backward.rk4_steps"] += grid.steps
                return integrate(rhs, terminal, grid)

            self._replace(backward, "integrate_backward", integrate_backward)

        at = model.MatrixPath.at

        def path_at(path, t):
            counts["model.path_at_calls"] += 1
            return at(path, t)

        self._replace(model.MatrixPath, "at", path_at)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += (end - start) - inner
        return out

    def total_times(self) -> dict:
        """Whole duration summed per span name."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def nesting_problems(self) -> list:
        """Spans that are not closed or do not lie inside their parent."""
        problems = []
        for name, start, end, parent in self.spans:
            if end is None or end < start:
                problems.append(f"span {name} is not closed")
            elif parent is not None:
                pname, pstart, pend, _ = self.spans[parent]
                if start < pstart or end > pend:
                    problems.append(f"span {name} leaves its parent {pname}")
        return problems
