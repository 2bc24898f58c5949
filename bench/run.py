"""robustlq benchmark: one workload per process, timed end to end or traced.

    python3 bench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Run it from anywhere; it imports the package from the `src/` next to
this directory and pins BLAS to one thread.  Workloads, with inputs made
from --seed:

  solve     `solve_game` + `value` on three random games (n = 1, 2, 4;
            N = 200; T = 1) of one game seed, the (seed mod size)-th of the
            pool of game seeds with a reference in references.json; each
            value must lie within 10x its expected error of the Richardson
            reference stored with it: the N = 800 error recorded there,
            times the recorded step-halving ratio (4, second order) for
            each halving from 800 to 200.  N = 200 is the roadmap's
            smaller fixed grid; it gives a run six to ten rounds to take
            medians over, where N = 800 gives two or three.
            All of the time is in the solver cascade (model, augment,
            backward, equilibrium); none is in montecarlo.
  simulate  `simulate` on instance_a (every diffusion coupling on; N = 200,
            4 substeps, 5,000 paths in one chunk, MC seed = --seed),
            checked against `value` within 4 standard errors with no blown
            path.  The solver runs only in set-up.
  verify    `robustlq verify` in-process (`robustlq.cli.run`) on instance_b
            (diffusion-free, so the boundary-value oracle runs) written as a
            spec file, 400 paths, 2 directions, 2 substeps,
            --seed = --seed.  It must exit 0 with every row passing.

Operations repeat until --seconds would be exceeded (at least one round).
The last stdout line is the result.  With --trace 0 its metrics are

  setup_s      import time (median of five fresh interpreters) plus the
               median of five repetitions of building the inputs (for
               simulate, including the solve it consumes), in reference
               seconds
  op_s         median time of one operation in reference seconds: for
               solve the sum over the three games of each game's median,
               for simulate one `simulate` call, for verify one verify run
  peak_rss_mb  peak resident memory of this process

A shared host runs the same code faster or slower by tens of percent
from one minute to the next.  So every timed call (import probe, set-up
repetition, operation) is followed by a gap in which a fixed calibration
kernel (4x4 and 40x40 numpy solves, products and SVDs, none of it from
the program) is timed at least CAL_REPS times and for CAL_DUTY of the
call's wall time.  A call's time in reference seconds is its wall time
x CAL_REF_S / (mean kernel time of the gaps before and after it): its
time on a host where the kernel takes CAL_REF_S.  Medians are taken
over these.  A change to the program moves them as it moves wall time;
the raw wall medians are in the report.

With --trace 1 each round runs every operation once untraced and once
inside spans and counters (spans.py); its metrics are the per-layer
ones, per round.  The line before the result is a JSON report with the
per-operation metrics (solve_s.n1, sim_path_steps_per_s, verify_s, ...),
value_rel_err, failed_ops_frac with its base, the trace self-check and
the run metadata.  A traced run whose self-check finds a problem is not
correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "robustlq" / "__init__.py").is_file():
    sys.exit(f"bench: no robustlq sources under {SRC}")
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import robustlq as rl
    import robustlq.cli  # noqa: F401

    import instances
    import spans
except ImportError as exc:
    sys.exit(f"bench: cannot import robustlq from {SRC}: {exc}")

SETUP_REPS = 5
# solve: |value - reference| / |reference| may be at most this many times
# the error expected from the one measured when the reference was made
VALUE_ERR_FACTOR = 10.0
MC_Z = 4.0             # simulate: |mean - value| in standard errors
CAL_REPS = 3           # calibration kernels timed at least after each call
CAL_DUTY = 0.1         # ... and for at least this share of the call's time
CAL_REF_S = 0.04       # reference time of one calibration kernel

IMPORT_PROBE = ("import time; t = time.perf_counter(); import robustlq.cli; "
                "print(time.perf_counter() - t)")


def _import_probe() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def _references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


_CAL_SMALL = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16.0
_CAL_BIG = np.eye(40) + 0.01 * np.arange(1600.0).reshape(40, 40) / 1600.0


def _calibration_kernel():
    """Small-matrix numpy calls of the kinds the solver and the Monte Carlo
    loop make.  Their speed follows the host's load the way the program's
    does; a pure Python loop or a pass over a large array tracked it half
    as well or worse."""
    small, big = _CAL_SMALL, _CAL_BIG
    for _ in range(300):
        np.linalg.solve(small, small[0])
        np.einsum("ij,jk->ik", small, small)
        small @ small + small.T
        np.linalg.solve(big, big[0])
        big @ big
    for _ in range(600):
        np.linalg.svd(small, compute_uv=False)


class Clock:
    """Calibration gaps between timed calls, and the calls' times in
    reference seconds."""

    def __init__(self):
        self.kernels = 0
        self.last = self.gap(0.0)

    def gap(self, busy_s) -> float:
        """Mean kernel time of one gap after a call that took busy_s."""
        times = []
        end = time.perf_counter() + CAL_DUTY * busy_s
        while len(times) < CAL_REPS or time.perf_counter() < end:
            t0 = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - t0)
        self.kernels += len(times)
        return statistics.fmean(times)

    def reference(self, wall) -> float:
        """Reference seconds of a call that just took wall seconds; runs
        the gap after it."""
        before, self.last = self.last, self.gap(wall)
        return wall * 2.0 * CAL_REF_S / (before + self.last)


def timed(clock, fn, *args):
    """(result, wall seconds, reference seconds) of fn(*args)."""
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, clock.reference(wall)


class Solve:
    keys = ("n1", "n2", "n4")
    N = 200

    def __init__(self, seed, work):
        refs = _references()["random_game"]
        pool = sorted(refs, key=int)
        self.game_seed = int(pool[seed % len(pool)])
        self.refs = refs[str(self.game_seed)]
        self.errors = {}

    def setup(self):
        self.games = {key: instances.random_game(self.game_seed, int(key[1:]), N=self.N)
                      for key in self.keys}

    def op(self, key):
        return rl.equilibrium.value(rl.equilibrium.solve_game(self.games[key]))

    def check(self, key, value):
        ref = self.refs[key[1:]]
        self.errors[key] = abs(value - ref["value"]) / abs(ref["value"])
        expected = ref["value_rel_err"] * ref["halving_ratio"] ** math.log2(ref["N"] / self.N)
        return [self.errors[key] <= VALUE_ERR_FACTOR * expected]

    def value_rel_err(self):
        return max(self.errors.values())

    def report(self, samples):
        out = {f"solve_s.{key}": _stat(samples[key]) for key in self.keys}
        out["value_rel_err"] = {"value": self.value_rel_err(), "unit": "1",
                                "game_seed": self.game_seed}
        return out


class Simulate:
    keys = ("simulate",)
    N, SUBSTEPS, PATHS = 200, 4, 5_000

    def __init__(self, seed, work):
        self.seed = seed
        self.ref = _references()["instance_a"]
        self.z = 0.0

    def setup(self):
        self.sol = rl.equilibrium.solve_game(instances.instance_a(self.N))
        self.value = rl.equilibrium.value(self.sol)

    def op(self, key):
        cfg = rl.montecarlo.SimConfig(paths=self.PATHS, seed=self.seed,
                                      substeps=self.SUBSTEPS)
        return rl.montecarlo.simulate(self.sol, cfg)

    def check(self, key, out):
        self.z = abs(out.j_mean - self.value) / out.j_stderr
        return [out.blown == 0 and self.z <= MC_Z]

    def value_rel_err(self):
        return abs(self.value - self.ref["value"]) / abs(self.ref["value"])

    def report(self, samples):
        path_steps = self.PATHS * self.N * self.SUBSTEPS
        simulate_s = _stat(samples["simulate"])
        return {
            "simulate_s": simulate_s,
            "sim_path_steps_per_s": {"value": path_steps / simulate_s["value"], "unit": "1/s"},
            "value_rel_err": {"value": self.value_rel_err(), "unit": "1"},
            "mc_mean_z": {"value": self.z, "unit": "stderr"},
        }


class Verify:
    keys = ("verify",)
    ARGS = ("--paths", "400", "--directions", "2", "--substeps", "2")

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.ref = _references()["instance_b"]

    def setup(self):
        self.spec_file = self.work / "instance_b.json"
        rl.model.dump_spec(instances.instance_b(), self.spec_file)

    def op(self, key):
        argv = ["verify", "--spec", str(self.spec_file), "--out", str(self.work / "verify"),
                "--seed", str(self.seed), *self.ARGS]
        with contextlib.redirect_stdout(sys.stderr):
            return rl.cli.run(argv)

    def check(self, key, code):
        out = self.work / "verify"
        passed = [code == 0]
        try:
            for name in ("perturbation.csv", "convexity.csv"):
                rows = (out / name).read_text().splitlines()[1:]
                passed += [row.rsplit(",", 1)[1] == "pass" for row in rows]
            passed.append(json.loads((out / "verify_summary.json").read_text())["oracle"]["ok"])
        except FileNotFoundError:
            passed.append(False)
        shutil.rmtree(out, ignore_errors=True)
        return passed

    def value_rel_err(self):
        # verify prints no value; solve the game its spec file holds
        value = rl.equilibrium.value(rl.equilibrium.solve_game(instances.instance_b()))
        return abs(value - self.ref["value"]) / abs(self.ref["value"])

    def report(self, samples):
        return {"verify_s": _stat(samples["verify"])}


WORKLOADS = {"solve": Solve, "simulate": Simulate, "verify": Verify}

# Per-layer metrics that must be nonzero where the layer runs; the trace
# covers the timed operations only, not set-up.
_SOLVER = ("model.validate_s", "model.path_at_calls", "augment.hat_s", "augment.check_s",
           "augment.blackboard_s", "augment.cost_weights_s", "augment.doublehat_s",
           "augment.gain_maps_s", "backward.riccati_follower_s",
           "backward.riccati_disturbance_s", "backward.riccati_generalized_s",
           "backward.lyapunov_s", "backward.value_offset_s", "backward.offset_s",
           "backward.rk4_steps", "equilibrium.solve_game_self_s")
_STREAMS = ("montecarlo.streams_s", "montecarlo.stream_paths", "montecarlo.path_steps")
EXPECTED = {
    "solve": _SOLVER + ("equilibrium.value_s",),
    "simulate": ("model.path_at_calls", "montecarlo.simulate_self_s") + _STREAMS,
    "verify": _SOLVER + _STREAMS + (
        "model.load_spec_s", "equilibrium.diagnostics_s", "montecarlo.perturb_self_s",
        "montecarlo.convexity_self_s", "montecarlo.oracle_s", "montecarlo.rows",
        "montecarlo.rows_pass_frac", "cli.self_s"),
}


def _stat(wall):
    return {"value": statistics.median(wall), "unit": "s", "samples": len(wall),
            "min": min(wall), "max": max(wall)}


def _metadata() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _git_commit():
    """HEAD of the checkout read from .git directly (no git process, no
    search above the checkout); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs one workload's operations and tallies the checked outcomes."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.reference = None  # reference seconds of the last untraced op
        self.attempted = 0
        self.failed = 0

    def run(self, key, tracer=None):
        """Time one operation; returns its wall time, or None if it raised.
        Untraced, the calibration gap after it follows."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.op(key)
            else:
                tracer.install()
                try:
                    result = tracer.span(spans.ROOT, self.wl.op, key)
                finally:
                    tracer.remove()
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        if tracer is None:
            self.reference = self.clock.reference(elapsed)
        passed = self.wl.check(key, result)
        self.attempted += len(passed)
        self.failed += passed.count(False)
        return elapsed


def run_untraced(runner, seconds, start):
    """Wall and reference seconds of each operation, per operation key."""
    samples = {key: [] for key in runner.wl.keys}
    reference = {key: [] for key in runner.wl.keys}
    first_round = True
    while True:
        for key in runner.wl.keys:
            if not first_round:
                estimate = statistics.median(samples[key]) if samples[key] else 0.0
                if time.perf_counter() - start + (1.0 + CAL_DUTY) * estimate > seconds:
                    return samples, reference
            elapsed = runner.run(key)
            if elapsed is not None:
                samples[key].append(elapsed)
                reference[key].append(runner.reference)
        first_round = False


def run_traced(runner, seconds, start):
    tracer = spans.Tracer()
    plain, traced = [], []
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        round_plain = round_traced = 0.0
        for key in runner.wl.keys:
            round_plain += runner.run(key) or 0.0
            round_traced += runner.run(key, tracer) or 0.0
        plain.append(round_plain)
        traced.append(round_traced)
        rounds += 1
    return tracer, rounds, sum(plain), sum(traced)


def per_layer(tracer, rounds, wl, plain, traced, failed_frac) -> dict:
    self_t, total_t = tracer.self_times(), tracer.total_times()
    out = {}
    for span, (metric, kind) in spans.SPAN_METRICS.items():
        out[metric] = ((self_t if kind == "self" else total_t).get(span, 0.0) / rounds, "s")
    counts = tracer.counts
    for name in spans.COUNT_METRICS:
        out[name] = (counts[name] // rounds, "count")
    rows = counts["montecarlo.rows"]
    out["montecarlo.rows_pass_frac"] = (counts["montecarlo.rows_passed"] / rows if rows else 0.0, "1")
    out["value_rel_err"] = (wl.value_rel_err(), "1")
    out["failed_ops_frac"] = (failed_frac, "1")
    out["trace.overhead_frac"] = ((traced - plain) / plain, "1")
    return out


def self_check(tracer, workload, layer, traced_wall) -> list:
    """Problems found in the trace; an empty list means it is consistent."""
    problems = tracer.nesting_problems()
    self_t = tracer.self_times()
    self_sum = sum(self_t.values())
    if abs(self_sum - traced_wall) > 0.01 * traced_wall:
        problems.append(f"self times add to {self_sum:.4f} s, traced wall {traced_wall:.4f} s")
    uncovered = self_t.get(spans.ROOT, 0.0)
    if uncovered > 0.02 * traced_wall:
        problems.append(f"{uncovered:.4f} s of {traced_wall:.4f} s is in no layer span")
    problems += [f"{name} is zero on {workload}" for name in EXPECTED[workload]
                 if layer[name][0] == 0]
    problems += [f"{name} not found, not traced" for name in sorted(tracer.missing)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clock = Clock()
    imports = [timed(clock, _import_probe) for _ in range(SETUP_REPS)]
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setups = [timed(clock, wl.setup) for _ in range(SETUP_REPS)]
        # the import probe reports its own import time, not its wall time
        import_ref = [probe * ref / wall for probe, wall, ref in imports]
        setup_wall = (statistics.median(probe for probe, _, _ in imports)
                      + statistics.median(wall for _, wall, _ in setups))
        setup_s = statistics.median(import_ref) + statistics.median(ref for _, _, ref in setups)

        runner = Runner(wl, clock)
        problems = []
        t_measure = time.perf_counter()
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "meta": _metadata()}
        if args.trace:
            tracer, rounds, plain, traced = run_traced(runner, args.seconds, t_measure)
            failed_frac = runner.failed / runner.attempted
            layer = per_layer(tracer, rounds, wl, plain, traced, failed_frac)
            problems = self_check(tracer, args.workload, layer, traced)
            report.update(rounds=rounds, untraced_s=plain, traced_s=traced,
                          overhead_s=traced - plain, self_check=problems or "ok")
            metrics = layer
            for problem in problems:
                print(f"bench: trace self-check: {problem}", file=sys.stderr)
        else:
            samples, reference = run_untraced(runner, args.seconds, t_measure)
            if not all(samples.values()):
                print("bench: every operation of one kind failed; nothing to time",
                      file=sys.stderr)
                return 1
            op_wall = sum(statistics.median(wall) for wall in samples.values())
            op_s = sum(statistics.median(ref) for ref in reference.values())
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"), "op_s": (op_s, "s"),
                       "peak_rss_mb": (peak_mb, "MB")}
            report.update(wl.report(samples))
            report.update(setup_wall_s={"value": setup_wall, "unit": "s"},
                          op_wall_s={"value": op_wall, "unit": "s"},
                          calibration={"kernels": clock.kernels, "reference_s": CAL_REF_S,
                                       "wall_over_reference": op_wall / op_s},
                          peak_rss_mb={"value": peak_mb, "unit": "MB"})
        report["failed_ops_frac"] = {"value": runner.failed / runner.attempted, "unit": "1",
                                     "failed": runner.failed, "attempted": runner.attempted}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
