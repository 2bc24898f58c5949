"""Compute the reference game values the benchmark checks `value` against.

The value converges at second order in the grid step (the roadmap's
step-halving ratio of 4), so each reference is the Richardson
extrapolation of the values at N = 1600 and 3200 steps.  Its error is
estimated as its distance to the extrapolation from N = 800 and 1600,
which is the larger error of the two, and is stored next to it together
with the relative error of the N = 800 value and the step-halving
ratio, from which the `solve` workload derives the error to expect at
its own grid.

Some random games of GAME_SEEDS give no usable reference; their seeds
are left out of the pool the `solve` workload draws from and listed with
the reason:

  no_equilibrium   a game raises RegularityError or BlowUpError: a
                   Riccati path escapes on [0, 1] and the solver says so.
  not_converging   a game returns a finite value without an error, but
                   its halving ratio is more than 10% away from 4 or its
                   reference error is not below 1% of its N = 800 error.
                   All six such seeds (0, 12, 19, 26, 27, 29; each at
                   n = 4) return finite values that jump by orders of
                   magnitude under grid refinement (up to 1e181): a
                   silent wrong result, a known defect of the solver
                   under the roadmap's aim 3, not a benign exclusion.

    python3 bench/make_references.py > bench/references.json

This takes about two minutes per game seed on one core, so it is run
once and its output is checked in; the benchmark never runs it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import robustlq as rl  # noqa: E402
from robustlq.model import BlowUpError, RegularityError  # noqa: E402

import instances  # noqa: E402

GRIDS = (800, 1600, 3200)
GAME_SEEDS = range(32)


def _value(spec) -> float:
    return rl.value(rl.solve_game(spec))


def reference(make, base_n: int = 800) -> dict:
    """Richardson reference of make(N) and the error figures behind it."""
    values = {N: _value(make(N)) for N in sorted({base_n, *GRIDS})}
    v1, v2, v4 = (values[N] for N in GRIDS)
    coarse = v2 + (v2 - v1) / 3.0
    fine = v4 + (v4 - v2) / 3.0
    return {
        "value": fine,
        "ref_rel_err": abs(fine - coarse) / abs(fine),
        "halving_ratio": (v1 - v2) / (v2 - v4),
        "N": base_n,
        "value_rel_err": abs(values[base_n] - fine) / abs(fine),
    }


def _not_converging(games) -> str:
    """Why a seed's finite values make no usable reference, or ""."""
    for n, ref in games.items():
        if not abs(ref["halving_ratio"] - 4.0) <= 0.4:
            return f"n={n}: value does not converge (halving ratio {ref['halving_ratio']:.3g})"
        if not ref["ref_rel_err"] <= 0.01 * ref["value_rel_err"]:
            return f"n={n}: reference error {ref['ref_rel_err']:.2e} is not below 1% of the N=800 error"
    return ""


def game_entry(seed: int) -> tuple:
    """(section of the document, entry) for the random games of one seed."""
    try:
        games = {str(n): reference(lambda N, n=n: instances.random_game(seed, n, N=N))
                 for n in (1, 2, 4)}
    except (RegularityError, BlowUpError) as exc:
        return "no_equilibrium", str(exc)
    reason = _not_converging(games)
    return ("not_converging", reason) if reason else ("random_game", games)


def main():
    doc = {"grids": list(GRIDS), "random_game": {}, "no_equilibrium": {}, "not_converging": {},
           "instance_a": reference(instances.instance_a, 200),
           "instance_b": reference(instances.instance_b, 256)}
    for seed in GAME_SEEDS:
        section, entry = game_entry(seed)
        doc[section][str(seed)] = entry
        print(f"seed {seed}: {section}", file=sys.stderr, flush=True)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
