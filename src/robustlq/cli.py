"""Command-line frontend.

Subcommands:
  solve        solve a game spec and dump the equilibrium artifacts
  simulate     solve + Monte Carlo simulation of the closed loop
  verify       validation report, best-response perturbation suite,
               sampled convexity probes and the boundary-value oracle
  example      built-in scalar production-supply game
  dump-blocks  stage coefficient blocks at a chosen time, as JSON

Exit codes: 0 success, 1 validation/usage failure, 2 solver or regularity
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import equilibrium, montecarlo
from .model import (BlowUpError, MatrixPath, RegularityError, SpecError,
                    as_count, build_spec, load_spec, validate_spec)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    # usage problems count as validation failures, keeping exit code 2
    # reserved for solver breakdowns
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_path_csv(path: MatrixPath, dest):
    """Matrix path as CSV: one row per node, entries flattened row-major,
    entry (i, j) from 1 in column p_<i><j>, or p_<i>_<j> past 10 rows and
    10 columns, where p_111 would name both (1, 11) and (11, 1)."""
    r, c = path.shape
    sep = "_" if min(r, c) > 10 else ""
    header = "t," + ",".join(f"p_{i + 1}{sep}{j + 1}" for i in range(r) for j in range(c))
    lines = [header]
    for k, t in enumerate(path.grid.nodes):
        flat = path.samples[k].reshape(-1)
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in flat]))
    dest = Path(dest)
    dest.write_text("\n".join(lines) + "\n")


def _load(args):
    return load_spec(args.spec, args.grid_n)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_solution(sol, out: Path):
    for name in ("P", "P1", "Phat", "phihat", "L", "psi"):
        write_path_csv(getattr(sol, name), out / f"{name}.csv")
    for name in ("PM1", "PM2", "phiM1", "phiM2"):
        write_path_csv(getattr(sol.gains, name), out / f"{name}.csv")


def _solution_summary(sol) -> dict:
    grid = sol.spec.grid
    probe_ts = [grid.nodes[int(round(f * grid.steps))] for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    g = sol.gains
    gains_at = [{"t": t, "PM1": g.PM1.at(t).tolist(), "PM2": g.PM2.at(t).tolist(),
                 "phiM1": g.phiM1.at(t)[:, 0].tolist(), "phiM2": g.phiM2.at(t)[:, 0].tolist()}
                for t in probe_ts]
    regularity = {name: {"min": float(np.min(arr)), "max": float(np.max(arr))}
                  for name, arr in sol.regularity.items()}
    return {"value": equilibrium.value(sol), "regularity": regularity, "gains_at": gains_at}


def _write_json(obj, dest):
    Path(dest).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    spec = _load(args)
    sol = equilibrium.solve_game(spec, delta=args.delta)
    out = _outdir(args)
    _dump_solution(sol, out)
    summary = _solution_summary(sol)
    _write_json(summary, out / "summary.json")
    print(f"value: {summary['value']:.12g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load(args)
    cfg = montecarlo.SimConfig(paths=args.paths, seed=args.seed, substeps=args.substeps)
    sol = equilibrium.solve_game(spec, delta=args.delta)
    sim = montecarlo.simulate(sol, cfg)
    out = _outdir(args)
    summary = sim.summary()
    summary["value"] = equilibrium.value(sol)
    _write_json(summary, out / "sim_summary.json")
    if args.per_path:
        lines = ["path,j,j_follower,j_leader"] + [
            ",".join([str(i), *map(_fmt, row)])
            for i, row in enumerate(zip(sim.j, sim.j_follower, sim.j_leader))]
        (out / "paths.csv").write_text("\n".join(lines) + "\n")
    print(f"j mean {summary['j']['mean']:.12g} (stderr {summary['j']['stderr']:.3g}), "
          f"value {summary['value']:.12g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load(args)
    cfg = montecarlo.SimConfig(paths=args.paths, seed=args.seed, substeps=args.substeps)
    eps = tuple(args.eps)
    montecarlo.check_eps(eps)
    as_count(args.directions, "directions per test")
    out = _outdir(args)
    report = validate_spec(spec, delta=args.delta)
    (out / "validation.txt").write_text("\n".join(report.lines()) + "\n")
    if not report.ok:
        print("validation FAILED:")
        for line in report.lines():
            print(" ", line)
        return EXIT_VALIDATION

    sol = equilibrium.solve_game(spec, delta=args.delta)
    dev = montecarlo.deviation_tests(sol, cfg, directions=args.directions,
                                     samples=min(args.directions, 10))
    perturb = montecarlo.perturb_best_response(dev, eps=eps)
    (out / "perturbation.csv").write_text("\n".join(perturb.csv_lines()) + "\n")
    convexity = montecarlo.sampled_convexity(dev)
    (out / "convexity.csv").write_text("\n".join(convexity.csv_lines()) + "\n")

    diffusion_free = not any(np.any(getattr(spec, n).samples) for n in ("C", "D1", "D2"))
    oracle = {"applicable": bool(diffusion_free)}
    if diffusion_free:
        res64 = montecarlo.bvp_oracle(sol, 64)
        res128 = montecarlo.bvp_oracle(sol, 128)
        oracle.update(gap_n64=res64.gap, gap_n128=res128.gap,
                      gap_extrapolated=res64.extrapolated(res128).gap,
                      ok=bool(res64.gap <= 1e-3 and res128.gap <= 0.6 * res64.gap))
    _write_json({"oracle": oracle,
                 "perturbation_ok": perturb.ok,
                 "convexity_ok": convexity.ok}, out / "verify_summary.json")

    failed = not perturb.ok or not convexity.ok or not oracle.get("ok", True)
    n_rows = len(perturb.rows)
    n_bad = sum(r.verdict != "pass" for r in perturb.rows)
    print(f"perturbation: {n_rows - n_bad}/{n_rows} pass; convexity "
          f"{'ok' if convexity.ok else 'FAILED'}; oracle "
          f"{oracle if diffusion_free else 'not applicable (C, D1, D2 nonzero)'}")
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_example(args) -> int:
    out = _outdir(args)
    spec = build_spec(
        n=1, m1=1, m2=1, T=args.T, N=args.N, alpha=args.alpha, gamma=args.gamma,
        xi=[args.xi], G=[[args.g]], A=1.0 - args.a, C=args.c, B1=1.0, D1=1.0,
        B2=1.0, D2=1.0, Q=args.q, R1=args.r1, R2=args.r2, R0=1.0, R0hat=1.0,
    )
    sol = equilibrium.solve_game(spec)
    P = sol.P
    write_path_csv(P, out / "bode.csv")
    print(f"production game: P(0) = {P.samples[0, 0, 0]:.9f}, "
          f"P(T) = {P.samples[-1, 0, 0]:.9f}")
    # clamped strategies along the deterministic skeleton (outputs are
    # productions, so negative prescriptions are cut at zero)
    t = spec.grid.nodes
    s = equilibrium.feedback(sol, equilibrium.skeleton(sol), t)
    cl = equilibrium.clamp_nonnegative(s)
    lines = ["t,u1,u2,u1_clamped,u2_clamped,f,f1_implied,f2"]
    lines += [",".join(_fmt(v) for v in row) for row in np.column_stack(
        (t, s.u1, s.u2, cl.u1, cl.u2, s.f, s.f - s.f2, s.f2))]
    (out / "strategies.csv").write_text("\n".join(lines) + "\n")
    print(f"value: {equilibrium.value(sol):.9f}")
    return EXIT_OK


def cmd_dump_blocks(args) -> int:
    spec = _load(args)
    stage = equilibrium.stage_blocks(spec, args.delta)[args.stage]
    doc = {"stage": args.stage, "t": args.t, "blocks": {}}
    # a stage's fields, and the blocks it forms on read (the 10n stage's A2, C2)
    formed = [name for name, attr in vars(type(stage)).items() if isinstance(attr, property)]
    for name in [*stage.__dataclass_fields__, *formed]:
        val = getattr(stage, name)
        if isinstance(val, MatrixPath):
            doc["blocks"][name] = val.at(args.t).tolist()
        elif isinstance(val, np.ndarray):
            doc["blocks"][name] = val.tolist()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        _outdir(args)
        (Path(args.out) / f"blocks_{args.stage}.json").write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustlq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False):
        p.add_argument("--spec", required=True, help="game spec JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--grid-n", type=int, default=None,
                       help="read the spec onto a grid of this many steps, "
                            "exactly as if its N were this value")
        p.add_argument("--delta", type=float, default=1e-8,
                       help="strong-positivity threshold")
        if sim:
            p.add_argument("--paths", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--substeps", type=int, default=1)

    p = sub.add_parser("solve", help="solve and dump equilibrium artifacts")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="solve and run Monte Carlo")
    common(p, sim=True)
    p.add_argument("--per-path", action="store_true", help="write per-path costs")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="validation + statistical verification")
    common(p, sim=True)
    p.add_argument("--eps", type=float, nargs="+", default=[0.05])
    p.add_argument("--directions", type=int, default=20)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="scalar production-supply game")
    p.add_argument("--a", type=float, default=0.5, help="purchase rate")
    p.add_argument("--c", type=float, default=-1.0, help="environment effect")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--r1", type=float, default=-0.5)
    p.add_argument("--r2", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=400.0)
    p.add_argument("--gamma", type=float, default=400.0)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--N", type=int, default=2000)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("dump-blocks", help="stage blocks at one time, as JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--stage", required=True,
                   choices=["hat", "check", "blackboard", "doublehat", "weights"])
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.add_argument("--grid-n", type=int, default=None)
    p.add_argument("--delta", type=float, default=1e-8)
    p.set_defaults(fn=cmd_dump_blocks)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    resolved = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    print("resolved configuration:", json.dumps(resolved, sort_keys=True, default=str))
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RegularityError, BlowUpError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
