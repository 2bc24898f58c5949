"""Monte Carlo simulation of the closed loop and the statistical
verification harness.

The closed-loop state is simulated with Euler-Maruyama on the spec grid
refined by a fixed number of substeps, with per-path Brownian substreams
keyed by (master seed, path index) so results are independent of chunking.
Costs are accumulated with left-endpoint quadrature.

Every perturbation test compares two arms under common random numbers.
Because the game is linear-quadratic, the perturbed arm equals the base
arm plus eps times a linear response process that is driven by the same
Brownian increments, so the cost difference is exactly

    dJ = eps * cross + eps^2 * quad

with per-path (cross, quad) integrals accumulated alongside the base
simulation.  The eps = 0 null difference is therefore exactly zero.  The
quad samples double as estimates of the second-variation functionals that
the sampled convexity probes report.

Each test is one `_Response` record: the criterion it perturbs, the sign
of the deviating side, the linear response system and the deviation of
every signal that moves.  One function turns a record into its cross and
quad integrands, so the four tests share all of the cost bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augment, backward
from .equilibrium import EquilibriumSolution, ensure_diagnostics, skeleton
from .model import BlowUpError, MatrixPath, SpecError, make_grid

BLOWUP_PATH_BUDGET = 1e-3  # abort when more than this fraction of paths diverge


@dataclass(frozen=True)
class SimConfig:
    paths: int = 10_000
    seed: int = 0
    substeps: int = 1
    chunk: int = 20_000

    def __post_init__(self):
        for name in ("paths", "substeps", "chunk"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be at least 1, got {getattr(self, name)}")


def _mean_se(arr):
    # blown paths are flagged with nan and excluded from the statistics
    good = arr[np.isfinite(arr)]
    mean = float(np.mean(good))
    se = float(np.std(good, ddof=1) / np.sqrt(len(good))) if len(good) > 1 else 0.0
    return mean, se


@dataclass
class SimOutput:
    """Per-path realized costs and terminal states of one closed-loop run.

    j is the game criterion, j_follower the follower's robust cost (its
    model state, worst-case-weighted), j_leader the leader's robust cost.
    """

    terminal: np.ndarray
    j: np.ndarray
    j_follower: np.ndarray
    j_leader: np.ndarray
    blown: int

    @property
    def j_mean(self):
        return _mean_se(self.j)[0]

    @property
    def j_stderr(self):
        return _mean_se(self.j)[1]

    def summary(self) -> dict:
        out = {"paths": int(len(self.j)), "blown": int(self.blown)}
        for name, arr in (("j", self.j), ("j_follower", self.j_follower),
                          ("j_leader", self.j_leader)):
            mean, se = _mean_se(arr)
            out[name] = {"mean": mean, "stderr": se}
        good = np.isfinite(self.terminal).all(axis=1)
        out["terminal_mean"] = self.terminal[good].mean(axis=0).tolist()
        out["terminal_var"] = self.terminal[good].var(axis=0, ddof=1).tolist()
        return out


@dataclass(frozen=True)
class PerturbationRow:
    test: str
    direction: int
    eps: float
    delta_j: float
    stderr: float
    verdict: str


@dataclass
class PerturbationReport:
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)

    def csv_lines(self):
        out = ["test,direction,eps,delta_j,stderr,verdict"]
        for r in self.rows:
            out.append(f"{r.test},{r.direction},{r.eps:.17g},{r.delta_j:.17g},"
                       f"{r.stderr:.17g},{r.verdict}")
        return out


def path_increments(seed: int, first: int, count: int, steps: int, dt: float) -> np.ndarray:
    """Brownian increments for paths [first, first+count), one substream per
    path keyed by (seed, path index); independent of chunk layout."""
    out = np.empty((count, steps))
    root = np.asarray(np.uint64(seed))
    for i in range(count):
        ss = np.random.SeedSequence(entropy=int(root), spawn_key=(first + i,))
        gen = np.random.Generator(np.random.Philox(ss))
        out[i] = gen.normal(0.0, np.sqrt(dt), size=steps)
    return out


def _subtimes(grid, substeps: int) -> np.ndarray:
    fine = make_grid(grid.horizon, grid.steps * substeps)
    return fine.nodes


def _criteria(spec) -> dict:
    """The three criteria as (terms, terminal signal), each term a
    (signal, weight, coefficient) triple:

        J = sum of coefficient * int signal' weight signal dt
            + terminal' G terminal.
    """
    controls = (("u1", "R1", 1.0), ("u2", "R2", 1.0))
    return {
        "game": ((("x", "Q", 1.0),) + controls, "x"),
        "follower": ((("xbar", "Q", 1.0),) + controls + (("f", "R0", -0.5 * spec.alpha),),
                     "xbar"),
        "leader": ((("x", "Q", 1.0),) + controls + (("f2", "R0h", 0.5 * spec.gamma),), "x"),
    }


def _precompute_base(sol: EquilibriumSolution, substeps: int) -> dict:
    """Sample everything the fused Euler loop needs at the left ends of the
    sub-grid steps."""
    spec = sol.spec
    times = _subtimes(spec.grid, substeps)
    left = times[:-1]
    at = lambda path: path.at(left)

    R1, R0, R0h, D1 = at(spec.R1), at(spec.R0), at(spec.R0hat), at(spec.D1)
    rt1inv = np.linalg.inv(R1 + D1.mT @ at(sol.P) @ D1)
    r0inv, r0hinv = np.linalg.inv(R0), np.linalg.inv(R0h)
    Ph, ph = at(sol.Phat), at(sol.phihat)
    f_map = (-(2.0 / spec.alpha) * r0inv) @ sol.sel.row_pbar
    f2_map = ((2.0 / spec.gamma) * r0hinv) @ sol.sel.row_xtil

    def signal(left_map, gain, off):
        # (gain, offset) of a signal that is left_map @ (gain X + off)
        return left_map @ gain, (left_map @ off)[:, :, 0]

    return {
        "left": left,
        "dt": times[1] - times[0],
        "steps": len(left),
        "n": spec.n,
        "A": at(sol.Atil),
        "b": at(sol.Btil)[:, :, 0],
        "C": at(sol.Ctil),
        "d": at(sol.Dtil)[:, :, 0],
        "Q": at(spec.Q),
        "R1": R1,
        "R2": at(spec.R2),
        "R0": R0,
        "R0h": R0h,
        "G": spec.G,
        "x0": sol.dh.Xi[:, 0],
        "rt1inv": rt1inv,
        "r0inv": r0inv,
        "r0hinv": r0hinv,
        "signals": {
            "u1": signal(rt1inv, at(sol.gains.PM1), at(sol.gains.phiM1)),
            "u2": signal(np.linalg.inv(at(sol.weights.Rbb)), at(sol.gains.PM2),
                         at(sol.gains.phiM2)),
            "f": signal(f_map, Ph, ph),
            "f2": signal(f2_map, Ph, ph),
        },
        "criteria": _criteria(spec),
    }


def _base_at(pre, k, X):
    n = pre["n"]
    base = {name: X @ gain[k].T + off[k] for name, (gain, off) in pre["signals"].items()}
    base.update(x=X[:, :n], xbar=X[:, n:2 * n])
    return base


def _qform(M, a):
    """Row-wise a' M a of a (paths, i) against M (i, i)."""
    return np.einsum("pi,pi->p", a @ M, a)


# ---------------------------------------------------------------------------
# linear responses of the four perturbation tests


@dataclass
class _Response:
    """Linear response of one deviation test,

        dZ = (A Z + b) dt + (C Z + d) dW,  Z(0) = 0,

    with one column of b, d and Z per direction.  Every signal of the
    perturbed criterion that moves is deviated by gain @ Z + off; either
    part may be None, and a 2-D gain is constant in time.  sign is +1 when
    the deviating side minimizes the criterion: a deviation must not lower
    sign * J.
    """

    name: str
    sign: float
    criterion: str
    A: np.ndarray  # (S, dim, dim)
    b: np.ndarray  # (S, dim, D)
    C: np.ndarray  # (S, dim, dim)
    d: np.ndarray  # (S, dim, D)
    moves: dict    # signal -> (gain, off)


def _deviation(move, k, Z):
    gain, off = move
    if gain is None:
        return np.broadcast_to(off[k], (len(Z),) + off.shape[1:])
    dev = np.einsum("ij,pjd->pid", gain if gain.ndim == 2 else gain[k], Z)
    return dev if off is None else dev + off[k]


def _cross_quad(terms, moves, base, Z, k=None):
    """Per-path, per-direction (cross, quad) of sum coef * s' W s when each
    moving signal s becomes s + eps * dev; terms are (signal, W, coef)."""
    cross = quad = 0.0
    for signal, W, coef in terms:
        if signal in moves:
            dev = _deviation(moves[signal], k, Z)
            cross = cross + 2.0 * coef * np.einsum("pi,pid->pd", base[signal] @ W, dev)
            quad = quad + coef * np.einsum("pid,ij,pjd->pd", dev, W, dev)
    return cross, quad


def _unit_directions(rng, grid, dim: int, count: int, pieces: int = 8) -> MatrixPath:
    """Random piecewise-constant deterministic direction paths with unit
    L2 norm, one per column of a (N+1, dim, count) path on the grid."""
    vals = rng.standard_normal((count, pieces, dim))
    piece = np.minimum((pieces * grid.nodes / grid.horizon).astype(int), pieces - 1)
    # squared norm of each piece, integrated per direction over the nodes
    sq = [np.array([v @ v for v in per_dir]) for per_dir in vals]
    norm2 = np.array([np.trapezoid(s[piece], grid.nodes) for s in sq])
    samples = vals[:, piece].transpose(1, 2, 0)
    return MatrixPath(grid, samples / np.sqrt(np.maximum(norm2, 1e-300)))


def _follower_control(sol, pre, dirs) -> _Response:
    """Follower deviates u1 -> u1 + eps*v; the combined disturbance
    re-optimizes through its linear response; leader replays."""
    spec = sol.spec
    at = lambda path: path.at(pre["left"])
    phi = backward.solve_offset_b1(spec, sol.P1, dirs)
    v = at(dirs)
    a_r0inv = (2.0 / spec.alpha) * pre["r0inv"]
    df_gain, df_off = -a_r0inv @ at(sol.P1), -a_r0inv @ at(phi)
    return _Response(
        "follower_control", +1.0, "follower",
        A=at(spec.A) + df_gain, b=at(spec.B1) @ v + df_off, C=at(spec.C), d=at(spec.D1) @ v,
        moves={"xbar": (np.eye(spec.n), None), "u1": (None, v), "f": (df_gain, df_off)})


def _leader_control(sol, pre, dirs) -> _Response:
    """Leader deviates u2 -> u2 + eps*v; follower and both worst cases
    re-respond through the 5n decoupled response."""
    spec = sol.spec
    n = spec.n
    ensure_diagnostics(sol)
    bb = sol.bb
    at = lambda path: path.at(pre["left"])
    q = at(backward.solve_offset_b3(bb, sol.P3, dirs))
    v, P3 = at(dirs), at(sol.P3)
    Zx, zoff, A, b, C, d = augment.decoupling(bb.problem(), P3, q, at(bb.B2) @ v,
                                              at(bb.D2) @ v, at)

    B1, D1, D2, P = at(spec.B1), at(spec.D1), at(spec.D2), at(sol.P)
    r_xtil, r_xbar, r_ybar = (augment.block_row(slot, n, 5) for slot in (0, 1, 3))
    K = B1.mT @ P + D1.mT @ P @ at(spec.C)
    du1_gain = pre["rt1inv"] @ (B1.mT @ r_ybar @ P3 + D1.mT @ r_ybar @ Zx - K @ r_xbar)
    du1_off = pre["rt1inv"] @ (B1.mT @ r_ybar @ q + D1.mT @ r_ybar @ zoff
                               - D1.mT @ P @ D2 @ v)
    g_r0hinv = (2.0 / spec.gamma) * pre["r0hinv"]
    return _Response(
        "leader_control", -1.0, "leader", A=A, b=b, C=C, d=d,
        moves={"x": (r_xtil, None), "u1": (du1_gain, du1_off), "u2": (None, v),
               "f2": (g_r0hinv @ r_xtil @ P3, g_r0hinv @ r_xtil @ q)})


def _disturbance(sol, pre, dirs, side) -> _Response:
    """Additive disturbance deviation f -> f + eps*h (follower side) or
    f2 -> f2 + eps*h (leader side); controls replay."""
    spec = sol.spec
    at = lambda path: path.at(pre["left"])
    h = at(dirs)
    state, signal, sign = ("xbar", "f", -1.0) if side == "follower" else ("x", "f2", +1.0)
    return _Response(
        f"{side}_disturbance", sign, side,
        A=at(spec.A), b=h, C=at(spec.C), d=np.zeros_like(h),
        moves={state: (np.eye(spec.n), None), signal: (None, h)})


# ---------------------------------------------------------------------------
# fused Euler loop


def _run(pre: dict, cfg: SimConfig, tests=()):
    """Simulate the closed loop and all requested linear responses under
    common increments.  Returns the SimOutput and the per-path outputs:
    the cost of each criterion by name, and each test's per-direction
    cross and quad under ("cross", name) and ("quad", name)."""
    S, dt, n = pre["steps"], pre["dt"], pre["n"]
    criteria = pre["criteria"]
    forms = {(s, w) for terms, _ in criteria.values() for s, w, _ in terms}
    # per-path outputs: one cost per criterion, (cross, quad) per test
    shapes = {name: () for name in criteria}
    for t in tests:
        shapes["cross", t.name] = shapes["quad", t.name] = t.b.shape[2:]
    out = {key: np.empty((cfg.paths,) + shape) for key, shape in shapes.items()}
    terminal = np.empty((cfg.paths, len(pre["x0"])))

    done = 0
    blown = 0
    while done < cfg.paths:
        count = min(cfg.chunk, cfg.paths - done)
        dW = path_increments(cfg.seed, done, count, S, dt)
        X = np.tile(pre["x0"], (count, 1))
        Z = {t.name: np.zeros((count,) + t.b.shape[1:]) for t in tests}
        acc = {key: np.zeros((count,) + shape) for key, shape in shapes.items()}

        # diverged paths propagate nan by design and are flagged afterwards
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(S):
                base = _base_at(pre, k, X)
                q = {(s, w): _qform(pre[w][k], base[s]) for s, w in forms}
                for name, (terms, _) in criteria.items():
                    acc[name] += dt * sum(c * q[s, w] for s, w, c in terms)
                for t in tests:
                    zk = Z[t.name]
                    terms = [(s, pre[w][k], c) for s, w, c in criteria[t.criterion][0]]
                    cross, quad = _cross_quad(terms, t.moves, base, zk, k)
                    acc["cross", t.name] += dt * cross
                    acc["quad", t.name] += dt * quad
                    drift = np.einsum("ij,pjd->pid", t.A[k], zk) + t.b[k]
                    diff = np.einsum("ij,pjd->pid", t.C[k], zk) + t.d[k]
                    Z[t.name] = zk + dt * drift + diff * dW[:, k, None, None]
                incr = dW[:, k][:, None]
                X = X + dt * (X @ pre["A"][k].T + pre["b"][k]) \
                    + (X @ pre["C"][k].T + pre["d"][k]) * incr

            base_T = {"x": X[:, :n], "xbar": X[:, n:2 * n]}
            for name, (_, s) in criteria.items():
                acc[name] += _qform(pre["G"], base_T[s])
            for t in tests:
                s = criteria[t.criterion][1]
                cross, quad = _cross_quad([(s, pre["G"], 1.0)], t.moves, base_T, Z[t.name])
                acc["cross", t.name] += cross
                acc["quad", t.name] += quad

        bad = ~np.isfinite(X).all(axis=1)
        for t in tests:
            bad |= ~np.isfinite(Z[t.name]).all(axis=(1, 2))
        blown += int(bad.sum())

        sl = slice(done, done + count)
        terminal[sl] = X
        for key, arr in acc.items():
            arr[bad] = np.nan
            out[key][sl] = arr
        done += count

    if blown > BLOWUP_PATH_BUDGET * cfg.paths:
        raise BlowUpError(
            f"{blown} of {cfg.paths} simulated paths blew up (budget "
            f"{BLOWUP_PATH_BUDGET:.1%})"
        )
    sim = SimOutput(terminal=terminal, j=out["game"], j_follower=out["follower"],
                    j_leader=out["leader"], blown=blown)
    return sim, out


def simulate(sol: EquilibriumSolution, cfg: SimConfig) -> SimOutput:
    """Euler-Maruyama simulation of the equilibrium closed loop."""
    sim, _ = _run(_precompute_base(sol, cfg.substeps), cfg)
    return sim


def _deviation_tests(sol, cfg, count, spawn_key, directions_seed):
    """Simulate the four deviation tests, each along `count` random unit
    directions drawn from the stream keyed by spawn_key; returns the tests
    and the per-path outputs of `_run`."""
    if count < 1:
        raise SpecError(f"directions per test must be at least 1, got {count}")
    spec = sol.spec
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed if directions_seed is None
                               else directions_seed, spawn_key=(spawn_key,))))
    dirs_u1, dirs_u2, dirs_f, dirs_f2 = [_unit_directions(rng, spec.grid, dim, count)
                                         for dim in (spec.m1, spec.m2, spec.n, spec.n)]
    pre = _precompute_base(sol, cfg.substeps)
    tests = [
        _follower_control(sol, pre, dirs_u1),
        _leader_control(sol, pre, dirs_u2),
        _disturbance(sol, pre, dirs_f, "follower"),
        _disturbance(sol, pre, dirs_f2, "leader"),
    ]
    _, out = _run(pre, cfg, tests)
    return tests, out


def _verdict(mean, se, sign: float, scale: float) -> str:
    """3-stderr rule with an explicit inconclusive band.

    sign = +1 encodes a `mean >= -3 se` requirement (deviations should not
    help), sign = -1 `mean <= +3 se`.  A pass additionally requires the
    noise floor to resolve the expected effect scale.
    """
    bound = 3.0 * se
    if sign * mean < -bound:
        return "fail"
    if se == 0.0:
        return "pass"
    if bound <= max(abs(mean), scale):
        return "pass"
    return "inconclusive"


def perturb_best_response(sol: EquilibriumSolution, cfg: SimConfig,
                          directions: int = 20, eps=(0.05, 0.1),
                          directions_seed: int | None = None) -> PerturbationReport:
    """Best-response perturbation suite under common random numbers.

    Follower-control and leader-disturbance deviations must not lower the
    respective costs; leader-control and follower-disturbance deviations
    must not raise them.  Each deviation direction is a random unit-norm
    deterministic path; the replayed players' strategies and the linear
    worst-case responses ride on the same Brownian increments.
    """
    tests, out = _deviation_tests(sol, cfg, directions, 0xD1, directions_seed)
    report = PerturbationReport()
    for t in tests:
        for d in range(directions):
            c = out["cross", t.name][:, d]
            q = out["quad", t.name][:, d]
            for e in eps:
                if e == 0.0:
                    report.rows.append(PerturbationRow(t.name, d, 0.0, 0.0, 0.0, "pass"))
                    continue
                mean, se = _mean_se(e * c + e * e * q)
                scale = e * e * abs(_mean_se(q)[0])
                report.rows.append(PerturbationRow(
                    t.name, d, float(e), mean, se, _verdict(mean, se, t.sign, scale)))
    return report


# the nested problems from the inside out: each player's disturbance
# problem before its control problem, the follower's before the leader's
_NESTED_ORDER = ("follower_disturbance", "follower_control",
                 "leader_disturbance", "leader_control")


def sampled_convexity(sol: EquilibriumSolution, cfg: SimConfig,
                      samples: int = 10, directions_seed: int | None = None) -> PerturbationReport:
    """Sampled second-variation functionals of the four nested problems.

    For random unit perturbation paths the quadratic response of each
    problem's objective is estimated by simulating the auxiliary linear
    systems; a uniformly positive sample is evidence for the corresponding
    definiteness assumption (sampling cannot prove it).
    """
    tests, out = _deviation_tests(sol, cfg, samples, 0xC0, directions_seed)
    by_name = {t.name: t for t in tests}
    report = PerturbationReport()
    for name in _NESTED_ORDER:
        t = by_name[name]
        functional = f"{name}_{'convexity' if t.sign > 0 else 'concavity'}"
        for d in range(samples):
            mean, se = _mean_se(t.sign * out["quad", name][:, d])
            if mean - 3.0 * se > 0.0:
                verdict = "pass"
            elif mean + 3.0 * se < 0.0:
                verdict = "fail"
            else:
                verdict = "inconclusive"
            report.rows.append(PerturbationRow(functional, d, 1.0, mean, se, verdict))
    return report


# ---------------------------------------------------------------------------
# deterministic two-point boundary-value oracle


@dataclass
class OracleResult:
    times: np.ndarray
    X_oracle: np.ndarray
    Y_oracle: np.ndarray
    X_pipeline: np.ndarray
    Y_pipeline: np.ndarray

    @property
    def gap(self) -> float:
        gx = np.max(np.linalg.norm(self.X_oracle - self.X_pipeline, axis=1)
                    / (1.0 + np.linalg.norm(self.X_pipeline, axis=1)))
        gy = np.max(np.linalg.norm(self.Y_oracle - self.Y_pipeline, axis=1)
                    / (1.0 + np.linalg.norm(self.Y_pipeline, axis=1)))
        return float(max(gx, gy))


def bvp_oracle(sol: EquilibriumSolution, coarse_n: int = 64) -> OracleResult:
    """Direct implicit-Euler discretization of the forward-backward
    optimality system as one dense linear solve, compared against the
    Riccati pipeline on the noise-free skeleton.

    The skeleton drops the Brownian terms, under which the martingale
    component of the backward pair vanishes; the comparison is exact (up
    to discretization) when the diffusion couplings C, D1, D2 of the game
    are zero, which is the regime this oracle is meant for.
    """
    dh = sol.dh
    ten = dh.A1.rows
    grid = make_grid(sol.spec.grid.horizon, coarse_n)
    dtc = grid.dt
    c = coarse_n
    eye = np.eye(ten)
    # block rows: initial state, c forward steps, c backward steps, terminal;
    # block columns: x_0..x_c, then y_0..y_c
    M = np.zeros((2 * (c + 1), ten, 2 * (c + 1), ten))
    rhs = np.zeros((2 * (c + 1), ten))
    nxt = grid.nodes[1:]
    here = grid.nodes[:-1]
    k = np.arange(c)
    M[0, :, 0] = eye
    rhs[0] = dh.Xi[:, 0]
    M[1 + k, :, 1 + k] = eye - dtc * dh.A1.at(nxt)
    M[1 + k, :, k] = -eye
    M[1 + k, :, c + 2 + k] = -dtc * dh.B1.at(nxt)
    rhs[1 + k] = dtc * dh.F.at(nxt)[:, :, 0]
    M[c + 1 + k, :, c + 2 + k] = eye
    M[c + 1 + k, :, c + 1 + k] = -eye + dtc * dh.A2.at(here).mT
    M[c + 1 + k, :, k] = -dtc * dh.Q.at(here)
    rhs[c + 1 + k] = dtc * dh.Upsilon.at(here)[:, :, 0]
    M[-1, :, -1] = eye
    M[-1, :, c] = -dh.G
    M = M.reshape(rhs.size, rhs.size)
    rhs = rhs.ravel()

    try:
        solvec = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise BlowUpError(f"oracle system is singular: {exc}") from exc

    Xo = solvec[: (coarse_n + 1) * ten].reshape(coarse_n + 1, ten)
    Yo = solvec[(coarse_n + 1) * ten:].reshape(coarse_n + 1, ten)

    # pipeline skeleton on the fine grid, sampled at the coarse nodes
    Xp = MatrixPath(sol.spec.grid, skeleton(sol)[:, :, None]).at(grid.nodes)[:, :, 0]
    Ph = sol.Phat.at(grid.nodes)
    ph = sol.phihat.at(grid.nodes)[:, :, 0]
    Yp = np.array([Ph[k] @ Xp[k] + ph[k] for k in range(len(Xp))])
    return OracleResult(times=grid.nodes, X_oracle=Xo, Y_oracle=Yo,
                        X_pipeline=Xp, Y_pipeline=Yp)
