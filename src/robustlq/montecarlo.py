"""Monte Carlo simulation of the closed loop and the statistical
verification harness.

The closed-loop state is simulated with Euler-Maruyama on the spec grid
refined by a fixed number of substeps.  Brownian increments come in path
blocks of PATH_BLOCK paths, each one counter-based Philox stream keyed by
(master seed, spawn key (0, block index)) and drawn path after path, so
a path's increments depend only on the seed and its index.  The (0, .)
keys are disjoint from the one-element keys of the perturbation and
convexity direction streams.  Costs are accumulated with left-endpoint
quadrature.

Every perturbation test compares two arms under common random numbers.
Because the game is linear-quadratic, the perturbed arm equals the base
arm plus eps times a linear response process that is driven by the same
Brownian increments, so the cost difference is exactly

    dJ = eps * cross + eps^2 * quad

with per-path (cross, quad) integrals accumulated alongside the base
simulation.  The eps = 0 null difference is therefore exactly zero.  The
quad samples double as estimates of the second-variation functionals that
the sampled convexity probes report.

Both suites read one shared run.  `deviation_tests` stacks the
perturbation directions and the convexity directions as the columns of
the same four tests, so the base closed loop, each test's offset solve
and the Brownian increments are simulated once; `perturb_best_response`
and `sampled_convexity` only turn their columns into rows.

Each test is one `_Response` record: the criterion it perturbs, the sign
of the deviating side, the linear response system and the deviation of
every signal that moves.  One function turns the criteria and the records
into per-step matrices, so the four tests share all of the cost
bookkeeping with the base costs.

The loop is state-major: a block of paths is held as the columns of the
augmented state X1 = [X; 1], and every signal is a row map E_s = [gain |
off] of X1; the controls and disturbances are `equilibrium.row_maps`,
the maps `feedback` evaluates.  A criterion is a sum of coef * s' W s
terms, so a step's costs are weighted products of the rows E_s X1 and
dt W E_s X1.  One matrix product per step gives those rows, the
closed-loop move and the tests' cross rows, and each test takes one more.
The blocks run one at a time, so a run holds about one block of
increments plus the step matrices, which the first block forms and the
later blocks reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augment, backward
from .equilibrium import EquilibriumSolution, ensure_diagnostics, row_maps, skeleton
from .model import BlowUpError, MatrixPath, SpecError, make_grid

BLOWUP_PATH_BUDGET = 1e-3  # abort when more than this fraction of paths diverge
# Paths [b, b + PATH_BLOCK) share one Brownian stream and are advanced
# together as the columns of one block.  Blocks start at fixed multiples,
# so the increments of a path, and the products and rounding of a full
# block, do not depend on how many paths the run has.
PATH_BLOCK = 1024
STEP_BLOCK = 32  # steps whose matrices are formed together


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run settings: the number of paths, the master seed of
    their Brownian streams and the Euler substeps per spec grid step.

    The paths run PATH_BLOCK at a time, so one block of increments,
    PATH_BLOCK x (N * substeps) doubles, is held at once.
    """

    paths: int = 10_000
    seed: int = 0
    substeps: int = 1

    def __post_init__(self):
        for name in ("paths", "substeps"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")


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
    """Brownian increments for paths [first, first+count), (count, steps).

    Each path block [b, b + PATH_BLOCK) is one Philox stream keyed by
    (seed, (0, b // PATH_BLOCK)), drawn path after path, so a path's
    increments depend only on (seed, path index).  A range that starts
    inside a block draws and discards the block's rows before it."""
    out = np.empty((count, steps))
    end = first + count
    for b in range(first - first % PATH_BLOCK, end, PATH_BLOCK):
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(0, b // PATH_BLOCK))))
        if b < first:
            gen.standard_normal((first - b, steps))
        gen.standard_normal(out=out[max(b - first, 0):min(b + PATH_BLOCK, end) - first])
    out *= np.sqrt(dt)
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
    """Sample everything the Euler loop needs at the left ends of the
    sub-grid steps.  Each signal is a row map E_s of the augmented state
    X1 = [X; 1]: the equilibrium maps of `row_maps`, (steps, k, 10n+1),
    for the controls and disturbances, a constant (n, 10n+1) selector for
    x and xbar.  The closed loop (A, b, C, d) stays a tuple of paths that
    `_forms` samples per chunk of steps, so its (10n, 10n) samples are
    held only inside the step matrices."""
    spec = sol.spec
    n = spec.n
    times = _subtimes(spec.grid, substeps)
    left = times[:-1]
    at = lambda path: path.at(left)
    maps = row_maps(sol, left)
    signals = {s: maps.pop(s) for s in ("u1", "u2", "f", "f2")}
    select = np.eye(10 * n, 10 * n + 1)
    return {
        "left": left,
        "dt": times[1] - times[0],
        "steps": len(left),
        "n": n,
        "closed_loop": (sol.Atil, sol.Btil, sol.Ctil, sol.Dtil),
        "Q": at(spec.Q),
        "R1": at(spec.R1),
        "R2": at(spec.R2),
        "R0": at(spec.R0),
        "R0h": at(spec.R0hat),
        "G": spec.G,
        "x0": sol.dh.Xi[:, 0],
        "signals": {"x": select[:n], "xbar": select[n:2 * n], **signals},
        **maps,  # the weight inverses rt1inv, r0inv and r0hinv
        "criteria": _criteria(spec),
    }


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


def _unit_directions(rng, grid, dim: int, count: int, pieces: int = 8) -> np.ndarray:
    """Random piecewise-constant deterministic direction paths with unit
    L2 norm, one per column of the (N+1, dim, count) samples on the grid."""
    vals = rng.standard_normal((count, pieces, dim))
    piece = np.minimum((pieces * grid.nodes / grid.horizon).astype(int), pieces - 1)
    # squared norm of each piece, integrated per direction over the nodes
    sq = [np.array([v @ v for v in per_dir]) for per_dir in vals]
    norm2 = np.array([np.trapezoid(s[piece], grid.nodes) for s in sq])
    samples = vals[:, piece].transpose(1, 2, 0)
    return samples / np.sqrt(np.maximum(norm2, 1e-300))


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
# state-major Euler loop


def _forms(pre: dict, tests, ks):
    """Step matrices (K, resp) of the sub-grid steps ks, j indexing the
    steps; for ks None, of the terminal costs as one step of weight 1 that
    does not move.

    K[j] maps the block's augmented state X1 = [X; 1] to, in this order:
    the drift part [dt A | dt b] and the diffusion part [C | d] of the
    step, the rows E_s of each (signal s, weight W) pair the criteria use,
    the rows dt W E_s of the same pairs, and per test the rows H' and h'
    of its cross term X1' (H Z_d + h_d).  The step's cost of criterion c
    is coefs[c] @ (E_s X1 * dt W E_s X1) over the pair rows, coefs holding
    the criterion's coefficient on every row of each pair it uses.  A
    criterion is a few signal terms, so these rows are far fewer than a
    (10n+1)^2 form per criterion, and no weight need be definite.  Per
    test, resp[i] = (Kz, zoff, czz): Kz[j] stacks
    dt A, C and Mzz over the response state Z, zoff[j] the matching
    columns dt b_d, d_d and 2 mzo_d of each direction, and czz[j] the
    constants of the quad term Z_d' (Mzz Z_d + 2 mzo_d) + czz_d.
    """
    m = 10 * pre["n"]
    criteria = pre["criteria"]
    if ks is None:
        dt, steps = 1.0, 1
        terms_of = {c: ((s, "G", 1.0),) for c, (_, s) in criteria.items()}
    else:
        dt, steps = pre["dt"], ks.stop - ks.start
        terms_of = {c: terms for c, (terms, _) in criteria.items()}
    take = lambda a: a if a.ndim == 2 else a[ks]
    E = {s: take(pre["signals"][s]) for terms in terms_of.values() for s, _, _ in terms}

    def wsum(terms, left, right):
        # dt * sum of coef * left_s' W right_s over the signals in `left`
        return sum(dt * c * (left[s].mT @ take(pre[w]) @ right[s])
                   for s, w, c in terms if s in left)

    def stack(parts, cols):
        return np.concatenate([np.broadcast_to(p, (steps, p.shape[-2], cols)) for p in parts],
                              axis=1)

    if ks is None:
        drift = diff = np.zeros((m, m + 1))
    else:
        A, b, C, d = (path.at(pre["left"][ks]) for path in pre["closed_loop"])
        drift = dt * np.concatenate([A, b], axis=2)
        diff = np.concatenate([C, d], axis=2)
    # each (signal, weight) pair once, rows first[p]:first[p + 1] of both stacks
    pairs = list(dict.fromkeys((s, w) for terms in terms_of.values() for s, w, _ in terms))
    first = np.cumsum([0] + [E[s].shape[-2] for s, _ in pairs])
    coefs = np.zeros((len(terms_of), first[-1]))
    for i, terms in enumerate(terms_of.values()):
        for s, w, c in terms:
            p = pairs.index((s, w))
            coefs[i, first[p]:first[p + 1]] += c
    parts = ([drift, diff] + [E[s] for s, _ in pairs]
             + [dt * take(pre[w]) @ E[s] for s, w in pairs])
    resp = []
    for t in tests:
        terms = terms_of[t.criterion]
        dim, dirs = t.b.shape[1:]
        moved = {s for s, _, _ in terms} & t.moves.keys()
        g = {s: np.zeros((E[s].shape[-2], dim)) if t.moves[s][0] is None
             else take(t.moves[s][0]) for s in moved}
        o = {s: np.zeros((E[s].shape[-2], dirs)) if t.moves[s][1] is None
             else take(t.moves[s][1]) for s in moved}
        parts += [2.0 * wsum(terms, g, E), 2.0 * wsum(terms, o, E)]
        Mzz, mzo = wsum(terms, g, g), wsum(terms, g, o)
        czz = np.diagonal(wsum(terms, o, o), axis1=-2, axis2=-1)
        if ks is None:
            move = np.zeros((2 * dim, dim)), np.zeros((2 * dim, dirs))
        else:
            move = (np.concatenate([dt * t.A[ks], t.C[ks]], axis=1),
                    np.concatenate([dt * t.b[ks], t.d[ks]], axis=1))
        resp.append((np.ascontiguousarray(stack([move[0], Mzz], dim)),
                     stack([move[1], 2.0 * mzo], dirs),
                     np.broadcast_to(czz, (steps, dirs))))
    return np.ascontiguousarray(stack(parts, m + 1)), coefs, resp


class _Block:
    """One path block of a run: the augmented state X1 and response states
    Z as columns, with their cost accumulators."""

    def __init__(self, pre, tests, width):
        m = 10 * pre["n"]
        self.X1 = np.empty((m + 1, width))
        self.X1[:m] = pre["x0"][:, None]
        self.X1[m] = 1.0
        self.costs = np.zeros((len(pre["criteria"]), width))
        # per test: Z (dim, directions, width), cross and quad (directions, width)
        self.resp = [(np.zeros(t.b.shape[1:] + (width,)),
                      np.zeros((t.b.shape[2], width)), np.zeros((t.b.shape[2], width)))
                     for t in tests]

    def step(self, forms, j, dw=None):
        """Accumulate the costs of step j of `_forms` output at the current
        state and, unless dw is None, make the step's Euler-Maruyama move."""
        (K, coefs, resp), X1 = forms, self.X1
        m, rows = len(X1) - 1, coefs.shape[1]
        Y = K[j] @ X1
        row = 2 * m + 2 * rows
        self.costs += coefs @ (Y[2 * m:2 * m + rows] * Y[2 * m + rows:row])
        for (Z, cross, quad), (Kz, zoff, czz) in zip(self.resp, resp):
            dim, dirs = Z.shape[:2]
            Yz = (Kz[j] @ Z.reshape(dim, -1)).reshape(3 * dim, dirs, -1)
            Yz += zoff[j][:, :, None]
            cross += np.einsum("ip,idp->dp", Y[row:row + dim], Z)
            cross += Y[row + dim:row + dim + dirs]
            quad += np.einsum("idp,idp->dp", Yz[2 * dim:], Z)
            quad += czz[j][:, None]
            row += dim + dirs
            if dw is not None:
                Z += Yz[:dim]
                Yz[dim:2 * dim] *= dw
                Z += Yz[dim:2 * dim]
        if dw is not None:
            X1[:m] += Y[:m]
            Y[m:2 * m] *= dw
            X1[:m] += Y[m:2 * m]


def _run(pre: dict, cfg: SimConfig, tests=()):
    """Simulate the closed loop and all requested linear responses under
    common increments.  Returns the SimOutput and the per-path outputs:
    the cost of each criterion by name, and each test's per-direction
    cross and quad under ("cross", name) and ("quad", name).

    The path blocks run one after another, each through every step and
    the terminal costs before the next block's increments are drawn.  The
    step forms are built once, while the first block runs, and kept only
    if another block follows."""
    S = pre["steps"]
    out = {name: np.empty(cfg.paths) for name in pre["criteria"]}
    for t in tests:
        out["cross", t.name] = np.empty((cfg.paths, t.b.shape[2]))
        out["quad", t.name] = np.empty((cfg.paths, t.b.shape[2]))
    terminal = np.empty((cfg.paths, len(pre["x0"])))
    chunks = [slice(k0, min(k0 + STEP_BLOCK, S)) for k0 in range(0, S, STEP_BLOCK)]
    final = _forms(pre, tests, None)
    cached = []  # the forms of `chunks`, once the first block has built them

    blown = 0
    for first in range(0, cfg.paths, PATH_BLOCK):
        width = min(PATH_BLOCK, cfg.paths - first)
        dW = path_increments(cfg.seed, first, width, S, pre["dt"])
        blk = _Block(pre, tests, width)
        # diverged paths propagate nan by design and are flagged afterwards
        with np.errstate(invalid="ignore", over="ignore"):
            for i, ks in enumerate(chunks):
                if first:
                    forms = cached[i]
                else:
                    forms = _forms(pre, tests, ks)
                    if cfg.paths > PATH_BLOCK:
                        cached.append(forms)
                for j, dw in enumerate(np.ascontiguousarray(dW[:, ks].T)):
                    blk.step(forms, j, dw)
            blk.step(final, 0)
        del dW  # one block's increments are held at a time

        X = blk.X1[:-1].T
        bad = ~np.isfinite(X).all(axis=1)
        for Z, _, _ in blk.resp:
            bad |= ~np.isfinite(Z).all(axis=(0, 1))
        blown += int(bad.sum())
        sl = slice(first, first + width)
        terminal[sl] = X
        per_path = list(zip(pre["criteria"], blk.costs))
        for t, (_, cross, quad) in zip(tests, blk.resp):
            per_path += [(("cross", t.name), cross.T), (("quad", t.name), quad.T)]
        for key, arr in per_path:
            arr[bad] = np.nan
            out[key][sl] = arr

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


@dataclass(frozen=True)
class Deviations:
    """The four deviation tests and the per-path outputs of `_run` of one
    shared simulation.  Columns [0, directions) of every test carry the
    best-response perturbation directions, columns [directions, directions
    + samples) the convexity sample directions."""

    tests: list
    out: dict
    directions: int
    samples: int


def deviation_tests(sol: EquilibriumSolution, cfg: SimConfig, directions: int = 20,
                    samples: int = 10, directions_seed: int | None = None) -> Deviations:
    """Simulate the four deviation tests once for both suites.

    Each test runs along `directions` random unit directions from the
    perturbation stream (spawn key 0xD1) and `samples` more from the
    convexity stream (0xC0), both keyed by directions_seed (default: the
    simulation seed).  Every response treats its columns independently, so
    the directions of one suite give the same outputs whatever the other
    suite's count, 0 included; the base closed loop, the offset solves and
    the Brownian increments are shared.
    """
    for name, count in (("directions", directions), ("samples", samples)):
        if count < 0:
            raise SpecError(f"{name} per test must be non-negative, got {count}")
    if directions + samples < 1:
        raise SpecError("directions and samples per test must add up to at least 1, got 0")
    if directions_seed is not None and directions_seed < 0:
        raise SpecError(f"directions_seed must be non-negative, got {directions_seed}")
    spec = sol.spec
    entropy = cfg.seed if directions_seed is None else directions_seed
    drawn = []
    for key, count in ((0xD1, directions), (0xC0, samples)):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=entropy, spawn_key=(key,))))
        drawn.append([_unit_directions(rng, spec.grid, dim, count)
                      for dim in (spec.m1, spec.m2, spec.n, spec.n)])
    dirs_u1, dirs_u2, dirs_f, dirs_f2 = [MatrixPath(spec.grid, np.concatenate(pair, axis=2))
                                         for pair in zip(*drawn)]
    pre = _precompute_base(sol, cfg.substeps)
    tests = [
        _follower_control(sol, pre, dirs_u1),
        _leader_control(sol, pre, dirs_u2),
        _disturbance(sol, pre, dirs_f, "follower"),
        _disturbance(sol, pre, dirs_f2, "leader"),
    ]
    _, out = _run(pre, cfg, tests)
    return Deviations(tests, out, directions, samples)


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


def check_eps(eps):
    """A SpecError unless every perturbation size in eps is finite."""
    if not np.all(np.isfinite(eps)):
        raise SpecError(f"perturbation sizes eps must be finite, got {list(eps)}")


def _has_columns(count: int, name: str, suite: str):
    """A SpecError for a suite whose run has no columns: an empty report
    would read as a vacuous pass."""
    if count < 1:
        raise SpecError(f"{name} per test must be at least 1 for the {suite} suite, got {count}")


def perturb_best_response(dev: Deviations, eps=(0.05, 0.1)) -> PerturbationReport:
    """Best-response perturbation suite under common random numbers.

    Follower-control and leader-disturbance deviations must not lower the
    respective costs; leader-control and follower-disturbance deviations
    must not raise them.  Each deviation direction is a random unit-norm
    deterministic path; the replayed players' strategies and the linear
    worst-case responses ride on the same Brownian increments.  Reads the
    perturbation columns of `dev`, of which there must be at least one;
    every size in eps must be finite.
    """
    check_eps(eps)
    _has_columns(dev.directions, "directions", "best-response")
    report = PerturbationReport()
    for t in dev.tests:
        for d in range(dev.directions):
            c = dev.out["cross", t.name][:, d]
            q = dev.out["quad", t.name][:, d]
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


def sampled_convexity(dev: Deviations) -> PerturbationReport:
    """Sampled second-variation functionals of the four nested problems.

    For random unit perturbation paths the quadratic response of each
    problem's objective is estimated by simulating the auxiliary linear
    systems; a uniformly positive sample is evidence for the corresponding
    definiteness assumption (sampling cannot prove it).  Reads the
    convexity columns of `dev`, of which there must be at least one.
    """
    _has_columns(dev.samples, "samples", "convexity")
    by_name = {t.name: t for t in dev.tests}
    report = PerturbationReport()
    for name in _NESTED_ORDER:
        t = by_name[name]
        functional = f"{name}_{'convexity' if t.sign > 0 else 'concavity'}"
        for d in range(dev.samples):
            mean, se = _mean_se(t.sign * dev.out["quad", name][:, dev.directions + d])
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


def _trapezoidal_bvp(dh, grid) -> np.ndarray:
    """z_k = (x_k, y_k) of the oracle at the c+1 nodes of grid, (c+1, 2 ten).

    The trapezoidal step from t_k to t_(k+1) of

        x' = A1 x + B1 y + F,   y' = Q x - A2' y + Upsilon

    couples z_k and z_(k+1) only; with h = dt/2 and the coefficients read
    at the node of the unknown they multiply,

        -(I + h A1) x_k - h B1 y_k + (I - h A1) x_(k+1) - h B1 y_(k+1)
            = h (F_k + F_(k+1))
        -h Q x_k + (h A2' - I) y_k - h Q x_(k+1) + (I + h A2') y_(k+1)
            = h (Upsilon_k + Upsilon_(k+1))

    between x_0 = Xi and y_c = G x_c.  The staircase is eliminated from
    the initial node on: the rows carried into a step and the step's own
    rows are reduced by an orthogonal factorization of their z_k columns,
    which gives z_k in terms of z_(k+1) and carries `ten` rows in z_(k+1)
    alone to the next step.  Memory is O(c ten^2), not the dense (c ten)^2.
    """
    ten = dh.A1.rows
    coarse_n, h = grid.steps, 0.5 * grid.dt
    eye = np.eye(ten)
    A1, B1, A2, Q = (h * path.at(grid.nodes) for path in (dh.A1, dh.B1, dh.A2, dh.Q))
    F, Ups = (path.at(grid.nodes)[:, :, 0] for path in (dh.F, dh.Upsilon))

    # a step's rows, written in place: the carried rows, then its x and y
    # rows; left holds their z_k columns, right their right-hand side and
    # z_(k+1) columns (zero in the carried rows)
    x, y = slice(ten, 2 * ten), slice(2 * ten, None)
    left, right = np.zeros((3 * ten, 2 * ten)), np.zeros((3 * ten, 2 * ten + 1))
    left[:ten, :ten], right[:ten, 0] = eye, dh.Xi[:, 0]
    back = np.empty((coarse_n, 2 * ten, 2 * ten + 1))  # z_k = back[k] @ [1; -z_(k+1)]
    try:
        for k in range(coarse_n):
            left[x, :ten], left[x, ten:] = -eye - A1[k], -B1[k]
            left[y, :ten], left[y, ten:] = -Q[k], A2[k].T - eye
            right[x, 0], right[y, 0] = h * (F[k] + F[k + 1]), h * (Ups[k] + Ups[k + 1])
            right[x, 1:ten + 1], right[x, ten + 1:] = eye - A1[k + 1], -B1[k + 1]
            right[y, 1:ten + 1], right[y, ten + 1:] = -Q[k + 1], eye + A2[k + 1].T
            q, r = np.linalg.qr(left, mode="complete")
            reduced = q.T @ right
            back[k] = np.linalg.solve(r[:2 * ten], reduced[:2 * ten])
            left[:ten], right[:ten, 0] = reduced[2 * ten:, 1:], reduced[2 * ten:, 0]
        Z = np.empty((coarse_n + 1, 2 * ten))
        Z[-1] = np.linalg.solve(np.vstack([left[:ten], np.hstack([-dh.G, eye])]),
                                np.concatenate([right[:ten, 0], np.zeros(ten)]))
    except np.linalg.LinAlgError as exc:
        raise BlowUpError(f"oracle system is singular: {exc}") from exc
    for k in reversed(range(coarse_n)):
        Z[k] = back[k, :, 0] - back[k, :, 1:] @ Z[k + 1]
    return Z


def bvp_oracle(sol: EquilibriumSolution, coarse_n: int = 64) -> OracleResult:
    """Direct trapezoidal (second-order) discretization of the
    forward-backward optimality system as one block-banded solve, compared
    against the Riccati pipeline on the noise-free skeleton.

    The skeleton drops the Brownian terms, under which the martingale
    component of the backward pair vanishes; the comparison is exact (up
    to discretization) when the diffusion couplings C, D1, D2 of the game
    are zero, which is the regime this oracle is meant for.
    """
    grid = make_grid(sol.spec.grid.horizon, coarse_n)
    Z = _trapezoidal_bvp(sol.dh, grid)
    ten = sol.dh.A1.rows
    Xo, Yo = Z[:, :ten], Z[:, ten:]

    # pipeline skeleton on the fine grid, sampled at the coarse nodes
    Xp = MatrixPath(sol.spec.grid, skeleton(sol)[:, :, None]).at(grid.nodes)[:, :, 0]
    Ph = sol.Phat.at(grid.nodes)
    ph = sol.phihat.at(grid.nodes)[:, :, 0]
    Yp = np.array([Ph[k] @ Xp[k] + ph[k] for k in range(len(Xp))])
    return OracleResult(times=grid.nodes, X_oracle=Xo, Y_oracle=Yo,
                        X_pipeline=Xp, Y_pipeline=Yp)
