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
the maps `feedback` evaluates; X holds only the coordinates that can
leave 0 (`_live`).  A criterion is a sum of coef * s' W s terms, so a
step's costs are weighted products of the rows E_s X1 and dt W E_s X1.
One matrix product per step gives those rows, the closed-loop move and
the tests' cross rows.  The step matrices are formed in runs of about
backward.RUN_BYTES, the rule of the Riccati marches' reads, and one call
steps a block through a run.
The four tests' response states are stacked into one state, held
direction-major, which one more product with a block-diagonal map shared
by every direction advances; a 0/1 selector sums each test's rows into
its cross and quad, so a step has no loop over the tests.  When no test
has a diffusion term, no increment reaches the stacked state, so it is
one deterministic path per direction and is held as one column, which
the cross rows of every path read; its quad is one column too.  The
blocks run one at a time, so a run holds about one block of increments
plus the step matrices, which the first block forms and the later
blocks reuse.  What is promised is a block's independence from the
blocks after it, not a path's from the path count: the last, partial
block's products have another width at another count, and BLAS may sum
its last columns in another order, so its paths can differ in the last
bits (about 1e-16 of the scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

from . import augment, backward, equilibrium
from .equilibrium import EquilibriumSolution, ensure_diagnostics, row_maps, skeleton
from .model import BlowUpError, MatrixPath, SpecError, as_count, make_grid

BLOWUP_PATH_BUDGET = 1e-3  # abort when more than this fraction of paths diverge
# Paths [b, b + PATH_BLOCK) share one Brownian stream and are advanced
# together as the columns of one block.  Blocks start at fixed multiples,
# so the increments of a path, and the products and rounding of a full
# block, do not depend on how many paths the run has.
PATH_BLOCK = 1024
STEP_TILE = 32  # steps of a block's increments transposed together


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run settings, each stored as a count (`as_count`): the
    path count (at least two, for a standard error), the streams' master
    seed (at least 0) and the Euler substeps per step (at least 1).

    The paths run PATH_BLOCK at a time, so one block of increments,
    PATH_BLOCK x (N * substeps) doubles, is held at once.
    """

    paths: int = 10_000
    seed: int = 0
    substeps: int = 1

    def __post_init__(self):
        for name, least in (("paths", 2), ("seed", 0), ("substeps", 1)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least))


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


def _live(x0, A, b, C, d) -> np.ndarray:
    """Mask of the coordinates of dX = (A X + b) dt + (C X + d) dW, X(0) = x0,
    that can leave 0: the least set holding each one with a nonzero start or
    offset, or whose row reads the set, at some node.  The others stay +0."""
    reads = np.any(A != 0, axis=0) | np.any(C != 0, axis=0)
    live = (x0 != 0) | np.any(b != 0, axis=(0, 2)) | np.any(d != 0, axis=(0, 2))
    while not np.array_equal(live, grown := live | reads[:, live].any(axis=1)):
        live = grown
    return live


def _precompute_base(sol: EquilibriumSolution, substeps: int) -> dict:
    """Sample everything the Euler loop needs at the left ends of the
    sub-grid steps.  Each signal is a row map E_s of the augmented state
    X1 = [X; 1]: the equilibrium maps of `row_maps`, (steps, k, 10n+1),
    for the controls and disturbances, a constant (n, 10n+1) selector for
    x and xbar.  The closed loop (A, b, C, d) stays a tuple of paths that
    `_forms` samples per run of steps, one path at a time, so only the
    live block of its samples is held, inside the step matrices.  The
    loop carries only the coordinates "live" masks (`_live`)."""
    spec = sol.spec
    n = spec.n
    times = _subtimes(spec.grid, substeps)
    left = times[:-1]
    at = lambda path: path.at(left)
    maps = row_maps(sol, left)
    signals = {s: maps.pop(s) for s in ("u1", "u2", "f", "f2")}
    select = np.eye(10 * n, 10 * n + 1)
    closed_loop = (sol.Atil, sol.Btil, sol.Ctil, sol.Dtil)
    return {
        "left": left,
        "dt": times[1] - times[0],
        "steps": len(left),
        "closed_loop": closed_loop,
        "Q": at(spec.Q),
        "R1": at(spec.R1),
        "R2": at(spec.R2),
        "R0": at(spec.R0),
        "R0h": at(spec.R0hat),
        "G": spec.G,
        "x0": sol.Xi[:, 0],
        "live": _live(sol.Xi[:, 0], *(p.samples for p in closed_loop)),
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
    prob = bb.problem()
    stage = [at(getattr(prob, name)) for name in backward.LEFT]
    # q rides as trailing columns of P3, its drift and diffusion sources as
    # trailing columns of A1 and C1
    stage[0] = np.concatenate([stage[0], at(bb.B2) @ v], axis=-1)
    stage[2] = np.concatenate([stage[2], at(bb.D2) @ v], axis=-1)
    Ee, Ab, Cd = augment.decoupling(np.concatenate([P3, q], axis=-1), *stage)
    (Zx, zoff), (A, b), (C, d) = ((s[..., :5 * n], s[..., 5 * n:]) for s in (Ee, Ab, Cd))

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
    """Step matrices (K, coefs, resp) of the sub-grid steps ks, j indexing
    the steps; for ks None, of the terminal costs as one step of weight 1
    that does not move.  Every step's matrices are formed on their own
    rows, so a run of any length gives bit for bit the rows of shorter
    runs.

    K[j] maps the block's augmented state X1 = [X[live]; 1] to, in this
    order: the drift part [dt A | dt b] and the diffusion part [C | d] of
    the step's live rows, the rows E_s of each (signal s, weight W) pair
    the criteria use, the rows dt W E_s of the same pairs, and the rows H'
    and h' of the tests' cross terms X1' (H Z_d + h_d).  The step's cost of
    criterion c is coefs[c] @ (E_s X1 * dt W E_s X1) over the pair rows,
    coefs holding the criterion's coefficient on every row of each pair it
    uses.  A criterion is a few signal terms, so these rows are far fewer
    than a (10n+1)^2 form per criterion, and no weight need be definite.

    The tests' response states are stacked test after test into one state
    of Dz rows per direction.  H' has one row per stacked row; h' one row
    per (direction, test) pair, direction-major.  resp is None without
    tests, else (Kz, zoff, czz, sel): Kz[j] (3 Dz, Dz) stacks the block
    diagonals of the tests' dt A, C and Mzz and serves every direction;
    zoff[j] (D, 3 Dz, 1) holds the matching columns dt b_d, d_d and
    2 mzo_d of each direction, czz[j] (D, T, 1) the constants of each
    test's quad term Z_d' (Mzz Z_d + 2 mzo_d) + czz_d, and the 0/1
    selector sel (T, Dz) sums each test's rows.
    """
    live = pre["live"]
    cols, m = np.append(live, True), np.count_nonzero(live)  # X1's rows, X's count
    criteria = pre["criteria"]
    if ks is None:
        dt, steps = 1.0, 1
        terms_of = {c: ((s, "G", 1.0),) for c, (_, s) in criteria.items()}
    else:
        dt, steps = pre["dt"], ks.stop - ks.start
        terms_of = {c: terms for c, (terms, _) in criteria.items()}
    take = lambda a: a if a.ndim == 2 else a[ks]
    E = {s: take(pre["signals"][s])[..., cols] for t in terms_of.values() for s, _, _ in t}

    def wsum(terms, left, right):
        # dt * sum of coef * left_s' W right_s over the signals in `left`
        return sum(dt * c * (left[s].mT @ take(pre[w]) @ right[s])
                   for s, w, c in terms if s in left)

    # each (signal, weight) pair once, rows first[p]:first[p + 1] of both stacks
    pairs = list(dict.fromkeys((s, w) for terms in terms_of.values() for s, w, _ in terms))
    first = np.cumsum([0] + [E[s].shape[-2] for s, _ in pairs])
    coefs = np.zeros((len(terms_of), first[-1]))
    for i, terms in enumerate(terms_of.values()):
        for s, w, c in terms:
            p = pairs.index((s, w))
            coefs[i, first[p]:first[p + 1]] += c
    row = 2 * m + 2 * first[-1]  # K's first cross row
    if tests:
        # test i holds rows zrow[i]:zrow[i + 1] of the stacked response state
        zrow = np.cumsum([0] + [t.b.shape[1] for t in tests])
        dirs, count, dz = tests[0].b.shape[2], len(tests), zrow[-1]
    K = np.empty((steps, row + (dz + dirs * count if tests else 0), m + 1))
    if ks is None:
        K[:, :2 * m] = 0.0
    else:  # each closed-loop path read and its live block written in turn
        times, idx = pre["left"][ks], np.flatnonzero(live)
        A, b, C, d = pre["closed_loop"]
        for band, M, v in ((K[:, :m], A, b), (K[:, m:2 * m], C, d)):
            band[..., :m] = M.at(times)[:, idx[:, None], idx]
            band[..., m] = v.at(times)[:, idx, 0]
        K[:, :m] *= dt
    pair_rows = K[:, 2 * m:row].reshape(steps, 2, first[-1], m + 1)  # E_s, then dt W E_s
    for p, (s, w) in enumerate(pairs):
        rows = slice(first[p], first[p + 1])
        pair_rows[:, 0, rows], pair_rows[:, 1, rows] = E[s], dt * take(pre[w]) @ E[s]
    resp = None
    if tests:
        Kz, zoff = np.zeros((steps, 3, dz, dz)), np.zeros((steps, dirs, 3, dz))
        h, czz = K[:, row + dz:].reshape(steps, dirs, count, m + 1), np.empty((steps, dirs, count))
        sel = np.zeros((count, dz))
        for i, t in enumerate(tests):
            z = slice(zrow[i], zrow[i + 1])
            sel[i, z] = 1.0
            terms = terms_of[t.criterion]
            moved = {s for s, _, _ in terms} & t.moves.keys()
            g = {s: np.zeros((E[s].shape[-2], t.b.shape[1])) if t.moves[s][0] is None
                 else take(t.moves[s][0]) for s in moved}
            o = {s: np.zeros((E[s].shape[-2], dirs)) if t.moves[s][1] is None
                 else take(t.moves[s][1]) for s in moved}
            K[:, row + zrow[i]:row + zrow[i + 1]] = 2.0 * wsum(terms, g, E)
            h[:, :, i] = 2.0 * wsum(terms, o, E)
            Kz[:, 2, z, z] = wsum(terms, g, g)
            zoff[:, :, 2, z] = (2.0 * wsum(terms, g, o)).mT
            czz[:, :, i] = np.diagonal(wsum(terms, o, o), axis1=-2, axis2=-1)
            if ks is not None:
                Kz[:, 0, z, z], Kz[:, 1, z, z] = dt * t.A[ks], t.C[ks]
                zoff[:, :, 0, z], zoff[:, :, 1, z] = (dt * t.b[ks]).mT, t.d[ks].mT
        resp = (Kz.reshape(steps, 3 * dz, dz), zoff.reshape(steps, dirs, 3 * dz, 1),
                czz[..., None], sel)
    return K, coefs, resp


def _run_length(pre: dict, step) -> int:
    """Steps per `_forms` run: about backward.RUN_BYTES of step matrices
    and closed-loop samples, a step's bytes read off `step`, the forms of
    one step."""
    K, _, resp = step
    size = K.nbytes + sum(a.nbytes for a in (resp or ())[:3])
    size += sum(p.samples[0].nbytes for p in pre["closed_loop"])
    return max(1, backward.RUN_BYTES // size)


def _noise_free(tests) -> bool:
    """Whether every test's C and d are zero at every step: then no
    increment reaches the responses, dZ = (A Z + b) dt."""
    return not any(np.any(t.C) or np.any(t.d) for t in tests)


class _Block:
    """One path block of a run: X1 = [X[live]; 1] as columns, with the
    cost accumulators; with tests, also the stacked response state Z
    (directions, Dz, width) and the cross and quad accumulators
    (directions, tests, width).  A noise-free stack (`_noise_free`) is the
    same on every path, so Z and quad hold one column per direction, which
    broadcasts over the block's paths, and the cross rows of a step are one
    (directions x tests, Dz) @ (Dz, width) product."""

    def __init__(self, pre, tests, width, noise_free):
        x0 = pre["x0"][pre["live"]]
        self.X1 = np.empty((len(x0) + 1, width))
        self.X1[:-1] = x0[:, None]
        self.X1[-1] = 1.0
        self.costs = np.zeros((len(pre["criteria"]), width))
        if tests:
            dirs, dz = tests[0].b.shape[2], sum(t.b.shape[1] for t in tests)
            self.noisy = not noise_free
            cols = width if self.noisy else 1
            self.Z = np.zeros((dirs, dz, cols))
            self.cross = np.zeros((dirs, len(tests), width))
            self.quad = np.zeros((dirs, len(tests), cols))

    def run(self, forms, dW=None):
        """Accumulate the costs of each step of `_forms` output at the state
        it starts from and, unless dW is None, make its Euler-Maruyama move
        with its column of the increments dW (width, steps), transposed
        STEP_TILE steps at a time."""
        (K, coefs, resp), X1, costs = forms, self.X1, self.costs
        m, rows = len(X1) - 1, coefs.shape[1]
        row, X = 2 * m + 2 * rows, X1[:m]
        Y = np.empty((K.shape[1], X1.shape[1]))  # a step's rows, rewritten by each step
        drift, diff, E, WE = Y[:m], Y[m:2 * m], Y[2 * m:2 * m + rows], Y[2 * m + rows:row]
        if resp is not None:
            (Kz, zoff, czz, sel), Z = resp, self.Z
            dz, cross, quad, noisy = Z.shape[1], self.cross, self.quad, self.noisy
            H, h = Y[row:row + dz], Y[row + dz:].reshape(cross.shape)
        moves = [None] * len(K) if dW is None else (
            step for j in range(0, len(K), STEP_TILE)
            for step in np.ascontiguousarray(dW[:, j:j + STEP_TILE].T))
        for j, (Kj, dWj) in enumerate(zip(K, moves)):
            np.matmul(Kj, X1, out=Y)
            costs += coefs @ (E * WE)
            if resp is not None:
                Yz = Kz[j] @ Z
                Yz += zoff[j]
                if noisy:
                    cross += sel @ (H * Z)
                else:  # one column: fold it into the selector, one product
                    cross += ((sel * Z.mT).reshape(-1, dz) @ H).reshape(cross.shape)
                cross += h
                quad += sel @ (Yz[:, 2 * dz:] * Z)
                quad += czz[j]
                if dWj is not None:
                    Z += Yz[:, :dz]
                    if noisy:  # else the diffusion band is 0 @ Z + 0
                        Yz[:, dz:2 * dz] *= dWj
                        Z += Yz[:, dz:2 * dz]
            if dWj is not None:
                X += drift
                diff *= dWj
                X += diff


def _run(pre: dict, cfg: SimConfig, tests=()):
    """Simulate the closed loop and all requested linear responses under
    common increments.  Returns the SimOutput and the per-path outputs:
    the cost of each criterion by name, and each test's per-direction
    cross and quad under ("cross", name) and ("quad", name).

    The path blocks run one after another, each through every step and
    the terminal costs before the next block's increments are drawn.  The
    first step is formed on its own, and its bytes size the runs of about
    backward.RUN_BYTES that follow (`_run_length`); those are formed once,
    while the first block runs, and kept only if another block follows."""
    S = pre["steps"]
    out = {name: np.empty(cfg.paths) for name in pre["criteria"]}
    for t in tests:
        out["cross", t.name] = np.empty((cfg.paths, t.b.shape[2]))
        out["quad", t.name] = np.empty((cfg.paths, t.b.shape[2]))
    terminal = np.zeros((cfg.paths, len(pre["x0"])))
    head = _forms(pre, tests, slice(0, 1))
    size = _run_length(pre, head)
    runs = [slice(0, 1)] + [slice(k0, min(k0 + size, S)) for k0 in range(1, S, size)]
    final = _forms(pre, tests, None)
    noise_free = _noise_free(tests)
    cached = [head]  # the forms of `runs` built so far

    blown = 0
    for first in range(0, cfg.paths, PATH_BLOCK):
        width = min(PATH_BLOCK, cfg.paths - first)
        dW = path_increments(cfg.seed, first, width, S, pre["dt"])
        blk = _Block(pre, tests, width, noise_free)
        # diverged paths propagate nan by design and are flagged afterwards
        with np.errstate(invalid="ignore", over="ignore"):
            for i, ks in enumerate(runs):
                if i < len(cached):
                    forms = cached[i]
                else:
                    forms = _forms(pre, tests, ks)
                    if cfg.paths > PATH_BLOCK:
                        cached.append(forms)
                blk.run(forms, dW[:, ks])
            blk.run(final)
        del dW  # one block's increments are held at a time

        X = blk.X1[:-1].T
        bad = ~np.isfinite(X).all(axis=1)
        if tests:
            bad |= ~np.isfinite(blk.Z).all(axis=(0, 1))
        blown += int(bad.sum())
        sl = slice(first, first + width)
        # the others are +0, or nan on a blown path as a full-state step's 0 * inf
        terminal[sl, pre["live"]] = X
        terminal[first + np.flatnonzero(bad)[:, None], ~pre["live"]] = np.nan
        per_path = list(zip(pre["criteria"], blk.costs))
        for i, t in enumerate(tests):
            per_path += [(("cross", t.name), blk.cross[:, i].T),
                         (("quad", t.name), blk.quad[:, i].T)]
        for key, arr in per_path:
            out[key][sl] = arr  # a one-column quad broadcasts over the paths
            out[key][sl][bad] = np.nan

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
    the Brownian increments are shared.  Each count is at least 0
    (`as_count`), and directions + samples at least 1.
    """
    directions = as_count(directions, "directions per test", 0)
    samples = as_count(samples, "samples per test", 0)
    if directions + samples < 1:
        raise SpecError("directions and samples per test must add up to at least 1, got 0")
    spec = sol.spec
    entropy = (cfg.seed if directions_seed is None
               else as_count(directions_seed, "directions_seed", 0))
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
    """A SpecError unless eps is a non-empty sequence of finite perturbation
    sizes: with no size the suite would have no rows, a vacuous pass."""
    try:
        sizes = np.asarray(eps, dtype=float)
        ok = sizes.ndim == 1 and sizes.size > 0 and np.all(np.isfinite(sizes))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise SpecError(f"perturbation sizes eps must be a non-empty sequence of finite "
                        f"numbers, got {eps!r}")


def perturb_best_response(dev: Deviations, eps=(0.05, 0.1)) -> PerturbationReport:
    """Best-response perturbation suite under common random numbers.

    Follower-control and leader-disturbance deviations must not lower the
    respective costs; leader-control and follower-disturbance deviations
    must not raise them.  Each deviation direction is a random unit-norm
    deterministic path; the replayed players' strategies and the linear
    worst-case responses ride on the same Brownian increments.  Reads the
    perturbation columns of `dev`, of which there must be at least one;
    eps must hold at least one size, every one finite (`check_eps`).
    """
    check_eps(eps)
    # a run with no columns would give an empty report, a vacuous pass
    as_count(dev.directions, "directions per test of the best-response suite")
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
    # a run with no columns would give an empty report, a vacuous pass
    as_count(dev.samples, "samples per test of the convexity suite")
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
    """The oracle at every node of its grid, `times`, and the pipeline at
    the nodes that grid shares with the spec grid: every c/gcd(N, c)-th."""

    times: np.ndarray
    X_oracle: np.ndarray
    Y_oracle: np.ndarray
    X_pipeline: np.ndarray
    Y_pipeline: np.ndarray

    @property
    def gap(self) -> float:
        s = (len(self.X_oracle) - 1) // (len(self.X_pipeline) - 1)
        gx = np.max(np.linalg.norm(self.X_oracle[::s] - self.X_pipeline, axis=1)
                    / (1.0 + np.linalg.norm(self.X_pipeline, axis=1)))
        gy = np.max(np.linalg.norm(self.Y_oracle[::s] - self.Y_pipeline, axis=1)
                    / (1.0 + np.linalg.norm(self.Y_pipeline, axis=1)))
        return float(max(gx, gy))

    def extrapolated(self, finer: OracleResult) -> OracleResult:
        """This oracle Richardson-extrapolated with `finer`, the oracle on
        the grid of twice its steps: (4 Z_2c - Z_c)/3 at this grid's
        nodes, where the trapezoidal rule's second-order error terms
        cancel, against the same pipeline nodes."""
        if len(finer.times) != 2 * len(self.times) - 1:
            raise ValueError("Richardson extrapolation needs the oracle on twice the steps")
        return replace(self, X_oracle=(4.0 * finer.X_oracle[::2] - self.X_oracle) / 3.0,
                       Y_oracle=(4.0 * finer.Y_oracle[::2] - self.Y_oracle) / 3.0)


def _qr_complete(a):
    """np.linalg.qr(a, mode="complete") of a tall float matrix, bit for
    bit: the gufuncs it calls (`_umath_linalg.qr_r_raw`, `qr_complete`)
    and np.triu, without the wrapper.  The caller holds
    np.errstate(invalid="ignore"); a q that is not finite comes from
    np.linalg.qr instead, which raises on a LAPACK failure and otherwise
    returns the same bits."""
    r = a.copy()  # the factorization overwrites it
    q = _umath_linalg.qr_complete(r, _umath_linalg.qr_r_raw(r))
    if not np.isfinite(q).all():
        return np.linalg.qr(a, mode="complete")
    return q, np.triu(r)


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
    A step's factorization and triangular solve are the LAPACK gufuncs
    that np.linalg.qr(mode="complete") and np.linalg.solve call
    (`_qr_complete`, `backward.lu_solve`), bit for bit, under one errstate
    for the whole solve; a result that is not finite is computed again by
    the public call, so a singular system raises its LinAlgError.
    """
    ten = dh.A1.rows
    coarse_n, h = grid.steps, 0.5 * grid.dt
    eye = np.eye(ten)
    A1, B1, Q = (h * path.at(grid.nodes) for path in (dh.A1, dh.B1, dh.Q))
    A2 = augment.j_conjugate(A1)  # h J A1 J, the stage's A2, at these nodes alone
    F, Ups = (path.at(grid.nodes)[:, :, 0] for path in (dh.F, dh.Upsilon))

    # a step's rows, written in place: the carried rows, then its x and y
    # rows; left holds their z_k columns, right their right-hand side and
    # z_(k+1) columns (zero in the carried rows)
    x, y = slice(ten, 2 * ten), slice(2 * ten, None)
    left, right = np.zeros((3 * ten, 2 * ten)), np.zeros((3 * ten, 2 * ten + 1))
    left[:ten, :ten], right[:ten, 0] = eye, dh.Xi[:, 0]
    back = np.empty((coarse_n, 2 * ten, 2 * ten + 1))  # z_k = back[k] @ [1; -z_(k+1)]
    try:
        with np.errstate(invalid="ignore"):
            for k in range(coarse_n):
                left[x, :ten], left[x, ten:] = -eye - A1[k], -B1[k]
                left[y, :ten], left[y, ten:] = -Q[k], A2[k].T - eye
                right[x, 0], right[y, 0] = h * (F[k] + F[k + 1]), h * (Ups[k] + Ups[k + 1])
                right[x, 1:ten + 1], right[x, ten + 1:] = eye - A1[k + 1], -B1[k + 1]
                right[y, 1:ten + 1], right[y, ten + 1:] = -Q[k + 1], eye + A2[k + 1].T
                q, r = _qr_complete(left)
                reduced = q.T @ right
                back[k] = backward.lu_solve(r[:2 * ten], reduced[:2 * ten])
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
    are zero, which is the regime this oracle is meant for.  The two are
    compared only at the nodes both grids share, every c/gcd(N, c)-th
    oracle node (all when c divides N), so no pipeline value is
    interpolated.  The 10n stage is built on demand, as `ensure_diagnostics`
    builds it, without the P3 march the oracle does not read.  The skeleton
    is marched once per solution and kept as `sol.noise_free` for later
    calls.
    """
    grid = make_grid(sol.spec.grid.horizon, coarse_n)
    dh = equilibrium._ensure_stages(sol).dh
    Z = _trapezoidal_bvp(dh, grid)
    ten = dh.A1.rows
    Xo, Yo = Z[:, :ten], Z[:, ten:]

    if sol.noise_free is None:
        sol.noise_free = skeleton(sol)
    shared = math.gcd(sol.spec.grid.steps, coarse_n)
    fine = sol.spec.grid.steps // shared
    Xp = sol.noise_free[::fine]
    Ph, ph = sol.Phat.samples[::fine], sol.phihat.samples[::fine, :, 0]
    Yp = np.array([Ph[k] @ Xp[k] + ph[k] for k in range(len(Xp))])
    return OracleResult(times=grid.nodes, X_oracle=Xo, Y_oracle=Yo,
                        X_pipeline=Xp, Y_pipeline=Yp)
