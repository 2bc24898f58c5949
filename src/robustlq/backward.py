"""Backward-in-time integration: Riccati equations, offset equations
and the Lyapunov equation.

Every equation here is integrated with classical fixed-step RK4 on the spec
grid, marching from the terminal node to 0.  Because all inputs are
deterministic paths, the offset equations have identically-zero martingale
parts and reduce to linear ODEs.  Every equation but the follower's is a
`RiccatiProblem` (the stages, `disturbance_problem`, `lyapunov_problem`)
with one right-hand side, which skips vanishing terms.  Its P may be
rectangular, [P | phi]: the offset phi then marches as trailing columns of
its Riccati path, its sources as trailing columns of A1, C1 and Q, which is
how the Hamiltonian offset phihat and the value offset psi are solved.
The march keys each stage by its integer half step j, the time j dt/2, and
coefficients are read there with `MatrixPath.half`: the node for an even
j, the cubic midpoint of the cell for an odd one, so the cascade keeps
RK4's fourth order.  The Riccati right-hand sides read odd half steps in
runs (`_half_reads`), with one read and one product S W a stage for the
coefficients held in one table; the linear marches (`linear_backward`)
build their coefficients beforehand in stacks over runs of half steps.
The offsets of verify's responses (`solve_offset_b1`, `solve_offset_b3`)
are linear marches on a stored Riccati path (`_decoupled_offset`) that
skip the terms its stage's Riccati equation skips.
Stage solves are plain LU, LAPACK's gesv called through the gufunc
`np.linalg.solve` dispatches to (`lu_solve`): at these sizes the public
wrapper costs more than the factorization.  An exactly singular matrix is
a RegularityError with its node; near singularity is judged per node after
the march, from SVD reciprocal condition numbers recorded in `regularity`,
and for (I - P D2) also from the sign of its determinant, which must not
change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .model import BlowUpError, MatrixPath, RegularityError, TimeGrid

# Reciprocal-condition floor below which a decoupling inverse is treated as
# a hypothesis failure rather than roundoff.
RCOND_LIMIT = 1e-12


def integrate_backward(rhs, terminal, grid: TimeGrid) -> MatrixPath:
    """Integrate M' = rhs(j, M) backward from M(T) = terminal with RK4.

    rhs receives the integer half step j of each stage, at the time
    j dt/2: the step from node k to node k-1 evaluates it at j = 2k, 2k-1
    (twice) and 2k-2.  The terminal node of the result equals `terminal`
    bit-exactly.  Any non-finite value aborts with the node index where it
    appeared.  The march holds the errstate its stage solves (`lu_solve`)
    need.
    """
    term = np.atleast_2d(np.asarray(terminal, dtype=float))
    out = np.empty((len(grid),) + term.shape)
    out[-1] = term
    h = grid.dt
    # overflow is detected and reported via the finiteness check, so the
    # intermediate warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps, 0, -1):
            m, j, step = out[k], 2 * k, out[k - 1]
            k1 = rhs(j, m)
            k2 = rhs(j - 1, m - 0.5 * h * k1)
            k3 = rhs(j - 1, m - 0.5 * h * k2)
            k4 = rhs(j - 2, m - h * k3)
            np.subtract(m, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=step)
            if not np.logical_and.reduce(np.isfinite(step), axis=None):
                raise BlowUpError(
                    f"backward integration produced a non-finite value at node {k - 1}",
                    node=k - 1,
                )
    return MatrixPath(grid, out)


# Bytes of coefficients a march reads ahead in one run: enough reads to
# spread numpy's per-call cost, few enough to keep the stacks in cache.
RUN_BYTES = 512 * 1024


def _half_reads(paths):
    """coef(j): each path (None stays None) read at half step j, as
    `path.half(j)` reads it.  An even j reads node views.  Odd reads come
    from a table of the next run of odd half steps downwards, about
    RUN_BYTES, filled by one `path.half(js)` per path.  The reads
    are reused while j repeats: RK4 reads its midpoint twice and ends a
    step on the half step where the next begins.  An array of half steps
    is read afresh."""
    size = max(1, RUN_BYTES // max(1, 8 * sum(p.samples[0].size for p in paths if p is not None)))
    run = [-1, -1, []]  # the built run: odd half steps lo down to hi+1
    last = [None, None]

    def coef(j):
        if isinstance(j, np.ndarray):
            return [None if p is None else p.half(j) for p in paths]
        if last[0] == j:
            return last[1]
        if j & 1:
            lo, hi, table = run
            if not hi < j <= lo:
                lo, hi = j, max(j - 2 * size, -1)
                js = np.arange(lo, hi, -2)
                table = [None if p is None else p.half(js) for p in paths]
                run[:] = lo, hi, table
            reads = [None if t is None else t[(lo - j) >> 1] for t in table]
        else:
            reads = [None if p is None else p.samples[j >> 1] for p in paths]
        last[:] = j, reads
        return reads

    return coef


def _rcond(mats) -> np.ndarray:
    """Per matrix of a stack, smallest singular value against max(1,
    largest): an absolute-scale near-singularity measure (a plain condition
    number is blind to a 1x1 matrix crossing zero); 0 when not finite."""
    out = np.zeros(len(mats))
    finite = np.isfinite(mats).all(axis=(1, 2))
    s = np.linalg.svd(mats[finite], compute_uv=False)
    out[finite] = s[:, -1] / np.maximum(1.0, s[:, 0])
    return out


def lu_solve(a, b) -> np.ndarray:
    """np.linalg.solve(a, b) bit for bit, for float a and a matrix b (or
    stacks of them, broadcast): the gufunc it dispatches to,
    `_umath_linalg.solve` (LAPACK gesv), without the wrapper's per-call
    cost.  The gufunc reports a singular matrix only by filling that
    matrix's solution with NaN and raising the invalid flag, so the caller
    holds np.errstate(invalid="ignore"), and a solution whose leading entry
    is not finite is solved again by np.linalg.solve: that raises
    LinAlgError for a singular matrix and otherwise returns the same
    bits."""
    x = _umath_linalg.solve(a, b)
    if x.ndim == 2 and x.size:
        finite = math.isfinite(x.item(0))
    else:
        finite = np.isfinite(x[..., :1, :1]).all()
    return x if finite else np.linalg.solve(a, b)


def _solve_guarded(mat, rhs_mat, what, j, dt):
    """Solve mat @ X = rhs_mat by LU (`lu_solve`), for one matrix at half
    step j or a stack at the half steps j; an exactly singular matrix fails
    loudly, naming the time j dt/2 and the node j // 2 of the first
    singular one.  A matrix at an int j is a stage of a march, which holds
    the errstate `lu_solve` needs; any other call (a stack from
    `_InversePath`, a linear march's run or a residual check) opens its
    own, once for the whole call.  Near singularity is checked per node
    after the march, where the margins are recorded."""
    try:
        if type(j) is int:
            return lu_solve(mat, rhs_mat)
        with np.errstate(invalid="ignore"):
            return lu_solve(mat, rhs_mat)
    except np.linalg.LinAlgError:
        if np.ndim(j):
            j = j[np.argmax(np.linalg.slogdet(mat)[0] == 0.0)]
        node = int(j) // 2
        raise RegularityError(f"{what} is singular at t={j * dt / 2:.6g} (node {node})",
                              node=node) from None


def _vanishes(path: MatrixPath) -> bool:
    """Whether every sample of a path is zero; an axis that a broadcast
    view repeats (stride 0) is read once."""
    s = path.samples
    return not np.any(s[tuple(slice(None) if st else slice(1) for st in s.strides)])


# What the square block S of P multiplies from the left, in a table's and decoupling's order.
LEFT = ("A1", "B1", "C1", "D1", "B2", "D2")


@dataclass
class RiccatiProblem:
    """Coefficients of the unified generalized Riccati equation

        P' + P A1 + A2^T P + P B1 P - Q
           + (C2^T + P B2)(I - P D2)^{-1}(P C1 + P D1 P) = 0,  P(T) = terminal.

    Each decoupled stage maps its blocks to these coefficients in its
    `problem()` method, as `disturbance_problem` and `lyapunov_problem` do.
    P may be rectangular, [P | phi] with d rows: the products and the
    (I - P D2) solve then take its leading d columns as the square P, and
    A1, C1, Q and the terminal carry the offset's drift, diffusion and
    adjoint sources and its terminal value as trailing columns, so phi
    solves the linear offset equation of the stage

        phi' = -[(A2^T + P B1 + F P D1) phi + F P s_diff + P s_drift - s_adj],
        F = (C2^T + P B2)(I - P D2)^{-1}.

    The kept LEFT coefficients that are column views of the array A1's
    samples view, its coefficient table, are read and multiplied together."""

    grid: TimeGrid
    A1: MatrixPath
    A2: MatrixPath
    B1: MatrixPath
    Q: MatrixPath
    terminal: np.ndarray
    C1: MatrixPath
    C2: MatrixPath
    B2: MatrixPath
    D1: MatrixPath
    D2: MatrixPath

    def vanishes(self, *names) -> bool:
        """Whether every sample of the named coefficients is zero."""
        return all(_vanishes(getattr(self, name)) for name in names)

    def terms(self):
        """Whether the equation has P B1 P, a fraction, and the (I - P D2)
        solve in it; without the solve the fraction is C2^T P C1, which
        vanishes with C1 or with C2."""
        solve = not self.vanishes("B2", "D1", "D2")
        fraction = solve or not (self.vanishes("C1") or self.vanishes("C2"))
        return not self.vanishes("B1"), fraction, solve


def _left(quad, fraction, solve):
    """The LEFT coefficients of the terms a problem keeps (`terms`)."""
    return [n for n, use in zip(LEFT, (True, quad, fraction, solve, solve, solve)) if use]


def tabled(prob: RiccatiProblem) -> RiccatiProblem:
    """prob with its cubic-read `_left` coefficients copied into one table."""
    paths = {n: p for n in _left(*prob.terms())
             if type(p := getattr(prob, n))._cubic is MatrixPath._cubic}
    table = np.concatenate([p.samples for p in paths.values()], axis=-1)
    edges = np.cumsum([0] + [p.shape[1] for p in paths.values()])
    return replace(prob, **{n: MatrixPath(prob.grid, table[..., a:b])
                            for n, a, b in zip(paths, edges, edges[1:])})


@dataclass
class RiccatiSolution:
    P: MatrixPath
    regularity: dict = field(default_factory=dict)


def _columns(table: np.ndarray, path: MatrixPath):
    """The columns of the C-ordered table that a cubic-read path views, if any."""
    part, data = path.samples, lambda a: a.__array_interface__["data"][0]
    off, rem = divmod(data(part) - data(table), part.itemsize)
    if (table.flags.c_contiguous and type(path)._cubic is MatrixPath._cubic and not rem
            and part.strides == table.strides and part.shape[:2] == table.shape[:2]
            and 0 <= off <= table.shape[2] - part.shape[2]):
        return slice(off, off + part.shape[2])


def generalized_riccati_rhs(prob: RiccatiProblem):
    """Time derivative prescribed by the unified equation; the solver
    integrates this callable and residual checks evaluate it on all nodes
    at once (an array of half steps and a stack of matrices).  Vanishing
    terms are skipped unread; the full formula would add only zeros.  The
    LEFT coefficients held in A1's table are read together and multiplied
    as one SW = S W, sliced into S A1, S B1, ...; any other on its own."""
    quad, fraction, solve = prob.terms()
    table = prob.A1.samples if prob.A1.samples.base is None else prob.A1.samples.base
    cols = {n: _columns(table, getattr(prob, n)) for n in _left(quad, fraction, solve)}
    hi = max((sl.stop for sl in cols.values() if sl), default=0)
    own = [n for n, sl in cols.items() if not sl]
    coef = _half_reads([MatrixPath(prob.grid, table[..., :hi]) if hi else None, prob.A2,
                        prob.Q, prob.C2 if fraction else None] + [getattr(prob, n) for n in own])
    # per LEFT name, its product with S: columns of SW, or S times its own read
    SA1, SB1, SC1, SD1, SB2, SD2 = [
        (lambda S, SW, reads, ix=(..., cols[n]): SW[ix]) if cols.get(n) else
        (lambda S, SW, reads, i=own.index(n) if n in own else None: S @ reads[i]) for n in LEFT]
    d = prob.terminal.shape[0]
    eye = np.eye(d)

    def rhs(j, P):
        W, A2, Q, C2, *reads = coef(j)
        S = P[..., :d]  # the square block: all of P when it has no offset
        SW = W if W is None else S @ W
        val = SA1(S, SW, reads) + A2.mT @ P
        if quad:
            val = val + SB1(S, SW, reads) @ P
        val = val - Q
        if solve:
            gap = eye - SD2(S, SW, reads)
            inner = SC1(S, SW, reads) + SD1(S, SW, reads) @ P
            val = val + (C2.mT + SB2(S, SW, reads)) @ _solve_guarded(
                gap, inner, "decoupling matrix (I - P D2)", j, prob.grid.dt
            )
        elif fraction:
            val = val + C2.mT @ SC1(S, SW, reads)
        return -val

    return rhs


def solve_riccati_generalized(prob: RiccatiProblem) -> RiccatiSolution:
    """Integrate the unified Riccati equation backward on the grid.

    At every node the reciprocal condition number of (I - P D2), logged,
    must stay above RCOND_LIMIT, and the sign of its determinant must be
    the terminal node's: a change is a singularity between two nodes.
    """
    P = integrate_backward(generalized_riccati_rhs(prob), prob.terminal, prob.grid)
    d = prob.terminal.shape[0]
    gap = np.eye(d) - P.samples[..., :d] @ prob.D2.at(prob.grid.nodes)
    rconds = _rcond(gap)
    worst = int(np.argmin(rconds))
    if rconds[worst] < RCOND_LIMIT:
        raise RegularityError(
            f"(I - P D2) near singular at node {worst} (rcond={rconds[worst]:.2e})",
            node=worst,
        )
    flips = np.flatnonzero(np.diff(np.linalg.slogdet(gap)[0]))
    if flips.size:  # the largest node whose sign is not the terminal node's
        node = int(flips[-1])
        raise RegularityError(f"determinant of (I - P D2) changes sign between nodes {node} "
                              f"and {node + 1}", node=node)
    return RiccatiSolution(P=P, regularity={"decouple_rcond": rconds})


def follower_riccati_rhs(spec):
    """Time derivative prescribed by the follower Riccati equation; the
    solver integrates this callable and residual checks evaluate it on all
    nodes at once.  The C and D1 terms are skipped unread when those paths
    are zero at every node; the full formula would add only zeros."""
    C, D1 = (None if _vanishes(path) else path for path in (spec.C, spec.D1))
    coef = _half_reads([spec.A, C, spec.B1, D1, spec.R1, spec.Q])

    def rhs(j, P):
        A, C, B1, D1, R1, Q = coef(j)
        gain, rt1 = P @ B1, R1
        val = P @ A + A.mT @ P
        if C is not None:
            CP = C.mT @ P
            val = val + CP @ C
            if D1 is not None:
                gain = gain + CP @ D1
        if D1 is not None:
            rt1 = rt1 + D1.mT @ P @ D1
        quad = _solve_guarded(rt1, gain.mT, "control weight R1 + D1'PD1", j, spec.grid.dt)
        return -(val + Q - gain @ quad)

    return rhs


def solve_riccati_follower(spec, delta: float = 1e-8) -> RiccatiSolution:
    """Solve the follower's Riccati equation

        P' + P A + A^T P + C^T P C + Q
           - (P B1 + C^T P D1)(R1 + D1^T P D1)^{-1}(B1^T P + D1^T P C) = 0,

    with P(T) = G, enforcing R1 + D1^T P D1 >= delta*I at every node.  A
    failure names the first node the march reached below delta, the
    largest failing index, and its min eigenvalue.
    """
    P = integrate_backward(follower_riccati_rhs(spec), spec.G, spec.grid)
    D1 = spec.D1.samples
    rtilde = spec.R1.samples + D1.mT @ P.samples @ D1
    eigs = np.linalg.eigvalsh(rtilde).min(axis=1)
    lost = np.flatnonzero(eigs < delta)
    if lost.size:
        node = int(lost[-1])
        raise RegularityError(
            f"follower control weight R1 + D1'PD1 lost strong positivity at node "
            f"{node} (min eig {eigs[node]:.3e} < {delta:.1e})",
            node=node,
        )
    return RiccatiSolution(P=P, regularity={"rtilde1_min_eig": eigs})


class _InversePath(MatrixPath):
    """scale * base^{-1}, inverted where it is read: the node samples last
    node first, in the march's order, and each off-node read from base's
    cubic read there (`_cubic`); `_invert` takes the reads' times in steps."""

    __slots__ = ("base", "scale", "what", "eye")

    def __init__(self, base: MatrixPath, scale: float, what: str):
        self.base, self.scale, self.what, self.eye = base, scale, what, np.eye(base.rows)
        k = np.arange(len(base.grid))[::-1]
        super().__init__(base.grid, self._invert(base.samples[k], k)[::-1])

    def _invert(self, mats, steps) -> np.ndarray:
        return self.scale * _solve_guarded(mats, self.eye, self.what, 2 * steps,
                                           self.base.grid.dt)

    def _cubic(self, k, w) -> np.ndarray:
        return self._invert(self.base._cubic(k, w), k + w)


def disturbance_problem(spec) -> RiccatiProblem:
    """The disturbance Riccati equation: A1 = A2 = A, B1 = -(2/alpha) R0^{-1},
    Q, C1 = C2 = C, B2 = D1 = D2 = 0 and P1(T) = -G."""
    zero = MatrixPath(spec.grid, np.broadcast_to(0.0, spec.A.samples.shape))  # no samples stored
    B1 = _InversePath(spec.R0, -2.0 / spec.alpha, "disturbance weight R0")
    return tabled(RiccatiProblem(grid=spec.grid, A1=spec.A, A2=spec.A, B1=B1, Q=spec.Q,
                                 terminal=-spec.G, C1=spec.C, C2=spec.C, B2=zero, D1=zero, D2=zero))


def solve_riccati_disturbance(spec) -> RiccatiSolution:
    """Solve the disturbance-side Riccati equation

        P1' + P1 A + A^T P1 - (2/alpha) P1 R0^{-1} P1 + C^T P1 C - Q = 0,

    with P1(T) = -G: `disturbance_problem`.  A finite-time blow-up signals
    that the attenuation level is too aggressive for this instance.
    """
    prob = disturbance_problem(spec)
    return RiccatiSolution(P=integrate_backward(generalized_riccati_rhs(prob), -spec.G, spec.grid))


def linear_backward(grid: TimeGrid, coef, terminal) -> MatrixPath:
    """Solve phi' = -(lin(t) phi + src(t)) backward from phi(T) = terminal.

    The coefficients are known before the march, so they are built in
    stacks over runs of descending half steps, about RUN_BYTES of them at
    a time: coef(js) returns the (lin, src) stacks of the half steps js,
    read with `path.half(js)`, bit for bit the reads one at a time.  An
    error coef raises, such as a singular stage solve, ends the march when
    the run holding that stage is built.
    """
    terminal = np.atleast_2d(np.asarray(terminal, dtype=float))
    rows, cols = terminal.shape
    size = max(1, RUN_BYTES // (8 * rows * (rows + cols)))
    lo = hi = -1  # the built run: half steps lo down to hi+1
    lin = src = None

    def rhs(j, phi):
        nonlocal lo, hi, lin, src
        if not hi < j <= lo:
            lo, hi = j, max(j - size, -1)
            lin, src = coef(np.arange(lo, hi, -1))
        return -(lin[lo - j] @ phi + src[lo - j])

    return integrate_backward(rhs, terminal, grid)


def _decoupled_offset(prob: RiccatiProblem, P: MatrixPath, u: MatrixPath, drift: MatrixPath,
                      diff: MatrixPath, adj: MatrixPath | None = None) -> MatrixPath:
    """Offset equation of a stage whose Riccati path P solves `prob`,
    driven by the control path u through the drift, diffusion and adjoint
    source coefficients (adj None for none):

        phi' = -[(A2^T + P B1 + F P D1) phi + F P (diff u) + P (drift u) - adj u],
        F = (C2^T + P B2)(I - P D2)^{-1},  phi(T) = 0,

    one offset column per column of u.  Vanishing terms are skipped as
    `generalized_riccati_rhs` skips them, by `RiccatiProblem.terms` of the
    problem with diff in C1's place (diff u is the offset's column of C1):
    P B1 without B1; without B2, D1 and D2 the solve, so that F = C2^T and
    F P D1 = 0; and then F P (diff u) when C2 or diff vanishes.
    """
    quad, fraction, solve = replace(prob, C1=diff).terms()
    eye = np.eye(P.rows)

    def coef(js):
        Pt, ut = P.half(js), u.half(js)
        lin, src = prob.A2.half(js).mT, Pt @ (drift.half(js) @ ut)
        if quad:
            lin = lin + Pt @ prob.B1.half(js)
        if solve:
            gap = eye - Pt @ prob.D2.half(js)
            FP = (prob.C2.half(js).mT + Pt @ prob.B2.half(js)) @ _solve_guarded(
                gap, eye, "decoupling matrix (I - P D2)", js, P.grid.dt) @ Pt
            lin = lin + FP @ prob.D1.half(js)
        elif fraction:
            FP = prob.C2.half(js).mT @ Pt
        if fraction:
            src = FP @ (diff.half(js) @ ut) + src
        return lin, (src if adj is None else src - adj.half(js) @ ut)

    return linear_backward(P.grid, coef, np.zeros((P.rows, u.shape[1])))


def solve_offset_b1(spec, P1: MatrixPath, u1: MatrixPath) -> MatrixPath:
    """Offset of the disturbance-side value expansion driven by a
    deterministic follower control path u1: phi1' = -[(A^T - (2/alpha) P1
    R0^{-1}) phi1 + P1 B1 u1 + C^T P1 D1 u1], phi1(T) = 0, of
    `disturbance_problem`.  A u1 with D columns gives D offset columns."""
    return _decoupled_offset(disturbance_problem(spec), P1, u1, spec.B1, spec.D1)


def solve_offset_b3(bb, P3: MatrixPath, u2: MatrixPath) -> MatrixPath:
    """Offset equation of the leader-stage decoupling (5n blocks) driven by
    a deterministic leader control path u2 alone, one offset column per
    column of u2."""
    return _decoupled_offset(bb.problem(), P3, u2, bb.B2, bb.D2, bb.F2)


def solve_offset_b4(dh) -> RiccatiSolution:
    """The Hamiltonian-stage (10n) Riccati path and its offset in one
    march: [Phat | phihat] solves `dh.problem(offset=True)`, whose A1, C1
    and Q carry the stage's drift, diffusion and adjoint offsets F, Sigma
    and Upsilon as trailing columns, from [G | 0].  All control inputs have
    been absorbed by the stage construction."""
    return solve_riccati_generalized(dh.problem(offset=True))


def lyapunov_problem(Atil: MatrixPath, Ctil: MatrixPath, source, terminal) -> RiccatiProblem:
    """L' + L Atil + Atil^T L + Ctil^T L Ctil + source = 0, L(T) = terminal:
    A1 = Atil, Q = -source (0 for a source None), C1 = Ctil, and A2, C2
    the square blocks of Atil and Ctil, which are all of them unless they
    carry an offset's sources as trailing columns."""
    d, grid = Atil.rows, Atil.grid
    zeros = lambda shape: MatrixPath(grid, np.broadcast_to(0.0, shape))  # no samples stored
    zero = zeros((len(grid), d, d))
    square = lambda path: path if path.shape[1] == d else MatrixPath(grid, path.samples[..., :d])
    Q = zeros(Atil.samples.shape) if source is None else MatrixPath(grid, -source.samples)
    return RiccatiProblem(grid=grid, A1=Atil, A2=square(Atil), B1=zero, Q=Q,
                          terminal=terminal, C1=Ctil, C2=square(Ctil), B2=zero, D1=zero, D2=zero)


def solve_lyapunov(Atil: MatrixPath, Ctil: MatrixPath, source: MatrixPath,
                   terminal: np.ndarray, grid: TimeGrid) -> MatrixPath:
    """Solve L' + L Atil + Atil^T L + Ctil^T L Ctil + source = 0 backward.

    The equation is linear, so -L solves `lyapunov_problem` with Q = source
    and terminal -terminal: that march reads the source with no negated
    copy, and its result is negated in place, as 0 - x so that a zero
    stays +0.  Trailing columns of Atil, Ctil, source and terminal march
    an offset with L, as in `solve_value_offset`."""
    prob = replace(lyapunov_problem(Atil, Ctil, None, -terminal), Q=source)
    L = integrate_backward(generalized_riccati_rhs(prob), prob.terminal, grid)
    np.subtract(0.0, L.samples, out=L.samples)
    return L


def solve_value_offset(Atil: MatrixPath, Ctil: MatrixPath, source: MatrixPath,
                       terminal: np.ndarray, grid: TimeGrid) -> MatrixPath:
    """The Lyapunov path L and the value offset psi in one march, [L | psi]:

        L' + L Atil + Atil^T L + Ctil^T L Ctil + Lsrc = 0,  L(T) = terminal,
        psi' = -[Atil^T psi + L Btil + Ctil^T L Dtil + psisrc],  psi(T) = 0,

    given Atil = [Atil | Btil], Ctil = [Ctil | Dtil] and source = [Lsrc |
    psisrc] with the offset's sources as trailing columns: `solve_lyapunov`
    from [terminal | 0], the offset of the Lyapunov problem (which reads no
    Q)."""
    d = terminal.shape[0]
    return solve_lyapunov(Atil, Ctil, source,
                          np.hstack([terminal, np.zeros((d, Atil.shape[1] - d))]), grid)
