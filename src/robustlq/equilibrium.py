"""Pipeline orchestration: from a validated game spec to the robust
Stackelberg equilibrium in state-feedback form, plus the value function.

solve_game runs the full cascade:

  1. follower Riccati P and disturbance Riccati P1,
  2. hat / check / blackboard / doublehat stage construction,
  3. Hamiltonian-stage Riccati Phat and its offset phihat, one march,
  4. feedback gain maps, closed-loop coefficients,
  5. Lyapunov path L and value offset psi, one march.

row_maps gives the four equilibrium maps u1, u2, f and f2 as row maps
of X1 = [X; 1] at one time or at an array of times; feedback applies
them to states, and the Monte Carlo harness simulates with them.  The
10n stacks are read by `augment.block_row` slot: the physical state at
slot 0, xtil at slot 5 and pbar at slot 9.  skeleton runs the solver's
linear backward RK4 march on the time-reversed noise-free closed loop.

Everything is deterministic: identical specs produce bit-identical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augment, backward
from .model import (BlowUpError, GameSpec, MatrixPath, RegularityError,
                    SpecError, _floats, validate_spec)


@dataclass
class EquilibriumSolution:
    """All ingredients of the state-feedback equilibrium on one grid.  Of
    the stages it keeps the follower terms and, of the 10n stage, the
    stacked initial state Xi, which the value and the skeleton read.
    Verification alone reads the stages themselves: `ensure_diagnostics`
    fills the 10n stage dh, the 5n stage bb and its path P3 on demand."""

    spec: GameSpec
    P: MatrixPath
    P1: MatrixPath
    Phat: MatrixPath
    phihat: MatrixPath
    L: MatrixPath
    psi: MatrixPath
    gains: augment.GainMaps
    Atil: MatrixPath
    Btil: MatrixPath
    Ctil: MatrixPath
    Dtil: MatrixPath
    Xi: np.ndarray
    terms: augment.FollowerTerms
    regularity: dict = field(default_factory=dict)
    dh: augment.DoubleHatStage | None = None
    bb: augment.BlackboardStage | None = None
    P3: MatrixPath | None = None
    # skeleton(sol), kept by the first BVP oracle; a `replace` starts afresh
    noise_free: np.ndarray | None = field(default=None, init=False, repr=False)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RegularityError, BlowUpError) as exc:
        exc.args = (f"[stage {name}] {exc.args[0]}",) + exc.args[1:]
        raise


def _blackboard_chain(spec: GameSpec, terms: augment.FollowerTerms) -> tuple:
    """The hat, check and blackboard (5n) stages, each built on the one
    before from the spec and the follower terms alone."""
    hat = augment.build_hat(spec, terms)
    check = augment.build_check(spec, terms, hat)
    return hat, check, augment.build_blackboard(check, hat, terms)


def stage_blocks(spec: GameSpec, delta: float = 1e-8) -> dict:
    """The follower Riccati solution ("follower"), the follower terms
    ("terms") and the five stage constructions of a spec, keyed "hat",
    "check", "blackboard", "weights" and "doublehat".  A spec that fails
    `validate_spec`, or a delta that is not a positive finite number, is a
    SpecError; a solver failure is tagged with its stage, as in solve_game."""
    delta = float(_floats(delta, "delta", ()))
    report = validate_spec(spec, delta)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise SpecError(f"spec validation failed: {names}")
    Psol = _stage("follower riccati", backward.solve_riccati_follower, spec, delta)
    # Rbb is formed and checked with the follower terms, so a leader weight
    # that fails keeps the stage name of the weights it belongs to
    terms = _stage("leader cost weights", augment.follower_terms, spec, Psol.P, delta)
    hat, check, bb = _blackboard_chain(spec, terms)
    weights = augment.build_cost_weights(spec, terms)
    return {"follower": Psol, "terms": terms, "hat": hat, "check": check, "blackboard": bb,
            "weights": weights, "doublehat": augment.build_doublehat(bb, weights, terms.Rbbinv)}


def solve_game(spec: GameSpec, delta: float = 1e-8) -> EquilibriumSolution:
    """Run the full solver cascade on a validated spec.

    Raises SpecError when validation fails, RegularityError or BlowUpError
    (tagged with the failing stage) when a solvability condition breaks
    down.  Of the stages only the follower terms outlive the solve: the
    10n stage is freed after the gain maps, before the [L | psi] march,
    and the solution keeps its Xi alone; the others are freed before the
    disturbance march.
    """
    blocks = stage_blocks(spec, delta)
    Psol, terms, dh = blocks["follower"], blocks["terms"], blocks["doublehat"]
    del blocks
    P1sol = _stage("disturbance riccati", backward.solve_riccati_disturbance, spec)

    Phsol = _stage("hamiltonian riccati", backward.solve_offset_b4, dh)
    grid, d = spec.grid, 10 * spec.n
    split = lambda s: (MatrixPath(grid, s[..., :d]), MatrixPath(grid, s[..., d:]))
    Phat, phihat = split(Phsol.P.samples)

    # the closed loop dX = (Atil X + Btil) dt + (Ctil X + Dtil) dW of the
    # equilibrium state comes with the decoupling gains (E, e)
    left, Xi = dh.left(offset=True), dh.Xi
    Ee, AB, CD = _stage("gain maps", augment.decoupling, Phsol.P.samples,
                        *(left[name].samples for name in backward.LEFT))
    (Atil, Btil), (Ctil, Dtil) = split(AB), split(CD)
    gains = augment.build_gain_maps(spec, terms, Phat, phihat, Ee[..., :d], Ee[..., d:])
    del Ee, left, dh  # read no more: freed before the last march

    PM1, PM2 = gains.PM1.samples, gains.PM2.samples
    PM1T, PM2T = PM1.mT, PM2.mT
    x = augment.block_row(0, spec.n)  # the physical state's slot
    # the sources of L and, as a trailing column, of psi
    source = np.concatenate([x.T @ spec.Q.samples @ x + PM1T @ terms.R @ PM1
                             + PM2T @ terms.W2 @ PM2,
                             PM1T @ terms.R @ gains.phiM1.samples
                             + PM2T @ terms.W2 @ gains.phiM2.samples], axis=-1)
    Lpsi = _stage("lyapunov", backward.solve_value_offset, MatrixPath(grid, AB),
                  MatrixPath(grid, CD), MatrixPath(grid, source), x.T @ spec.G @ x, grid)
    L, psi = split(Lpsi.samples)

    regularity = dict(Psol.regularity, rbb_max_eig=terms.Rbb_max_eig)
    regularity.update({f"hamiltonian_{k}": v for k, v in Phsol.regularity.items()})

    return EquilibriumSolution(
        spec=spec, P=Psol.P, P1=P1sol.P, Phat=Phat, phihat=phihat,
        L=L, psi=psi, gains=gains, Atil=Atil, Btil=Btil, Ctil=Ctil,
        Dtil=Dtil, Xi=Xi, terms=terms, regularity=regularity,
    )


def ensure_diagnostics(sol: EquilibriumSolution) -> EquilibriumSolution:
    """Build the 5n stage bb and the 10n stage dh from the spec and the
    follower terms, bit for bit the ones `stage_blocks` gives, and solve
    the 5n Riccati path P3, on demand: bb and P3 drive the leader-deviation
    responses in verification, and dh the BVP oracle."""
    if _ensure_stages(sol).P3 is None:
        sol.P3 = _stage("intermediate riccati P3", backward.solve_riccati_generalized,
                        sol.bb.problem()).P
    return sol


def _ensure_stages(sol: EquilibriumSolution) -> EquilibriumSolution:
    """bb and dh on demand: `ensure_diagnostics` without the P3 march."""
    if sol.dh is None:
        spec, terms = sol.spec, sol.terms
        sol.bb = _blackboard_chain(spec, terms)[2]
        sol.dh = augment.build_doublehat(sol.bb, augment.build_cost_weights(spec, terms),
                                         terms.Rbbinv)
    return sol


def skeleton(sol: EquilibriumSolution) -> np.ndarray:
    """Noise-free closed-loop state on the spec grid, (N+1, 10n): the
    solution of dX = (Atil X + Btil) dt from the stacked initial state.

    The linear backward march integrates the time-reversed loop y(t) =
    X(T - t) from y(T) = Xi, reading the reversed coefficient paths at its
    own half steps.  A non-finite state raises BlowUpError, whose node is
    on the reversed grid.
    """
    grid = sol.spec.grid
    A, b = (MatrixPath(grid, p.samples[::-1]) for p in (sol.Atil, sol.Btil))
    rev = backward.linear_backward(grid, lambda js: (A.half(js), b.half(js)), sol.Xi)
    return rev.samples[::-1, :, 0]


def row_maps(sol: EquilibriumSolution, t) -> dict:
    """The four equilibrium maps at time t, or stacked along the leading
    axes of an array of times, each as a row map (k, 10n+1) of the
    augmented state X1 = [X; 1]:

        u1 = Rt1^{-1} [PM1 | phiM1],  u2 = Rbb^{-1} [PM2 | phiM2],
        f  = -(2/alpha) R0^{-1} block_row(9) [Phat | phihat],
        f2 =  (2/gamma) R0hat^{-1} block_row(5) [Phat | phihat],

    with Rt1 = R1 + D1'P D1; slot 9 of the backward stack is pbar and
    slot 5 is xtil.  Also returns the weight inverses "rt1inv",
    "r0inv" and "r0hinv" the maps are built from.
    """
    spec, g = sol.spec, sol.gains
    at = lambda path: path.at(t)

    def rows(gain, off):
        return np.concatenate([at(gain), at(off)], axis=-1)

    D1 = at(spec.D1)
    rt1inv = np.linalg.inv(at(spec.R1) + D1.mT @ at(sol.P) @ D1)
    r0inv, r0hinv = np.linalg.inv(at(spec.R0)), np.linalg.inv(at(spec.R0hat))
    Ph = rows(sol.Phat, sol.phihat)
    return {
        "u1": rt1inv @ rows(g.PM1, g.phiM1),
        "u2": np.linalg.inv(at(MatrixPath(spec.grid, sol.terms.Rbb))) @ rows(g.PM2, g.phiM2),
        "f": (-(2.0 / spec.alpha) * r0inv) @ augment.block_row(9, spec.n) @ Ph,
        "f2": ((2.0 / spec.gamma) * r0hinv) @ augment.block_row(5, spec.n) @ Ph,
        "rt1inv": rt1inv, "r0inv": r0inv, "r0hinv": r0hinv,
    }


@dataclass(frozen=True)
class StrategyOutput:
    """Controls and worst-case disturbances at one (t, state) pair, or
    stacked along a leading axis for arrays of pairs.

    f is the combined disturbance the follower hedges against; f2 is the
    leader-side worst case; the implied follower-side remainder is f - f2.
    """

    u1: np.ndarray
    u2: np.ndarray
    f: np.ndarray
    f2: np.ndarray


def feedback(sol: EquilibriumSolution, Xhat, t) -> StrategyOutput:
    """Evaluate the four equilibrium maps at time t and stacked state Xhat
    (10n,), or at an array of K times and a (K, 10n) stack of states."""
    maps = row_maps(sol, t)
    lead = np.shape(t)
    X = np.asarray(Xhat, dtype=float).reshape(lead + (10 * sol.spec.n,))
    X1 = np.concatenate([X, np.ones(lead + (1,))], axis=-1)[..., None]
    return StrategyOutput(*((maps[s] @ X1)[..., 0] for s in ("u1", "u2", "f", "f2")))


def clamp_nonnegative(s: StrategyOutput) -> StrategyOutput:
    """Entrywise max with zero on the controls only (production semantics);
    disturbances pass through unchanged."""
    return StrategyOutput(
        u1=np.maximum(s.u1, 0.0), u2=np.maximum(s.u2, 0.0), f=s.f, f2=s.f2,
    )


def _quadrature_weights(steps: int) -> np.ndarray:
    """Node weights, in units of the step, of the fourth-order
    end-corrected trapezoidal rule 3/8, 7/6, 23/24, 1, ..., 1, 23/24, 7/6,
    3/8 (Press et al., Numerical Recipes, eq. 4.1.14).  It needs six
    nodes; a grid of fewer than five steps gets the plain trapezoid."""
    w = np.ones(steps + 1)
    ends = (0.5,) if steps < 5 else (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)
    for i, wi in enumerate(ends):
        w[i] = w[-1 - i] = wi
    return w


def value(sol: EquilibriumSolution) -> float:
    """Value of the game at the spec's initial state: quadrature of the
    offset integrand (`_quadrature_weights`) plus the boundary terms

        Xi' L(0) Xi + 2 Xi' psi(0).
    """
    phi1, phi2 = sol.gains.phiM1.samples, sol.gains.phiM2.samples
    Dt, Bt = sol.Dtil.samples, sol.Btil.samples
    integrand = (
        phi1.mT @ sol.terms.R @ phi1 + phi2.mT @ sol.terms.W2 @ phi2
        + Dt.mT @ sol.L.samples @ Dt + 2.0 * Bt.mT @ sol.psi.samples
    )[:, 0, 0]
    grid = sol.spec.grid
    quad = grid.dt * (_quadrature_weights(grid.steps) @ integrand)
    Xi = sol.Xi
    boundary = Xi.T @ sol.L.samples[0] @ Xi + 2.0 * Xi.T @ sol.psi.samples[0]
    return float(quad) + boundary.item()
