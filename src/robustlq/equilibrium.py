"""Pipeline orchestration: from a validated game spec to the robust
Stackelberg equilibrium in state-feedback form, plus the value function.

solve_game runs the full cascade:

  1. follower Riccati P and disturbance Riccati P1,
  2. hat / check / blackboard / doublehat stage construction,
  3. Hamiltonian-stage Riccati Phat and its offset phihat,
  4. feedback gain maps, closed-loop coefficients,
  5. Lyapunov path L and value offset psi.

Everything is deterministic: identical specs produce bit-identical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augment, backward
from .model import (BlowUpError, GameSpec, MatrixPath, RegularityError,
                    SpecError, make_grid, validate_spec)


def riccati_problem_hat(hat: augment.HatStage) -> backward.RiccatiProblem:
    """Unified-form coefficients of the follower-stage (2n) Riccati equation."""
    return backward.RiccatiProblem(
        grid=hat.A1.grid, A1=hat.A1, A2=hat.A2, B1=hat.B1, Q=hat.Q,
        terminal=hat.G, C1=hat.C, C2=hat.C, B2=hat.B3, D1=hat.D1, D2=hat.D3,
    )


def riccati_problem_blackboard(bb: augment.BlackboardStage) -> backward.RiccatiProblem:
    """Unified-form coefficients of the leader-stage (5n) Riccati equation."""
    return backward.RiccatiProblem(
        grid=bb.A.grid, A1=bb.A, A2=bb.A, B1=bb.B1, Q=bb.Q,
        terminal=bb.G, C1=bb.C, C2=bb.C, B2=bb.B3, D1=bb.D1, D2=bb.D3,
    )


def riccati_problem_hamiltonian(dh: augment.DoubleHatStage) -> backward.RiccatiProblem:
    """Unified-form coefficients of the Hamiltonian-stage (10n) Riccati
    equation, with the two-sided C1/C2 split."""
    return backward.RiccatiProblem(
        grid=dh.A1.grid, A1=dh.A1, A2=dh.A2, B1=dh.B1, Q=dh.Q,
        terminal=dh.G, C1=dh.C1, C2=dh.C2, B2=dh.B2, D1=dh.D1, D2=dh.D2,
    )


def build_closed_loop(dh: augment.DoubleHatStage, Phat: MatrixPath,
                      phihat: MatrixPath, E: np.ndarray, e: np.ndarray):
    """Closed-loop drift/diffusion coefficients of the equilibrium state,

        dX = (Atil X + Btil) dt + (Ctil X + Dtil) dW,

    from the decoupling gains (E, e) of `augment.decoupling_terms`.
    """
    P, ph = Phat.samples, phihat.samples
    mp = lambda s: MatrixPath(dh.A1.grid, s)
    return (mp(dh.A1.samples + dh.B1.samples @ P + dh.B2.samples @ E),
            mp(dh.B1.samples @ ph + dh.B2.samples @ e + dh.F.samples),
            mp(dh.C1.samples + dh.D1.samples @ P + dh.D2.samples @ E),
            mp(dh.D1.samples @ ph + dh.D2.samples @ e + dh.Sigma.samples))


@dataclass
class EquilibriumSolution:
    """All ingredients of the state-feedback equilibrium on one grid."""

    spec: GameSpec
    delta: float
    P: MatrixPath
    P1: MatrixPath
    Phat: MatrixPath
    phihat: MatrixPath
    L: MatrixPath
    psi: MatrixPath
    gains: augment.GainMaps
    sel: augment.SelectorSet
    Atil: MatrixPath
    Btil: MatrixPath
    Ctil: MatrixPath
    Dtil: MatrixPath
    hat: augment.HatStage
    check: augment.CheckStage
    bb: augment.BlackboardStage
    weights: augment.LeaderCostWeights
    dh: augment.DoubleHatStage
    terms: augment.FollowerTerms
    regularity: dict = field(default_factory=dict)
    P2: MatrixPath | None = None
    P3: MatrixPath | None = None

    @property
    def grid(self):
        return self.spec.grid

    def rtilde1_at(self, t: float) -> np.ndarray:
        D1 = self.spec.D1.at(t)
        return self.spec.R1.at(t) + D1.T @ self.P.at(t) @ D1

    def rbb_at(self, t: float) -> np.ndarray:
        return self.weights.Rbb.at(t)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RegularityError, BlowUpError) as exc:
        exc.args = (f"[stage {name}] {exc.args[0]}",) + exc.args[1:]
        raise


def solve_game(spec: GameSpec, delta: float = 1e-8,
               diagnostics: bool = False) -> EquilibriumSolution:
    """Run the full solver cascade on a validated spec.

    Raises SpecError when validation fails, RegularityError or BlowUpError
    (tagged with the failing stage) when a solvability condition breaks
    down.  With diagnostics=True the intermediate-stage Riccati paths P2
    and P3 are solved as well; they are not needed for the equilibrium
    itself.
    """
    report = validate_spec(spec, delta)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise SpecError(f"spec validation failed: {names}")

    Psol = _stage("follower riccati", backward.solve_riccati_follower, spec, delta)
    P1sol = _stage("disturbance riccati", backward.solve_riccati_disturbance, spec)
    P = Psol.P

    # Rbb is formed and checked with the follower terms, so a leader weight
    # that fails keeps the stage name of the weights it belongs to
    terms = _stage("leader cost weights", augment.follower_terms, spec, P, delta)
    hat = augment.build_hat(spec, terms)
    check = augment.build_check(spec, terms)
    bb = augment.build_blackboard(check, hat, spec.gamma, spec.R0hat)
    weights = augment.build_cost_weights(spec, terms)
    dh = augment.build_doublehat(bb, weights, terms.Rbbinv)

    Phsol = _stage("hamiltonian riccati", backward.solve_riccati_generalized,
                   riccati_problem_hamiltonian(dh))
    Phat = Phsol.P
    phihat = _stage("hamiltonian offset", backward.solve_offset_b4, dh, Phat).phi

    sel = augment.selectors(spec.n)
    E, e = _stage("gain maps", augment.decoupling_terms, dh, Phat, phihat)
    gains = augment.build_gain_maps(spec, terms, sel, Phat, phihat, E, e)
    Atil, Btil, Ctil, Dtil = build_closed_loop(dh, Phat, phihat, E, e)

    grid = spec.grid
    PM1, PM2 = gains.PM1.samples, gains.PM2.samples
    PM1T, PM2T = PM1.transpose(0, 2, 1), PM2.transpose(0, 2, 1)
    lyap_src = (sel.M1.T @ spec.Q.samples @ sel.M1
                + PM1T @ terms.R @ PM1 + PM2T @ terms.W2 @ PM2)
    psi_src = (PM1T @ terms.R @ gains.phiM1.samples
               + PM2T @ terms.W2 @ gains.phiM2.samples)

    Lterm = sel.M1.T @ spec.G @ sel.M1
    L = _stage("lyapunov", backward.solve_lyapunov, Atil, Ctil,
               MatrixPath(grid, lyap_src), Lterm, grid)
    psi = _stage("value offset", backward.solve_value_offset, Atil, Ctil, Btil,
                 Dtil, L, MatrixPath(grid, psi_src), grid).phi

    regularity = dict(Psol.regularity)
    regularity.update({f"hamiltonian_{k}": v for k, v in Phsol.regularity.items()})

    sol = EquilibriumSolution(
        spec=spec, delta=delta, P=P, P1=P1sol.P, Phat=Phat, phihat=phihat,
        L=L, psi=psi, gains=gains, sel=sel, Atil=Atil, Btil=Btil, Ctil=Ctil,
        Dtil=Dtil, hat=hat, check=check, bb=bb, weights=weights, dh=dh,
        terms=terms, regularity=regularity,
    )
    if diagnostics:
        ensure_diagnostics(sol)
    return sol


def ensure_diagnostics(sol: EquilibriumSolution) -> EquilibriumSolution:
    """Solve the intermediate-stage Riccati paths P2 (2n) and P3 (5n) on
    demand; P3 also drives the leader-deviation responses in verification."""
    if sol.P2 is None:
        sol.P2 = _stage("intermediate riccati P2", backward.solve_riccati_generalized,
                        riccati_problem_hat(sol.hat)).P
    if sol.P3 is None:
        sol.P3 = _stage("intermediate riccati P3", backward.solve_riccati_generalized,
                        riccati_problem_blackboard(sol.bb)).P
    return sol


_SKELETON_BLOCK = 64  # RK4 steps whose stage coefficients are sampled at once


def skeleton(sol: EquilibriumSolution) -> np.ndarray:
    """Noise-free closed-loop state on the spec grid, (N+1, 10n): RK4 on
    dX = (Atil X + Btil) dt from the stacked initial state."""
    grid = sol.spec.grid
    out = np.empty((len(grid), sol.dh.Xi.shape[0]))
    out[0] = sol.dh.Xi[:, 0]
    h = grid.dt
    offsets = np.array([0.0, 0.5, 1.0]) * h

    for k in range(grid.steps):
        j = k % _SKELETON_BLOCK
        if j == 0:  # sample a block of steps at a time, so memory stays bounded
            stages = grid.nodes[:-1][k:k + _SKELETON_BLOCK, None] + offsets
            A, b = sol.Atil.at(stages), sol.Btil.at(stages)[..., 0]
        x = out[k]
        k1 = A[j, 0] @ x + b[j, 0]
        k2 = A[j, 1] @ (x + 0.5 * h * k1) + b[j, 1]
        k3 = A[j, 1] @ (x + 0.5 * h * k2) + b[j, 1]
        k4 = A[j, 2] @ (x + h * k3) + b[j, 2]
        out[k + 1] = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


@dataclass(frozen=True)
class StrategyOutput:
    """Controls and worst-case disturbances at one (t, state) pair.

    f is the combined disturbance the follower hedges against; f2 is the
    leader-side worst case; the implied follower-side remainder is f - f2.
    """

    u1: np.ndarray
    u2: np.ndarray
    f: np.ndarray
    f2: np.ndarray


def feedback(sol: EquilibriumSolution, Xhat, t: float) -> StrategyOutput:
    """Evaluate the four equilibrium maps at time t and stacked state Xhat."""
    spec = sol.spec
    X = np.asarray(Xhat, dtype=float).reshape(10 * spec.n, 1)
    g = sol.gains
    u1 = np.linalg.solve(sol.rtilde1_at(t), g.PM1.at(t) @ X + g.phiM1.at(t))
    u2 = np.linalg.solve(sol.rbb_at(t), g.PM2.at(t) @ X + g.phiM2.at(t))
    Yhat = sol.Phat.at(t) @ X + sol.phihat.at(t)
    pbar = sol.sel.row_pbar @ Yhat
    xtil = sol.sel.row_xtil @ Yhat
    f = -(2.0 / spec.alpha) * np.linalg.solve(spec.R0.at(t), pbar)
    f2 = (2.0 / spec.gamma) * np.linalg.solve(spec.R0hat.at(t), xtil)
    return StrategyOutput(u1=u1[:, 0], u2=u2[:, 0], f=f[:, 0], f2=f2[:, 0])


def clamp_nonnegative(s: StrategyOutput) -> StrategyOutput:
    """Entrywise max with zero on the controls only (production semantics);
    disturbances pass through unchanged."""
    return StrategyOutput(
        u1=np.maximum(s.u1, 0.0), u2=np.maximum(s.u2, 0.0), f=s.f, f2=s.f2,
    )


def value(sol: EquilibriumSolution) -> float:
    """Value of the game at the spec's initial state: trapezoidal quadrature
    of the offset integrand plus the boundary terms

        Xi' L(0) Xi + 2 Xi' psi(0).
    """
    tr = lambda a: a.transpose(0, 2, 1)
    phi1, phi2 = sol.gains.phiM1.samples, sol.gains.phiM2.samples
    Dt, Bt = sol.Dtil.samples, sol.Btil.samples
    integrand = (
        tr(phi1) @ sol.terms.R @ phi1 + tr(phi2) @ sol.terms.W2 @ phi2
        + tr(Dt) @ sol.L.samples @ Dt + 2.0 * tr(Bt) @ sol.psi.samples
    )[:, 0, 0]
    quad = np.trapezoid(integrand, sol.spec.grid.nodes)
    Xi = sol.dh.Xi
    boundary = Xi.T @ sol.L.samples[0] @ Xi + 2.0 * Xi.T @ sol.psi.samples[0]
    return float(quad) + boundary.item()


def scalar_bode(a: float, c: float, q: float, g: float, r1: float,
                T: float, N: int, delta: float = 1e-8) -> MatrixPath:
    """Follower Riccati path of the scalar production-supply game:

        P' + [2(1-a) + c^2] P - P^2 (1+c)^2 / (r1 + P) + q = 0,  P(T) = g,

    with r1 + P monitored against delta along the backward march.
    """
    grid = make_grid(T, N)
    lin = 2.0 * (1.0 - a) + c * c
    gain = (1.0 + c) ** 2

    def rhs(t, Pm):
        p = Pm[0, 0]
        den = r1 + p
        if den < delta:
            raise RegularityError(
                f"control weight r1 + P dropped below {delta:.1e} at t={t:.6g}"
            )
        frac = p * p * gain / den
        return np.array([[-(lin * p - frac + q)]])

    return backward.integrate_backward(rhs, np.array([[g]]), grid)
