"""Independent oracles that only the tests read: the scalar follower
equation of the production-supply game, the fundamental-matrix closed
form of fraction-free Riccati equations, the finite-difference
residual of a solved path against its right-hand side, the martingale
integrand gains of a solved game, the unified Riccati march that
reads and multiplies every coefficient on its own, a stage offset
marched as trailing columns of its Riccati path, and the Euler loop of
`simulate` on the full 10n state."""

from dataclasses import replace

import numpy as np

import robustlq as rl
from robustlq import augment, backward, montecarlo
from robustlq.model import MatrixPath, RegularityError, frobenius


def scalar_bode(a: float, c: float, q: float, g: float, r1: float,
                T: float, N: int, delta: float = 1e-8) -> MatrixPath:
    """Follower Riccati path of the scalar production-supply game (A = 1 - a,
    C = c, B1 = D1 = 1, Q = q, R1 = r1, G = g), with r1 + P >= delta:

        P' + [2(1-a) + c^2] P - P^2 (1+c)^2 / (r1 + P) + q = 0,  P(T) = g.

    `robustlq example` writes this path of its arguments as bode.csv.
    """
    spec = rl.build_spec(n=1, m1=1, m2=1, T=T, N=N, alpha=1.0, gamma=1.0, xi=[0.0], G=[[g]],
                         A=1.0 - a, C=c, B1=1.0, D1=1.0, Q=q, R1=r1)
    return backward.solve_riccati_follower(spec, delta).P


def closed_form_special_case(prob: backward.RiccatiProblem,
                             cond_limit: float = 1e12) -> backward.RiccatiSolution:
    """Closed-form solution of the fraction-free Riccati equation via the
    fundamental matrix of its linear Hamiltonian flow: P - Pterm solves a
    quadratic equation with zero terminal value, the linear-fractional
    image of the 2d x 2d flow

        M(t) = [[A1 + B1 Pterm,                        B1       ],
                [-(Pterm A1 + A2^T Pterm + Pterm B1 Pterm - Q),  -(A2^T + Pterm B1)]].

    With Theta' = -Theta M(t), Theta(T) = I swept backward,
    P(t) = Pterm - Theta22(t)^{-1} Theta21(t).  With a diffusion-free game
    the disturbance and Lyapunov problems have this form too.
    """
    if not prob.vanishes("C1", "C2", "B2", "D1", "D2"):
        raise RegularityError("closed-form solution requires the fraction coefficients to vanish")
    d = prob.terminal.shape[0]
    Pterm = prob.terminal
    A1, A2, B1, Q = (p.at(prob.grid.nodes) for p in (prob.A1, prob.A2, prob.B1, prob.Q))
    qshift = Pterm @ A1 + A2.mT @ Pterm + Pterm @ B1 @ Pterm - Q
    M = MatrixPath(prob.grid, np.block([[A1 + B1 @ Pterm, B1], [-qshift, -(A2.mT + Pterm @ B1)]]))
    th = backward.integrate_backward(lambda j, Th: -Th @ M.half(j), np.eye(2 * d),
                                     prob.grid).samples
    rconds = backward._rcond(th[:, d:, d:])
    bad = np.flatnonzero(rconds < 1.0 / cond_limit)
    if bad.size:
        k = int(bad[0])
        raise RegularityError(
            f"corner block of the fundamental matrix is ill conditioned at node {k} "
            f"(rcond={rconds[k]:.2e})",
            node=k,
        )
    out = Pterm - np.linalg.solve(th[:, d:, d:], th[:, d:, :d])
    return backward.RiccatiSolution(P=MatrixPath(prob.grid, out),
                                    regularity={"corner_rcond": rconds})


def derivative_4th_order(samples: np.ndarray, dt: float) -> np.ndarray:
    """Entrywise 4th-order finite-difference time derivative of node samples."""
    K = samples.shape[0] - 1
    if K < 4:
        raise ValueError("need at least 5 nodes for the 4th-order stencil")
    d = np.empty_like(samples)
    s = samples
    d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * dt)
    d[0] = (-25.0 * s[0] + 48.0 * s[1] - 36.0 * s[2] + 16.0 * s[3] - 3.0 * s[4]) / (12.0 * dt)
    d[1] = (-3.0 * s[0] - 10.0 * s[1] + 18.0 * s[2] - 6.0 * s[3] + s[4]) / (12.0 * dt)
    d[-2] = (3.0 * s[-1] + 10.0 * s[-2] - 18.0 * s[-3] + 6.0 * s[-4] - s[-5]) / (12.0 * dt)
    d[-1] = (-25.0 * s[-1] + 48.0 * s[-2] - 36.0 * s[-3] + 16.0 * s[-4] - 3.0 * s[-5]) / (-12.0 * dt)
    return d


def riccati_residuals(rhs, P: MatrixPath) -> np.ndarray:
    """Per-node Frobenius residual of P against its equation.

    `rhs(j, P)` must return the time derivative the equation prescribes,
    here for all nodes at once (their half steps 2k and the stack of
    samples); the residual compares it with a 4th-order finite-difference
    derivative of the solved node samples.
    """
    deriv = derivative_4th_order(P.samples, P.grid.dt)
    return frobenius(deriv - rhs(2 * np.arange(len(P.grid)), P.samples))


def integrand_gains(sol):
    """(E, e) with Z = E X + e at the nodes of a solved game: `decoupling`
    of [Phat | phihat] under the 10n stage's offset form."""
    prob = rl.ensure_diagnostics(sol).dh.problem(offset=True)
    Ee = augment.decoupling(np.concatenate([sol.Phat.samples, sol.phihat.samples], axis=-1),
                            *(getattr(prob, name).samples for name in backward.LEFT))[0]
    return Ee[..., :sol.Phat.rows], Ee[..., sol.Phat.rows:]


def separate_read_march(prob: backward.RiccatiProblem) -> MatrixPath:
    """The march of the unified Riccati equation of prob that reads every
    coefficient on its own (`path.half(j)`) at every stage and forms one
    product per term, skipping the terms `prob.terms()` skips: the
    solver's march on a coefficient table, without the table."""
    quad, fraction, solve = prob.terms()
    d = prob.terminal.shape[0]
    eye = np.eye(d)

    def rhs(j, P):
        read = lambda name: getattr(prob, name).half(j)
        S = P[:, :d]
        val = S @ read("A1") + read("A2").T @ P
        if quad:
            val = val + S @ read("B1") @ P
        val = val - read("Q")
        if solve:
            inner = S @ read("C1") + S @ read("D1") @ P
            val = val + (read("C2").T + S @ read("B2")) @ np.linalg.solve(
                eye - S @ read("D2"), inner)
        elif fraction:
            val = val + read("C2").T @ (S @ read("C1"))
        return -val

    return backward.integrate_backward(rhs, prob.terminal, prob.grid)


def joint_offset_march(prob: backward.RiccatiProblem, u: MatrixPath, drift: MatrixPath,
                       diff: MatrixPath, adj: MatrixPath | None = None) -> MatrixPath:
    """The offset of prob driven by the control path u, as
    `backward._decoupled_offset` defines it, marched with its Riccati path
    as [P | phi] on the shared right-hand side
    `backward.generalized_riccati_rhs`: drift u, diff u and adj u (0 for
    an adj None) are trailing columns of A1, C1 and Q, and the march
    starts from [terminal | 0]."""
    grid, d, cols = prob.grid, prob.terminal.shape[0], u.shape[1]
    source = lambda coef: (np.zeros((len(grid), d, cols)) if coef is None
                           else coef.samples @ u.samples)
    joint = lambda path, coef: MatrixPath(grid, np.concatenate([path.samples, source(coef)],
                                                               axis=-1))
    prob = backward.tabled(replace(prob, A1=joint(prob.A1, drift), C1=joint(prob.C1, diff),
                                   Q=joint(prob.Q, adj),
                                   terminal=np.hstack([prob.terminal, np.zeros((d, cols))])))
    P = backward.solve_riccati_generalized(prob).P
    return MatrixPath(grid, P.samples[..., d:])


def full_state_simulate(sol, cfg):
    """(terminal, costs by criterion) of `simulate(sol, cfg)` from an Euler
    loop that steps every coordinate of the 10n state: the block-by-block
    loop of `montecarlo._run` on step matrices formed in one run with all
    of X live, one product of the whole augmented state and an in-place
    move per step, path block after path block."""
    pre = montecarlo._precompute_base(sol, cfg.substeps)
    m, S, B = len(pre["x0"]), pre["steps"], montecarlo.PATH_BLOCK
    pre["live"] = np.ones(m, dtype=bool)
    # forms of a run of any length are bit for bit the rows of shorter runs
    K, coefs, _ = montecarlo._forms(pre, (), slice(0, S))
    steps = [(Kj, coefs) for Kj in K]
    K, coefs, _ = montecarlo._forms(pre, (), None)
    steps.append((K[0], coefs))  # the terminal costs, with no move
    terminal, costs = np.empty((cfg.paths, m)), np.empty((len(pre["criteria"]), cfg.paths))
    for first in range(0, cfg.paths, B):
        width = min(B, cfg.paths - first)
        dW = montecarlo.path_increments(cfg.seed, first, width, S, pre["dt"])
        X1 = np.ones((m + 1, width))
        X1[:m] = pre["x0"][:, None]
        cost = np.zeros((len(costs), width))
        for k, (Kk, coefs) in enumerate(steps):
            rows = coefs.shape[1]
            Y = Kk @ X1
            cost += coefs @ (Y[2 * m:2 * m + rows] * Y[2 * m + rows:2 * m + 2 * rows])
            if k < S:
                X1[:m] += Y[:m]
                Y[m:2 * m] *= dW[:, k]
                X1[:m] += Y[m:2 * m]
        terminal[first:first + width], costs[:, first:first + width] = X1[:m].T, cost
    return terminal, dict(zip(pre["criteria"], costs))
