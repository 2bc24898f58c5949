"""Game instances of the benchmark, generated here rather than imported
from the test suite.

`random_game` reproduces the suite's `random_spec` draw for draw, so the
`solve` workload runs the roadmap's fixed random instances.
`instance_a` (every diffusion coupling on) and `instance_b`
(diffusion-free, so the boundary-value oracle applies) are the suite's
two Monte Carlo instances.
"""

from __future__ import annotations

import numpy as np

import robustlq as rl


def random_game(seed: int, n: int, T: float = 1.0, N: int = 800):
    """Random validated game with time-varying drift and state weight."""
    rng = np.random.default_rng(seed)

    def mat(r, c, scale):
        return scale * rng.standard_normal((r, c))

    A0 = mat(n, n, 0.35) - 0.2 * np.eye(n)
    A1 = mat(n, n, 0.15)
    q0 = mat(n, n, 0.5)
    Q0 = 0.5 * q0 @ q0.T + 0.2 * np.eye(n)
    g0 = mat(n, n, 0.4)
    G = 0.4 * g0 @ g0.T
    C = mat(n, n, 0.25)
    D1 = mat(n, 1, 0.3)
    D2 = mat(n, 1, 0.3)
    return rl.build_spec(
        n=n, m1=1, m2=1, T=T, N=N,
        alpha=4.0 + 4.0 * rng.random(), gamma=4.0 + 4.0 * rng.random(),
        xi=rng.standard_normal(n), G=G,
        A=lambda t: A0 + (t / T) * A1,
        C=C,
        B1=mat(n, 1, 0.7), D1=D1, B2=mat(n, 1, 0.7), D2=D2,
        sigma=mat(n, 1, 0.3), f1=mat(n, 1, 0.3),
        Q=lambda t: Q0 * (1.0 + 0.3 * t / T),
        R1=0.7 + 0.5 * rng.random(),
        R2=-(0.7 + 0.5 * rng.random()),
        R0=(0.8 + 0.4 * rng.random()) * np.eye(n),
        R0hat=(0.8 + 0.4 * rng.random()) * np.eye(n),
    )


def instance_a(N: int = 200):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=N, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.5]],
        A=0.3, C=0.2, B1=1.0, D1=0.4, B2=1.0, D2=0.3, sigma=0.4, f1=0.2,
        Q=1.0, R1=0.8, R2=-1.2, R0=1.0, R0hat=1.0,
    )


def instance_b(N: int = 256):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=0.5, N=N, alpha=10.0, gamma=10.0, xi=[1.0], G=[[0.1]],
        A=0.2, C=0.0, B1=0.6, D1=0.0, B2=0.6, D2=0.0, sigma=0.3, f1=0.1,
        Q=0.4, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
