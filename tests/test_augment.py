from dataclasses import replace

import numpy as np
import pytest

import robustlq as rl
from robustlq import augment, equilibrium
from robustlq.model import MatrixPath, RegularityError

from conftest import instance_a, random_spec
from oracles import integrand_gains


def const_path(spec, value):
    return MatrixPath.constant(spec.grid, value)


# ---------------------------------------------------------------------------
# selectors


def test_selector_rows_scalar():
    row = lambda slot: augment.block_row(slot, 1)
    assert np.array_equal(row(0), [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]])
    assert np.array_equal(row(0) + row(1), [[1, 1, 0, 0, 0, 0, 0, 0, 0, 0]])
    assert np.array_equal(row(6), [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0]])
    assert np.array_equal(row(9), [[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]])


def test_selector_block_placement_n2():
    row = lambda slot: augment.block_row(slot, 2)
    # slot 7 picks the eighth n-block: columns 15-16 (one-based)
    expect = np.zeros((2, 20))
    expect[:, 14:16] = np.eye(2)
    assert np.array_equal(row(7), expect)
    # slots 0 + 1 (x + xbar) pick columns 1-4 as two identity blocks
    both = np.zeros((2, 20))
    both[:, 0:2] = both[:, 2:4] = np.eye(2)
    assert np.array_equal(row(0) + row(1), both)


# ---------------------------------------------------------------------------
# hat stage


def hat_example_spec():
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=1.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=0.0, R1=1.0, R2=-1.0,
        R0=1.0, R0hat=1.0,
    )


def test_hat_blocks_hand_checked():
    spec = hat_example_spec()
    hat = rl.build_hat(spec, rl.follower_terms(spec, const_path(spec, [[1.0]])))
    assert np.allclose(hat.A1.samples[0], [[0.0, 0.0], [-1.0, 1.0]])
    assert np.allclose(hat.A2.samples[0], [[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(hat.B1.samples[0], [[1.0, -1.0], [1.0, -1.0]])


def test_hat_zero_weights_zero_terminals():
    spec = hat_example_spec()
    hat = rl.build_hat(spec, rl.follower_terms(spec, const_path(spec, [[0.0]])))
    assert np.all(hat.Q.samples == 0.0)
    assert np.all(hat.G == 0.0)


def test_hat_sign_pairing(sol_a):
    hat = equilibrium.stage_blocks(sol_a.spec)["hat"]
    n = sol_a.spec.n
    A1, A2 = hat.A1.samples, hat.A2.samples
    assert np.array_equal(A1[:, :n, :], A2[:, :n, :])
    assert np.array_equal(A1[:, n:, n:], A2[:, n:, n:])
    assert np.array_equal(A1[:, n:, :n], -A2[:, n:, :n])


# ---------------------------------------------------------------------------
# check stage


def test_check_stacks_initial_state():
    spec = rl.build_spec(
        n=2, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0, 1.0],
        G=np.zeros((2, 2)), A=np.zeros((2, 2)), C=np.zeros((2, 2)),
        B1=[[1.0], [0.0]], D1=None, B2=[[1.0], [0.0]], D2=None,
        Q=np.zeros((2, 2)), R1=1.0, R2=-1.0, R0=np.eye(2), R0hat=np.eye(2),
    )
    terms = rl.follower_terms(spec, MatrixPath.zeros(spec.grid, 2, 2))
    check = rl.build_check(spec, terms, rl.build_hat(spec, terms))
    assert np.array_equal(check.xi[:, 0], [1, 1, 1, 1, 0, 0])
    assert np.array_equal(check.Iinj, np.vstack([np.eye(2), np.zeros((4, 2))]))


def test_check_zero_sigma_zero_noise_offset():
    spec = hat_example_spec()
    terms = rl.follower_terms(spec, const_path(spec, [[1.0]]))
    check = rl.build_check(spec, terms, rl.build_hat(spec, terms))
    assert np.all(check.sigma.samples == 0.0)


def test_check_disturbance_offset_formula():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=1.0, C=0.0, B1=1.0, D1=0.5, B2=1.0, D2=0.0, sigma=0.8, f1=0.3,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    P = const_path(spec, [[2.0]])
    terms = rl.follower_terms(spec, P)
    check = rl.build_check(spec, terms, rl.build_hat(spec, terms))
    rt1 = 1.0 + 0.5 * 2.0 * 0.5
    w = 1.0 / rt1 * 0.5 * 2.0 * 0.8  # B1 Rt1^-1 D1' P sigma
    assert np.allclose(check.F1.samples[0][:, 0], [0.3 - w, -w, 0.0])


# ---------------------------------------------------------------------------
# blackboard stage


def test_blackboard_disturbance_corner(sol_a):
    spec = instance_a()
    terms = rl.follower_terms(spec, sol_a.P)
    hat = rl.build_hat(spec, terms)
    check = rl.build_check(spec, terms, hat)
    # gamma = 2 and R0hat = I put the identity in the disturbance corner
    unit = replace(terms, gR=np.broadcast_to(np.eye(spec.n), terms.gR.shape))
    bb = rl.build_blackboard(check, hat, unit)
    n = spec.n
    assert np.allclose(bb.B1.samples[0][:n, :n], np.eye(n))
    assert np.all(bb.B1.samples[0][:3 * n, n:3 * n] == 0.0)


def test_blackboard_zero_weights(sol_homog):
    bb = equilibrium.stage_blocks(sol_homog.spec)["blackboard"]
    assert np.all(bb.Q.samples == 0.0)
    assert np.all(bb.G == 0.0)


def test_blackboard_sigma_stacking(sol_a):
    blocks = equilibrium.stage_blocks(sol_a.spec)
    bb, check = blocks["blackboard"], blocks["check"]
    n = sol_a.spec.n
    assert np.array_equal(bb.Sigma.samples[:, :3 * n], check.sigma.samples)
    assert np.all(bb.Sigma.samples[:, 3 * n:] == 0.0)


# ---------------------------------------------------------------------------
# leader cost weights


def test_weights_no_diffusion_coupling():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=0.2, C=0.1, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=1.0, R1=2.0, R2=-1.0,
        R0=1.0, R0hat=1.0,
    )
    P = const_path(spec, [[0.7]])
    w = rl.build_cost_weights(spec, rl.follower_terms(spec, P))
    assert np.allclose(w.R.samples, 0.5)      # R1^{-1} when D1 = 0
    assert np.allclose(w.Rbb.samples, -1.0)   # R2 when D2 = 0
    for name in ("M1", "L1", "S2", "M2", "L2", "S3", "M3", "L3"):
        assert np.all(getattr(w, name).samples == 0.0), name
    assert np.any(w.S1.samples != 0.0)


def test_weights_indefinite_follower_weight():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=0.0, C=0.0, B1=1.0, D1=1.0, B2=1.0, D2=1.0, Q=0.0, R1=-1.0, R2=1.0,
        R0=1.0, R0hat=1.0,
    )
    P = const_path(spec, [[2.0]])
    w = rl.build_cost_weights(spec, rl.follower_terms(spec, P))
    # Rt1 = -1 + 2 = 1, R = 1 * (-1) * 1 = -1, Rbb = 1 + (2)^2 (-1) = -3
    assert np.allclose(w.R.samples, -1.0)
    assert np.allclose(w.Rbb.samples, -3.0)


def test_weights_reject_positive_leader_weight():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=0.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=0.0, R1=1.0, R2=1.0,
        R0=1.0, R0hat=1.0,
    )
    with pytest.raises(RegularityError):
        rl.follower_terms(spec, const_path(spec, [[0.0]]))


# ---------------------------------------------------------------------------
# doublehat stage


def _synthetic_bb_weights(n=1, m2=1, N=4):
    grid = rl.make_grid(1.0, N)
    z = lambda r, c: MatrixPath.zeros(grid, r, c)
    five = 5 * n
    F2 = MatrixPath.constant(grid, np.vstack([np.zeros((4 * n, m2)),
                                              np.full((n, m2), 2.0)]))
    bb = augment.BlackboardStage(
        n=n, m2=m2, A=z(five, five), C=z(five, five), B1=z(five, five),
        B2=z(five, m2), B3=z(five, five), D1=z(five, five), D2=z(five, m2),
        D3=z(five, five), F1=z(five, 1), F2=F2, Sigma=z(five, 1),
        Upsilon=z(five, 1), Q=z(five, five), G=np.zeros((five, five)),
        Xi=np.zeros((five, 1)),
    )
    w = augment.LeaderCostWeights(
        n=n, m1=1, m2=m2, R=z(1, 1), Rbb=MatrixPath.constant(grid, -np.eye(m2)),
        Qbar=z(five, five), Bbar=z(five, five), Dbar=z(five, five),
        Gbar=np.zeros((five, five)), S1=z(five, five), M1=z(five, five),
        L1=z(five, five), S2=z(m2, five), M2=z(m2, five), L2=z(m2, five),
        S3=z(n, five), M3=z(n, five), L3=z(n, five), cross=z(m2, 1),
        sigma=z(n, 1),
    )
    return bb, w


def test_doublehat_zero_propagation_structure():
    bb, w = _synthetic_bb_weights()
    dh = rl.build_doublehat(bb, w, np.linalg.inv(w.Rbb.samples))
    five = 5
    Q = dh.Q.samples[0]
    assert np.all(Q[:five, :] == 0.0) and np.all(Q[five:, :five] == 0.0)
    # only the F2 R^{-1} F2' block survives: -F2 F2' with Rbb = -I
    F2 = bb.F2.samples[0]
    assert np.allclose(Q[five:, five:], -F2 @ F2.T)


def test_doublehat_sign_pairing(sol_a):
    dh = sol_a.dh
    half = 5 * sol_a.spec.n
    for one, two in ((dh.A1.samples, dh.A2.samples), (dh.C1.samples, dh.C2.samples)):
        assert np.array_equal(one[:, :half, :half], two[:, :half, :half])
        assert np.array_equal(one[:, half:, half:], two[:, half:, half:])
        assert np.array_equal(one[:, :half, half:], -two[:, :half, half:])
        assert np.array_equal(one[:, half:, :half], -two[:, half:, :half])


def test_doublehat_xi_stacking(sol_a):
    half = 5 * sol_a.spec.n
    bb = equilibrium.stage_blocks(sol_a.spec)["blackboard"]
    assert np.array_equal(sol_a.dh.Xi[:half], bb.Xi)
    assert np.all(sol_a.dh.Xi[half:] == 0.0)


def test_stage_dimension_audit():
    spec = random_spec(21, 2, N=6)
    P = rl.solve_riccati_follower(spec).P
    terms = rl.follower_terms(spec, P)
    hat = rl.build_hat(spec, terms)
    check = rl.build_check(spec, terms, hat)
    bb = rl.build_blackboard(check, hat, terms)
    w = rl.build_cost_weights(spec, terms)
    dh = rl.build_doublehat(bb, w, terms.Rbbinv)
    n = 2
    assert hat.A1.shape == (2 * n, 2 * n)
    assert check.A.shape == (3 * n, 3 * n) and check.Q.shape == (2 * n, 3 * n)
    assert bb.A.shape == (5 * n, 5 * n)
    assert dh.A1.shape == (10 * n, 10 * n) and dh.G.shape == (10 * n, 10 * n)


def test_zero_propagation_homogeneous(sol_homog):
    blocks = equilibrium.stage_blocks(sol_homog.spec)
    hat, check, bb, dh = blocks["hat"], blocks["check"], blocks["blackboard"], sol_homog.dh
    for path in (hat.b, hat.sigma, hat.v, check.F1, bb.F1, bb.Upsilon,
                 dh.F, dh.Sigma, dh.Upsilon):
        assert np.all(path.samples == 0.0)
    for term in (hat.G, check.G, bb.G, dh.G):
        assert np.all(term == 0.0)


# ---------------------------------------------------------------------------
# gain maps


def test_gain_map_matches_componentwise_formula(sol_a):
    """The leader map must reproduce the term-by-term stationarity formula
    evaluated through the decoupled representation, on random states."""
    spec = sol_a.spec
    n = spec.n
    rng = np.random.default_rng(8)
    worst = 0.0
    Es, es = integrand_gains(sol_a)
    for _ in range(25):
        k = int(rng.integers(0, len(spec.grid)))
        X = rng.standard_normal((10 * n, 1))
        Y = sol_a.Phat.samples[k] @ X + sol_a.phihat.samples[k]
        Z = Es[k] @ X + es[k]
        blk = lambda vec, i: vec[i * n:(i + 1) * n]
        P = sol_a.P.samples[k]
        B1, D1 = spec.B1.samples[k], spec.D1.samples[k]
        B2, D2 = spec.B2.samples[k], spec.D2.samples[k]
        C, sig = spec.C.samples[k], spec.sigma.samples[k]
        Rt1inv = np.linalg.inv(spec.R1.samples[k] + D1.T @ P @ D1)
        R = Rt1inv @ spec.R1.samples[k] @ Rt1inv
        K = B1.T @ P + D1.T @ P @ C
        DPD1 = D2.T @ P @ D1
        term = ((B2.T - DPD1 @ Rt1inv @ B1.T) @ (blk(Y, 0) + blk(Y, 1))
                + (D2.T - DPD1 @ Rt1inv @ D1.T) @ (blk(Z, 0) + blk(Z, 1))
                + (B2.T @ P + D2.T @ P @ C - DPD1 @ Rt1inv @ K) @ blk(X, 8)
                - DPD1 @ R @ K @ blk(X, 1)
                + DPD1 @ R @ B1.T @ blk(Y, 8)
                + DPD1 @ R @ D1.T @ blk(Z, 8)
                - DPD1 @ R @ D1.T @ P @ sig)
        via_map = sol_a.gains.PM2.samples[k] @ X + sol_a.gains.phiM2.samples[k]
        worst = max(worst, float(np.abs(term - via_map).max()
                                 / (1.0 + np.abs(via_map).max())))
    assert worst <= 1e-10


def test_gain_maps_zero_for_homogeneous(sol_homog):
    g = sol_homog.gains
    for path in (g.PM1, g.PM2, g.phiM1, g.phiM2):
        assert np.all(path.samples == 0.0)


def test_gain_map_no_diffusion_reduction():
    """With C = D1 = D2 = 0 the leader map collapses to B2'M3 Phat + B2'P M7."""
    from conftest import instance_b
    spec = instance_b(N=64)
    sol = rl.solve_game(spec)
    M3 = augment.block_row(0, 1) + augment.block_row(1, 1)
    M7 = augment.block_row(8, 1)
    for k in (0, 32, 64):
        B2 = spec.B2.samples[k]
        P = sol.P.samples[k]
        expect = B2.T @ M3 @ sol.Phat.samples[k] + B2.T @ P @ M7
        assert np.allclose(sol.gains.PM2.samples[k], expect, atol=1e-12)
