from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import robustlq as rl
from robustlq import augment, backward, equilibrium
from robustlq.model import BlowUpError, MatrixPath, RegularityError

from conftest import instance_a, instance_b, random_spec
from oracles import (closed_form_special_case, derivative_4th_order, joint_offset_march,
                     riccati_residuals, separate_read_march)


def scalar_spec(**kw):
    base = dict(n=1, m1=1, m2=1, T=1.0, N=200, alpha=2.0, gamma=2.0, xi=[0.0],
                G=[[0.0]], A=0.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0,
                Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0)
    base.update(kw)
    return rl.build_spec(**base)


# ---------------------------------------------------------------------------
# RK4 backward integrator


def test_zero_rhs_gives_constant_path():
    grid = rl.make_grid(1.0, 8)
    path = backward.integrate_backward(lambda t, m: np.zeros_like(m), np.eye(2), grid)
    assert np.array_equal(path.samples, np.broadcast_to(np.eye(2), (9, 2, 2)))


def test_linear_rhs_exact():
    grid = rl.make_grid(1.0, 10)
    path = backward.integrate_backward(lambda t, m: np.array([[-1.0]]), np.array([[0.0]]), grid)
    assert path.samples[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
    assert path.samples[-1, 0, 0] == 0.0


def test_scalar_linear_ode_closed_form():
    # p' + 2p + 1 = 0, p(2) = 1  =>  p(0) = 1.5 e^4 - 0.5
    grid = rl.make_grid(2.0, 2000)
    path = backward.integrate_backward(lambda t, m: -2.0 * m - 1.0, np.array([[1.0]]), grid)
    expect = 1.5 * np.exp(4.0) - 0.5
    assert path.samples[0, 0, 0] == pytest.approx(expect, rel=1e-8)


def test_half_step_times_exact_on_cubic():
    # M' = 3 t^2 + 1 at t = j dt/2: RK4 integrates a cubic exactly, so a
    # wrong half step to time mapping shows at once
    grid = rl.make_grid(1.3, 7)
    path = backward.integrate_backward(
        lambda j, m: np.array([[3.0 * (j * grid.dt / 2) ** 2 + 1.0]]), np.array([[0.0]]), grid)
    t = grid.nodes
    expect = t ** 3 + t - (1.3 ** 3 + 1.3)
    assert np.allclose(path.samples[:, 0, 0], expect, rtol=0.0, atol=1e-14)


def test_blowup_reports_node():
    # p' = -p^2 with p(1) = 2 escapes at t = 1/2 marching backward
    grid = rl.make_grid(1.0, 64)
    with pytest.raises(BlowUpError) as err:
        backward.integrate_backward(lambda t, m: -m * m, np.array([[2.0]]), grid)
    assert err.value.node is not None


# ---------------------------------------------------------------------------
# follower Riccati


def test_follower_zero_weights_zero_solution():
    spec = scalar_spec(Q=0.0, G=[[0.0]])
    sol = backward.solve_riccati_follower(spec)
    assert np.all(sol.P.samples == 0.0)
    assert np.allclose(sol.regularity["rtilde1_min_eig"], 1.0)


def test_follower_scalar_separable():
    # P' = P^2, P(1) = 1  =>  P(0) = 1/2
    spec = scalar_spec(G=[[1.0]])
    sol = backward.solve_riccati_follower(spec)
    assert sol.P.samples[0, 0, 0] == pytest.approx(0.5, rel=1e-8)
    assert sol.P.samples[-1, 0, 0] == 1.0


def test_follower_decoupled_constant():
    spec = scalar_spec(B1=0.0, G=[[1.0]])
    sol = backward.solve_riccati_follower(spec)
    assert np.all(sol.P.samples == 1.0)


def test_follower_regularity_failure_names_node():
    spec = scalar_spec(R1=-1.0, G=[[1.0]])
    with pytest.raises(RegularityError) as err:
        backward.solve_riccati_follower(spec)
    assert err.value.node is not None


# ---------------------------------------------------------------------------
# disturbance Riccati


def test_disturbance_zero_weights():
    sol = backward.solve_riccati_disturbance(scalar_spec())
    assert np.all(sol.P.samples == 0.0)


def test_disturbance_scalar_separable():
    # alpha = 2, R0 = 1: P1' = P1^2 with P1(1) = -G = 1  =>  P1(0) = 1/2
    spec = scalar_spec(G=[[-1.0]])
    sol = backward.solve_riccati_disturbance(spec)
    assert sol.P.samples[0, 0, 0] == pytest.approx(0.5, rel=1e-8)


def test_disturbance_homogeneous_stays_zero():
    spec = scalar_spec(A=1.0)
    sol = backward.solve_riccati_disturbance(spec)
    assert np.all(sol.P.samples == 0.0)


def test_disturbance_riccati_fourth_order_under_varying_weight():
    # R0 = (1 + 2t) I: P1 keeps fourth order.  The march inverts R0's
    # midpoint reads; inverting R0 at the nodes and reading the inverse
    # keeps the order too (ratio 15.6 against 15.9), but its P1(0) error
    # against the N = 3200 solve is 4.6 times larger (3.8e-9 against
    # 8.3e-10 at N = 50)
    def solve(N):
        spec = scalar_spec(N=N, A=0.3, C=0.2, Q=1.0, G=[[-0.8]],
                           R0=lambda t: [[1.0 + 2.0 * t]])
        return backward.solve_riccati_disturbance(spec).P.samples[0, 0, 0]

    p1, p2, p4 = solve(50), solve(100), solve(200)
    ratio = abs(p1 - p2) / abs(p2 - p4)
    assert 12.0 <= ratio <= 20.0, ratio


def test_follower_positivity_names_first_lost_node():
    # the `robustlq example --c 0.3 --N 500` follower: R1 + D1'PD1 drops
    # below delta first at node 441 on the march from T; its smallest
    # eigenvalue, at node 229, lies further along the march
    spec = scalar_spec(N=500, T=2.0, A=0.5, C=0.3, B1=1.0, D1=1.0, Q=1.0, R1=-0.5, G=[[1.0]])
    with pytest.raises(RegularityError, match="at node 441 ") as err:
        backward.solve_riccati_follower(spec)
    assert err.value.node == 441


def test_singular_disturbance_weight_names_node():
    # R0 = 0 is singular at the terminal node, where the march starts
    with pytest.raises(RegularityError, match="disturbance weight R0") as err:
        backward.solve_riccati_disturbance(scalar_spec(R0=0.0, G=[[-1.0]]))
    assert err.value.node == 200


def test_lu_solve_is_numpy_solve_bit_for_bit():
    # the gufunc called directly gives np.linalg.solve's bits: a stack
    # against one right-hand side or a stack of them, and strided column
    # views of one table like the SW slices of the generalized right-hand
    # side; a numpy whose private kernel differs fails here
    rng = np.random.default_rng(7)
    stack, rhs = rng.standard_normal((6, 5, 5)), rng.standard_normal((5, 3))
    table = rng.standard_normal((4, 5, 19))
    for a, b in ((stack, rhs), (stack, stack[..., 1:3]), (table[1, :, 2:7], table[1, :, 9:12]),
                 (table[..., :5], table[..., 10:19:3]), (rhs[:1, :1], rhs[2:3, 1:])):
        got, want = backward.lu_solve(a, b), np.linalg.solve(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_lu_solve_singular_raises_numpy_error():
    # a singular matrix anywhere in the stack: NaNs from the gufunc, then
    # np.linalg.solve's own LinAlgError
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
    for a in (stack, stack[1]):
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                          match="Singular matrix"):
            backward.lu_solve(a, np.eye(2))


# ---------------------------------------------------------------------------
# generalized Riccati


def _plain_problem(grid, A, Pterm, d):
    Ap = MatrixPath.constant(grid, A)
    z = MatrixPath.zeros(grid, d, d)
    return backward.RiccatiProblem(grid=grid, A1=Ap, A2=Ap, B1=z, Q=z,
                                   terminal=np.asarray(Pterm, dtype=float),
                                   C1=z, C2=z, B2=z, D1=z, D2=z)


@pytest.mark.parametrize("dim", [1, 2])
def test_generalized_matches_matrix_exponential(dim):
    rng = np.random.default_rng(dim)
    A = 0.5 * rng.standard_normal((dim, dim))
    Pterm = rng.standard_normal((dim, dim))
    grid = rl.make_grid(1.0, 400)
    sol = backward.solve_riccati_generalized(_plain_problem(grid, A, Pterm, dim))
    for k in (0, 133, 400):
        tau = grid.horizon - grid.nodes[k]
        expect = expm(A.T * tau) @ Pterm @ expm(A * tau)
        assert np.allclose(sol.P.samples[k], expect, rtol=1e-8, atol=1e-10)


def test_generalized_all_zero_keeps_terminal():
    grid = rl.make_grid(1.0, 16)
    term = np.array([[1.0, 2.0], [3.0, 4.0]])
    prob = _plain_problem(grid, np.zeros((2, 2)), term, 2)
    sol = backward.solve_riccati_generalized(prob)
    assert np.array_equal(sol.P.samples, np.broadcast_to(term, (17, 2, 2)))


def _crossing_problem():
    # P(t) = 0.5 e^{2(1-t)} crosses 1 between nodes 65 and 66 at N = 100,
    # so I - P D2 passes through zero there
    grid = rl.make_grid(1.0, 100)
    one = MatrixPath.constant(grid, [[1.0]])
    z = MatrixPath.zeros(grid, 1, 1)
    return backward.RiccatiProblem(
        grid=grid, A1=MatrixPath.constant(grid, [[2.0]]), A2=z, B1=z, Q=z,
        terminal=np.array([[0.5]]), C1=z, C2=z, B2=z, D1=z, D2=one,
    )


def test_generalized_monitors_decoupling_condition(monkeypatch):
    monkeypatch.setattr(backward, "RCOND_LIMIT", 0.05)
    with pytest.raises(RegularityError) as err:
        backward.solve_riccati_generalized(_crossing_problem())
    assert err.value.node is not None


def test_generalized_monitors_determinant_sign():
    # no node is near singular (min rcond 6.9e-3), but the determinant of
    # I - P D2 is positive at the terminal node and negative at node 65
    with pytest.raises(RegularityError, match="changes sign between nodes 65 and 66") as err:
        backward.solve_riccati_generalized(_crossing_problem())
    assert err.value.node == 65


def test_singular_stage_matrix_is_regularity_error():
    # I - P D2 = 0 exactly at the terminal time, the first RK4 stage
    grid = rl.make_grid(1.0, 10)
    z = MatrixPath.zeros(grid, 1, 1)
    prob = backward.RiccatiProblem(
        grid=grid, A1=z, A2=z, B1=z, Q=z, terminal=np.array([[1.0]]),
        C1=z, C2=z, B2=z, D1=z, D2=MatrixPath.constant(grid, [[1.0]]),
    )
    with pytest.raises(RegularityError, match="singular") as err:
        backward.solve_riccati_generalized(prob)
    assert err.value.node == 10


def test_singular_stage_matrix_names_stage_and_node():
    # R1 + D1' G D1 = -0.5 + 0.5 = 0 exactly at the terminal time
    spec = scalar_spec(R1=-0.5, D1=1.0, G=[[0.5]], N=20)
    with pytest.raises(RegularityError, match=r"\[stage follower riccati\].*singular") as err:
        rl.solve_game(spec)
    assert err.value.node == 20


def test_singular_offset_gap_names_terminal_node():
    # I - P D2 = 0 at the terminal [G | 0] = [1 | 0] of the joint march: its
    # first stage, at T, fails with node N
    grid = rl.make_grid(1.0, 10)
    one, z, z2 = (MatrixPath.constant(grid, [[1.0]]), MatrixPath.zeros(grid, 1, 1),
                  MatrixPath.zeros(grid, 1, 2))
    prob = backward.RiccatiProblem(grid=grid, A1=z2, A2=z, B1=z, Q=z2,
                                   terminal=np.array([[1.0, 0.0]]),
                                   C1=z2, C2=z, B2=z, D1=z, D2=one)
    dh = SimpleNamespace(problem=lambda offset: prob)
    with pytest.raises(RegularityError, match=r"singular at t=1 \(node 10\)") as err:
        backward.solve_offset_b4(dh)
    assert err.value.node == 10


@pytest.mark.parametrize("run_bytes", sorted({backward.RUN_BYTES, 256 * 1024, 2000}))
def test_offset_b4_matches_scalar_read_march(run_bytes, monkeypatch, sol_a):
    # the joint [Phat | phihat] march serves its odd reads from per-run
    # tables; it reproduces a march of the same rectangular problem that
    # reads every coefficient at every stage on its own, whatever the run
    # length (the default, a shorter multi-stage run, and 2000 bytes: one
    # odd half step a run)
    monkeypatch.setattr(backward, "RUN_BYTES", run_bytes)
    dh = equilibrium.stage_blocks(sol_a.spec)["doublehat"]
    prob = dh.problem(offset=True)
    d = prob.terminal.shape[0]
    eye = np.eye(d)

    def rhs(j, P):
        read = lambda name: getattr(prob, name).half(j)
        S = P[:, :d]
        val = S @ read("A1") + read("A2").T @ P + S @ read("B1") @ P - read("Q")
        inner = S @ read("C1") + S @ read("D1") @ P
        return -(val + (read("C2").T + S @ read("B2"))
                 @ np.linalg.solve(eye - S @ read("D2"), inner))

    ref = backward.integrate_backward(rhs, prob.terminal, prob.grid).samples
    joint = backward.solve_offset_b4(dh).P.samples
    assert np.array_equal(joint, ref)
    assert np.array_equal(joint[..., :d], sol_a.Phat.samples)
    assert np.array_equal(joint[..., d:], sol_a.phihat.samples)


@pytest.mark.parametrize("game", ["instance_a", "instance_b", "random_2", "random_4"])
def test_tabled_marches_match_separate_reads(game, monkeypatch):
    # the P1, [Phat | phihat] and [L | psi] marches of a solve read their
    # coefficient tables in one read a run and one product S W a stage;
    # the march that reads and multiplies each coefficient on its own
    # gives the same paths: bit for bit at n = 1, and within 1e-14 of each
    # path's largest entry at n = 2 and 4, where the wider product may
    # take another BLAS kernel
    spec = {"instance_a": instance_a, "instance_b": instance_b}.get(
        game, lambda: random_spec(1, int(game[-1]), N=200))()
    probs, rhs = [], backward.generalized_riccati_rhs
    monkeypatch.setattr(backward, "generalized_riccati_rhs",
                        lambda prob: probs.append(prob) or rhs(prob))
    sol = rl.solve_game(spec)
    assert len(probs) == 3  # P1, [Phat | phihat], -[L | psi]
    ref = [separate_read_march(prob).samples for prob in probs]
    d = 10 * spec.n
    pairs = [(sol.P1.samples, ref[0]), (sol.Phat.samples, ref[1][..., :d]),
             (sol.phihat.samples, ref[1][..., d:]), (sol.L.samples, 0.0 - ref[2][..., :d]),
             (sol.psi.samples, 0.0 - ref[2][..., d:])]
    for got, want in pairs:
        if spec.n == 1:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_zero_fraction_rhs_matches_full_formula(monkeypatch, sol_b):
    # each branch that skips vanishing terms against the full formula: no
    # fraction (instance_b's stages), the fraction C2^T P C1 without the
    # solve (P1 of games with diffusion) and no P B1 P either (L and psi);
    # phi1, whose offset march skips the terms its stage skips, keeps its
    # bits too
    blocks = equilibrium.stage_blocks(sol_b.spec)
    probs = (blocks["doublehat"].problem(), blocks["blackboard"].problem())
    assert all(prob.vanishes("C1", "C2", "B2", "D1", "D2") for prob in probs)
    games = (instance_a(N=100), random_spec(3, 2, N=100))

    def solve_all():
        stages = [backward.solve_riccati_generalized(prob).P.samples for prob in probs]
        stages.append(backward.solve_offset_b4(blocks["doublehat"]).P.samples)
        sols = [rl.solve_game(spec) for spec in games]
        phi1 = [backward.solve_offset_b1(spec, sol.P1, sol.gains.phiM1).samples
                for spec, sol in zip(games, sols)]
        return stages, sols, phi1

    short = solve_all()
    monkeypatch.setattr(backward.RiccatiProblem, "vanishes", lambda self, *names: False)
    full = solve_all()
    assert np.array_equal(short[0][2][..., :10], sol_b.Phat.samples)
    assert np.array_equal(short[0][2][..., 10:], sol_b.phihat.samples)
    for a, b in zip(short[0] + short[2], full[0] + full[2]):
        assert np.array_equal(a, b)
    for a, b in zip(short[1], full[1]):
        for name in ("P", "P1", "Phat", "phihat"):
            assert np.array_equal(getattr(a, name).samples, getattr(b, name).samples), name
        for name in ("L", "psi"):
            x, y = getattr(a, name).samples, getattr(b, name).samples
            assert np.abs(x - y).max() <= 1e-15 * np.abs(y).max(), name


@pytest.mark.parametrize("spec", [instance_b(N=64), scalar_spec(C=0.0, D1=0.4, Q=1.0, G=[[0.8]]),
                                  scalar_spec(C=0.3, D1=0.0, Q=1.0, G=[[0.8]])],
                         ids=["no_C_no_D1", "no_C", "no_D1"])
def test_follower_skips_vanishing_terms(spec, monkeypatch):
    # the follower right-hand side without its C or D1 terms, when those
    # paths are zero, gives the bits of the full formula
    short = backward.solve_riccati_follower(spec).P.samples
    monkeypatch.setattr(backward, "_vanishes", lambda path: False)
    assert np.array_equal(short, backward.solve_riccati_follower(spec).P.samples)


# ---------------------------------------------------------------------------
# offsets, Lyapunov, value offset


def test_offset_b1_homogeneous_is_zero():
    spec = scalar_spec(Q=0.5, G=[[0.2]], A=0.3, alpha=8.0)
    P1 = backward.solve_riccati_disturbance(spec).P
    phi = backward.solve_offset_b1(spec, P1, MatrixPath.zeros(spec.grid, spec.m1, 1))
    assert np.all(phi.samples == 0.0)


def test_offset_b1_with_control_source():
    # A=0, C=0, alpha=2, R0=1, Q=1, G=0: P1 solves P1' = P1^2 + 1, and phi1
    # feeds the control through P1 B1 u1; cross-check by direct integration
    spec = scalar_spec(Q=1.0)
    P1 = backward.solve_riccati_disturbance(spec).P
    u1 = MatrixPath.constant(spec.grid, [[1.0]])
    phi = backward.solve_offset_b1(spec, P1, u1)

    def rhs(j, p):
        return -(-P1.half(j) @ p + P1.half(j))

    expect = backward.integrate_backward(rhs, np.zeros((1, 1)), spec.grid)
    assert np.allclose(phi.samples, expect.samples, atol=1e-12)


@pytest.mark.parametrize("game", ["instance_a", "instance_b", "random_3_2"])
def test_offsets_match_joint_march(game):
    # the b1 and b3 offsets against the same equations marched as trailing
    # columns of their Riccati paths on the shared right-hand side: the two
    # reads differ at fourth order only, so each halving of the step cuts
    # the relative gap about 16-fold
    make = {"instance_a": instance_a, "instance_b": instance_b,
            "random_3_2": lambda N: random_spec(3, 2, N=N)}[game]
    gaps = []
    for N in (50, 100, 200):
        spec = make(N=N)
        t = spec.grid.nodes[:, None, None]
        u1 = MatrixPath(spec.grid, np.concatenate([np.sin(3 * t), np.cos(2 * t)], axis=-1))
        u2 = MatrixPath(spec.grid, np.concatenate([np.cos(3 * t), 1.0 + t ** 2], axis=-1))
        bb = equilibrium.stage_blocks(spec)["blackboard"]
        prob1, prob3 = backward.disturbance_problem(spec), bb.problem()
        pairs = [(backward.solve_offset_b1(spec, backward.solve_riccati_disturbance(spec).P, u1),
                  joint_offset_march(prob1, u1, spec.B1, spec.D1)),
                 (backward.solve_offset_b3(bb, backward.solve_riccati_generalized(prob3).P, u2),
                  joint_offset_march(prob3, u2, bb.B2, bb.D2, bb.F2))]
        gaps.append([np.abs(got.samples - want.samples).max() / np.abs(want.samples).max()
                     for got, want in pairs])
    gaps = np.array(gaps)
    ratios = gaps[:-1] / gaps[1:]
    assert np.all((12.0 <= ratios) & (ratios <= 20.0)), (gaps, ratios)


def test_value_offset_constant_source():
    # with no drift and no L source, psi' = -3 beside L = 0
    grid = rl.make_grid(2.0, 50)
    z = MatrixPath.zeros(grid, 1, 2)
    src = MatrixPath.constant(grid, [[0.0, 3.0]])
    Lpsi = backward.solve_value_offset(z, z, src, np.zeros((1, 1)), grid)
    expect = 3.0 * (grid.horizon - grid.nodes)
    assert np.allclose(Lpsi.samples[:, 0, 1], expect, atol=1e-12)
    assert np.all(Lpsi.samples[:, 0, 0] == 0.0)


def test_lyapunov_zero():
    grid = rl.make_grid(1.0, 20)
    z = MatrixPath.zeros(grid, 2, 2)
    L = backward.solve_lyapunov(z, z, z, np.zeros((2, 2)), grid)
    assert np.all(L.samples == 0.0)


def test_lyapunov_scalar_closed_form():
    grid = rl.make_grid(1.0, 400)
    a, s, lT = 0.7, 0.3, 0.2
    Ap = MatrixPath.constant(grid, [[a]])
    z = MatrixPath.zeros(grid, 1, 1)
    src = MatrixPath.constant(grid, [[s]])
    L = backward.solve_lyapunov(Ap, z, src, np.array([[lT]]), grid)
    tau = grid.horizon - grid.nodes
    expect = np.exp(2 * a * tau) * lT + s * (np.exp(2 * a * tau) - 1.0) / (2 * a)
    assert np.allclose(L.samples[:, 0, 0], expect, rtol=1e-8)


def test_lyapunov_preserves_symmetry():
    rng = np.random.default_rng(3)
    grid = rl.make_grid(1.0, 200)
    Ap = MatrixPath.constant(grid, 0.4 * rng.standard_normal((2, 2)))
    Cp = MatrixPath.constant(grid, 0.3 * rng.standard_normal((2, 2)))
    s = rng.standard_normal((2, 2))
    src = MatrixPath.constant(grid, 0.5 * (s + s.T))
    g = rng.standard_normal((2, 2))
    L = backward.solve_lyapunov(Ap, Cp, src, 0.5 * (g + g.T), grid)
    gap = np.abs(L.samples - np.transpose(L.samples, (0, 2, 1))).max()
    scale = np.abs(L.samples).max()
    assert gap <= 1e-10 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# closed-form special case


def test_closed_form_trivial_shift():
    grid = rl.make_grid(1.0, 32)
    term = np.array([[0.3, 0.1], [0.1, -0.2]])
    prob = _plain_problem(grid, np.zeros((2, 2)), term, 2)
    sol = closed_form_special_case(prob)
    assert np.allclose(sol.P.samples, term, atol=1e-12)


def test_closed_form_matches_rk4_scalar():
    grid = rl.make_grid(1.0, 300)
    z = MatrixPath.zeros(grid, 1, 1)
    prob = backward.RiccatiProblem(
        grid=grid,
        A1=MatrixPath.constant(grid, [[0.3]]),
        A2=MatrixPath.constant(grid, [[-0.1]]),
        B1=MatrixPath.constant(grid, [[-0.4]]),
        Q=MatrixPath.constant(grid, [[0.8]]),
        terminal=np.array([[0.6]]),
        C1=z, C2=z, B2=z, D1=z, D2=z,
    )
    num = backward.solve_riccati_generalized(prob)
    cf = closed_form_special_case(prob)
    rel = np.abs(num.P.samples - cf.P.samples) / (1.0 + np.abs(cf.P.samples))
    assert rel.max() <= 1e-6


def test_closed_form_matches_lyapunov(sol_b):
    # instance_b's closed loop has Ctil = 0, so its Lyapunov equation has
    # the fundamental-matrix closed form
    spec, g = sol_b.spec, sol_b.gains
    x = augment.block_row(0, spec.n)
    PM1, PM2 = g.PM1.samples, g.PM2.samples
    source = rl.MatrixPath(spec.grid, x.T @ spec.Q.samples @ x + PM1.mT @ sol_b.terms.R @ PM1
                           + PM2.mT @ sol_b.terms.W2 @ PM2)
    terminal = x.T @ spec.G @ x
    L = backward.solve_lyapunov(sol_b.Atil, sol_b.Ctil, source, terminal, spec.grid)
    assert np.array_equal(L.samples, sol_b.L.samples)
    prob = backward.lyapunov_problem(sol_b.Atil, sol_b.Ctil, source, terminal)
    cf = closed_form_special_case(prob).P.samples
    gap = np.linalg.norm(L.samples - cf, axis=(1, 2)) / (1.0 + np.linalg.norm(cf, axis=(1, 2)))
    assert gap.max() <= 1e-12


def test_closed_form_rejects_fraction():
    grid = rl.make_grid(1.0, 10)
    z = MatrixPath.zeros(grid, 1, 1)
    one = MatrixPath.constant(grid, [[0.5]])
    prob = backward.RiccatiProblem(grid=grid, A1=z, A2=z, B1=z, Q=z,
                                   terminal=np.array([[0.0]]),
                                   C1=one, C2=one, B2=z, D1=z, D2=z)
    with pytest.raises(RegularityError, match="fraction"):
        closed_form_special_case(prob)


# ---------------------------------------------------------------------------
# order and residual diagnostics


def test_rk4_step_halving_order():
    def solve(N):
        spec = scalar_spec(N=N, A=0.3, Q=1.0, G=[[0.8]])
        return backward.solve_riccati_follower(spec).P.samples[0, 0, 0]

    p1, p2, p4 = solve(50), solve(100), solve(200)
    ratio = abs(p1 - p2) / abs(p2 - p4)
    assert 12.0 <= ratio <= 20.0


def test_fd_derivative_exact_on_cubics():
    grid = rl.make_grid(1.0, 20)
    t = grid.nodes
    samples = (t ** 3 - 2 * t ** 2 + t)[:, None, None]
    got = derivative_4th_order(samples, grid.dt)[:, 0, 0]
    expect = 3 * t ** 2 - 4 * t + 1
    assert np.allclose(got, expect, atol=1e-12)


def test_follower_residual_small():
    spec = instance_b()
    P = backward.solve_riccati_follower(spec).P
    res = riccati_residuals(backward.follower_riccati_rhs(spec), P)
    norms = 1.0 + np.linalg.norm(P.samples, axis=(1, 2))
    assert (res / norms).max() <= 1e-8
