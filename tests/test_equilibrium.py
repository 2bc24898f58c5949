import hashlib
from dataclasses import replace

import numpy as np
import pytest

import robustlq as rl
from robustlq import augment, backward, equilibrium
from robustlq.model import BlowUpError, RegularityError

from conftest import (homogeneous_spec, instance_a, instance_b, production_spec,
                      random_spec)


def test_homogeneous_game_everything_zero(sol_homog):
    for path in (sol_homog.P, sol_homog.P1, sol_homog.Phat, sol_homog.phihat,
                 sol_homog.L, sol_homog.psi, sol_homog.gains.PM1,
                 sol_homog.gains.PM2, sol_homog.gains.phiM1, sol_homog.gains.phiM2):
        assert np.all(path.samples == 0.0)
    assert rl.value(sol_homog) == 0.0


def test_production_pipeline_matches_bode():
    spec = production_spec(N=400)
    sol = rl.solve_game(spec)
    bode = rl.scalar_bode(0.5, -1.0, 1.0, 1.0, -0.5, 2.0, 400)
    assert np.allclose(sol.P.samples, bode.samples, rtol=1e-12, atol=1e-12)
    assert np.isfinite(rl.value(sol))


def test_regularity_failure_names_stage():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=16, alpha=4.0, gamma=4.0, xi=[1.0], G=[[0.5]],
        A=0.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=1.0, R1=-1.0, R2=-1.0,
        R0=1.0, R0hat=1.0,
    )
    with pytest.raises(RegularityError, match="follower riccati"):
        rl.solve_game(spec)


def test_feedback_zero_state_homogeneous(sol_homog):
    out = rl.feedback(sol_homog, np.zeros(10), 0.3)
    for arr in (out.u1, out.u2, out.f, out.f2):
        assert np.all(arr == 0.0)


def test_feedback_linearity_homogeneous(sol_homog):
    rng = np.random.default_rng(4)
    X = rng.standard_normal(10)
    a = rl.feedback(sol_homog, X, 0.42)
    b = rl.feedback(sol_homog, 2.0 * X, 0.42)
    for one, two in ((a.u1, b.u1), (a.u2, b.u2), (a.f, b.f), (a.f2, b.f2)):
        assert np.allclose(2.0 * one, two, rtol=1e-12, atol=1e-14)


def test_feedback_leader_control_consistency(sol_a):
    """The leader feedback equals the stationarity combination of the raw
    stacked processes under the decoupled representation."""
    spec = sol_a.spec
    rng = np.random.default_rng(12)
    Es, es = augment.decoupling(sol_a.dh.problem(), sol_a.Phat.samples, sol_a.phihat.samples,
                                 sol_a.dh.F.samples, sol_a.dh.Sigma.samples,
                                 lambda path: path.samples)[:2]
    for _ in range(10):
        k = int(rng.integers(0, len(spec.grid)))
        t = spec.grid.nodes[k]
        X = rng.standard_normal(10 * spec.n)
        out = rl.feedback(sol_a, X, t)
        Y = sol_a.Phat.samples[k] @ X[:, None] + sol_a.phihat.samples[k]
        Z = Es[k] @ X[:, None] + es[k]
        five = 5 * spec.n
        bb, w = sol_a.bb, sol_a.weights
        stat = (bb.B2.samples[k].T @ Y[:five] + bb.D2.samples[k].T @ Z[:five]
                + bb.F2.samples[k].T @ X[five:, None] - w.S2.samples[k] @ X[:five, None]
                - w.M2.samples[k] @ Y[five:] - w.L2.samples[k] @ Z[five:]
                - w.cross.samples[k])
        expect = np.linalg.solve(w.Rbb.samples[k], stat)[:, 0]
        assert np.allclose(out.u2, expect, rtol=1e-10, atol=1e-12)


def test_feedback_affine_in_state(sol_a):
    """All four strategy maps are affine: second differences vanish."""
    rng = np.random.default_rng(6)
    t = 0.37
    X1, X2 = rng.standard_normal((2, 10))
    a = rl.feedback(sol_a, X1 + X2, t)
    b = rl.feedback(sol_a, X1, t)
    c = rl.feedback(sol_a, X2, t)
    d = rl.feedback(sol_a, np.zeros(10), t)
    for field in ("u1", "u2", "f", "f2"):
        lhs = getattr(a, field) + getattr(d, field)
        rhs = getattr(b, field) + getattr(c, field)
        assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-13)
    # offsets are nonzero here, so the maps are affine, not linear
    assert np.any(d.u2 != 0.0)


def test_feedback_on_arrays_matches_scalar_calls(sol_a):
    """One call on the node times and a (K, 10n) stack of states gives the
    scalar calls' outputs row by row."""
    rng = np.random.default_rng(12)
    nodes = sol_a.spec.grid.nodes
    X = rng.standard_normal((len(nodes), 10 * sol_a.spec.n))
    stacked = rl.feedback(sol_a, X, nodes)
    rows = [rl.feedback(sol_a, x, t) for x, t in zip(X, nodes)]
    for name in ("u1", "u2", "f", "f2"):
        got = getattr(stacked, name)
        want = np.array([getattr(r, name) for r in rows])
        assert got.shape == want.shape == (len(nodes), len(want[0]))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def test_value_zero_initial_state():
    spec = homogeneous_spec(xi=0.0)
    assert rl.value(rl.solve_game(spec)) == 0.0


def test_value_pure_quadratic_without_offsets():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=100, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.5]],
        A=0.3, C=0.2, B1=1.0, D1=0.4, B2=1.0, D2=0.3, sigma=0.0, f1=0.0,
        Q=1.0, R1=0.8, R2=-1.2, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    assert np.all(sol.phihat.samples == 0.0) and np.all(sol.psi.samples == 0.0)
    Xi = sol.dh.Xi
    expect = (Xi.T @ sol.L.samples[0] @ Xi).item()
    assert rl.value(sol) == pytest.approx(expect, abs=1e-14)


def test_value_quadrature_convergence():
    vals = {N: rl.value(rl.solve_game(instance_a(N=N))) for N in (50, 100, 200)}
    ratio = abs(vals[50] - vals[100]) / abs(vals[100] - vals[200])
    assert 2.5 <= ratio <= 6.5


def test_scalar_bode_zero():
    P = rl.scalar_bode(0.5, -1.0, 0.0, 0.0, 1.0, 2.0, 100)
    assert np.all(P.samples == 0.0)


def test_scalar_bode_closed_form_and_shape():
    P = rl.scalar_bode(0.5, -1.0, 1.0, 1.0, -0.5, 2.0, 2000)
    assert P.samples[0, 0, 0] == pytest.approx(1.5 * np.exp(4.0) - 0.5, rel=1e-8)
    assert P.samples[-1, 0, 0] == 1.0
    assert np.all(np.diff(P.samples[:, 0, 0]) < 0.0)


def test_scalar_bode_regularity_monitor():
    with pytest.raises(RegularityError):
        rl.scalar_bode(0.5, 0.3, 1.0, 1.0, -2.0, 2.0, 100)


def test_clamp_scope():
    s = equilibrium.StrategyOutput(u1=np.array([-3.0]), u2=np.array([2.0]),
                                   f=np.array([-1.5]), f2=np.array([-0.2]))
    c = rl.clamp_nonnegative(s)
    assert c.u1[0] == 0.0 and c.u2[0] == 2.0
    assert c.f[0] == -1.5 and c.f2[0] == -0.2


def test_solver_determinism():
    a = rl.solve_game(instance_a(N=60))
    b = rl.solve_game(instance_a(N=60))
    assert np.array_equal(a.P.samples, b.P.samples)
    assert np.array_equal(a.Phat.samples, b.Phat.samples)
    assert np.array_equal(a.gains.PM2.samples, b.gains.PM2.samples)
    assert rl.value(a) == rl.value(b)


def test_decoupled_representation_residual(sol_a):
    """P Xhat + phihat satisfies the backward drift relation of the
    optimality system along the deterministic skeleton."""
    spec = sol_a.spec
    grid = spec.grid
    X = equilibrium.skeleton(sol_a)
    Y = np.empty_like(X)
    for k in range(len(grid)):
        Y[k] = sol_a.Phat.samples[k] @ X[k] + sol_a.phihat.samples[k][:, 0]
    dY = backward._derivative_4th_order(Y[:, :, None], grid.dt)[:, :, 0]
    worst = 0.0
    Es, es = augment.decoupling(sol_a.dh.problem(), sol_a.Phat.samples, sol_a.phihat.samples,
                                 sol_a.dh.F.samples, sol_a.dh.Sigma.samples,
                                 lambda path: path.samples)[:2]
    for k in range(len(grid)):
        Z = Es[k] @ X[k] + es[k][:, 0]
        drift = (-sol_a.dh.A2.samples[k].T @ Y[k] - sol_a.dh.C2.samples[k].T @ Z
                 + sol_a.dh.Q.samples[k] @ X[k] + sol_a.dh.Upsilon.samples[k][:, 0])
        res = np.linalg.norm(dY[k] - drift) / (1.0 + np.linalg.norm(Y[k]))
        worst = max(worst, res)
    assert worst <= 1e-5


def test_skeleton_matches_scalar_read_march(sol_a):
    grid = sol_a.spec.grid
    A, b = (rl.MatrixPath(grid, p.samples[::-1]) for p in (sol_a.Atil, sol_a.Btil))
    ref = rl.integrate_backward(lambda j, y: -(A.half(j) @ y + b.half(j)), sol_a.dh.Xi, grid)
    assert np.array_equal(equilibrium.skeleton(sol_a), ref.samples[::-1, :, 0])


def test_skeleton_blow_up_raises(sol_b):
    # a non-finite drift offset at t = 0 is the first step of the reversed march
    Bt = sol_b.Btil.samples.copy()
    Bt[0] = np.inf
    bad = replace(sol_b, Btil=rl.MatrixPath(sol_b.spec.grid, Bt))
    with pytest.raises(BlowUpError) as exc:
        equilibrium.skeleton(bad)
    assert exc.value.node == sol_b.spec.grid.steps - 1


def test_diagnostic_stages_on_request():
    spec = instance_a(N=80)
    sol = rl.solve_game(spec)
    P2 = backward.solve_riccati_generalized(sol.hat.problem()).P
    rl.ensure_diagnostics(sol)
    assert P2 is not None and sol.P3 is not None
    assert P2.shape == (2, 2) and sol.P3.shape == (5, 5)
    # terminal data match the stage definitions exactly
    assert np.array_equal(P2.samples[-1], sol.hat.G)
    assert np.array_equal(sol.P3.samples[-1], sol.bb.G)


def test_intermediate_stage_residuals():
    spec = instance_a(N=400)
    sol = rl.solve_game(spec)
    P2 = backward.solve_riccati_generalized(sol.hat.problem()).P
    rl.ensure_diagnostics(sol)
    for prob, path in (
        (sol.hat.problem(), P2),
        (sol.bb.problem(), sol.P3),
    ):
        res = backward.riccati_residuals(backward.generalized_riccati_rhs(prob), path)
        rel = res / (1.0 + np.linalg.norm(path.samples, axis=(1, 2)))
        assert rel.max() <= 1e-5


@pytest.mark.parametrize("spec", [instance_a(N=100), instance_b(N=64), random_spec(3, 2, N=100),
                                  random_spec(1, 4, N=100)],
                         ids=["instance_a", "instance_b", "random_3_2", "random_1_4"])
def test_decoupled_stages_are_j_symmetric(spec):
    """With J = diag(I, -I) split at a stage's forward | backward rows,
    every decoupled stage has A2 = J A1 J, C2 = J C1 J, D1 = J B2' J and
    J B1, J Q, J D2, J G symmetric, so its Riccati equation is symmetric
    in S = J P and S stays symmetric along the solved path."""
    def gap(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)

    n = spec.n
    sol = rl.ensure_diagnostics(rl.solve_game(spec))
    P2 = backward.solve_riccati_generalized(sol.hat.problem()).P
    for prob, P, top in ((sol.hat.problem(), P2, n), (sol.bb.problem(), sol.P3, 3 * n),
                         (sol.dh.problem(), sol.Phat, 5 * n)):
        J = np.diag(np.r_[np.ones(top), -np.ones(P.rows - top)])
        coef = lambda name: getattr(prob, name).samples
        assert np.array_equal(coef("A2"), J @ coef("A1") @ J)
        assert np.array_equal(coef("C2"), J @ coef("C1") @ J)
        assert gap(coef("D1"), J @ coef("B2").mT @ J) <= 1e-15
        for M in (J @ coef("B1"), J @ coef("Q"), J @ coef("D2"), J @ prob.terminal):
            assert gap(M, M.mT) <= 1e-15
        S = J @ P.samples
        assert gap(S, S.mT) <= 1e-13


# value, |Phat(0)|_F and Xi' Phat(0) Xi of fixed instances; a change to the
# cascade that moves any of them beyond roundoff changes the solver's output
GOLDEN = {
    "instance_a": (1.742874750108786, 8.455454668126766, -1.5447423256672923),
    "instance_b": (0.36456497956483347, 1.1338268640794733, -0.3380626237484416),
    "random_1_1": (0.027933112154448936, 1.2313819855911539, -0.029489333570746862),
    "random_1_2": (0.07274786407922532, 1.3513551881052637, -0.05292043297137604),
    "random_1_4": (0.9023611593537108, 18.484800474670696, -3.278778436822907),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_values(name):
    if name.startswith("random"):
        spec = random_spec(1, int(name[-1]), N=200)
    else:
        spec = {"instance_a": instance_a, "instance_b": instance_b}[name]()
    sol = rl.solve_game(spec)
    P0, Xi = sol.Phat.samples[0], sol.dh.Xi
    got = (rl.value(sol), np.linalg.norm(P0), (Xi.T @ P0 @ Xi).item())
    assert got == pytest.approx(GOLDEN[name], rel=1e-12, abs=0.0)


# sha256 of the node samples of the solution paths, recorded with the
# marches reading their coefficients by integer half step: the output must
# stay bit for bit the same
PATH_GOLDEN = {
    "instance_a": {
        "P": "9228d6dad5538b4f9d9a75deab5949aa2841e16d94dd3322e03552bb88fcdbae",
        "P1": "a72fbfc1483cf4659d5d6fe0328b21b43868681aecd45de0320d5ab3224f35de",
        "Phat": "a225b7a31f09cdd75f6c46a16da529e895532ce777f14b9c4b54d9d26c19b3cd",
        "phihat": "3a6d472c49288bf8f50a8c3dc0e976a6251fce2b71c3104e202eae6d2cea99be",
        "L": "938b3522c55fa55be4567f542df7dd779a436aba71c63228cb2e0c4939eec951",
        "psi": "278889c5dd799c1bd60318ab94788ce1041c4e6b2b9df9d24d32bdbcebfe7502",
    },
    "random_1_4": {
        "P": "2d01803dd5de92ce7bbc3ac0c8faf653ca64d13368ed7c9419d0c4721e3aa9fa",
        "P1": "bc8fd08fa0f5097f0cb1f3dc261617e27e334514cfcff129e8fcd946ea43fb0f",
        "Phat": "1480501dcfba9758a1242ced966b55b8b20dc348d746367273d25fa86e705a1e",
        "phihat": "4cf50ebc0ebea8385b97bb1b0382f27f2ed0488b7fd4ede83434d34f71a264e6",
        "L": "aad30d8a8f5fa999131f832a4d62c0e34890a52373152b988bfb2c872a915949",
        "psi": "f54eba16b164ffb1f714ba0f9b31573822b233d257086caed4f7554e81832e69",
    },
}


@pytest.mark.parametrize("name", sorted(PATH_GOLDEN))
def test_solution_paths_bit_exact(name):
    spec = instance_a() if name == "instance_a" else random_spec(1, 4, N=200)
    sol = rl.solve_game(spec)
    for field, digest in PATH_GOLDEN[name].items():
        got = hashlib.sha256(getattr(sol, field).samples.tobytes()).hexdigest()
        assert got == digest, field


def test_locate_calls_independent_of_grid_size(monkeypatch):
    # the marches read their coefficients by half step and locate no
    # time, so a per-stage lookup that comes back shows up as a count
    # growing with N
    locate = rl.TimeGrid.locate
    counts = []

    def counting(grid, t):
        counts[-1] += 1
        return locate(grid, t)

    monkeypatch.setattr(rl.TimeGrid, "locate", counting)
    for N in (50, 200):
        spec = instance_a(N)
        counts.append(0)
        rl.solve_game(spec)
    assert counts[0] == counts[1], counts
