import hashlib
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import robustlq as rl
from robustlq import augment, backward, equilibrium
from robustlq.model import BlowUpError, RegularityError, SpecError

from conftest import (homogeneous_spec, instance_a, instance_b, production_spec,
                      random_spec)
from oracles import derivative_4th_order, integrand_gains, riccati_residuals, scalar_bode


def test_homogeneous_game_everything_zero(sol_homog):
    for path in (sol_homog.P, sol_homog.P1, sol_homog.Phat, sol_homog.phihat,
                 sol_homog.L, sol_homog.psi, sol_homog.gains.PM1,
                 sol_homog.gains.PM2, sol_homog.gains.phiM1, sol_homog.gains.phiM2):
        assert np.all(path.samples == 0.0)
    assert rl.value(sol_homog) == 0.0


def test_production_pipeline_matches_bode():
    spec = production_spec(N=400)
    sol = rl.solve_game(spec)
    bode = scalar_bode(0.5, -1.0, 1.0, 1.0, -0.5, 2.0, 400)
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


@pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan"), float("inf")])
def test_delta_must_be_positive_finite(delta):
    spec = instance_a(N=20)
    for fn in (rl.solve_game, rl.validate_spec, equilibrium.stage_blocks):
        with pytest.raises(SpecError, match="delta must be a positive finite number"):
            fn(spec, delta=delta)


@pytest.mark.parametrize("delta", ["x", None, [1e-8, 1e-8], [1e-8]],
                         ids=["text", "none", "pair", "single"])
def test_delta_must_be_a_number(delta):
    spec = instance_a(N=20)
    for fn in (rl.solve_game, rl.validate_spec, equilibrium.stage_blocks):
        with pytest.raises(SpecError, match="delta must be"):
            fn(spec, delta=delta)


def test_delta_is_read_once_as_a_float():
    # a numeric text reaches every stage as the float it holds, as alpha
    # and T do
    spec = instance_a(N=20)
    want = rl.solve_game(spec, delta=1e-8)
    got = rl.solve_game(spec, delta="1e-8")
    assert np.array_equal(got.Phat.samples, want.Phat.samples)
    assert rl.value(got) == rl.value(want)


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
    Es, es = integrand_gains(sol_a)
    blocks = equilibrium.stage_blocks(spec)
    bb, w = blocks["blackboard"], blocks["weights"]
    for _ in range(10):
        k = int(rng.integers(0, len(spec.grid)))
        t = spec.grid.nodes[k]
        X = rng.standard_normal(10 * spec.n)
        out = rl.feedback(sol_a, X, t)
        Y = sol_a.Phat.samples[k] @ X[:, None] + sol_a.phihat.samples[k]
        Z = Es[k] @ X[:, None] + es[k]
        five = 5 * spec.n
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
    # fourth order through the whole cascade: halving the step divides the
    # error of every solved path (at the common nodes) and of the value by
    # about 16, which the cubic midpoint reads and the end-corrected
    # quadrature give; linear reads or the plain trapezoid would give 4
    for make in (instance_a, lambda N: random_spec(7, 2, N=N)):
        sols = [rl.solve_game(make(N)) for N in (50, 100, 200)]
        for name in ("P", "P1", "Phat", "phihat", "L", "psi"):
            a, b, c = (getattr(sol, name).samples for sol in sols)
            ratio = np.abs(a - b[::2]).max() / np.abs(b[::2] - c[::4]).max()
            assert 12.0 <= ratio <= 20.0, (name, ratio)
        v50, v100, v200 = (rl.value(sol) for sol in sols)
        ratio = abs(v50 - v100) / abs(v100 - v200)
        assert 12.0 <= ratio <= 20.0, ratio


def test_scalar_bode_zero():
    P = scalar_bode(0.5, -1.0, 0.0, 0.0, 1.0, 2.0, 100)
    assert np.all(P.samples == 0.0)


def test_scalar_bode_closed_form_and_shape():
    P = scalar_bode(0.5, -1.0, 1.0, 1.0, -0.5, 2.0, 2000)
    assert P.samples[0, 0, 0] == pytest.approx(1.5 * np.exp(4.0) - 0.5, rel=1e-8)
    assert P.samples[-1, 0, 0] == 1.0
    assert np.all(np.diff(P.samples[:, 0, 0]) < 0.0)


def test_scalar_bode_regularity_monitor():
    with pytest.raises(RegularityError):
        scalar_bode(0.5, 0.3, 1.0, 1.0, -2.0, 2.0, 100)


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
    dY = derivative_4th_order(Y[:, :, None], grid.dt)[:, :, 0]
    worst = 0.0
    Es, es = integrand_gains(sol_a)
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
    hat = equilibrium.stage_blocks(spec)["hat"]
    P2 = backward.solve_riccati_generalized(hat.problem()).P
    rl.ensure_diagnostics(sol)
    assert P2 is not None and sol.P3 is not None
    assert P2.shape == (2, 2) and sol.P3.shape == (5, 5)
    # terminal data match the stage definitions exactly
    assert np.array_equal(P2.samples[-1], hat.G)
    assert np.array_equal(sol.P3.samples[-1], sol.bb.G)


@pytest.mark.parametrize("spec", [instance_a(), instance_b(), random_spec(3, 2, N=80)],
                         ids=["instance_a", "instance_b", "random_3_2"])
def test_blackboard_stage_on_request(spec):
    # a solve keeps neither the 5n stage nor P3; ensure_diagnostics rebuilds
    # the stage that stage_blocks gives, bit for bit
    sol = rl.solve_game(spec)
    assert sol.bb is None and sol.P3 is None
    got = rl.ensure_diagnostics(sol).bb
    want = equilibrium.stage_blocks(spec)["blackboard"]
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        a, b = (np.asarray(getattr(x, "samples", x)) for x in (a, b))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def test_solve_peak_memory():
    # the hat, check, weights and 5n stages are freed before the marches
    spec = random_spec(1, 4, N=200)
    tracemalloc.start()
    try:
        rl.solve_game(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42e6, f"{peak / 1e6:.1f} MB"


def test_intermediate_stage_residuals():
    spec = instance_a(N=400)
    sol = rl.solve_game(spec)
    hat = equilibrium.stage_blocks(spec)["hat"]
    P2 = backward.solve_riccati_generalized(hat.problem()).P
    rl.ensure_diagnostics(sol)
    for prob, path in (
        (hat.problem(), P2),
        (sol.bb.problem(), sol.P3),
    ):
        res = riccati_residuals(backward.generalized_riccati_rhs(prob), path)
        rel = res / (1.0 + np.linalg.norm(path.samples, axis=(1, 2)))
        assert rel.max() <= 1e-5


@pytest.mark.parametrize("spec", [instance_a(N=400), random_spec(3, 2, N=400)],
                         ids=["instance_a", "random_3_2"])
def test_joint_march_residuals(spec):
    """[Phat | phihat] and [L | psi], each solved in one march with the
    offset as trailing columns, satisfy their rectangular equations: the
    10n stage's offset form and the Lyapunov form with the value offset's
    sources beside L's."""
    sol = rl.solve_game(spec)
    joined = lambda *paths: rl.MatrixPath(spec.grid, np.concatenate([p.samples for p in paths],
                                                                    axis=-1))
    g, x = sol.gains, augment.block_row(0, spec.n)
    PM1T, PM2T = g.PM1.samples.mT, g.PM2.samples.mT
    source = rl.MatrixPath(spec.grid, np.concatenate(
        [x.T @ spec.Q.samples @ x + PM1T @ sol.terms.R @ g.PM1.samples
         + PM2T @ sol.terms.W2 @ g.PM2.samples,
         PM1T @ sol.terms.R @ g.phiM1.samples + PM2T @ sol.terms.W2 @ g.phiM2.samples], axis=-1))
    Lpsi = joined(sol.L, sol.psi)
    lyap = backward.lyapunov_problem(joined(sol.Atil, sol.Btil), joined(sol.Ctil, sol.Dtil),
                                     source, Lpsi.samples[-1])
    for prob, path in ((sol.dh.problem(offset=True), joined(sol.Phat, sol.phihat)),
                       (lyap, Lpsi)):
        res = riccati_residuals(backward.generalized_riccati_rhs(prob), path)
        rel = res / (1.0 + np.linalg.norm(path.samples, axis=(1, 2)))
        assert rel.max() <= 1e-5


@pytest.mark.parametrize("steps", [1, 2, 3, 5])
def test_coarse_grids_solve(steps):
    """A grid too coarse for the fourth-order rules follows the documented
    lower-degree ones: the mean of a cell's nodes below three steps, the
    plain trapezoid below five.  Each solves to a finite value near the
    fine one."""
    sol = rl.solve_game(instance_a(N=steps))
    v = rl.value(sol)
    assert np.isfinite(v) and abs(v - GOLDEN["instance_a"][0]) <= 0.05 * v
    w = equilibrium._quadrature_weights(steps)
    assert w.sum() == steps
    if steps < 5:
        assert np.array_equal(w, np.r_[0.5, np.ones(steps - 1), 0.5])


@pytest.mark.parametrize("steps", [5, 6, 7, 50])
def test_quadrature_exact_on_cubics(steps):
    # the end-corrected trapezoid is fourth order: exact on cubics
    grid = rl.make_grid(2.0, steps)
    t = grid.nodes
    got = grid.dt * (equilibrium._quadrature_weights(steps) @ (1.0 - t + 3.0 * t ** 2 - t ** 3))
    assert got == pytest.approx(2.0 - 2.0 + 8.0 - 4.0, rel=1e-14)


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
    hat = equilibrium.stage_blocks(spec)["hat"]
    P2 = backward.solve_riccati_generalized(hat.problem()).P
    for prob, P, top in ((hat.problem(), P2, n), (sol.bb.problem(), sol.P3, 3 * n),
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
    "instance_a": (1.7428725726137748, 8.455437316703069, -1.5447424762927668),
    "instance_b": (0.3645649757946887, 1.133826866297727, -0.33806259532445104),
    "random_1_1": (0.027933110109856676, 1.2313819908240125, -0.02948933350574098),
    "random_1_2": (0.07274790403435068, 1.3513552262862754, -0.052920430554035634),
    "random_1_4": (0.9039399357154125, 18.48456199684331, -3.2787432209620055),
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
# marches reading their coefficients by integer half step (cubic midpoints),
# P1 solved in the unified Riccati form and phihat and psi marched as
# trailing columns of Phat and L: the output must stay bit for bit the same
PATH_GOLDEN = {
    "instance_a": {
        "P": "9228d6dad5538b4f9d9a75deab5949aa2841e16d94dd3322e03552bb88fcdbae",
        "P1": "df6cc5b135867b83bc61c2a62b02810ea0b8c2a45cbc79912d0b9a22a5823676",
        "Phat": "a75f676294f2afae6fb9058370e44a048f0abe7e400fedf2bf9b577d9c68e19c",
        "phihat": "017ce09b4e8d27d4f13074ee9ff76b4c835e32f68f52050a661f3f92f293f168",
        "L": "dc9d1e02560674fd5f033a003a674e05983b3a17c0fc5ee5d8e9c70552ecdd79",
        "psi": "f934ec5cb64dbcee36d6897bd803b3ebb965f8bc3e5d1a5204bf356396a9f228",
    },
    "random_1_4": {
        "P": "2d01803dd5de92ce7bbc3ac0c8faf653ca64d13368ed7c9419d0c4721e3aa9fa",
        "P1": "2b65e897195bd08c1bb1a297ddf429c230c6fa4c4bf7cb5bde867386fdb4a2c1",
        "Phat": "68cb5b278471dca9f4f453755fcb39f058d90f837155d20d598df7bccd1de202",
        "phihat": "a0ab7347cc8a624631911efb7e1f6584cf197dc935d68944e538d7e760d7b5f9",
        "L": "a41e53a85401ecdc38520a371cf336b925f5fd6375fa3b8e95391613c8eccdac",
        "psi": "e76b405ffa4ef268c1cddae8ee5317cb5a14ce4d6152c51bf0132529fedc6a52",
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


def test_midpoint_reads_per_solve(monkeypatch):
    # the odd half-step reads of an n = 4 solve at N = 200, in runs of
    # RUN_BYTES: one `_midpoint` call a run for each coefficient table and
    # for each coefficient read on its own.  [Phat | phihat]: the table,
    # A2, [Q | Upsilon] and C2 in 50 runs of 4 odd half steps (200);
    # [L | psi]: the [Atil | Btil] table, its square block A2, the source,
    # [Ctil | Dtil] and its square block C2 in 25 runs of 8 (125); the
    # follower's six paths and the disturbance table, A2, Q, C2 and R0 in
    # one run each, plus R0's node inversion (12).  A right-hand side that
    # reads every coefficient on its own again raises the count.
    midpoint = rl.MatrixPath._midpoint
    calls = []

    def counting(path, k):
        calls.append(len(k))
        return midpoint(path, k)

    monkeypatch.setattr(rl.MatrixPath, "_midpoint", counting)
    rl.solve_game(random_spec(1, 4, N=200))
    assert len(calls) == 337
