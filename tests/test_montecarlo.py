import hashlib

import numpy as np
import pytest

import robustlq as rl
from robustlq import montecarlo
from robustlq.model import BlowUpError, SpecError

from conftest import homogeneous_spec


def no_noise_spec(N=100):
    # all diffusion sources off: every simulated path is the skeleton ODE
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=N, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.3]],
        A=0.3, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, sigma=0.0, f1=0.2,
        Q=0.8, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )


def brownian_spec(N=50):
    # zero closed-loop drift and state-independent diffusion: the stacked
    # state is a Brownian integral
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=N, alpha=4.0, gamma=4.0, xi=[1.0], G=[[0.0]],
        A=0.0, C=0.0, B1=0.0, D1=0.0, B2=0.0, D2=0.0, sigma=0.5, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )


def test_seed_determinism_and_chunk_invariance(sol_a):
    out1 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=9, substeps=1, chunk=100))
    out2 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=9, substeps=1, chunk=377))
    assert np.array_equal(out1.j, out2.j)
    assert np.array_equal(out1.terminal, out2.terminal)
    out3 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=10, substeps=1))
    assert not np.array_equal(out1.j, out3.j)


def test_no_noise_paths_identical():
    sol = rl.solve_game(no_noise_spec())
    assert np.all(sol.Ctil.samples == 0.0) and np.all(sol.Dtil.samples == 0.0)
    out = rl.simulate(sol, rl.SimConfig(paths=64, seed=1, substeps=2))
    # paths coincide up to last-bit matmul reassociation across rows
    scale = 1.0 + np.abs(out.terminal).max()
    assert np.all(out.terminal.var(axis=0) <= (1e-13 * scale) ** 2)
    assert np.allclose(out.j, out.j[0], rtol=0.0, atol=1e-12 * (1.0 + abs(out.j[0])))


def test_no_noise_matches_skeleton():
    sol = rl.solve_game(no_noise_spec(N=200))
    out = rl.simulate(sol, rl.SimConfig(paths=2, seed=1, substeps=4))
    skel = rl.equilibrium.skeleton(sol)
    assert np.allclose(out.terminal[0], skel[-1], rtol=2e-3, atol=2e-3)


def test_brownian_moments():
    sol = rl.solve_game(brownian_spec())
    assert np.all(sol.Atil.samples == 0.0) and np.all(sol.Btil.samples == 0.0)
    assert np.all(sol.Ctil.samples == 0.0)
    out = rl.simulate(sol, rl.SimConfig(paths=10_000, seed=3, substeps=1))
    xi = sol.dh.Xi[:, 0]
    d = sol.Dtil.samples[0][:, 0]
    T = sol.spec.grid.horizon
    term_mean = out.terminal.mean(axis=0)
    term_var = out.terminal.var(axis=0, ddof=1)
    se_mean = out.terminal.std(axis=0, ddof=1) / np.sqrt(10_000)
    for i in range(10):
        assert abs(term_mean[i] - xi[i]) <= 3.0 * se_mean[i] + 1e-12
    # variance of each coordinate is d_i^2 T; relative 3-sigma band ~ 4%
    for i in np.nonzero(d)[0]:
        assert term_var[i] == pytest.approx(d[i] ** 2 * T, rel=0.06)
    for i in np.where(d == 0.0)[0]:
        assert term_var[i] == 0.0


def test_euler_weak_order_noise_off(sol_a):
    grid = sol_a.spec.grid
    ref = rl.equilibrium.skeleton(sol_a)[-1]

    def euler_terminal(substeps):
        times = montecarlo._subtimes(grid, substeps)
        dt = times[1] - times[0]
        x = sol_a.dh.Xi[:, 0].copy()
        for t in times[:-1]:
            x = x + dt * (sol_a.Atil.at(t) @ x + sol_a.Btil.at(t)[:, 0])
        return x

    e1 = np.linalg.norm(euler_terminal(1) - ref)
    e2 = np.linalg.norm(euler_terminal(2) - ref)
    assert 1.6 <= e1 / e2 <= 2.4


def test_value_oracle_quick(sol_a):
    out = rl.simulate(sol_a, rl.SimConfig(paths=20_000, seed=21, substeps=4))
    v = rl.value(sol_a)
    assert abs(out.j_mean - v) <= 4.0 * out.j_stderr


def test_null_perturbation_exact_zero(sol_a):
    rep = rl.perturb_best_response(sol_a, rl.SimConfig(paths=50, seed=5, substeps=1),
                                   directions=2, eps=(0.0,))
    assert len(rep.rows) == 8
    for r in rep.rows:
        assert r.delta_j == 0.0 and r.stderr == 0.0 and r.verdict == "pass"


def test_verification_solves_only_the_leader_stage_riccati():
    # the leader-deviation response reads P3; the 2n path P2 is left unsolved
    sol = rl.solve_game(homogeneous_spec(N=40, xi=1.0))
    assert sol.P2 is None and sol.P3 is None
    rl.perturb_best_response(sol, rl.SimConfig(paths=10, seed=1), directions=1, eps=(0.1,))
    assert sol.P2 is None and sol.P3 is not None


def test_homogeneous_follower_test_deterministic():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=100, alpha=4.0, gamma=4.0, xi=[1.0], G=[[0.0]],
        A=0.4, C=0.0, B1=1.0, D1=0.0, B2=0.8, D2=0.0, sigma=0.0, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    rep = rl.perturb_best_response(sol, rl.SimConfig(paths=40, seed=2, substeps=1),
                                   directions=3, eps=(0.1,))
    rows = [r for r in rep.rows if r.test == "follower_control"]
    assert len(rows) == 3
    for r in rows:
        # purely quadratic deviation cost eps^2 * R1 * |v|^2 with R1 = 1
        assert r.stderr == 0.0
        assert r.delta_j == pytest.approx(0.01, rel=0.03)
        assert r.verdict == "pass"


def test_perturbation_suite_small(sol_a):
    rep = rl.perturb_best_response(sol_a, rl.SimConfig(paths=3000, seed=7, substeps=2),
                                   directions=3, eps=(0.1,))
    assert len(rep.rows) == 12
    assert rep.ok, [r for r in rep.rows if r.verdict != "pass"]


def test_sampled_convexity_homogeneous_penalty_only():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=100, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=0.4, C=0.0, B1=1.0, D1=0.0, B2=0.8, D2=0.0, sigma=0.0, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    rep = rl.sampled_convexity(sol, rl.SimConfig(paths=40, seed=2, substeps=1),
                               samples=3)
    rows = [r for r in rep.rows if r.test == "follower_disturbance_concavity"]
    for r in rows:
        # with Q = 0, G = 0 the functional collapses to (alpha/2)|h|^2 = 1
        assert r.delta_j == pytest.approx(1.0, rel=0.03)
        assert r.verdict == "pass"


def test_sampled_convexity_monotone_in_alpha():
    def min_j1(alpha):
        spec = rl.build_spec(
            n=1, m1=1, m2=1, T=1.0, N=100, alpha=alpha, gamma=8.0, xi=[1.0],
            G=[[0.5]], A=0.3, C=0.2, B1=1.0, D1=0.4, B2=1.0, D2=0.3,
            sigma=0.0, f1=0.0, Q=1.0, R1=0.8, R2=-1.2, R0=1.0, R0hat=1.0,
        )
        sol = rl.solve_game(spec)
        rep = rl.sampled_convexity(sol, rl.SimConfig(paths=800, seed=4, substeps=1),
                                   samples=4, directions_seed=77)
        vals = [r.delta_j for r in rep.rows
                if r.test == "follower_disturbance_concavity"]
        return min(vals)

    assert min_j1(12.0) > min_j1(6.0)


def test_convexity_report_all_positive(sol_a):
    rep = rl.sampled_convexity(sol_a, rl.SimConfig(paths=1500, seed=3, substeps=2),
                               samples=3)
    assert rep.ok
    assert all(r.delta_j > 0.0 for r in rep.rows)


def test_bvp_oracle_zero_game():
    sol = rl.solve_game(homogeneous_spec(xi=0.0))
    res = rl.bvp_oracle(sol, 16)
    assert np.all(res.X_oracle == 0.0) and np.all(res.Y_oracle == 0.0)
    assert res.gap == 0.0


def test_bvp_oracle_decoupling_identity():
    # no offsets: oracle backward initial value approximates Phat(0) Xi
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=0.5, N=256, alpha=10.0, gamma=10.0, xi=[1.0],
        G=[[0.1]], A=0.2, C=0.0, B1=0.6, D1=0.0, B2=0.6, D2=0.0,
        sigma=0.0, f1=0.0, Q=0.4, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    res = rl.bvp_oracle(sol, 64)
    expect = sol.Phat.samples[0] @ sol.dh.Xi[:, 0]
    assert np.allclose(res.Y_oracle[0], expect, atol=0.02 * (1 + np.abs(expect).max()))


def test_bvp_oracle_gap_and_refinement(sol_b):
    g64 = rl.bvp_oracle(sol_b, 64).gap
    g128 = rl.bvp_oracle(sol_b, 128).gap
    assert g64 <= 1e-3
    assert g128 <= 0.6 * g64


def test_equilibrium_verification_n2():
    """Dimension-generic end to end: a 2-state game's value matches Monte
    Carlo and all four deviation tests keep their signs."""
    from conftest import random_spec
    spec = random_spec(42, 2, N=150)
    sol = rl.solve_game(spec)
    out = rl.simulate(sol, rl.SimConfig(paths=20_000, seed=13, substeps=2))
    v = rl.value(sol)
    assert abs(out.j_mean - v) <= 4.0 * out.j_stderr
    rep = rl.perturb_best_response(sol, rl.SimConfig(paths=2500, seed=5, substeps=2),
                                   directions=2, eps=(0.1,))
    assert rep.ok, [r for r in rep.rows if r.verdict != "pass"]


def poison_paths(monkeypatch, blown):
    """Make the Brownian increments of every path index for which
    blown(index) holds infinite."""
    real = montecarlo.path_increments

    def poisoned(seed, first, count, steps, dt):
        out = real(seed, first, count, steps, dt)
        for pid in range(first, first + count):
            if blown(pid):
                out[pid - first] = np.inf
        return out

    monkeypatch.setattr(montecarlo, "path_increments", poisoned)


def test_blowup_budget(monkeypatch, sol_a):
    poison_paths(monkeypatch, lambda pid: pid % 10 == 0)
    with pytest.raises(BlowUpError):
        rl.simulate(sol_a, rl.SimConfig(paths=100, seed=1, substeps=1))


def test_blowup_within_budget_flags(monkeypatch, sol_a):
    poison_paths(monkeypatch, lambda pid: pid == 7)
    out = rl.simulate(sol_a, rl.SimConfig(paths=2000, seed=1, substeps=1))
    assert out.blown == 1
    assert np.isnan(out.j[7]) and np.isfinite(out.j_mean)
    summary = out.summary()
    assert summary["blown"] == 1 and np.isfinite(summary["j"]["mean"])


def test_blown_path_leaves_rows_finite(monkeypatch, sol_a):
    # one blown path is within the budget; it is dropped from every row's
    # statistics instead of turning the row into nan
    poison_paths(monkeypatch, lambda pid: pid == 7)
    cfg = rl.SimConfig(paths=3000, seed=1, substeps=1)
    for rep in (rl.perturb_best_response(sol_a, cfg, directions=2),
                rl.sampled_convexity(sol_a, cfg, samples=2)):
        assert all(np.isfinite([r.delta_j, r.stderr]).all() for r in rep.rows)
        assert rep.ok, [r for r in rep.rows if r.verdict != "pass"]


@pytest.mark.parametrize("field", ["paths", "substeps", "chunk"])
def test_sim_config_rejects_counts_below_one(field):
    with pytest.raises(SpecError, match=f"{field} must be at least 1"):
        rl.SimConfig(**{field: 0})


@pytest.mark.parametrize("suite, count", [(rl.perturb_best_response, "directions"),
                                          (rl.sampled_convexity, "samples")])
def test_deviation_suites_reject_no_directions(sol_a, suite, count):
    with pytest.raises(SpecError, match="must be at least 1"):
        suite(sol_a, rl.SimConfig(paths=10), **{count: 0})


# sha256 of the per-path arrays of simulate(instance_a, paths=64, seed=3,
# substeps=2, chunk=17): any change to the realized numbers shows here
SIM_GOLDEN = {
    "j": "c9a96f6e1ee6bac3c783e3d74cf63502fec2e090bb99d15eb27712697bab874c",
    "j_follower": "a55e42bb5e569fa2a226f9152fcbd39fd16108326748533a8629de3427bf5773",
    "j_leader": "3e83e4229cfecb9a5fc7230de14239bc49db2fbfd96bd7ca0cde016a604a7734",
    "terminal": "b20833a0ca733efb2e7d6bf2973af10e80a28c6a81bfe07b776522f9c33c22af",
}

# rows of perturb_best_response(directions=2) and sampled_convexity(samples=2)
# on instance_a with 200 paths, seed 0, one substep
ROWS_GOLDEN = [
    ("follower_control", 0, 0.05, -9.36016529936165e-05, 0.0037231261454024516, "inconclusive"),
    ("follower_control", 0, 0.1, 0.005640031815727988, 0.007342480783614789, "inconclusive"),
    ("follower_control", 1, 0.05, 0.001512778753415847, 0.003100488926872929, "inconclusive"),
    ("follower_control", 1, 0.1, 0.008098882836222341, 0.006140041580547353, "inconclusive"),
    ("leader_control", 0, 0.05, -0.005342972328833411, 0.0013552683796688584, "pass"),
    ("leader_control", 0, 0.1, -0.015681088974267225, 0.002738605744957075, "pass"),
    ("leader_control", 1, 0.05, -0.002648507292344931, 0.0014445852846171013, "inconclusive"),
    ("leader_control", 1, 0.1, -0.0102731573660438, 0.0028570870065310725, "pass"),
    ("follower_disturbance", 0, 0.05, -0.009361433545994818, 0.000550239861405054, "pass"),
    ("follower_disturbance", 0, 0.1, -0.03786697793459627, 0.0010912763682280056, "pass"),
    ("follower_disturbance", 1, 0.05, -0.00963454948407181, 0.0006898886775098459, "pass"),
    ("follower_disturbance", 1, 0.1, -0.03800950451578839, 0.0013931382395756034, "pass"),
    ("leader_disturbance", 0, 0.05, 0.00999876642157361, 0.0002773581666937653, "pass"),
    ("leader_disturbance", 0, 0.1, 0.04012766337644726, 0.0005548167546751253, "pass"),
    ("leader_disturbance", 1, 0.05, 0.010167712543683372, 0.00023169578949256437, "pass"),
    ("leader_disturbance", 1, 0.1, 0.04041681169735236, 0.0004632167745885995, "pass"),
    ("follower_disturbance_concavity", 0, 1.0, 3.367423442399895, 0.008622520513457212, "pass"),
    ("follower_disturbance_concavity", 1, 1.0, 3.810701314765108, 0.003542388616992521, "pass"),
    ("follower_control_convexity", 0, 1.0, 1.0802603613254576, 0.02693611331944197, "pass"),
    ("follower_control_convexity", 1, 1.0, 1.448389131892797, 0.05451433028915402, "pass"),
    ("leader_disturbance_convexity", 0, 1.0, 4.024908951216922, 0.0002116473095363951, "pass"),
    ("leader_disturbance_convexity", 1, 1.0, 4.082170603725057, 0.0009060090620968629, "pass"),
    ("leader_control_concavity", 0, 1.0, 1.0856049033937663, 0.005167596684185323, "pass"),
    ("leader_control_concavity", 1, 1.0, 1.1276729093366904, 0.0038207084867060205, "pass"),
]


def test_harness_golden_values(sol_a):
    out = rl.simulate(sol_a, rl.SimConfig(paths=64, seed=3, substeps=2, chunk=17))
    for name, digest in SIM_GOLDEN.items():
        assert hashlib.sha256(getattr(out, name).tobytes()).hexdigest() == digest, name
    cfg = rl.SimConfig(paths=200)
    rows = (rl.perturb_best_response(sol_a, cfg, directions=2).rows
            + rl.sampled_convexity(sol_a, cfg, samples=2).rows)
    assert [(r.test, r.direction, r.eps, r.verdict) for r in rows] == \
        [(g[0], g[1], g[2], g[5]) for g in ROWS_GOLDEN]
    for r, (*_, delta_j, stderr, _) in zip(rows, ROWS_GOLDEN):
        tol = 1e-9 * (abs(delta_j) + stderr)
        assert abs(r.delta_j - delta_j) <= tol and abs(r.stderr - stderr) <= tol, r
