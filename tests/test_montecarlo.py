import hashlib
import tracemalloc

import numpy as np
import pytest

import robustlq as rl
from robustlq import montecarlo
from robustlq.model import BlowUpError, SpecError

from conftest import homogeneous_spec, instance_b, random_spec


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
    # chunks of one path, of 97 paths, and one chunk holding more than one
    # of the loop's internal path blocks
    paths = montecarlo.PATH_BLOCK + 300
    runs = [rl.simulate(sol_a, rl.SimConfig(paths=paths, seed=9, substeps=2, chunk=chunk))
            for chunk in (1, 97, montecarlo.PATH_BLOCK + 100)]
    for out in runs[1:]:
        for name in ("j", "j_follower", "j_leader", "terminal"):
            assert np.array_equal(getattr(out, name), getattr(runs[0], name)), name


def reference_run(pre, tests, dW):
    """Path-major Euler loop that evaluates every signal and every cost
    term one at a time: the per-path criteria and each test's cross and
    quad, as `montecarlo._run` reports them."""
    dt, criteria = pre["dt"], pre["criteria"]
    paths = len(dW)
    X = np.tile(pre["x0"], (paths, 1))
    Z = {t.name: np.zeros((paths,) + t.b.shape[1:]) for t in tests}
    out = {name: np.zeros(paths) for name in criteria}
    for t in tests:
        out["cross", t.name] = out["quad", t.name] = 0.0

    def signal(s, k, X):
        E = pre["signals"][s]
        E = E if E.ndim == 2 else E[k]
        return X @ E[:, :-1].T + E[:, -1]

    def deviation(s, k, Z, moves):
        gain, off = moves[s]
        if gain is None:
            return np.broadcast_to(off[k], (len(Z),) + off.shape[1:])
        dev = np.einsum("ij,pjd->pid", gain if gain.ndim == 2 else gain[k], Z)
        return dev if off is None else dev + off[k]

    def weighted(terms, k):
        # (signal, weight at step k, dt * coefficient) of each term
        return [(s, pre[w] if pre[w].ndim == 2 else pre[w][k], dt * c) for s, w, c in terms]

    for k in range(pre["steps"]):
        for name, (terms, _) in criteria.items():
            for s, W, c in weighted(terms, k):
                base = signal(s, k, X)
                out[name] += c * np.einsum("pi,ij,pj->p", base, W, base)
        for t in tests:
            zk = Z[t.name]
            for s, W, c in weighted(criteria[t.criterion][0], k):
                if s in t.moves:
                    dev = deviation(s, k, zk, t.moves)
                    base = signal(s, k, X)
                    out["cross", t.name] = out["cross", t.name] \
                        + 2.0 * c * np.einsum("pi,ij,pjd->pd", base, W, dev)
                    out["quad", t.name] = out["quad", t.name] \
                        + c * np.einsum("pid,ij,pjd->pd", dev, W, dev)
            drift = np.einsum("ij,pjd->pid", t.A[k], zk) + t.b[k]
            diff = np.einsum("ij,pjd->pid", t.C[k], zk) + t.d[k]
            Z[t.name] = zk + dt * drift + diff * dW[:, k, None, None]
        X = X + dt * (X @ pre["A"][k].T + pre["b"][k][:, 0]) \
            + (X @ pre["C"][k].T + pre["d"][k][:, 0]) * dW[:, k, None]

    for name, (_, s) in criteria.items():
        base = signal(s, None, X)
        out[name] += np.einsum("pi,ij,pj->p", base, pre["G"], base)
    for t in tests:
        s = criteria[t.criterion][1]
        dev = deviation(s, None, Z[t.name], t.moves)
        base = signal(s, None, X)
        out["cross", t.name] = out["cross", t.name] \
            + 2.0 * np.einsum("pi,ij,pjd->pd", base, pre["G"], dev)
        out["quad", t.name] = out["quad", t.name] \
            + np.einsum("pid,ij,pjd->pd", dev, pre["G"], dev)
    return out


def test_collapsed_forms_match_reference_loop(sol_a):
    cfg = rl.SimConfig(paths=50, seed=4, substeps=2)
    tests, out = montecarlo._deviation_tests(sol_a, cfg, 2, 0xD1, None)
    pre = montecarlo._precompute_base(sol_a, cfg.substeps)
    dW = montecarlo.path_increments(cfg.seed, 0, cfg.paths, pre["steps"], pre["dt"])
    ref = reference_run(pre, tests, dW)
    assert len(tests) == 4 and set(ref) == set(out)
    for name in ("game", "follower", "leader"):
        assert np.all(np.abs(out[name] - ref[name]) <= 1e-12 * np.abs(ref[name])), name
    for key in ref.keys() - {"game", "follower", "leader"}:
        # a single path's cross can cancel to near zero: each direction's
        # entries are compared relative to that direction's largest one
        scale = np.abs(ref[key]).max(axis=0)
        assert np.all(np.abs(out[key] - ref[key]) <= 1e-12 * scale), key


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


def dense_oracle_solution(sol, coarse_n):
    """(x_k, y_k) of the oracle's implicit-Euler system, assembled as one
    dense matrix (block rows: initial state, forward steps, backward steps,
    terminal; block columns x_0..x_c, then y_0..y_c) and solved directly."""
    dh = sol.dh
    ten = dh.A1.rows
    grid = rl.make_grid(sol.spec.grid.horizon, coarse_n)
    dtc, c = grid.dt, coarse_n
    eye = np.eye(ten)
    M = np.zeros((2 * (c + 1), ten, 2 * (c + 1), ten))
    rhs = np.zeros((2 * (c + 1), ten))
    nxt, here, k = grid.nodes[1:], grid.nodes[:-1], np.arange(c)
    M[0, :, 0] = eye
    rhs[0] = dh.Xi[:, 0]
    M[1 + k, :, 1 + k] = eye - dtc * dh.A1.at(nxt)
    M[1 + k, :, k] = -eye
    M[1 + k, :, c + 2 + k] = -dtc * dh.B1.at(nxt)
    rhs[1 + k] = dtc * dh.F.at(nxt)[:, :, 0]
    M[c + 1 + k, :, c + 2 + k] = eye
    M[c + 1 + k, :, c + 1 + k] = -eye + dtc * dh.A2.at(here).mT
    M[c + 1 + k, :, k] = -dtc * dh.Q.at(here)
    rhs[c + 1 + k] = dtc * dh.Upsilon.at(here)[:, :, 0]
    M[-1, :, -1] = eye
    M[-1, :, c] = -dh.G
    z = np.linalg.solve(M.reshape(rhs.size, rhs.size), rhs.ravel())
    return z[:(c + 1) * ten].reshape(c + 1, ten), z[(c + 1) * ten:].reshape(c + 1, ten)


@pytest.mark.parametrize("make", [lambda: instance_b(), lambda: random_spec(3, 2, special=True),
                                  lambda: random_spec(5, 1)],
                         ids=["instance_b", "random_n2_diffusion_free", "random_n1"])
def test_bvp_oracle_banded_matches_dense_solve(make):
    sol = rl.solve_game(make())
    res = rl.bvp_oracle(sol, 16)
    X, Y = dense_oracle_solution(sol, 16)
    scale = max(np.abs(X).max(), np.abs(Y).max())
    assert np.abs(res.X_oracle - X).max() <= 1e-12 * scale
    assert np.abs(res.Y_oracle - Y).max() <= 1e-12 * scale


def test_bvp_oracle_memory_is_banded():
    # the dense system of this call would hold (2 * 40 * 129)^2 doubles
    sol = rl.solve_game(random_spec(1, 4, N=800))
    tracemalloc.start()
    try:
        rl.bvp_oracle(sol, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"{peak / 1e6:.1f} MB"


def test_equilibrium_verification_n2():
    """Dimension-generic end to end: a 2-state game's value matches Monte
    Carlo and all four deviation tests keep their signs."""
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
    "j": "627cfa4c3bf5a71fbd93018c5073e03824b6b910ce329aca1f50b2d1323ce3b0",
    "j_follower": "e94cd7518510d1d35712b311bcc361ac8d249594cab7a848b29dec03b7f180ee",
    "j_leader": "4700b8b84d23f0f2a0a16bb7e6e10e56889c8c06313588f08aafb2683a816b16",
    "terminal": "e8f724ef2ca20173722ca6d489773953aea1118f86d0d9f903903a1a71abcaff",
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
