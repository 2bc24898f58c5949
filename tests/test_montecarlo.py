import hashlib
import tracemalloc

import numpy as np
import pytest

import robustlq as rl
from robustlq import equilibrium, montecarlo
from robustlq.model import BlowUpError, SpecError

from conftest import homogeneous_spec, instance_a, instance_b, random_spec


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
    out1 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=9, substeps=1))
    out2 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=9, substeps=1))
    assert np.array_equal(out1.j, out2.j)
    assert np.array_equal(out1.terminal, out2.terminal)
    out3 = rl.simulate(sol_a, rl.SimConfig(paths=400, seed=10, substeps=1))
    assert not np.array_equal(out1.j, out3.j)
    # a block's paths are the same whether or not another block follows
    B = montecarlo.PATH_BLOCK
    one, two = (rl.simulate(sol_a, rl.SimConfig(paths=paths, seed=9, substeps=2))
                for paths in (B, B + 300))
    for name in ("j", "j_follower", "j_leader", "terminal"):
        assert np.array_equal(getattr(two, name)[:B], getattr(one, name)), name


def test_path_increments_slices_of_aligned_blocks():
    B, steps, dt = montecarlo.PATH_BLOCK, 5, 0.01
    blocks = [montecarlo.path_increments(4, b * B, B, steps, dt) for b in range(3)]
    full = np.concatenate(blocks)
    # a range across a block boundary is the matching rows of the two blocks
    assert np.array_equal(montecarlo.path_increments(4, B - 3, 10, steps, dt),
                          np.concatenate([blocks[0][-3:], blocks[1][:7]]))
    # a path's row depends on (seed, path index) only
    for first, count in ((0, 1), (1, 1), (B - 1, 2), (B, 10), (B + 517, 2 * B - 600),
                         (2 * B + 5, 1)):
        rows = montecarlo.path_increments(4, first, count, steps, dt)
        assert np.array_equal(rows, full[first:first + count]), (first, count)


def test_streams_drawn_once_per_path(monkeypatch, sol_a):
    drawn = []
    inner = montecarlo.path_increments

    def counting(seed, first, count, steps, dt):
        drawn.append(count)
        return inner(seed, first, count, steps, dt)

    monkeypatch.setattr(montecarlo, "path_increments", counting)
    paths = montecarlo.PATH_BLOCK + 300
    rl.simulate(sol_a, rl.SimConfig(paths=paths, seed=9, substeps=1))
    assert drawn == [montecarlo.PATH_BLOCK, 300]  # one call per block


def test_simulate_holds_one_block_of_increments():
    # three blocks of 800 steps each: a run that drew all of them before
    # stepping would hold three blocks of increments at once
    sol = rl.solve_game(instance_a(N=100))
    B, substeps = montecarlo.PATH_BLOCK, 8
    block = B * sol.spec.grid.steps * substeps * 8
    tracemalloc.start()
    try:
        rl.simulate(sol, rl.SimConfig(paths=3 * B, seed=2, substeps=substeps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block, f"{peak / block:.2f} blocks"


@pytest.mark.parametrize("seed", [0, 12345])
def test_brownian_streams_disjoint_from_direction_streams(seed):
    # the streams `deviation_tests` draws directions from when
    # directions_seed == seed: perturbations (0xD1), convexity (0xC0)
    heads = 16
    directions = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(key,)))).standard_normal(heads) for key in (0xD1, 0xC0)]
    B = montecarlo.PATH_BLOCK
    starts = [montecarlo.path_increments(seed, b * B, 1, heads, 1.0)[0] for b in range(256)]
    rows = montecarlo.path_increments(seed, 0, 256, heads, 1.0)
    for d in directions:
        for i, draws in enumerate(starts + list(rows)):
            assert not np.array_equal(draws, d), i


def reference_run(pre, tests, dW):
    """Path-major Euler loop that evaluates every signal and every cost
    term one at a time: the per-path criteria and each test's cross and
    quad, as `montecarlo._run` reports them."""
    dt, criteria = pre["dt"], pre["criteria"]
    A, b, C, d = (path.at(pre["left"]) for path in pre["closed_loop"])
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
        X = X + dt * (X @ A[k].T + b[k][:, 0]) + (X @ C[k].T + d[k][:, 0]) * dW[:, k, None]

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
    dev = rl.deviation_tests(sol_a, cfg, directions=2, samples=1)
    tests, out = dev.tests, dev.out
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


def test_factored_costs_match_reference_loop_n2():
    # at n = 2 the disturbances f and f2 are two rows each, so a signal's
    # term spans several rows of the factored step costs
    sol = rl.solve_game(random_spec(42, 2, N=150))
    cfg = rl.SimConfig(paths=50, seed=4, substeps=2)
    dev = rl.deviation_tests(sol, cfg, directions=2, samples=1)
    sim = rl.simulate(sol, cfg)
    pre = montecarlo._precompute_base(sol, cfg.substeps)
    dW = montecarlo.path_increments(cfg.seed, 0, cfg.paths, pre["steps"], pre["dt"])
    ref = reference_run(pre, dev.tests, dW)
    for name, field in (("game", "j"), ("follower", "j_follower"), ("leader", "j_leader")):
        for got in (dev.out[name], getattr(sim, field)):
            assert np.all(np.abs(got - ref[name]) <= 1e-12 * np.abs(ref[name])), name
    for key in ref.keys() - {"game", "follower", "leader"}:
        scale = np.abs(ref[key]).max(axis=0)
        assert np.all(np.abs(dev.out[key] - ref[key]) <= 1e-12 * scale), key


def test_simulated_signals_are_the_feedback_maps(sol_a):
    """The Monte Carlo controls and disturbances are the equilibrium maps
    `feedback` evaluates, at the left ends of the sub-grid steps."""
    grid = sol_a.spec.grid
    pre = montecarlo._precompute_base(sol_a, 2)
    maps = equilibrium.row_maps(sol_a, rl.make_grid(grid.horizon, 2 * grid.steps).nodes[:-1])
    for name in ("u1", "u2", "f", "f2"):
        assert np.array_equal(pre["signals"][name], maps[name]), name


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
    rep = rl.perturb_best_response(rl.deviation_tests(
        sol_a, rl.SimConfig(paths=50, seed=5, substeps=1), directions=2, samples=1),
        eps=(0.0,))
    assert len(rep.rows) == 8
    for r in rep.rows:
        assert r.delta_j == 0.0 and r.stderr == 0.0 and r.verdict == "pass"


def test_verification_solves_only_the_leader_stage_riccati():
    # the leader-deviation response reads P3, solved on demand
    sol = rl.solve_game(homogeneous_spec(N=40, xi=1.0))
    assert sol.P3 is None
    rl.perturb_best_response(rl.deviation_tests(sol, rl.SimConfig(paths=10, seed=1),
                                                directions=1, samples=1), eps=(0.1,))
    assert sol.P3 is not None


def test_homogeneous_follower_test_deterministic():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=100, alpha=4.0, gamma=4.0, xi=[1.0], G=[[0.0]],
        A=0.4, C=0.0, B1=1.0, D1=0.0, B2=0.8, D2=0.0, sigma=0.0, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    rep = rl.perturb_best_response(rl.deviation_tests(
        sol, rl.SimConfig(paths=40, seed=2, substeps=1), directions=3, samples=1),
        eps=(0.1,))
    rows = [r for r in rep.rows if r.test == "follower_control"]
    assert len(rows) == 3
    for r in rows:
        # purely quadratic deviation cost eps^2 * R1 * |v|^2 with R1 = 1
        assert r.stderr == 0.0
        assert r.delta_j == pytest.approx(0.01, rel=0.03)
        assert r.verdict == "pass"


def test_perturbation_suite_small(sol_a):
    rep = rl.perturb_best_response(rl.deviation_tests(
        sol_a, rl.SimConfig(paths=3000, seed=7, substeps=2), directions=3, samples=1),
        eps=(0.1,))
    assert len(rep.rows) == 12
    assert rep.ok, [r for r in rep.rows if r.verdict != "pass"]


def test_sampled_convexity_homogeneous_penalty_only():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=100, alpha=2.0, gamma=2.0, xi=[1.0], G=[[0.0]],
        A=0.4, C=0.0, B1=1.0, D1=0.0, B2=0.8, D2=0.0, sigma=0.0, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )
    sol = rl.solve_game(spec)
    rep = rl.sampled_convexity(rl.deviation_tests(
        sol, rl.SimConfig(paths=40, seed=2, substeps=1), directions=1, samples=3))
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
        rep = rl.sampled_convexity(rl.deviation_tests(
            sol, rl.SimConfig(paths=800, seed=4, substeps=1), directions=1, samples=4,
            directions_seed=77))
        vals = [r.delta_j for r in rep.rows
                if r.test == "follower_disturbance_concavity"]
        return min(vals)

    assert min_j1(12.0) > min_j1(6.0)


def test_convexity_report_all_positive(sol_a):
    rep = rl.sampled_convexity(rl.deviation_tests(
        sol_a, rl.SimConfig(paths=1500, seed=3, substeps=2), directions=1, samples=3))
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
    """(x_k, y_k) of the oracle's trapezoidal system, assembled as one
    dense matrix (block rows: initial state, forward steps, backward steps,
    terminal; block columns x_0..x_c, then y_0..y_c) and solved directly."""
    dh = sol.dh
    ten = dh.A1.rows
    grid = rl.make_grid(sol.spec.grid.horizon, coarse_n)
    h, c = 0.5 * grid.dt, coarse_n
    eye = np.eye(ten)
    M = np.zeros((2 * (c + 1), ten, 2 * (c + 1), ten))
    rhs = np.zeros((2 * (c + 1), ten))
    A1, B1, A2, Q = (p.at(grid.nodes) for p in (dh.A1, dh.B1, dh.A2, dh.Q))
    F, Ups = (p.at(grid.nodes)[:, :, 0] for p in (dh.F, dh.Upsilon))
    k = np.arange(c)
    M[0, :, 0] = eye
    rhs[0] = dh.Xi[:, 0]
    # x_(k+1) - x_k = h (A1 x + B1 y + F)_k + h (A1 x + B1 y + F)_(k+1)
    M[1 + k, :, k] = -eye - h * A1[k]
    M[1 + k, :, 1 + k] = eye - h * A1[k + 1]
    M[1 + k, :, c + 1 + k] = -h * B1[k]
    M[1 + k, :, c + 2 + k] = -h * B1[k + 1]
    rhs[1 + k] = h * (F[k] + F[k + 1])
    # y_(k+1) - y_k = h (Q x - A2' y + Ups)_k + h (Q x - A2' y + Ups)_(k+1)
    M[c + 1 + k, :, k] = -h * Q[k]
    M[c + 1 + k, :, 1 + k] = -h * Q[k + 1]
    M[c + 1 + k, :, c + 1 + k] = -eye + h * A2[k].mT
    M[c + 1 + k, :, c + 2 + k] = eye + h * A2[k + 1].mT
    rhs[c + 1 + k] = h * (Ups[k] + Ups[k + 1])
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
    rep = rl.perturb_best_response(rl.deviation_tests(
        sol, rl.SimConfig(paths=2500, seed=5, substeps=2), directions=2, samples=1),
        eps=(0.1,))
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
    dev = rl.deviation_tests(sol_a, cfg, directions=2, samples=2)
    for rep in (rl.perturb_best_response(dev), rl.sampled_convexity(dev)):
        assert all(np.isfinite([r.delta_j, r.stderr]).all() for r in rep.rows)
        assert rep.ok, [r for r in rep.rows if r.verdict != "pass"]


@pytest.mark.parametrize("field", ["paths", "substeps"])
def test_sim_config_rejects_counts_below_one(field):
    with pytest.raises(SpecError, match=f"{field} must be at least 1"):
        rl.SimConfig(**{field: 0})


def test_negative_seeds_rejected(sol_a):
    with pytest.raises(SpecError, match="seed must be non-negative"):
        rl.SimConfig(seed=-1)
    with pytest.raises(SpecError, match="directions_seed must be non-negative"):
        rl.deviation_tests(sol_a, rl.SimConfig(paths=10), directions_seed=-1)


def test_suites_read_independent_columns(sol_a):
    """Each suite's rows are bit-identical whatever the other suite's
    count: the shared run keeps every direction column independent."""
    cfg = rl.SimConfig(paths=60, seed=6, substeps=1)
    few, many = (rl.deviation_tests(sol_a, cfg, directions=3, samples=s) for s in (1, 10))
    assert rl.perturb_best_response(few).rows == rl.perturb_best_response(many).rows
    few, many = (rl.deviation_tests(sol_a, cfg, directions=d, samples=3) for d in (1, 7))
    assert rl.sampled_convexity(few).rows == rl.sampled_convexity(many).rows


@pytest.mark.parametrize("suite, count", [(rl.perturb_best_response, "directions"),
                                          (rl.sampled_convexity, "samples")])
def test_deviation_suites_reject_no_directions(sol_a, suite, count):
    with pytest.raises(SpecError, match="must be at least 1"):
        suite(rl.deviation_tests(sol_a, rl.SimConfig(paths=10), **{count: 0}))


def test_one_suite_run(sol_a):
    # a run with no columns for one suite serves the other alone
    cfg = rl.SimConfig(paths=40, seed=6, substeps=1)
    only, both = (rl.deviation_tests(sol_a, cfg, directions=2, samples=s) for s in (0, 3))
    assert rl.perturb_best_response(only).rows == rl.perturb_best_response(both).rows
    only, both = (rl.deviation_tests(sol_a, cfg, directions=d, samples=2) for d in (0, 3))
    assert rl.sampled_convexity(only).rows == rl.sampled_convexity(both).rows
    with pytest.raises(SpecError, match="add up to at least 1"):
        rl.deviation_tests(sol_a, cfg, directions=0, samples=0)
    with pytest.raises(SpecError, match="non-negative"):
        rl.deviation_tests(sol_a, cfg, directions=-1, samples=2)


# sha256 of the per-path arrays of simulate(instance_a, paths=64, seed=3,
# substeps=2): any change to the realized numbers shows here
SIM_GOLDEN = {
    "j": "7ff2641efc29604c7255de6549561157289ac037181c04640d6fd71d0a210d31",
    "j_follower": "5ecdf5a622ee0328852396140be33de295e1ba2bbdbf265f54499cfa4a425583",
    "j_leader": "f44d41212e26a10bb11da1cbb9c7918adac1f7fd99e7e462ba69284ad5f30846",
    "terminal": "a03048259e23bbfde714e2fcdd2a023999435b576c6a825b0f4d6e5532f061a6",
}

# rows of perturb_best_response and sampled_convexity on one
# deviation_tests(directions=2, samples=2) run on instance_a with 200
# paths, seed 0, one substep
ROWS_GOLDEN = [
    ("follower_control", 0, 0.05, 0.004935918140352966, 0.004357548635950177, "inconclusive"),
    ("follower_control", 0, 0.1, 0.016006592310352584, 0.008583215285105767, "inconclusive"),
    ("follower_control", 1, 0.05, 0.004091233810958604, 0.0034524739466890654, "inconclusive"),
    ("follower_control", 1, 0.1, 0.01346837001506781, 0.006882105560193203, "inconclusive"),
    ("leader_control", 0, 0.05, -0.002301015023223553, 0.001371995167655752, "inconclusive"),
    ("leader_control", 0, 0.1, -0.009525233514403555, 0.0027745508804344473, "pass"),
    ("leader_control", 1, 0.05, -0.002254462735309829, 0.001326939508841187, "inconclusive"),
    ("leader_control", 1, 0.1, -0.009501741507484457, 0.0026268430523591524, "pass"),
    ("follower_disturbance", 0, 0.05, -0.009624223791533031, 0.0005409736273648431, "pass"),
    ("follower_disturbance", 0, 0.1, -0.03838835348720627, 0.00107297088663187, "pass"),
    ("follower_disturbance", 1, 0.05, -0.009508038765027456, 0.0006726987327479846, "pass"),
    ("follower_disturbance", 1, 0.1, -0.03775359748534997, 0.0013581805763295384, "pass"),
    ("leader_disturbance", 0, 0.05, 0.010144720460081495, 0.00026608725330467143, "pass"),
    ("leader_disturbance", 0, 0.1, 0.04041973388699919, 0.0005322349953469721, "pass"),
    ("leader_disturbance", 1, 0.05, 0.01018776642412957, 0.0002426376661817259, "pass"),
    ("leader_disturbance", 1, 0.1, 0.04045708963650158, 0.00048512529565987764, "pass"),
    ("follower_disturbance_concavity", 0, 1.0, 3.3661815262361143, 0.009052447334780613, "pass"),
    ("follower_disturbance_concavity", 1, 1.0, 3.80830108157837, 0.0038875042435546595, "pass"),
    ("follower_control_convexity", 0, 1.0, 1.1247801052445618, 0.032059197916824836, "pass"),
    ("follower_control_convexity", 1, 1.0, 1.431666336925936, 0.05973742668291184, "pass"),
    ("leader_disturbance_convexity", 0, 1.0, 4.02515593895672, 0.00023899445309982835, "pass"),
    ("leader_disturbance_convexity", 1, 1.0, 4.0815006689117554, 0.0009796740754426537, "pass"),
    ("leader_control_concavity", 0, 1.0, 1.0809547241978859, 0.005435679882077832, "pass"),
    ("leader_control_concavity", 1, 1.0, 1.1178317922459737, 0.004552710010199607, "pass"),
]


def test_harness_golden_values(sol_a):
    out = rl.simulate(sol_a, rl.SimConfig(paths=64, seed=3, substeps=2))
    for name, digest in SIM_GOLDEN.items():
        assert hashlib.sha256(getattr(out, name).tobytes()).hexdigest() == digest, name
    cfg = rl.SimConfig(paths=200)
    dev = rl.deviation_tests(sol_a, cfg, directions=2, samples=2)
    rows = rl.perturb_best_response(dev).rows + rl.sampled_convexity(dev).rows
    assert [(r.test, r.direction, r.eps, r.verdict) for r in rows] == \
        [(g[0], g[1], g[2], g[5]) for g in ROWS_GOLDEN]
    for r, (*_, delta_j, stderr, _) in zip(rows, ROWS_GOLDEN):
        tol = 1e-9 * (abs(delta_j) + stderr)
        assert abs(r.delta_j - delta_j) <= tol and abs(r.stderr - stderr) <= tol, r
