"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and checked at the stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import robustlq as rl
from robustlq import augment, backward

from conftest import homogeneous_spec, random_spec
from oracles import closed_form_special_case, riccati_residuals, scalar_bode


class _Timer:
    def __init__(self, label, budget):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    @property
    def elapsed(self):
        return time.time() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.label}: {status} [{self.elapsed:.1f} s, "
              f"budget {self.budget:.0f} s]")
        return False


def test_criterion_1_production_example():
    with _Timer("1 (production example)", 1.0) as tm:
        P = scalar_bode(a=0.5, c=-1.0, q=1.0, g=1.0, r1=-0.5, T=2.0, N=2000)
        p0 = P.samples[0, 0, 0]
        expect = 1.5 * np.exp(4.0) - 0.5
        assert abs(p0 - expect) <= 1e-8 * abs(expect)
        traj = P.samples[:, 0, 0]
        assert np.all(np.diff(traj) < 0.0), "trajectory must decrease in t"
        assert traj[-1] == 1.0
        assert tm.elapsed < 1.0


def test_criterion_2_riccati_residuals():
    with _Timer("2 (Riccati residuals)", 30.0) as tm:
        for seed in range(10):
            n = 1 + (seed % 2)
            spec = random_spec(seed, n, N=800)
            assert rl.validate_spec(spec).ok
            P = backward.solve_riccati_follower(spec).P
            P1 = backward.solve_riccati_disturbance(spec).P
            terms = augment.follower_terms(spec, P)
            hat = augment.build_hat(spec, terms)
            check = augment.build_check(spec, terms, hat)
            bb = augment.build_blackboard(check, hat, terms)
            w = augment.build_cost_weights(spec, terms)
            dh = augment.build_doublehat(bb, w, terms.Rbbinv)
            prob = dh.problem()
            Ph = backward.solve_riccati_generalized(prob).P
            for rhs, path, tag in (
                (backward.follower_riccati_rhs(spec), P, "P"),
                (backward.generalized_riccati_rhs(backward.disturbance_problem(spec)), P1, "P1"),
                (backward.generalized_riccati_rhs(prob), Ph, "Phat"),
            ):
                res = riccati_residuals(rhs, path)
                bound = 1e-6 * (1.0 + np.linalg.norm(path.samples, axis=(1, 2)))
                worst = (res / bound).max()
                assert worst <= 1.0, f"seed {seed} {tag}: residual ratio {worst:.2e}"
        assert tm.elapsed < 30.0


def test_criterion_3_special_case_equivalence():
    with _Timer("3 (closed-form equivalence)", 30.0) as tm:
        for seed in range(5):
            n = 1 + (seed % 2)
            spec = random_spec(100 + seed, n, special=True)
            P = backward.solve_riccati_follower(spec).P
            terms = augment.follower_terms(spec, P)
            hat = augment.build_hat(spec, terms)
            check = augment.build_check(spec, terms, hat)
            bb = augment.build_blackboard(check, hat, terms)
            w = augment.build_cost_weights(spec, terms)
            dh = augment.build_doublehat(bb, w, terms.Rbbinv)
            for prob in (hat.problem(), bb.problem(), dh.problem(),
                         backward.disturbance_problem(spec)):
                num = backward.solve_riccati_generalized(prob).P
                cf = closed_form_special_case(prob).P
                gap = np.linalg.norm(num.samples - cf.samples, axis=(1, 2))
                rel = gap / (1.0 + np.linalg.norm(cf.samples, axis=(1, 2)))
                assert rel.max() <= 1e-6, f"seed {100 + seed}: {rel.max():.2e}"
        assert tm.elapsed < 30.0


def test_criterion_4_value_oracle(sol_a):
    with _Timer("4 (value function vs Monte Carlo)", 120.0) as tm:
        v = rl.value(sol_a)
        out = rl.simulate(sol_a, rl.SimConfig(paths=100_000, seed=11, substeps=4))
        gap = abs(out.j_mean - v)
        assert gap <= 3.0 * out.j_stderr, (
            f"value {v:.6f} vs MC {out.j_mean:.6f} +- {out.j_stderr:.6f}")
        assert tm.elapsed < 120.0


def test_criterion_5_best_response_suite(sol_a):
    with _Timer("5 (best-response perturbations)", 300.0) as tm:
        cfg = rl.SimConfig(paths=10_000, seed=2024, substeps=2)
        dev = rl.deviation_tests(sol_a, cfg, directions=20, samples=0)
        rep = rl.perturb_best_response(dev, eps=(0.0, 0.05, 0.1))
        null_rows = [r for r in rep.rows if r.eps == 0.0]
        assert len(null_rows) == 80
        assert all(r.delta_j == 0.0 and r.stderr == 0.0 for r in null_rows)
        live = [r for r in rep.rows if r.eps > 0.0]
        assert len(live) == 160
        bad = [r for r in live if r.verdict != "pass"]
        assert not bad, f"{len(bad)} perturbation rows failed: {bad[:4]}"
        assert tm.elapsed < 300.0


def test_criterion_6_bvp_oracle(sol_b):
    with _Timer("6 (boundary-value oracle)", 10.0) as tm:
        res64 = rl.bvp_oracle(sol_b, 64)
        res128 = rl.bvp_oracle(sol_b, 128)
        assert res64.gap <= 1e-3, f"gap at N=64 is {res64.gap:.2e}"
        assert res128.gap <= 0.6 * res64.gap, (
            f"no refinement: {res128.gap:.2e} vs {res64.gap:.2e}")
        assert tm.elapsed < 10.0


def test_criterion_7_invariant_suite(sol_a):
    with _Timer("7 (invariant suite)", 60.0) as tm:
        spec = sol_a.spec

        # terminal exactness: each backward solution hits its datum bit-exactly
        assert np.array_equal(sol_a.P.samples[-1], spec.G)
        assert np.array_equal(sol_a.P1.samples[-1], -spec.G)
        assert np.array_equal(sol_a.Phat.samples[-1], rl.ensure_diagnostics(sol_a).dh.G)
        assert np.all(sol_a.phihat.samples[-1] == 0.0)
        M1 = augment.block_row(0, spec.n)
        assert np.array_equal(sol_a.L.samples[-1], M1.T @ spec.G @ M1)
        assert np.all(sol_a.psi.samples[-1] == 0.0)

        # symmetry of the symmetric Riccati flows
        for path in (sol_a.P, sol_a.P1):
            gap = np.abs(path.samples - np.transpose(path.samples, (0, 2, 1))).max()
            assert gap <= 1e-10 * (1.0 + np.abs(path.samples).max())

        # RK4 step-halving order on a smooth scalar instance
        def p0(N):
            s = rl.build_spec(
                n=1, m1=1, m2=1, T=1.0, N=N, alpha=4.0, gamma=4.0, xi=[1.0],
                G=[[0.8]], A=0.3, C=0.1, B1=1.0, D1=0.2, B2=1.0, D2=0.2,
                Q=1.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
            )
            return backward.solve_riccati_follower(s).P.samples[0, 0, 0]

        a, b, c = p0(50), p0(100), p0(200)
        ratio = abs(a - b) / abs(b - c)
        assert 12.0 <= ratio <= 20.0, f"order ratio {ratio:.2f}"

        # seed determinism
        cfg = rl.SimConfig(paths=300, seed=77, substeps=2)
        one = rl.simulate(sol_a, cfg)
        two = rl.simulate(sol_a, rl.SimConfig(paths=300, seed=77, substeps=2))
        assert np.array_equal(one.j, two.j)
        assert np.array_equal(one.terminal, two.terminal)

        # zero propagation of the fully homogeneous game
        hsol = rl.solve_game(homogeneous_spec(xi=1.0))
        for path in (hsol.P, hsol.P1, hsol.Phat, hsol.phihat, hsol.L, hsol.psi,
                     hsol.gains.PM1, hsol.gains.PM2):
            assert np.all(path.samples == 0.0)
        assert rl.value(hsol) == 0.0
        assert tm.elapsed < 60.0
