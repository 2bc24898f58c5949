"""Shared instances and fixtures.

instance_a is the scalar non-degenerate game used by the Monte Carlo
verification tests (all diffusion couplings on); instance_b is its
diffusion-free counterpart where the boundary-value oracle and the
fundamental-matrix closed forms apply.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import robustlq as rl


def instance_a(N=200):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=N, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.5]],
        A=0.3, C=0.2, B1=1.0, D1=0.4, B2=1.0, D2=0.3, sigma=0.4, f1=0.2,
        Q=1.0, R1=0.8, R2=-1.2, R0=1.0, R0hat=1.0,
    )


def instance_b(N=256):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=0.5, N=N, alpha=10.0, gamma=10.0, xi=[1.0], G=[[0.1]],
        A=0.2, C=0.0, B1=0.6, D1=0.0, B2=0.6, D2=0.0, sigma=0.3, f1=0.1,
        Q=0.4, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )


def homogeneous_spec(N=100, xi=0.0):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=N, alpha=4.0, gamma=4.0, xi=[xi], G=[[0.0]],
        A=0.4, C=0.3, B1=1.0, D1=0.2, B2=0.8, D2=0.2, sigma=0.0, f1=0.0,
        Q=0.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0,
    )


def production_spec(N=400):
    return rl.build_spec(
        n=1, m1=1, m2=1, T=2.0, N=N, alpha=400.0, gamma=400.0, xi=[1.0],
        G=[[1.0]], A=0.5, C=-1.0, B1=1.0, D1=1.0, B2=1.0, D2=1.0,
        sigma=0.0, f1=0.0, Q=1.0, R1=-0.5, R2=0.2, R0=1.0, R0hat=1.0,
    )


def random_spec(seed, n, special=False, T=1.0, N=300):
    """Random validated game instance with stable-ish coefficients.

    With special=True the diffusion couplings C, D1, D2 vanish, which is
    the regime of the fundamental-matrix closed forms.
    """
    rng = np.random.default_rng(seed)

    def mat(r, c, scale):
        return scale * rng.standard_normal((r, c))

    A0 = mat(n, n, 0.35) - 0.2 * np.eye(n)
    A1 = mat(n, n, 0.15)
    q0 = mat(n, n, 0.5)
    Q0 = 0.5 * q0 @ q0.T + 0.2 * np.eye(n)
    g0 = mat(n, n, 0.4)
    G = 0.4 * g0 @ g0.T
    C = None if special else mat(n, n, 0.25)
    D1 = None if special else mat(n, 1, 0.3)
    D2 = None if special else mat(n, 1, 0.3)
    # linear-in-time drift and state weight: genuinely time varying, yet
    # reproduced exactly by node sampling with linear interpolation
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


@pytest.fixture(scope="session")
def sol_a():
    return rl.solve_game(instance_a())


@pytest.fixture(scope="session")
def sol_b():
    return rl.solve_game(instance_b())


@pytest.fixture(scope="session")
def sol_homog():
    return rl.solve_game(homogeneous_spec(xi=1.0))


def hand_made_deviations(shift, paths=100, directions=2, samples=2):
    """Deviations whose every per-path response, cross and quad, is an
    alternating +-1 noise minus sign * shift: each suite's sign * J moves
    by -shift, about 10 shift standard errors, and shift = 0 leaves every
    mean at exactly zero, inside the noise floor."""
    noise = np.tile([1.0, -1.0], paths // 2)[:, None]
    cols = np.ones((1, directions + samples))
    tests = [SimpleNamespace(name=name, sign=sign) for name, sign in (
        ("follower_control", 1.0), ("leader_control", -1.0),
        ("follower_disturbance", -1.0), ("leader_disturbance", 1.0))]
    out = {(kind, t.name): (noise - t.sign * shift) * cols
           for t in tests for kind in ("cross", "quad")}
    return rl.montecarlo.Deviations(tests, out, directions, samples)


def malformed_spec_docs():
    """Spec documents with one defect each, keyed by the defect, with a
    fragment of the SpecError message that must name it."""

    def doc_with(**edits):
        doc = rl.spec_to_dict(instance_a(N=8))
        for key, val in edits.items():
            if key == "Q":
                doc["matrices"]["Q"] = {"nodes": [{"t": t, "value": [[1.0]]} for t in val]}
            else:
                doc[key] = val
        return doc

    def with_matrix(name, value):
        doc = doc_with()
        doc["matrices"][name] = value
        return doc

    def without_matrix(name):
        doc = doc_with()
        del doc["matrices"][name]
        return doc

    def zero_dim(field, matrices, **edits):
        # every matrix with a dimension of that size is empty, so the
        # shapes stay consistent and only the zero dimension is at fault
        doc = doc_with(**{field: 0}, **edits)
        for name in matrices:
            doc["matrices"][name] = {"constant": []}
        return doc

    state_matrices = [m for m in doc_with()["matrices"] if m not in ("R1", "R2")]

    return {
        "xi_length": (doc_with(xi=[1.0, 2.0]), "xi has 2 entries"),
        "fractional_N": (doc_with(N=3.7), "'N' must be an integer"),
        "duplicate_node_time": (doc_with(Q=[0.0, 0.5, 0.5, 1.0]), "repeats a node time"),
        "uncovered_nodes": (doc_with(Q=[0.2, 0.4]), "does not cover"),
        "empty_node_list": (doc_with(Q=[]), "'Q' has an empty node list"),
        "non_numeric_T": (doc_with(T="abc"), "'T' must be numeric"),
        "non_numeric_alpha": (doc_with(alpha="x"), "'alpha' must be numeric"),
        "non_numeric_xi": (doc_with(xi=["a"]), "'xi' must be numeric"),
        "non_numeric_node_time": (doc_with(Q=["a", 1.0]), "node times of matrix 'Q'"),
        "nan_node_time": (doc_with(Q=[0.0, 0.5, float("nan"), 1.0]),
                          "matrix 'Q' has a non-finite node time"),
        "infinite_node_times": (doc_with(Q=[-float("inf"), 0.5, float("inf")]),
                                "matrix 'Q' has a non-finite node time"),
        "infinite_alpha": (doc_with(alpha=float("inf")), "'alpha' must be finite"),
        "infinite_gamma": (doc_with(gamma=-float("inf")), "'gamma' must be finite"),
        "top_level_list": ([1, 2], "spec document must be a JSON object"),
        "matrices_string": (doc_with(matrices="GA"), "'matrices' must be a JSON object"),
        "matrix_number": (with_matrix("A", 5), "matrix 'A' must be a JSON object"),
        "terminal_number": (with_matrix("G", 5), "matrix 'G' must be a JSON object"),
        "matrix_null": (with_matrix("A", None), "matrix 'A' must be a JSON object"),
        "matrix_no_entry": (with_matrix("A", {}), "must have a 'constant' or 'nodes' entry"),
        "bare_node_values": (with_matrix("Q", {"nodes": [1.0, 2.0]}),
                             "nodes must be entries with 't' and 'value'"),
        "missing_terminal": (without_matrix("G"), "spec file missing matrix 'G'"),
        "terminal_nodes": (with_matrix("G", {"nodes": [{"t": t, "value": [[1.0]]}
                                                       for t in (0.0, 1.0)]}),
                           "terminal weight G must be given as a constant matrix"),
        "zero_state_dimension": (zero_dim("n", state_matrices, xi=[]),
                                 "dimension 'n' must be at least 1"),
        "zero_follower_control": (zero_dim("m1", ["B1", "D1", "R1"]),
                                  "dimension 'm1' must be at least 1"),
        "zero_leader_control": (zero_dim("m2", ["B2", "D2", "R2"]),
                                "dimension 'm2' must be at least 1"),
        "huge_N": (doc_with(N=1e30), "too large to allocate"),
    }
