import copy
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

import robustlq as rl
from robustlq import backward
from robustlq.model import MatrixPath, SpecError

from conftest import instance_a, malformed_spec_docs


def test_make_grid_uniform():
    grid = rl.make_grid(1.0, 2)
    assert np.array_equal(grid.nodes, [0.0, 0.5, 1.0])
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_make_grid_spacing():
    assert rl.make_grid(2.0, 4).dt == 0.5


def test_equal_grids_compare_and_hash_equal():
    # the nodes follow from horizon and steps, so they take no part
    a, b = rl.make_grid(1.0, 4), rl.make_grid(1.0, 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != rl.make_grid(1.0, 5) and a != rl.make_grid(2.0, 4)


def test_make_grid_rejects_bad_horizon():
    with pytest.raises(SpecError, match="horizon must be positive"):
        rl.make_grid(0.0, 5)
    with pytest.raises(SpecError):
        rl.make_grid(1.0, 0)


def test_sample_constant_path():
    grid = rl.make_grid(1.0, 4)
    path = MatrixPath.constant(grid, np.eye(2))
    for t in (0.0, 0.3, 0.77, 1.0):
        assert np.array_equal(path.at(t), np.eye(2))


def test_sample_midpoint_interpolation():
    grid = rl.make_grid(1.0, 1)
    path = MatrixPath(grid, np.array([[[0.0]], [[2.0]]]))
    assert path.at(0.5) == np.array([[1.0]])


def test_sample_rejects_out_of_range():
    grid = rl.make_grid(1.0, 1)
    path = MatrixPath.constant(grid, [[1.0]])
    with pytest.raises(SpecError):
        path.at(-0.1)
    with pytest.raises(SpecError):
        path.at(1.5)


def test_sample_nodes_bit_exact():
    grid = rl.make_grid(0.7, 13)
    rng = np.random.default_rng(1)
    path = MatrixPath(grid, rng.standard_normal((14, 2, 3)))
    for k, t in enumerate(grid.nodes):
        assert np.array_equal(path.at(t), path.samples[k])


def _reference_at(path, t):
    # the read rule written out for one time: node times snap to the
    # stored sample, including a time that rounds onto the next node, and
    # so does a time whose weight w in its cell rounds to 0; in between,
    # the cubic through the four nodes around the cell in the form and
    # order of operations of `MatrixPath._cubic`, one-sided in the end cells
    grid, m = path.grid, path.samples
    u = t / grid.dt
    k = min(max(int(np.floor(u)), 0), grid.steps)
    if k < grid.steps and t == grid.nodes[k + 1]:
        return m[k + 1]
    if t == grid.nodes[k] or k == grid.steps or u == k:
        return m[k]
    u = (u - k) - 0.5
    if 0 < k < grid.steps - 1:
        a, b, c, d = m[k], m[k + 1], m[k - 1], m[k + 2]
        s = a + b
        return (s * 0.5 + (0.25 * (0.25 - u * u)) * (s - (c + d))
                + u * ((0.5 * (2.25 - u * u)) * (b - a) + ((u * u - 0.25) / 6.0) * (d - c)))
    (a, b, c, d), v = (m[:4], u) if k == 0 else (m[:-5:-1], -u)
    e = (3.0 * (b - a) + 4.0 * (b - c) + (d - c)
         + (v / 1.5) * ((4.0 * v * v - 18.0 * v + 23.0) * (b - a)
                        + 2.0 * (4.0 * v * v - 12.0 * v - 1.0) * (b - c)
                        + (4.0 * v * v - 6.0 * v - 1.0) * (d - c)))
    return 0.5 * (a + b) + e * 0.0625


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("N", [7, 200, 256])
def test_located_reads_match_scalar_at(N, T):
    # floating-point times t_k, t_k - h/2, t_k - h, which need not locate
    # exactly on a node or at w = 0.5
    grid = rl.make_grid(T, N)
    path = MatrixPath(grid, np.random.default_rng(N).standard_normal((N + 1, 2, 3)))
    h = grid.dt
    times = [s for k in range(N, 0, -1)
             for s in (grid.nodes[k], grid.nodes[k] - 0.5 * h, grid.nodes[k] - h)]
    samples = path.samples.copy()
    ref = np.stack([_reference_at(path, t) for t in times])
    assert np.array_equal(path.at(np.array(times)), ref)
    assert np.array_equal(np.stack([path.at(t) for t in times]), ref)
    assert np.array_equal(path.at(np.array(times[1])), ref[1])
    assert np.array_equal(path.samples, samples)
    k, w = grid.locate(np.array(times))
    assert list(zip(k.tolist(), w.tolist())) == [grid.locate(t) for t in times]


def _assert_at_reads_half(path):
    # `at` reads the rule `half` reads: at the midpoint time (k + 1/2) dt,
    # in every cell where that time locates at w = 1/2, the odd half step
    # 2k + 1 bit for bit, and within roundoff where it rounds off w = 1/2
    N = path.grid.steps
    tm = (np.arange(N) + 0.5) * path.grid.dt
    k, w = path.grid.locate(tm)
    mids = path.half(2 * np.arange(N) + 1)
    assert np.array_equal(k, np.arange(N)) and (w == 0.5).mean() > 0.9
    assert np.array_equal(path.at(tm[w == 0.5]), mids[w == 0.5])
    assert all(np.array_equal(path.at(t), mid) for t, mid, on in zip(tm, mids, w == 0.5) if on)
    assert np.allclose(path.at(tm), mids, rtol=1e-14, atol=1e-14)


def test_half_step_reads():
    # even half steps are the stored nodes; an odd one reads the midpoint
    # of the cubic through four nodes, one-sided in the two end cells; an
    # array of half steps reads each as a scalar does
    grid = rl.make_grid(3.0, 100)
    path = MatrixPath(grid, np.random.default_rng(3).standard_normal((101, 2, 3)))
    m = path.samples
    for k in range(101):
        assert np.array_equal(path.half(2 * k), m[k])
    for k in range(1, 99):
        expect = (9.0 * (m[k] + m[k + 1]) - m[k - 1] - m[k + 2]) / 16.0
        assert np.allclose(path.half(2 * k + 1), expect, rtol=0.0, atol=1e-15)
    first = (5.0 * m[0] + 15.0 * m[1] - 5.0 * m[2] + m[3]) / 16.0
    last = (5.0 * m[100] + 15.0 * m[99] - 5.0 * m[98] + m[97]) / 16.0
    assert np.allclose(path.half(1), first, rtol=0.0, atol=1e-15)
    assert np.allclose(path.half(199), last, rtol=0.0, atol=1e-15)
    js = np.arange(200, -1, -1)
    ref = np.stack([path.half(int(j)) for j in js])
    assert np.array_equal(path.half(js), ref)
    assert np.array_equal(path.half(js[7:60]), ref[7:60])
    assert np.array_equal(path.half(js[::-2]), ref[::-2])
    assert np.array_equal(path.samples, m)
    _assert_at_reads_half(path)

    # a cubic in time is read exactly (to roundoff) in every cell, the end
    # cells too, at the midpoint by half and at w = 1/4, 1/2 and 3/4 by
    # at; a constant bit-exactly
    t = grid.nodes
    poly = lambda t: 1.0 + t - 2.0 * t ** 2 + 0.5 * t ** 3
    cubic = MatrixPath(grid, poly(t)[:, None, None])
    tm = (t[:-1] + t[1:]) / 2.0
    reads = cubic.half(2 * np.arange(100) + 1)[:, 0, 0]
    assert np.allclose(reads, poly(tm), rtol=0.0, atol=1e-12)
    tw = (np.arange(100)[:, None] + np.array([0.25, 0.5, 0.75])) * grid.dt
    assert np.allclose(cubic.at(tw)[..., 0, 0], poly(tw), rtol=0.0, atol=1e-12)
    value = np.array([[0.1, -3.0e7, 7.3e-9]])
    const = MatrixPath.constant(grid, value)
    assert all(np.array_equal(const.half(j), value) for j in range(201))
    assert np.array_equal(const.half(js), np.broadcast_to(value, (201, 1, 3)))
    assert np.array_equal(const.at(tw), np.broadcast_to(value, (100, 3, 1, 3)))

    # the disturbance problem's B1, -(2/alpha) R0^{-1}, is read where it
    # is read: nodes and off-node reads alike invert R0's read
    R0 = MatrixPath(grid, m[:, :2, :2] @ m[:, :2, :2].mT + np.eye(2))
    B1 = backward.disturbance_problem(rl.build_spec(
        n=2, m1=1, m2=1, T=3.0, N=100, alpha=4.0, gamma=4.0, xi=[0.0, 0.0], G=np.eye(2),
        R0=R0, R0hat=np.eye(2))).B1
    inv = lambda M: -0.5 * np.linalg.solve(M, np.eye(2))
    assert np.array_equal(B1.half(js), inv(R0.half(js)))
    assert np.array_equal(B1.at(tw), inv(R0.at(tw)))
    _assert_at_reads_half(B1)


@pytest.mark.parametrize("steps", [1, 2])
def test_half_step_reads_coarse_grid(steps):
    # a grid of fewer than three steps has no four nodes to fit a cubic
    # through: an odd half step reads the mean of its cell's nodes
    grid = rl.make_grid(1.0, steps)
    path = MatrixPath(grid, np.random.default_rng(steps).standard_normal((steps + 1, 2, 2)))
    m = path.samples
    for k in range(steps):
        assert np.array_equal(path.half(2 * k + 1), 0.5 * (m[k] + m[k + 1]))
    js = np.arange(2 * steps, -1, -1)
    assert np.array_equal(path.half(js), np.stack([path.half(int(j)) for j in js]))
    _assert_at_reads_half(path)
    # off the midpoint, the line through the cell's two nodes
    tw = (np.arange(steps)[:, None] + np.array([0.25, 0.75])) * grid.dt
    w = tw / grid.dt - np.arange(steps)[:, None]
    line = (1.0 - w)[..., None, None] * m[:-1, None] + w[..., None, None] * m[1:, None]
    assert np.allclose(path.at(tw), line, rtol=0.0, atol=1e-15)


def test_located_read_rejects_out_of_range():
    grid = rl.make_grid(1.0, 4)
    path = MatrixPath.constant(grid, [[1.0]])
    for bad in (np.array([0.5, 1.5]), np.array([-0.1]), np.nan):
        with pytest.raises(SpecError, match="outside"):
            path.at(bad)


def test_solved_objects_copy_and_pickle():
    # copies of a spec and a solution must keep working and solve to the
    # same paths
    spec = instance_a(N=20)
    sol = rl.solve_game(spec)
    for copy_of in (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        spec2, sol2 = copy_of(spec), copy_of(sol)
        assert np.array_equal(sol2.P.samples, sol.P.samples)
        assert np.array_equal(rl.solve_game(spec2).Phat.samples, sol.Phat.samples)


def test_validate_passes_on_sound_spec():
    report = rl.validate_spec(instance_a(N=20), delta=1e-6)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "R0_strongly_positive" in names and "Q_symmetric" in names


def test_validate_flags_indefinite_r0():
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=4, alpha=1.0, gamma=1.0, xi=[0.0], G=[[0.0]],
        A=0.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=1.0, R1=1.0, R2=-1.0,
        R0=-1.0, R0hat=1.0,
    )
    report = rl.validate_spec(spec)
    bad = [c for c in report.failures() if c.name == "R0_strongly_positive"]
    assert len(bad) == 1 and bad[0].node == 0


def test_validate_flags_asymmetric_q():
    spec = rl.build_spec(
        n=2, m1=1, m2=1, T=1.0, N=4, alpha=1.0, gamma=1.0, xi=[0.0, 0.0],
        G=np.zeros((2, 2)), A=np.zeros((2, 2)), C=np.zeros((2, 2)),
        B1=[[1.0], [0.0]], D1=None, B2=[[1.0], [0.0]], D2=None,
        Q=[[1.0, 0.5], [0.0, 1.0]], R1=1.0, R2=-1.0,
        R0=np.eye(2), R0hat=np.eye(2),
    )
    report = rl.validate_spec(spec)
    assert any(c.name == "Q_symmetric" for c in report.failures())


def test_validate_non_finite_weights_fail_without_warnings():
    spec = instance_a(N=4)
    spec = replace(spec, G=np.array([[np.inf]]), Q=MatrixPath.constant(spec.grid, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rl.validate_spec(spec)
    failed = {c.name for c in report.failures()}
    assert {"G_finite", "G_symmetric", "Q_finite"} <= failed


def test_validate_is_pure():
    spec = instance_a(N=10)
    assert rl.validate_spec(spec) == rl.validate_spec(spec)


def test_spec_roundtrip(tmp_path):
    spec = instance_a(N=16)
    fname = tmp_path / "game.json"
    rl.dump_spec(spec, fname)
    spec2 = rl.load_spec(fname)
    assert spec2.n == spec.n and spec2.grid.steps == spec.grid.steps
    assert spec2.alpha == spec.alpha and np.array_equal(spec2.xi, spec.xi)
    for name in ("A", "C", "B1", "D1", "B2", "D2", "sigma", "f1", "Q", "R1",
                 "R2", "R0", "R0hat"):
        assert np.array_equal(getattr(spec2, name).samples,
                              getattr(spec, name).samples), name
    assert np.array_equal(spec2.G, spec.G)


def test_spec_defaults_sigma_f1_to_zero():
    doc = rl.spec_to_dict(instance_a(N=8))
    del doc["matrices"]["sigma"]
    del doc["matrices"]["f1"]
    spec = rl.spec_from_dict(doc)
    assert np.all(spec.sigma.samples == 0.0) and np.all(spec.f1.samples == 0.0)


def test_spec_rejects_missing_and_unknown_matrices():
    doc = rl.spec_to_dict(instance_a(N=8))
    del doc["matrices"]["Q"]
    with pytest.raises(SpecError, match="missing matrix 'Q'"):
        rl.spec_from_dict(doc)
    doc = rl.spec_to_dict(instance_a(N=8))
    doc["matrices"]["Zmystery"] = {"constant": [[1.0]]}
    with pytest.raises(SpecError, match="unknown"):
        rl.spec_from_dict(doc)


def test_spec_steps_read_as_document_n():
    doc = rl.spec_to_dict(instance_a(N=4))
    doc["matrices"]["Q"] = {"nodes": [{"t": 0.0, "value": [[1.0]]}, {"t": 0.3, "value": [[3.0]]},
                                      {"t": 1.0, "value": [[1.0]]}]}
    spec = rl.spec_from_dict(doc, steps=10)
    assert spec.grid.steps == 10 and spec.Q.samples[3, 0, 0] == pytest.approx(3.0, abs=1e-14)
    assert rl.spec_to_dict(spec) == rl.spec_to_dict(rl.spec_from_dict({**doc, "N": 10}))


@pytest.mark.parametrize("bad_n, message", [(3.7, "'N' must be an integer"),
                                            (0, "must be at least 1"), (None, "'N'")])
def test_spec_steps_still_check_document_n(bad_n, message):
    doc = rl.spec_to_dict(instance_a(N=8))
    if bad_n is None:
        del doc["N"]
    else:
        doc["N"] = bad_n
    with pytest.raises(SpecError, match=message):
        rl.spec_from_dict(doc, steps=10)


def test_spec_node_form_resampling():
    doc = rl.spec_to_dict(instance_a(N=10))
    doc["matrices"]["A"] = {"nodes": [{"t": 0.0, "value": [[0.0]]},
                                      {"t": 1.0, "value": [[1.0]]}]}
    spec = rl.spec_from_dict(doc)
    assert spec.A.at(0.5) == pytest.approx(0.5)
    assert spec.A.samples[0, 0, 0] == 0.0 and spec.A.samples[-1, 0, 0] == 1.0


def test_spec_shape_mismatch_rejected():
    with pytest.raises(SpecError, match="shape"):
        rl.build_spec(
            n=2, m1=1, m2=1, T=1.0, N=4, alpha=1.0, gamma=1.0, xi=[0.0, 0.0],
            G=np.zeros((2, 2)), A=np.zeros((3, 3)), C=None, B1=None, D1=None,
            B2=None, D2=None, Q=np.eye(2), R1=1.0, R2=-1.0, R0=np.eye(2),
            R0hat=np.eye(2),
        )


@pytest.mark.parametrize("make, message", [
    (lambda s: rl.build_spec(n=1, m1=1, m2=1, T=1.0, N=8, alpha=8.0, gamma=8.0, xi=[1.0],
                             G=[[0.5]], Z=1.0), "unknown coefficient names"),
    (lambda s: replace(s, A=MatrixPath.zeros(s.grid, 2, 2)), "A has shape"),
    (lambda s: replace(s, A=MatrixPath.zeros(rl.make_grid(1.0, 4), 1, 1)),
     "does not live on the spec grid"),
    (lambda s: replace(s, G=np.eye(2)), "G has shape"),
    (lambda s: MatrixPath(s.grid, np.zeros((len(s.grid), 1))), "path samples must have shape"),
], ids=["unknown_name", "path_shape", "path_grid", "terminal_shape", "flat_samples"])
def test_spec_api_errors(make, message):
    with pytest.raises(SpecError, match=message):
        make(instance_a(N=8))


@pytest.mark.parametrize("edit, message", [
    ({"A": lambda t: [1.0, 2.0]}, r"matrix 'A' must be numeric of shape \(1, 1\)"),
    ({"A": "abc"}, "matrix 'A' must be numeric"),
    ({"G": [[0.5, 0.5]]}, r"matrix 'G' must be numeric of shape \(1, 1\)"),
    ({"alpha": "x"}, "'alpha' must be numeric"),
    ({"T": "abc"}, "'T' must be numeric"),
], ids=["callable_size", "constant_text", "terminal_size", "alpha_text", "horizon_text"])
def test_build_spec_malformed_values(edit, message):
    # each value is read as numbers of its field's shape, so a bad one is
    # a SpecError naming the field, not a ValueError or TypeError
    kwargs = dict(n=1, m1=1, m2=1, T=1.0, N=8, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.5]],
                  A=0.1, Q=1.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0)
    with pytest.raises(SpecError, match=message):
        rl.build_spec(**{**kwargs, **edit})


_SPEC_KWARGS = dict(n=1, m1=1, m2=1, T=1.0, N=8, alpha=8.0, gamma=8.0, xi=[1.0], G=[[0.5]],
                    A=0.1, Q=1.0, R1=1.0, R2=-1.0, R0=1.0, R0hat=1.0)

# one call per count of the package, each taking its count from `v`
_COUNTS = {
    "build_spec.n": (lambda v, f, sol: rl.build_spec(**{**_SPEC_KWARGS, "n": v}), "'n'"),
    "build_spec.m1": (lambda v, f, sol: rl.build_spec(**{**_SPEC_KWARGS, "m1": v}), "'m1'"),
    "build_spec.m2": (lambda v, f, sol: rl.build_spec(**{**_SPEC_KWARGS, "m2": v}), "'m2'"),
    "build_spec.N": (lambda v, f, sol: rl.build_spec(**{**_SPEC_KWARGS, "N": v}), "'N'"),
    "load_spec.steps": (lambda v, f, sol: rl.load_spec(f, v), "steps"),
    "SimConfig.paths": (lambda v, f, sol: rl.SimConfig(paths=v), "paths"),
    "SimConfig.substeps": (lambda v, f, sol: rl.SimConfig(substeps=v), "substeps"),
    "SimConfig.seed": (lambda v, f, sol: rl.SimConfig(seed=v), "seed"),
    "deviation_tests.directions": (
        lambda v, f, sol: rl.deviation_tests(sol, rl.SimConfig(paths=10), directions=v),
        "directions"),
    "deviation_tests.samples": (
        lambda v, f, sol: rl.deviation_tests(sol, rl.SimConfig(paths=10), samples=v),
        "samples"),
    "deviation_tests.directions_seed": (
        lambda v, f, sol: rl.deviation_tests(sol, rl.SimConfig(paths=10), directions_seed=v),
        "directions_seed"),
}


@pytest.mark.parametrize("target, value", [
    (target, value) for target in sorted(_COUNTS) for value in ("abc", None, True, 1.5)
    # None is the default of these two, and means "not given"
    if value is not None or target not in ("load_spec.steps", "deviation_tests.directions_seed")])
def test_counts_reject_non_integers(target, value, sol_a, tmp_path):
    # every count is read by one rule: no text, None, bool or fraction
    call, field = _COUNTS[target]
    f = tmp_path / "a.json"
    rl.dump_spec(instance_a(N=8), f)
    with pytest.raises(SpecError, match=f"{field}.* must be an integer"):
        call(value, f, sol_a)


def test_integral_counts_read_as_ints(sol_a):
    # an integral float or a numpy integer is the int it holds, bit for bit
    cfg = rl.SimConfig(paths=64.0, seed=np.int64(3), substeps=2.0)
    assert [type(v) for v in (cfg.paths, cfg.seed, cfg.substeps)] == [int] * 3
    got, want = (rl.simulate(sol_a, c) for c in (cfg, rl.SimConfig(paths=64, seed=3, substeps=2)))
    for name in ("j", "j_follower", "j_leader", "terminal"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    spec = rl.build_spec(**{**_SPEC_KWARGS, "m2": np.int64(1), "N": 8.0})
    assert type(spec.m2) is int and type(spec.grid.steps) is int
    got, want = (rl.solve_game(s) for s in (spec, rl.build_spec(**_SPEC_KWARGS)))
    assert np.array_equal(got.Phat.samples, want.Phat.samples)
    assert rl.value(got) == rl.value(want)


@pytest.mark.parametrize("case", sorted(malformed_spec_docs()))
def test_spec_malformed_raises_spec_error(case):
    doc, message = malformed_spec_docs()[case]
    with pytest.raises(SpecError, match=message):
        rl.spec_from_dict(doc)
