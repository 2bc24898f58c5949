"""The benchmark's tracer wraps program functions by name; a rename must
fail here rather than leave a traced benchmark run silently reading 0."""

import importlib.util
from pathlib import Path

import robustlq as rl
from robustlq import backward, cli, equilibrium, model, montecarlo

from conftest import instance_b

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _load_spans()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans._SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing
    assert callable(getattr(backward, "integrate_backward", None))
    assert callable(getattr(model.MatrixPath, "at", None))


def test_traced_layers_record(tmp_path):
    """Every traced solver and harness function is still on the call path
    of a small solve, simulate and verify run: a refactor that routes
    around one fails here, not only in a traced benchmark run."""
    spans = _load_spans()
    tracer = spans.Tracer()
    spec_file = tmp_path / "instance_b.json"
    model.dump_spec(instance_b(N=48), spec_file)
    tracer.install()
    try:
        sol = equilibrium.solve_game(instance_b(N=48))
        equilibrium.value(sol)
        paths = montecarlo.PATH_BLOCK + 8
        montecarlo.simulate(sol, rl.SimConfig(paths=paths, seed=1))
        # the stream counters count every simulated path step exactly once
        assert tracer.counts["montecarlo.stream_paths"] == paths
        assert tracer.counts["montecarlo.path_steps"] == paths * sol.spec.grid.steps
        code = cli.run(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
                        "--paths", "40", "--directions", "1"])
    finally:
        tracer.remove()
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION)
    assert not tracer.missing
    wanted = {name for _, _, name in spans._SPANS
              if name.split(".")[0] in ("augment", "backward", "montecarlo")}
    wanted.add("equilibrium.diagnostics")
    recorded = {name for name, *_ in tracer.spans}
    assert not wanted - recorded, sorted(wanted - recorded)
    assert not tracer.nesting_problems()
