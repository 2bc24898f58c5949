import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustlq as rl
from robustlq import backward, cli, montecarlo

from conftest import (hand_made_deviations, homogeneous_spec, instance_a, instance_b,
                      malformed_spec_docs, random_spec)
from oracles import scalar_bode


@pytest.fixture()
def homog_file(tmp_path):
    f = tmp_path / "homog.json"
    rl.dump_spec(homogeneous_spec(N=40, xi=1.0), f)
    return str(f)


@pytest.fixture()
def game_b_file(tmp_path):
    f = tmp_path / "game_b.json"
    rl.dump_spec(instance_b(N=128), f)
    return str(f)


def test_solve_homogeneous(homog_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(["solve", "--spec", homog_file, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["value"] == 0.0
    for name in ("P", "P1", "Phat", "phihat", "L", "psi", "PM1", "PM2",
                 "phiM1", "phiM2"):
        assert (out / f"{name}.csv").exists()
    assert "resolved configuration" in capsys.readouterr().out


def test_echo_lists_every_option(homog_file, tmp_path, capsys):
    # the echo reads the parsed options, so no subcommand leaves one out
    for argv, key, value in (
            (["simulate", "--paths", "10", "--per-path", "--out", str(tmp_path / "s")],
             "per_path", True),
            (["dump-blocks", "--stage", "hat", "--grid-n", "4"], "grid_n", 4)):
        assert cli.run(argv + ["--spec", homog_file]) == cli.EXIT_OK
        echo = capsys.readouterr().out.splitlines()[0]
        assert echo.startswith("resolved configuration: ")
        assert json.loads(echo.split(": ", 1)[1])[key] == value


def test_module_entry_point(tmp_path):
    # `python -m robustlq.cli` runs `main`, which exits with run's code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def robustlq(*argv):
        return subprocess.run([sys.executable, "-m", "robustlq.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = robustlq("example", "--N", "40", "--out", str(tmp_path / "ex"))
    assert done.returncode == cli.EXIT_OK, done.stderr
    for name in ("bode.csv", "strategies.csv"):
        assert (tmp_path / "ex" / name).stat().st_size > 0, name
    done = robustlq("solve", "--spec", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "o"))
    assert done.returncode == cli.EXIT_VALIDATION and "spec error" in done.stderr


def test_solve_csv_roundtrip_precision(homog_file, tmp_path):
    out = tmp_path / "out"
    assert cli.run(["solve", "--spec", homog_file, "--out", str(out)]) == 0
    lines = (out / "P.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,p_11")
    t0, p0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(p0) == 0.0


def test_csv_header_names_every_entry_once(tmp_path):
    # p_<i><j> names each entry once while the path has at most 10 rows or
    # at most 10 columns; past both, p_111 would be (1, 11) and (11, 1), as
    # in the 20 x 20 Phat.csv and L.csv of an n = 2 game, so the names
    # become p_<i>_<j>
    grid = rl.make_grid(1.0, 2)
    for (r, c), first, last in (((1, 1), "p_11", "p_11"), ((10, 20), "p_11", "p_1020"),
                                ((20, 1), "p_11", "p_201"), ((11, 11), "p_1_1", "p_11_11"),
                                ((20, 20), "p_1_1", "p_20_20")):
        cli.write_path_csv(rl.MatrixPath.zeros(grid, r, c), tmp_path / "p.csv")
        names = (tmp_path / "p.csv").read_text().splitlines()[0].split(",")
        assert len(set(names)) == len(names) == r * c + 1, (r, c)
        assert (names[0], names[1], names[-1]) == ("t", first, last)


def test_example_reproduces_closed_form(tmp_path):
    out = tmp_path / "ex"
    code = cli.run(["example", "--a", "0.5", "--c", "-1", "--q", "1", "--g", "1",
                    "--T", "2", "--N", "2000", "--out", str(out)])
    assert code == 0
    lines = (out / "bode.csv").read_text().strip().splitlines()
    t0, p0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(p0) == pytest.approx(1.5 * np.exp(4.0) - 0.5, rel=1e-8)
    strategies = (out / "strategies.csv").read_text().strip().splitlines()
    assert strategies[0].split(",")[:3] == ["t", "u1", "u2"]
    # clamped outputs are nonnegative
    for line in strategies[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[3] >= 0.0 and vals[4] >= 0.0


def test_example_marches_follower_once(tmp_path, monkeypatch):
    # bode.csv is the solved game's follower path, which is the scalar_bode
    # path of the same arguments: one follower march, not two
    calls = []
    follower = backward.solve_riccati_follower

    def counted(*args):
        calls.append(args)
        return follower(*args)

    monkeypatch.setattr(backward, "solve_riccati_follower", counted)
    out = tmp_path / "ex"
    assert cli.run(["example", "--c", "0.3", "--r1", "0.5", "--r2", "-0.5", "--N", "200",
                    "--out", str(out)]) == 0
    assert len(calls) == 1
    cli.write_path_csv(scalar_bode(0.5, 0.3, 1.0, 1.0, 0.5, 2.0, 200), tmp_path / "ref.csv")
    assert (out / "bode.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_verify_byte_identical(game_b_file, tmp_path):
    outs = []
    for tag in ("v1", "v2"):
        out = tmp_path / tag
        code = cli.run(["verify", "--spec", game_b_file, "--out", str(out),
                        "--paths", "800", "--seed", "7", "--substeps", "1",
                        "--directions", "3", "--eps", "0.1"])
        assert code in (0, 3)
        outs.append(out)
    for name in ("validation.txt", "perturbation.csv", "convexity.csv",
                 "verify_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_verify_runs_oracle_when_diffusion_free(game_b_file, tmp_path):
    out = tmp_path / "v"
    code = cli.run(["verify", "--spec", game_b_file, "--out", str(out),
                    "--paths", "2000", "--seed", "3", "--substeps", "1",
                    "--directions", "3", "--eps", "0.1"])
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["oracle"]["applicable"] is True
    assert summary["oracle"]["gap_n64"] <= 1e-3
    assert code == 0, summary


def test_verify_marches_skeleton_once(monkeypatch, game_b_file, tmp_path):
    # both oracle refinements compare against one noise-free skeleton
    calls = []
    inner = montecarlo.skeleton

    def counting(sol):
        calls.append(sol)
        return inner(sol)

    monkeypatch.setattr(montecarlo, "skeleton", counting)
    code = cli.run(["verify", "--spec", game_b_file, "--out", str(tmp_path / "o"),
                    "--paths", "50", "--directions", "1", "--eps", "0.1"])
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION)
    assert len(calls) == 1


def test_verify_validation_failure_exit_code(tmp_path):
    doc = rl.spec_to_dict(homogeneous_spec(N=10))
    doc["matrices"]["R0"] = {"constant": [[-1.0]]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code = cli.run(["verify", "--spec", str(f), "--out", str(tmp_path / "o"),
                    "--paths", "10"])
    assert code == 1


@pytest.mark.parametrize("argv", [["simulate", "--paths", "0"],
                                  ["simulate", "--substeps", "0"],
                                  ["verify", "--directions", "0"]])
def test_counts_below_one_exit_code(argv, homog_file, tmp_path, capsys):
    code = cli.run(argv + ["--spec", homog_file, "--out", str(tmp_path / "o")])
    assert code == 1
    assert ("at least 2" if "--paths" in argv else "at least 1") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_single_path_exit_code(command, homog_file, tmp_path, capsys):
    # one path gives no standard error, so no verdict and no valid JSON
    code = cli.run([command, "--paths", "1", "--spec", homog_file, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "paths must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--paths", "10", "--seed", "-1"], "seed"),
    (["verify", "--paths", "10", "--seed", "-1", "--directions", "1"], "seed"),
    (["verify", "--paths", "10", "--eps", "0.05", "nan", "--directions", "1"], "eps"),
    (["verify", "--paths", "10", "--eps", "inf", "--directions", "1"], "eps")]
    + [(command + ["--delta", delta], "delta") for delta in ("-1", "0", "nan")
       for command in (["solve"], ["verify", "--paths", "10", "--directions", "1"],
                       ["dump-blocks", "--stage", "hat"])])
def test_bad_run_settings_exit_code(argv, field, homog_file, tmp_path, capsys):
    code = cli.run(argv + ["--spec", homog_file, "--out", str(tmp_path / "o")])
    assert code == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("eps", [["nan"], ["0.05", "inf"]])
def test_verify_rejects_eps_before_solving(eps, monkeypatch, homog_file, tmp_path, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran after a bad --eps")

    monkeypatch.setattr(montecarlo, "deviation_tests", unreachable)
    monkeypatch.setattr(cli.equilibrium, "solve_game", unreachable)
    code = cli.run(["verify", "--spec", homog_file, "--out", str(tmp_path / "o"), "--eps", *eps])
    assert code == 1
    assert "eps" in capsys.readouterr().err


def test_verify_bare_eps_is_usage_error(monkeypatch, homog_file, tmp_path, capsys):
    # a bare --eps gives no size: a usage error, not the default size
    def unreachable(*args, **kwargs):
        raise AssertionError("ran after a bare --eps")

    monkeypatch.setattr(montecarlo, "deviation_tests", unreachable)
    monkeypatch.setattr(cli.equilibrium, "solve_game", unreachable)
    code = cli.run(["verify", "--spec", homog_file, "--out", str(tmp_path / "o"), "--eps"])
    assert code == cli.EXIT_VALIDATION
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_rejects_directions_before_solving(count, monkeypatch, homog_file, tmp_path,
                                                  capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran after a bad --directions")

    monkeypatch.setattr(montecarlo, "deviation_tests", unreachable)
    monkeypatch.setattr(cli.equilibrium, "solve_game", unreachable)
    code = cli.run(["verify", "--spec", homog_file, "--out", str(tmp_path / "o"),
                    "--directions", count])
    assert code == 1
    assert "directions" in capsys.readouterr().err


def test_verify_passes_diffusion_free_n2_game(tmp_path):
    # the oracle's gap on this game is second order in its step: 3.6e-6 at
    # 64 nodes, under the 1e-3 bound a first-order oracle missed
    f = tmp_path / "special.json"
    rl.dump_spec(random_spec(1, 2, special=True, N=256), f)
    out = tmp_path / "v"
    code = cli.run(["verify", "--spec", str(f), "--out", str(out),
                    "--paths", "400", "--directions", "2"])
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["oracle"]["ok"] is True, summary
    assert code == cli.EXIT_OK, summary


def test_verify_failing_suite_exit_code(monkeypatch, tmp_path):
    # the game of test_verify_passes_diffusion_free_n2_game, with a
    # convexity suite that fails: exit 3 and convexity_ok false
    failing = rl.sampled_convexity(hand_made_deviations(1.0))
    monkeypatch.setattr(cli.montecarlo, "sampled_convexity", lambda dev: failing)
    f = tmp_path / "special.json"
    rl.dump_spec(random_spec(1, 2, special=True, N=256), f)
    out = tmp_path / "v"
    code = cli.run(["verify", "--spec", str(f), "--out", str(out),
                    "--paths", "400", "--directions", "2"])
    summary = json.loads((out / "verify_summary.json").read_text())
    assert code == cli.EXIT_VERIFICATION
    assert summary["convexity_ok"] is False and summary["perturbation_ok"] is True
    assert summary["oracle"]["ok"] is True


def test_simulate_writes_summary_and_paths(tmp_path):
    spec = instance_a(N=50)
    f = tmp_path / "game_a.json"
    rl.dump_spec(spec, f)
    runs = {}
    for flags in ([], ["--per-path"]):
        out = tmp_path / ("per_path" if flags else "summary")
        assert cli.run(["simulate", "--spec", str(f), "--out", str(out),
                        "--paths", "200", *flags]) == cli.EXIT_OK
        runs[bool(flags)] = out
    summary = json.loads((runs[True] / "sim_summary.json").read_text())
    assert set(summary) == {"paths", "blown", "j", "j_follower", "j_leader",
                            "terminal_mean", "terminal_var", "value"}
    assert (runs[False] / "sim_summary.json").read_text() == json.dumps(
        summary, indent=2, sort_keys=True) + "\n"
    sol = rl.solve_game(spec)
    assert summary["paths"] == 200 and summary["value"] == rl.value(sol)
    lines = (runs[True] / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,j,j_follower,j_leader" and len(lines) == 201
    j = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(j, rl.simulate(sol, rl.SimConfig(paths=200)).j)
    assert not (runs[False] / "paths.csv").exists()


def test_verify_draws_each_path_once(monkeypatch, homog_file, tmp_path):
    # both suites read one shared run: one draw of increments per path
    drawn = []
    inner = montecarlo.path_increments

    def counting(seed, first, count, steps, dt):
        drawn.append(count)
        return inner(seed, first, count, steps, dt)

    monkeypatch.setattr(montecarlo, "path_increments", counting)
    paths = montecarlo.PATH_BLOCK + 8
    code = cli.run(["verify", "--spec", homog_file, "--out", str(tmp_path / "o"),
                    "--paths", str(paths), "--directions", "2", "--eps", "0.1"])
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION)
    assert sum(drawn) == paths


def test_malformed_json_exit_code(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{ not json")
    assert cli.run(["solve", "--spec", str(f), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("case", sorted(malformed_spec_docs()))
def test_malformed_spec_exit_code(case, tmp_path, capsys):
    doc, message = malformed_spec_docs()[case]
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(doc))
    assert cli.run(["solve", "--spec", str(f), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert cli.run(["solve", "--spec", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")]) == 1


def test_directory_spec_exit_code(tmp_path, capsys):
    spec_dir = tmp_path / "spec_dir"
    spec_dir.mkdir()
    assert cli.run(["solve", "--spec", str(spec_dir), "--out", str(tmp_path / "o")]) == 1
    assert f"cannot read spec file {spec_dir}" in capsys.readouterr().err


def test_non_utf8_spec_exit_code(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"n": 1, "note": "caf\xe9"}')
    assert cli.run(["solve", "--spec", str(f), "--out", str(tmp_path / "o")]) == 1
    assert f"cannot read spec file {f}" in capsys.readouterr().err


def test_unknown_flag_exit_code(homog_file, tmp_path, capsys):
    code = cli.run(["solve", "--spec", homog_file, "--out", str(tmp_path / "o"),
                    "--bogus-flag", "1"])
    capsys.readouterr()
    assert code == 1


def test_solver_failure_exit_code(tmp_path):
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=16, alpha=4.0, gamma=4.0, xi=[1.0], G=[[0.5]],
        A=0.0, C=0.0, B1=1.0, D1=0.0, B2=1.0, D2=0.0, Q=1.0, R1=-1.0, R2=-1.0,
        R0=1.0, R0hat=1.0,
    )
    f = tmp_path / "irregular.json"
    rl.dump_spec(spec, f)
    assert cli.run(["solve", "--spec", str(f), "--out", str(tmp_path / "o")]) == 2


def test_decoupling_sign_change_exit_code(tmp_path, capsys):
    f = tmp_path / "sign_change.json"
    rl.dump_spec(random_spec(0, 4, N=200), f)
    assert cli.run(["solve", "--spec", str(f), "--out", str(tmp_path / "o")]) == 2
    assert "changes sign" in capsys.readouterr().err


def test_example_names_first_lost_node(tmp_path, capsys):
    # r1 + P falls below delta first at t = 1.764, node 441 of 500, on
    # the march from T; the smallest eigenvalue lies further on
    code = cli.run(["example", "--c", "0.3", "--N", "500", "--out", str(tmp_path / "ex")])
    assert code == cli.EXIT_SOLVER
    assert "lost strong positivity at node 441 " in capsys.readouterr().err


def test_dump_blocks(homog_file, tmp_path, capsys):
    for stage in ("hat", "check", "blackboard", "weights", "doublehat"):
        code = cli.run(["dump-blocks", "--spec", homog_file, "--stage", stage,
                        "--t", "0.5"])
        assert code == 0
        captured = capsys.readouterr().out
        doc = json.loads(captured[captured.index("{\n"):])
        assert doc["stage"] == stage and doc["blocks"]
    # the offsets the 10n stage stores as trailing columns are written as
    # blocks of their own, and the joined paths are not written
    assert set(doc["blocks"]) == {"A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2", "F", "G",
                                  "Q", "Sigma", "Upsilon", "Xi"}


# sha256 of `dump-blocks --t 0.5` of every stage, recorded when each
# doublehat block was its own np.block array
DUMP_BLOCKS_SHA = {
    "instance_a": {
        "hat": "e85c6b949ffb1c0382b3c7002815b73703a587007cb5689db2c1f939a2d307c6",
        "check": "6fe4f9d11065fc21de208081f257e189d0ceff5f65a55222b39bf22534366767",
        "blackboard": "74a2f9bc1dd9e0f301306c74a0d1a33644ec4d1c58c85a858cf04493e8a14f63",
        "weights": "9c497c80d43c972d9bdb5e0cd6e61dd48761427a34c972c74383add9e64ce296",
        "doublehat": "e3bec46ec763678ab9ae760bf3cefabae2f8a2a80e047171248fdff47a92690d",
    },
    "random_3_2": {
        "hat": "6bcff746d92194b393c7bd0c280e1441147cc1558208a930f802eee41f5db60a",
        "check": "82b25ea11cb5388bdd7a5c3d0d6eeb1c431732aa2ad56449cb5845e7ac46b735",
        "blackboard": "290819459c598df83e651f3d57654730477453578504676a219587899f3da481",
        "weights": "bcdd0c4f7c4fab8a88d5db7472fa1979b166005f7384332f0e77009bf85231d3",
        "doublehat": "b77e38f05862cc57b9ca432619015b5cc4b83cd5f95a29cc0200dcacf769fbd8",
    },
    # diffusion-free: the C, D1 and D2 blocks are exact zeros, whose signs
    # the JSON keeps ("-0.0")
    "instance_b": {
        "hat": "0de4415357e6fc6559151d052dab24f8d9c83f89292195c2c4f082773342fbbe",
        "check": "877f9b92608783dff48caadd1e8ca34dbc7eda8cfc6f627bb6a44c22583f5676",
        "blackboard": "a34747c877aac65b983187f84c7d57a345b0c1aa0ae3d29c922519c3d23e9d5a",
        "weights": "fc4763ead649fa40bcc257d6c93c9e0c2efa04600682449105679f36ba14d407",
        "doublehat": "4a5e295c79217abc9af40db3d48806b10adf58a9d4eff354afa089d7f63dfeb6",
    },
}


@pytest.mark.parametrize("game", sorted(DUMP_BLOCKS_SHA))
def test_dump_blocks_bytes(game, tmp_path):
    # the doublehat blocks are column slices of one coefficient table; the
    # JSON of every stage keeps its bytes, so no block moved and the table
    # is not written
    spec = {"instance_a": instance_a, "instance_b": lambda: instance_b(N=64),
            "random_3_2": lambda: random_spec(3, 2, N=40)}[game]()
    spec_file, out = tmp_path / "spec.json", tmp_path / "o"
    rl.dump_spec(spec, spec_file)
    for stage, digest in DUMP_BLOCKS_SHA[game].items():
        assert cli.run(["dump-blocks", "--spec", str(spec_file), "--stage", stage, "--t", "0.5",
                        "--out", str(out)]) == cli.EXIT_OK
        assert hashlib.sha256((out / f"blocks_{stage}.json").read_bytes()).hexdigest() == digest, stage


def test_dump_blocks_failure_names_stage(tmp_path, capsys):
    # R1 + D1' G D1 = -0.5 + 0.5 = 0 exactly at the terminal time
    spec = rl.build_spec(
        n=1, m1=1, m2=1, T=1.0, N=20, alpha=2.0, gamma=2.0, xi=[0.0], G=[[0.5]],
        A=0.0, C=0.0, B1=1.0, D1=1.0, B2=1.0, D2=0.0, Q=0.0, R1=-0.5, R2=-1.0,
        R0=1.0, R0hat=1.0,
    )
    f = tmp_path / "singular.json"
    rl.dump_spec(spec, f)
    assert cli.run(["dump-blocks", "--spec", str(f), "--stage", "hat", "--t", "0.5"]) == 2
    assert "[stage follower riccati]" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("R0", float("nan")), ("R0", -1.0),
                                         ("sigma", float("nan"))])
def test_dump_blocks_rejects_invalid_spec(name, value, tmp_path, capsys):
    # a spec that fails validation is refused before any block is built
    doc = rl.spec_to_dict(instance_a(N=8))
    doc["matrices"][name] = {"constant": [[value]]}
    f = tmp_path / "invalid.json"
    f.write_text(json.dumps(doc))
    assert cli.run(["dump-blocks", "--spec", str(f), "--stage", "hat", "--t", "0.5"]) == 1
    assert "spec validation failed" in capsys.readouterr().err


def test_grid_override(homog_file, tmp_path):
    out = tmp_path / "o"
    code = cli.run(["solve", "--spec", homog_file, "--out", str(out),
                    "--grid-n", "25"])
    assert code == 0
    lines = (out / "P.csv").read_text().strip().splitlines()
    assert len(lines) == 27  # header + 26 nodes


def test_grid_override_reads_spec_at_new_n(tmp_path):
    # Q has a kink at t = 0.3, between the N = 4 nodes: --grid-n 10 reads
    # the node list onto the new grid (Q = 3 at t = 0.3), as writing N = 10
    # into the document does, not the N = 4 samples re-interpolated
    doc = rl.spec_to_dict(instance_a(N=4))
    doc["matrices"]["Q"] = {"nodes": [{"t": t, "value": [[q]]}
                                      for t, q in ((0.0, 1.0), (0.3, 3.0), (1.0, 1.0))]}
    (tmp_path / "n4.json").write_text(json.dumps(doc))
    (tmp_path / "n10.json").write_text(json.dumps({**doc, "N": 10}))
    assert cli.run(["solve", "--spec", str(tmp_path / "n4.json"), "--out", str(tmp_path / "a"),
                    "--grid-n", "10"]) == cli.EXIT_OK
    assert cli.run(["solve", "--spec", str(tmp_path / "n10.json"),
                    "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    names = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == 11 and sorted(p.name for p in (tmp_path / "a").iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("steps", ["1", "2", "3", "5"])
def test_coarse_grid_override(steps, tmp_path):
    # grids too coarse for the cubic reads and the end-corrected quadrature
    # solve with their lower-degree rules, not with an IndexError
    spec_file, out = tmp_path / "a.json", tmp_path / "o"
    rl.dump_spec(instance_a(N=40), spec_file)
    assert cli.run(["solve", "--spec", str(spec_file), "--out", str(out),
                    "--grid-n", steps]) == cli.EXIT_OK
    assert np.isfinite(json.loads((out / "summary.json").read_text())["value"])
    assert len((out / "P.csv").read_text().strip().splitlines()) == int(steps) + 2


PUBLIC = sorted([
    "BlowUpError", "GameSpec", "MatrixPath", "RegularityError", "SpecError", "TimeGrid",
    "ValidationReport", "build_spec", "dump_spec", "load_spec", "make_grid",
    "spec_from_dict", "spec_to_dict", "validate_spec",
    "EquilibriumSolution", "StrategyOutput", "clamp_nonnegative", "ensure_diagnostics",
    "feedback", "solve_game", "value",
    "OracleResult", "PerturbationReport", "SimConfig", "SimOutput", "bvp_oracle",
    "deviation_tests", "perturb_best_response", "sampled_convexity", "simulate",
])


def test_public_surface():
    """The package root exports the API the README documents and nothing
    more: the stage builders and marches stay in `augment` and `backward`."""
    assert sorted(rl.__all__) == PUBLIC
    assert all(getattr(rl, name, None) is not None for name in PUBLIC)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    used = set(re.findall(r"\brl\.(\w+)", "".join(re.findall(r"```[^\n]*\n(.*?)```", readme,
                                                              flags=re.S))))
    assert used and used <= set(rl.__all__), sorted(used - set(rl.__all__))
