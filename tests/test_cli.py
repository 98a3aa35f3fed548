import argparse
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import neutralctl
from neutralctl import spectrum, svg
from neutralctl.cli import main
from neutralctl.simulate import History, simulate, trajectory_to_csv
from neutralctl.synthesis import plan_to_dict, synthesize_stage1
from neutralctl.system import load_system, parse_history

FOUND_JSON = """{
  "n": 2, "m": 1, "p": 0,
  "A_minus1": [[0.3, 0.1], [0, -0.2]],
  "A0": [[-1, 0.2], [0.1, -0.5]],
  "A1": [[0.1, 0], [0.2, 0.1]],
  "B": [[1], [0.5]]
}
"""

NO_INPUT_JSON = """{
  "n": 2, "m": 1, "p": 0,
  "A_minus1": [[0.5, 0], [0, 0]],
  "A0": [[0, 0], [0, 0]],
  "A1": [[0, 0], [0, 0]],
  "B": [[0], [0]]
}
"""


def run(*argv):
    return main(list(argv))


def count_points(monkeypatch):
    # the number of points at which D or D' is evaluated
    points = []
    inner = spectrum._delta_many

    def counted(system, lam, deriv):
        points.append(len(lam))
        return inner(system, lam, deriv)

    monkeypatch.setattr(spectrum, "_delta_many", counted)
    return points


def test_check_stabilizability_example5(ex5_file, tmp_path):
    out = tmp_path / "out"
    code = run("check-stabilizability", "--system", str(ex5_file), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["overall"] is True
    assert payload["kind"] == "stabilizability"
    assert payload["tolerances"]["rank"] == 1e-9


def test_failed_search_runs_once_for_spectrum_and_check(tmp_path, capsys, monkeypatch):
    # e^{-lambda} overflows on the far-left window, so its search raises;
    # check-stabilizability in the same process raises the remembered error
    path = tmp_path / "far_left.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "p": 0, "A_minus1": [[0.5]], "A0": [[0]],
                                "A1": [[0]], "B": [[1]]}))
    calls = []
    inner = spectrum._search

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(spectrum, "_search", counted)
    errors = []
    for command in ("spectrum", "check-stabilizability"):
        code = run(command, "--system", str(path), "--re-min=-800", "--re-max=-700",
                   "--im-max", "5", "--out", str(tmp_path / "out"))
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ContourThroughZero: ")
    assert errors[1] == errors[0]
    assert len(calls) == 1


def test_check_controllability_example3(ex3_file, tmp_path):
    out = tmp_path / "out"
    code = run("check-controllability", "--system", str(ex3_file), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["status"] == "conjecture-pass"


def test_spectrum_example5_csv(ex5_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        "spectrum", "--system", str(ex5_file),
        "--re-min", "-1", "--re-max", "1", "--im-max", "40",
        "--out", str(out),
    )
    assert code == 0
    rows = (out / "roots.csv").read_text().strip().split("\n")
    assert rows[0] == "re,im,multiplicity,residual"
    parsed = [row.split(",") for row in rows[1:]]
    mults = {}
    for re_s, im_s, mult_s, _ in parsed:
        k = round(float(im_s) / (2 * np.pi))
        mults[k] = int(mult_s)
        assert abs(float(re_s)) < 1e-8
    assert mults[0] == 3
    assert all(mults[k] == 1 for k in range(1, 7))
    assert set(mults) == set(range(-6, 7))
    chains = json.loads((out / "chains.json").read_text())["chains"]
    assert len(chains) == 1 and chains[0]["abscissa"] == 0.0
    assert (out / "spectrum.svg").read_text().startswith("<svg")


def test_observability_without_output_is_operational_error(ex5_file, tmp_path, capsys):
    code = run("check-observability", "--system", str(ex5_file), "--out", str(tmp_path))
    assert code == 1
    assert "NoOutputError" in capsys.readouterr().err


def test_condition_failure_exit_code(tmp_path):
    f = tmp_path / "noinput.json"
    f.write_text(NO_INPUT_JSON)
    code = run("check-stabilizability", "--system", str(f), "--out", str(tmp_path / "o"))
    assert code == 2


def test_synthesize_example5(ex5_file, tmp_path):
    out = tmp_path / "out"
    code = run("synthesize", "--system", str(ex5_file), "--omega", "1.0", "--out", str(out))
    assert code == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["stage1_ok"] is True
    assert plan["stage2_required"] is True
    assert np.allclose(plan["F_minus1"], [[-1.0, 0.0]])


def test_synthesize_default_window_deadbeat_loop(tmp_path):
    f = tmp_path / "found.json"
    f.write_text(FOUND_JSON)
    out = tmp_path / "out"
    code = run("synthesize", "--system", str(f), "--omega", "0.5", "--out", str(out))
    assert code == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["stage1_ok"] is True
    assert plan["chains_after"] == []


def test_synthesize_partial_region_flags_use_the_plan_window(tmp_path, capsys):
    # deadbeat F_minus1 = -0.4 leaves one root at -2.95; the open-loop default
    # window starts right of it, at -2.92, the closed loop's at -omega - 1
    f = tmp_path / "fast.json"
    f.write_text('{"n":1,"m":1,"A_minus1":[[0.4]],"A0":[[-2.95]],"A1":[[0]],"B":[[1]]}')
    for name, flags in (("default", []), ("partial", ["--im-max", "20"])):
        out = tmp_path / name
        code = run("synthesize", "--system", str(f), "--omega", "3", *flags, "--out", str(out))
        assert code == 0
        assert "residual eigenvalues with Re >= -3.0: 1" in capsys.readouterr().out
        plan = json.loads((out / "plan.json").read_text())
        assert plan["region"]["re_min"] == -4.0
        (root,) = plan["residual_roots"]
        assert abs(root["re"] + 2.95) < 1e-9 and root["im"] == 0.0


@pytest.mark.parametrize("flags", [["--re-min", "-2", "--re-max", "2", "--im-max", "8"],
                                   ["--re-min", "-2"]])
def test_synthesize_window_short_of_minus_omega_is_operational_error(tmp_path, capsys,
                                                                     monkeypatch, flags):
    # the window from -2 hid the root at -2.5, and the plan said no second
    # stage was required; the window is refused before any D is evaluated
    f = tmp_path / "fast.json"
    f.write_text('{"n":1,"m":1,"A_minus1":[[0]],"A0":[[-2.5]],"A1":[[0]],"B":[[1]]}')
    calls = []
    monkeypatch.setattr(spectrum, "_det_logderiv_many", lambda *args: calls.append(args))
    out = tmp_path / "out"
    code = run("synthesize", "--system", str(f), "--omega", "3", *flags, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ValueError: region re_min = -2.0 does not reach -omega = -3.0\n")
    assert not (out / "plan.json").exists()
    assert calls == []


def test_synthesize_unplaceable_gain_is_operational_error(tmp_path, capsys):
    # no single-input gain puts the computed spectrum of this clustered
    # neutral coefficient inside e^-2; the old zero cutoff accepted one of
    # true spectral radius 0.49 and the root search then failed
    n = 8
    f = tmp_path / "clustered.json"
    f.write_text(json.dumps({"n": n, "m": 1, "A_minus1": np.diag(np.linspace(1.1, 2.0, n)).tolist(),
                             "A0": np.zeros((n, n)).tolist(), "A1": np.zeros((n, n)).tolist(),
                             "B": np.ones((n, 1)).tolist()}))
    out = tmp_path / "out"
    code = run("synthesize", "--system", str(f), "--omega", "2", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PlacementError: ")
    assert "Traceback" not in err
    assert not (out / "plan.json").exists()


def test_main_twice_builds_parser_once(ex5_file, tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    code = run("spectrum", "--system", str(ex5_file), "--re-min", "-1", "--re-max", "1",
               "--im-max", "40", "--out", str(first))
    assert code == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # the same command without the region flags: none of the first call's
    # values may carry over
    code = run("spectrum", "--system", str(ex5_file), "--out", str(second))
    assert code == 0
    assert built == []
    assert (first / "roots.csv").read_text() != (second / "roots.csv").read_text()
    assert (first / "chains.json").read_text() == (second / "chains.json").read_text()


def test_synthesize_condition2_violation_exit_code(tmp_path, capsys):
    f = tmp_path / "noinput.json"
    f.write_text(NO_INPUT_JSON)
    code = run("synthesize", "--system", str(f), "--omega", "1.0", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "Condition2Violated" in capsys.readouterr().err


def test_simulate_outputs(ex3_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        "simulate", "--system", str(ex3_file),
        "--step", "0.02", "--horizon", "2.0", "--out", str(out),
    )
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,z_1,z_2,dz_1,dz_2,u_1"
    assert len(rows) == 102
    assert (out / "trajectory.svg").read_text().startswith("<svg")


def test_simulate_with_feedback_file(ex5_file, tmp_path):
    law = tmp_path / "law.json"
    law.write_text('{"F_minus1": [[-1.0, 0.0]]}')
    out = tmp_path / "out"
    code = run(
        "simulate", "--system", str(ex5_file), "--feedback", str(law),
        "--step", "0.02", "--horizon", "2.0", "--out", str(out),
    )
    assert code == 0
    last = (out / "trajectory.csv").read_text().strip().split("\n")[-1].split(",")
    # default history is constant ones: z stays (1, 1 + t)
    assert abs(float(last[1]) - 1.0) < 1e-8
    assert abs(float(last[2]) - 3.0) < 1e-8



@pytest.mark.parametrize("with_history", [False, True])
def test_simulate_without_feedback_writes_the_open_loop_simulation(kernel_file, tmp_path,
                                                                   with_history):
    # the command runs the zero law; its files are the library's open-loop
    # simulate() on the same history, horizon and step, byte for byte
    sysm = load_system(kernel_file)
    history = History.constant(np.ones(sysm.n), 50)
    flags = []
    if with_history:
        theta = -1.0 + np.arange(51) / 50
        hist = tmp_path / "hist.json"
        hist.write_text(json.dumps({"z": np.stack([np.cos(theta), 1 + theta], 1).tolist()}))
        z, dz = parse_history(hist.read_text())
        history = History.from_samples(z, 50, dz)
        flags = ["--history", str(hist)]
    out = tmp_path / "out"
    code = run("simulate", "--system", str(kernel_file), *flags, "--step", "0.02",
               "--horizon", "2.0", "--out", str(out))
    assert code == 0
    traj = simulate(sysm, history, horizon=2.0, step=0.02)
    assert (out / "trajectory.csv").read_bytes() == trajectory_to_csv(traj).encode()
    assert (out / "trajectory.svg").read_bytes() == svg.trajectory_svg(traj).encode()


@pytest.mark.parametrize("fixture", ["ex5_file", "kernel_file"])
def test_synthesize_without_region_flags_writes_the_library_plan(request, tmp_path, fixture):
    # the window comes from the plan's own default, as synthesize_stage1
    # picks it when given none
    path = request.getfixturevalue(fixture)
    out = tmp_path / "out"
    assert run("synthesize", "--system", str(path), "--omega", "1.0", "--out", str(out)) == 0
    plan = synthesize_stage1(load_system(path), 1.0)
    expected = json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"
    assert (out / "plan.json").read_text() == expected

def test_missing_system_file_is_operational_error(tmp_path, capsys):
    code = run("spectrum", "--system", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert code == 1


def test_malformed_system_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"n": 2,,}')
    code = run("check-stabilizability", "--system", str(f), "--out", str(tmp_path))
    assert code == 1
    assert "SystemFormatError" in capsys.readouterr().err


def test_bad_step_is_operational_error(ex3_file, tmp_path, capsys):
    code = run(
        "simulate", "--system", str(ex3_file), "--step", "0.3", "--out", str(tmp_path)
    )
    assert code == 1
    assert "StepNotUnitDivisor" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-0.01"])
def test_nonpositive_step_is_operational_error(ex3_file, tmp_path, capsys, step):
    # the step is validated before the history grid is built from it
    code = run("simulate", "--system", str(ex3_file), f"--step={step}", "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: StepNotUnitDivisor: ")


@pytest.mark.parametrize("command, flag, error", [
    # an uncaught OverflowError before
    ("simulate", "--horizon=inf", "ValueError: horizon must be finite and positive, got inf"),
    # "cannot convert float NaN to integer" before
    ("simulate", "--horizon=nan", "ValueError: horizon must be finite and positive, got nan"),
    ("simulate", "--step=nan", "StepNotUnitDivisor: step must be positive, got nan"),
    ("spectrum", "--im-max=inf",
     "ValueError: region bounds must be finite, got im_min = -inf, im_max = inf"),
    # an uncaught OverflowError before
    ("spectrum", "--re-max=inf", "ValueError: region bounds must be finite, got re_max = inf"),
    # a PlacementError "inside radius nan" before
    ("synthesize", "--omega=nan", "ValueError: omega must be finite and positive, got nan"),
    # "radius must be positive" before
    ("synthesize", "--omega=inf", "ValueError: omega must be finite and positive, got inf"),
    ("synthesize", "--omega=0", "ValueError: omega must be finite and positive, got 0.0"),
])
def test_non_finite_argument_is_named_operational_error(ex5_file, tmp_path, capsys, command,
                                                        flag, error):
    code = run(command, "--system", str(ex5_file), flag, "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("flag, error", [
    # an OverflowError traceback before
    ("--step=1e-300",
     "StepNotUnitDivisor: step 1e-300 is too small: 1/step exceeds the largest array index"),
    # numpy _ArrayMemoryError tracebacks before: each grid asks for more than
    # any address space, so it fails before anything is allocated
    ("--step=1e-15", "MemoryError: Unable to allocate "),
    ("--horizon=1e15", "MemoryError: Unable to allocate "),
], ids=["step-1e-300", "step-1e-15", "horizon-1e15"])
def test_grid_no_array_holds_is_operational_error(ex5_file, tmp_path, capsys, flag, error):
    code = run("simulate", "--system", str(ex5_file), flag, "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {error}") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("threads", ["1", "4"])
def test_outputs_byte_identical_across_thread_counts(ex5_file, kernel_file, tmp_path,
                                                     monkeypatch, threads):
    # NEUTRALCTL_THREADS is no longer read: a leftover setting must leave every
    # artifact byte-identical to a run with the variable unset.
    # The history file gives z only, so dz comes from finite differences.
    theta = -1.0 + np.arange(101) / 100
    hist = tmp_path / "history.json"
    hist.write_text(json.dumps({"z": np.stack([np.cos(theta), theta], 1).tolist()}))
    runs = []
    for name, setting in (("ref", None), (f"t{threads}", threads)):
        if setting is None:
            monkeypatch.delenv("NEUTRALCTL_THREADS", raising=False)
        else:
            monkeypatch.setenv("NEUTRALCTL_THREADS", setting)
        out = tmp_path / name
        assert run("spectrum", "--system", str(ex5_file), "--re-min", "-1", "--re-max", "1",
                   "--im-max", "40", "--out", str(out)) == 0
        assert run("check-stabilizability", "--system", str(ex5_file), "--out", str(out)) == 0
        assert run("simulate", "--system", str(kernel_file), "--history", str(hist),
                   "--horizon", "3", "--out", str(out)) == 0
        runs.append(out)

    for artifact in ("roots.csv", "verdict.json", "trajectory.csv", "trajectory.svg"):
        assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()


def test_simulate_rejects_non_finite_history(ex3_file, tmp_path, capsys):
    theta = -1.0 + np.arange(101) / 100
    z = np.stack([theta + 1.0, np.ones_like(theta)], 1)
    z[40, 0] = np.nan
    hist = tmp_path / "history.json"
    hist.write_text(json.dumps({"z": z.tolist()}))  # json writes the literal NaN
    out = tmp_path / "out"
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: history z[40, 0] = nan")
    assert not (out / "trajectory.csv").exists()


def test_simulate_overflow_is_operational_error(tmp_path, capsys):
    path = tmp_path / "growth.json"
    path.write_text('{"n":1,"m":1,"A_minus1":[[0]],"A0":[[50]],"A1":[[0]],"B":[[1]]}')
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("simulate", "--system", str(path), "--horizon", "20", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: ValueError: the solution overflows: z, dz or u is not finite at t = 14.13"
    )
    assert not (out / "trajectory.csv").exists()


def test_simulate_overflow_prints_no_numpy_warnings(tmp_path, capsys):
    # stderr starts with the error itself, not with numpy's overflow warnings
    path = tmp_path / "growth.json"
    path.write_text('{"n":1,"m":1,"A_minus1":[[0]],"A0":[[50]],"A1":[[0]],"B":[[1]]}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("simulate", "--system", str(path), "--horizon", "20",
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: the solution overflows")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_history_with_an_unknown_field_is_rejected(ex3_file, tmp_path, capsys):
    # "dZ" was ignored, and dz taken from finite differences
    theta = -1.0 + np.arange(101) / 100
    hist = tmp_path / "history.json"
    z = np.stack([theta, np.ones_like(theta)], 1).tolist()
    hist.write_text(json.dumps({"z": z, "dZ": z}))
    out = tmp_path / "out"
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: SystemFormatError: unknown fields: ['dZ']\n"
    assert not (out / "trajectory.csv").exists()


def test_history_syntax_error_names_line_and_column(ex3_file, tmp_path, capsys):
    # a JSONDecodeError before
    hist = tmp_path / "history.json"
    hist.write_text('{"z": [[0, 1],\n      [1, 1]],,}')
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist),
               "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: SystemFormatError: syntax error at line 2, column 15: ")


def test_history_of_json_objects_is_a_format_error(ex3_file, tmp_path, capsys):
    # a TypeError traceback before
    hist = tmp_path / "history.json"
    hist.write_text('{"z": [{"t": 0}]}')
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist),
               "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: SystemFormatError: history samples ")


def test_history_with_ragged_rows_is_a_format_error(ex3_file, tmp_path, capsys):
    # numpy's ValueError, naming no field or row, before
    hist = tmp_path / "history.json"
    hist.write_text('{"z": [[0, 1], [1]]}')
    out = tmp_path / "out"
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == ("error: SystemFormatError: history z rows must have equal "
                                       "length: row 1 has 1 value, row 0 has 2 values\n")
    assert not (out / "trajectory.csv").exists()


def test_directory_as_system_is_operational_error(tmp_path, capsys):
    # an IsADirectoryError traceback before
    code = run("spectrum", "--system", str(tmp_path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: IsADirectoryError: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command, fixture", [
    # nan and inf gave condition 1 violated and exit 2 on ex5
    ("check-stabilizability", "ex5_file"),
    # -1 turned ex4's violated condition 1 into ok
    ("check-controllability", "ex4_file"),
    ("synthesize", "ex5_file"),
])
def test_rank_tolerance_must_be_finite_and_positive(request, tmp_path, capsys, monkeypatch,
                                                    command, fixture, tol):
    points = count_points(monkeypatch)
    extra = ["--omega", "1"] if command == "synthesize" else []
    code = run(command, "--system", str(request.getfixturevalue(fixture)), "--im-max", "7",
               f"--tol-rank={tol}", *extra, "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: rank tolerance must be finite and positive, got {float(tol)}\n")
    assert points == []


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["spectrum", "check-controllability"])
def test_root_tolerance_must_be_finite_and_positive(ex5_file, tmp_path, capsys, monkeypatch,
                                                    command, tol):
    # nan, -1 and 0 subdivided down to MaxDepthExceeded before
    points = count_points(monkeypatch)
    code = run(command, "--system", str(ex5_file), "--im-max", "7", f"--tol-root={tol}",
               "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: root tolerance must be finite and positive, got {float(tol)}\n")
    assert points == []


def test_runtime_needs_numpy_only(ex5_file, tmp_path):
    # the test-only oracles must not leak into the library or the CLI
    script = (
        "import json, sys, neutralctl, neutralctl.cli\n"
        f"assert neutralctl.cli.main(['spectrum', '--system', {str(ex5_file)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    src = str(Path(neutralctl.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True, timeout=120)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "numpy" in loaded
    assert not loaded & {"scipy", "mpmath", "sympy", "hypothesis"}


@pytest.mark.parametrize("sample", ['"0.5"', "true"])
def test_history_samples_must_be_json_numbers(ex3_file, tmp_path, capsys, sample):
    # "0.5" and true were read as 0.5 and 1.0, and the run exited 0
    theta = -1.0 + np.arange(101) / 100
    rows = [json.dumps(row) for row in np.stack([theta + 1.0, np.ones_like(theta)], 1).tolist()]
    rows[5] = f"[{sample}, 1.0]"
    hist = tmp_path / "history.json"
    hist.write_text('{"z": [' + ", ".join(rows) + "]}")
    out = tmp_path / "out"
    code = run("simulate", "--system", str(ex3_file), "--history", str(hist), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: SystemFormatError: history samples must be numbers: z holds {json.loads(sample)!r}\n")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    # each command takes only the tolerances it reads: these exited 0 and
    # ignored the value
    ["spectrum", "--tol-rank", "nan"],
    ["simulate", "--tol-root", "nan"],
    ["spectrum", "--no-such-flag"],
    ["check-stabilizability"],  # no --system
])
def test_usage_errors_exit_1(ex5_file, tmp_path, capsys, argv):
    # argparse exits 2, which the CLI keeps for a definite negative verdict
    if argv != ["check-stabilizability"]:
        argv = [*argv, "--system", str(ex5_file)]
    assert run(*argv, "--out", str(tmp_path / "out")) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    assert run(*argv) == 0
    assert capsys.readouterr().out.startswith("usage: neutralctl")
