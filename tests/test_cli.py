import json
import warnings

import numpy as np
import pytest

from neutralctl.cli import main

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


def test_check_stabilizability_example5(ex5_file, tmp_path):
    out = tmp_path / "out"
    code = run("check-stabilizability", "--system", str(ex5_file), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["overall"] is True
    assert payload["kind"] == "stabilizability"
    assert payload["tolerances"]["rank"] == 1e-9


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
