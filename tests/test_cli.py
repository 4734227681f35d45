"""The command-line surface: exit codes, formats, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pkslab
from pkslab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


def test_geometry_text_and_structured(capsys):
    code, out = run(capsys, "geometry")
    assert code == 0
    assert "rays: 33" in out
    assert "bases: 16" in out
    code, report = run_json(capsys, "geometry")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["ray_count"] == 33
    assert report["basis_count"] == 16
    assert report["symmetry_count"] == 24
    assert report["orthogonal_pair_count"] == 72
    assert report["type_counts"] == {"I": 3, "II": 6, "III": 12, "IV": 12}
    assert {"index": 0, "label": "001", "record": "0 0 1", "type": "I"} in report["rays"]
    assert report["config_hash"]


def test_ks_verify(capsys):
    code, report = run_json(capsys, "ks-verify")
    assert code == 0
    assert report["unsat"] is True
    assert report["consistent_colourings"] == 0
    assert report["seed_colourings"] == 24
    assert report["walkthrough"]["forced_greens"] == [
        "102", "211", "201", "112", "012", "121"
    ]
    assert "B11" in report["walkthrough"]["contradiction"]


def test_phi_m_table(capsys):
    code, report = run_json(capsys, "phi-m")
    assert code == 0
    assert report["errata"] == ["112"]
    assert report["mismatches"] == []
    assert report["both_valued_false"] == ["021", "201", "m112", "1m12"]
    assert report["preclusive_on_pks_family"] is True
    row = next(r for r in report["rows"] if r["ray"] == "112")
    assert (row["green_value"], row["red_value"]) == (1, 0)
    assert row["published"] == ["g", "g", 1, 1]
    code, out = run(capsys, "phi-m")
    assert "ERRATUM" in out


def test_measure_check_default(capsys):
    code, report = run_json(capsys, "measure-check", "--samples", "25")
    assert code == 0
    assert report["pass"] is True
    assert report["axioms"]["hermiticity"] < 1e-10
    assert report["pks_zero"]["all_zero"] is True
    assert report["pks_zero"]["events"] == 88


def test_measure_check_with_detector(capsys):
    code, report = run_json(
        capsys, "measure-check", "--samples", "20", "--detector", "021"
    )
    assert code == 0
    assert report["detector"]["position"] == 12


def test_measure_check_with_files(tmp_path, capsys):
    ordering_file = tmp_path / "ordering.txt"
    from pkslab.measure import Ordering
    from pkslab.rays import ray_index

    moved = Ordering.default().with_ray_last(ray_index("021"))
    ordering_file.write_text("\n".join(moved.labels()))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"pure": [[0, 0], [1, 0], [0, 0]]}))
    code, report = run_json(
        capsys,
        "measure-check",
        "--ordering", str(ordering_file),
        "--state", str(state_file),
        "--samples", "20",
    )
    assert code == 0
    assert report["pass"] is True


def test_ordering_file_in_record_format(tmp_path, capsys):
    from pkslab.rays import PERES_RAYS

    ordering_file = tmp_path / "ordering.txt"
    ordering_file.write_text("\n".join(r.record for r in PERES_RAYS))
    code, report = run_json(
        capsys, "measure-check", "--ordering", str(ordering_file), "--samples", "15"
    )
    assert code == 0
    assert report["pass"] is True


def test_measure_check_rejects_bad_state(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"pure": [[1, 0], [1, 0], [0, 0]]}))
    code = main(["measure-check", "--state", str(state_file)])
    assert code == 2


# Files of the wrong shape or type: each must be refused as a config error
# (exit 2), not crash the loaders with a TypeError or AttributeError.
BAD_CONFIG_FILES = [
    ("--state", {"pure": 5}),
    ("--state", None),
    ("--state", {"pure": [["a", 0], [1, 0], [0, 0]]}),
    ("--state", "weight"),
    ("--state", "pure"),
    ("--state", {"mixed": ["weight"]}),
    ("--state", {"mixed": [{"weight": "1", "pure": [[0, 0], [1, 0], [0, 0]]}]}),
    ("--ordering", [1, 2, 3]),
    ("--state", {"mixed": [{"weight": 1.0}]}),
]


@pytest.mark.parametrize("command", ["measure-check", "zero-scan"])
@pytest.mark.parametrize("flag,content", BAD_CONFIG_FILES)
def test_malformed_config_file_exits_2(tmp_path, capsys, command, flag, content):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(content))
    small = ["--max-fixed", "1"] if command == "zero-scan" else ["--samples", "1"]
    assert main([command, flag, str(config_file), *small]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")


def test_measure_check_rejects_bad_detector_before_the_checks(capsys, monkeypatch):
    from pkslab import measure

    def no_checks(*args, **kwargs):
        raise AssertionError("axioms checked before the detector label")

    monkeypatch.setattr(measure, "check_axioms", no_checks)
    assert main(["measure-check", "--detector", "xyz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")


@pytest.mark.parametrize("command", ["measure-check", "zero-scan"])
def test_non_finite_state_file_exits_2(tmp_path, capsys, command):
    state_file = tmp_path / "state.json"
    state_file.write_text('{"pure": [[NaN, 0], [1, 0], [0, 0]]}')
    code = main([command, "--state", str(state_file)])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["measure-check"], ["zero-scan", "--max-fixed", "1"]])
@pytest.mark.parametrize("threshold", ["inf", "nan"])
def test_non_finite_threshold_exits_2(capsys, argv, threshold):
    # inf makes every event "zero" (a spurious cover); nan makes none zero
    code = main([*argv, "--threshold", threshold])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_checks_without_samples_exit_2(capsys):
    assert main(["measure-check", "--samples", "0"]) == 2
    assert main(["lemma-fuzz", "--trials", "0"]) == 2
    assert capsys.readouterr().out == ""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this pkslab."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(pkslab.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def test_python_m_pkslab_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "pkslab", "geometry"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "rays: 33" in done.stdout


def test_closed_stdout_exits_quietly():
    # a reader that goes away before the report is written (`pkslab geometry
    # | head -0`) costs the report, not a traceback or the exit code
    with subprocess.Popen(
        [sys.executable, "-m", "pkslab", "geometry"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    assert err == b""


def test_main_without_argv_exits_with_its_code(capsys, monkeypatch):
    # the console script calls main() with no arguments: it reads sys.argv
    # and ends the process itself
    monkeypatch.setattr(sys, "argv", ["pkslab", "geometry"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert "rays: 33" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["pkslab", "lemma-fuzz", "--trials", "0"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_measure_check_mixed_state_file(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(
        json.dumps(
            {
                "mixed": [
                    {"weight": 0.5, "pure": [[1, 0], [0, 0], [0, 0]]},
                    {"weight": 0.5, "pure": [[0, 0], [0, 0], [1, 0]]},
                ]
            }
        )
    )
    code, report = run_json(
        capsys, "measure-check", "--state", str(state_file), "--samples", "20"
    )
    assert code == 0
    assert report["pass"] is True


def test_zero_scan_default(capsys):
    code, report = run_json(capsys, "zero-scan", "--max-fixed", "2")
    assert code == 0
    assert report["zero_events"] == 505
    assert report["coverage"]["status"] == "covered"
    assert report["coverage"]["witness"]
    norms = report["coverage"]["witness_norms"]
    assert len(norms) == len(report["coverage"]["witness"])
    assert all(0 <= n < report["threshold"] for n in norms)
    assert report["pks_only_coverage"] == "not-covered-within-scope"


def test_zero_scan_reports_norm_margin(capsys):
    for depth, min_nonzero in (("3", 7.58e-3), ("4", 1.11e-3)):
        code, report = run_json(capsys, "zero-scan", "--max-fixed", depth)
        assert code == 0
        margin = report["norm_margin"]
        assert margin["max_zero"] < 1e-14
        assert margin["min_nonzero"] == pytest.approx(min_nonzero, rel=1e-3)
    # the margin is a measurement: it stays out of the text and the config hash
    code, text = run(capsys, "zero-scan", "--max-fixed", "4")
    assert code == 0 and "margin" not in text and "e-03" not in text


def test_zero_scan_021_last(tmp_path, capsys):
    from pkslab.measure import Ordering
    from pkslab.rays import ray_index

    moved = Ordering.default().with_ray_last(ray_index("021"))
    f = tmp_path / "ordering.json"
    f.write_text(json.dumps(list(moved.labels())))
    code, report = run_json(
        capsys, "zero-scan", "--ordering", str(f), "--max-fixed", "2"
    )
    assert code == 0
    built = report["final_stage_construction"]
    assert built["norm1"] < 1e-10 and built["norm2"] < 1e-10
    assert built["separating_ray"] == "021"
    assert report["coverage"]["status"] == "covered"


def test_zero_scan_budget_guard(capsys):
    code = main(["zero-scan", "--max-fixed", "12"])
    assert code == 2
    code = main(["zero-scan", "--max-fixed", "6"])  # past the depth-5 cap
    assert code == 2
    code = main(["zero-scan", "--max-fixed", "1", "--budget", "-5"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_zero_scan_with_detector(capsys):
    code, report = run_json(
        capsys, "zero-scan", "--max-fixed", "2", "--detector", "021"
    )
    assert code == 0
    assert report["detector"] == "021"
    assert report["zero_events"] == 343
    assert report["provenance_counts"]["pks"] == 57


def test_zero_scan_with_search(capsys):
    code, report = run_json(capsys, "zero-scan", "--max-fixed", "1", "--budget", "3")
    assert code == 0
    assert len(report["search"]["candidates"]) == 3
    assert "strategy" not in report["search"]
    probe = next(
        c for c in report["search"]["candidates"] if c["label"] == "probe-021-last"
    )
    assert probe["status"] == "covered"
    assert probe["witness"]


def test_lemma_fuzz(capsys):
    code, report = run_json(capsys, "lemma-fuzz", "--trials", "25", "--seed", "3")
    assert code == 0
    assert report["pass"] is True
    assert report["classical_failures"] == []
    assert report["homomorphism_counts"] == {"1": 1, "2": 2, "3": 3, "4": 4}


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# The text rendering of each command, byte for byte; the files in golden/ are
# named after the arguments.
GOLDEN_TEXT = [
    "geometry",
    "ks-verify",
    "phi-m",
    "lemma-fuzz --trials 25 --seed 3",
    "zero-scan --max-fixed 2",
    "zero-scan --max-fixed 2 --detector 021",
    "zero-scan --max-fixed 1 --budget 3",
]


@pytest.mark.parametrize("command", GOLDEN_TEXT)
def test_text_output_is_pinned(capsys, command):
    argv = command.split()
    golden = Path(__file__).parent / "golden" / ("_".join(argv).replace("--", "") + ".txt")
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == golden.read_text()


def test_structured_text_numeric_agreement(capsys):
    _, report = run_json(capsys, "geometry")
    _, text = run(capsys, "geometry")
    assert f"rays: {report['ray_count']}" in text
    assert f"bases: {report['basis_count']}" in text
    assert f"symmetries: {report['symmetry_count']}" in text
