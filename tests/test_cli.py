"""CLI contract: subcommands, exit codes, golden comparison."""

import os
import subprocess
import sys
from pathlib import Path

import yaml

import pytest

import demandflow
from demandflow.cli import (
    EXIT_DIFF,
    EXIT_OK,
    EXIT_SCENARIO,
    bundled_scenario_path,
    main,
)

GOLDEN = bundled_scenario_path("collective_perception").with_suffix(".trace")


def test_validate_bundled_scenarios(capsys):
    for name in (
        "collective_perception",
        "collective_perception_upgrade",
        "waypoint_drive",
    ):
        assert main(["validate", name]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok: collective-perception (7 entities, 8 scripted events" in out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nentities: []\n")
    assert main(["validate", str(bad)]) == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err


def test_validate_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: \xff\n")
    assert main(["validate", str(bad)]) == EXIT_SCENARIO
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("scenario error: bad.yaml: 'utf-8' codec can't decode")


def test_validate_unknown_name(capsys):
    assert main(["validate", "no-such-scenario"]) == EXIT_SCENARIO
    assert "no bundled scenario" in capsys.readouterr().err


def test_run_writes_trace_and_matches_golden(tmp_path, capsys):
    out_path = tmp_path / "run.trace"
    code = main([
        "run", "collective_perception",
        "--trace-out", str(out_path),
        "--golden", str(GOLDEN),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "collective-perception: 24 ticks" in out
    assert "0 instances live" in out
    assert "trace matches golden" in out
    assert out_path.read_text() == GOLDEN.read_text()


@pytest.mark.parametrize(
    "name", ["collective_perception", "collective_perception_upgrade", "waypoint_drive"]
)
def test_trace_out_is_the_golden_under_any_hash_seed(tmp_path, name):
    # Each run is a fresh interpreter, so set and dict iteration orders
    # differ between the two; the written bytes must not.
    golden = bundled_scenario_path(name).with_suffix(".trace").read_bytes()
    src = str(Path(demandflow.__file__).parents[1])
    for hash_seed in ("0", "1"):
        out = tmp_path / f"{hash_seed}.trace"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        command = ["run", name, "--trace-out", str(out)]
        subprocess.run(
            [sys.executable, "-m", "demandflow.cli", *command],
            env=env, check=True, capture_output=True, timeout=60,
        )
        assert out.read_bytes() == golden, hash_seed


def test_run_detects_golden_mismatch(tmp_path, capsys):
    doctored = tmp_path / "doctored.trace"
    lines = GOLDEN.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("LEDGER"):
            lines[i] = line.replace("support=", "support=GHOST,")
            break
    doctored.write_text("\n".join(lines) + "\n")
    code = main(["run", "collective_perception", "--golden", str(doctored)])
    assert code == EXIT_DIFF
    err = capsys.readouterr().err
    assert "LEDGER" in err
    assert "GHOST" in err


def test_run_ticks_override_cuts_the_run_short(capsys):
    assert main(["run", "collective_perception", "--ticks", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    # only step 1 fits into 3 ticks, so its deployment stays live:
    # three services plus two sender/receiver pairs
    assert "collective-perception: 3 ticks" in out
    assert "7 instances live" in out


def test_run_rejects_negative_ticks(capsys):
    assert main(["run", "collective_perception", "--ticks", "-3"]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scenario error: --ticks must be a non-negative integer\n"


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("d_start", "[1]", "d_start and d_stop must be finite numbers"),
        ("d_start", ".nan", "d_start and d_stop must be finite numbers"),
        ("center", "[.inf, 0.0]", "center must be [x, y] of finite numbers"),
    ],
)
def test_run_rejects_non_finite_geofence_numbers(tmp_path, capsys, key, text, message):
    raw = yaml.safe_load(bundled_scenario_path("collective_perception").read_text())
    raw["geofence"][key] = yaml.safe_load(text)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    assert main(["run", str(scenario)]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_validate_rejects_a_value_of_the_wrong_shape(tmp_path, capsys):
    raw = yaml.safe_load(bundled_scenario_path("collective_perception").read_text())
    raw["entities"][0]["capabilities"] = 5
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(scenario)]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("scenario error") and "capabilities must be a list" in line


def test_run_rejects_an_unknown_log_level(capsys):
    code = main(["run", "collective_perception", "--log-level", "bogus"])
    assert code == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unknown --log-level 'bogus'\n"


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"])
def test_run_reports_an_unreadable_golden_file(tmp_path, capsys, content):
    golden = tmp_path / "golden.trace"
    if content is not None:
        golden.write_bytes(content)
    code = main(["run", "collective_perception", "--golden", str(golden)])
    assert code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("trace file error: ")
    assert err.count("\n") == 1


def test_run_reports_an_unwritable_trace_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "run.trace"
    code = main(["run", "collective_perception", "--trace-out", str(target)])
    assert code == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("trace file error: ")
    assert str(target) in err
    assert err.count("\n") == 1


def test_run_duplicate_delivery_still_matches_structural_golden(capsys):
    code = main([
        "run", "collective_perception",
        "--duplicate-delivery",
        "--golden", str(GOLDEN),
    ])
    assert code == EXIT_OK
    assert "trace matches golden" in capsys.readouterr().out


def test_inject_reports_resulting_state(tmp_path, capsys):
    request = tmp_path / "request.yaml"
    request.write_text(
        yaml.safe_dump(
            {
                "request": {
                    "id": "manual-1",
                    "action": "request",
                    "application": "object-detection-fusion",
                    "requesters": ["V0", "S"],
                    "inputs": ["V0:ego", "V0:pointcloud", "S:pointcloud"],
                }
            }
        )
    )
    assert main(["inject", str(request)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "REQUEST" in out
    assert "svc-object-detection-fusion-fusion-singleton" in out
    assert "generation=1 phase=running support=V0,S" in out
    assert "connection/conn-S-E" in out
    assert "connection/conn-V0-E" in out


def test_inject_rejects_malformed_file(tmp_path, capsys):
    request = tmp_path / "request.yaml"
    request.write_text("request: {id: x}\n")
    assert main(["inject", str(request)]) == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("request: 5\n", "request must be a mapping"),
        ("request: [id, action]\n", "request must be a mapping"),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: V1, inputs: ['V1:ego']}\n",
            "requesters must be a list of strings",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: [V1], inputs: 'V1:ego'}\n",
            "inputs must be a list of strings",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: null, inputs: []}\n",
            "requesters must be a list of strings",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: [5], inputs: ['V0:ego']}\n",
            "requesters must be a list of strings",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V0:radar']}\n",
            "expected entity:kind",
        ),
        # names a REQUEST trace line cannot carry
        (
            "request: {id: req 1, action: request,"
            " application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V0:ego']}\n",
            "bad id 'req 1'",
        ),
        (
            "request: {id: 'req,1', action: request,"
            " application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V0:ego']}\n",
            "bad id 'req,1'",
        ),
        (
            "request: {id: 'req=1', action: request,"
            " application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V0:ego']}\n",
            "bad id 'req=1'",
        ),
        (
            "request: {id: 7, action: request, application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V0:ego']}\n",
            "bad id 7",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: ['V 0', S], inputs: ['V0:ego']}\n",
            "bad requester 'V 0'",
        ),
        (
            "request: {id: x, action: request, application: object-detection-fusion,"
            " requesters: [V0, S], inputs: ['V 0:ego']}\n",
            "bad input 'V 0:ego'",
        ),
    ],
    ids=[
        "scalar",
        "list",
        "requesters-string",
        "inputs-string",
        "requesters-null",
        "requester-number",
        "unknown-kind",
        "id-space",
        "id-comma",
        "id-equals",
        "id-number",
        "requester-space",
        "input-space",
    ],
)
def test_inject_rejects_malformed_request_shape(tmp_path, capsys, text, message):
    request = tmp_path / "request.yaml"
    request.write_text(text)
    assert main(["inject", str(request)]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("scenario error")
    assert message in line


def test_inject_rejects_bad_input_syntax(tmp_path, capsys):
    request = tmp_path / "request.yaml"
    request.write_text(
        yaml.safe_dump(
            {
                "request": {
                    "id": "x",
                    "action": "request",
                    "application": "object-detection-fusion",
                    "requesters": ["V0", "S"],
                    "inputs": ["V0-ego"],
                }
            }
        )
    )
    assert main(["inject", str(request)]) == EXIT_SCENARIO
    assert "expected entity:kind" in capsys.readouterr().err


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
