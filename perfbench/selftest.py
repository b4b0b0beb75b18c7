"""The benchmark's own tests: tiny smoke runs and corrupted-artifact checks.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of a plain ``pytest`` run from the
repository root (only ``test_*.py`` files are collected there).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    check_contraction,
    check_events,
    check_ledger,
    check_manifest,
    check_output,
    check_snapshots,
)
from run import run_operation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _operate(name, tmp, trace=False):
    wl = WORKLOADS[name](SEED, tiny=True)
    tmp.mkdir(parents=True, exist_ok=True)
    (tmp / "run.cfg").write_text(wl.config_text)
    op = run_operation(wl, SEED, tmp, 0, trace)
    assert op["ok"], (tmp / "child.err").read_text()
    return wl, op


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny operation of every workload, run once for the module."""
    base = tmp_path_factory.mktemp("ops")
    return {name: _operate(name, base / name) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_operation_passes_every_check(outputs, name):
    wl, op = outputs[name]
    assert check_output(wl, op["out"]) == []
    assert op["setup_s"] > 0 and op["particle_steps_per_s"] > 0 and op["peak_rss_mb"] > 0


def test_traced_operation_counts_the_work(tmp_path):
    wl, op = _operate("ball_billiards", tmp_path, trace=True)
    layers = op["layers"]
    assert layers["flow.steps"] == wl.steps
    assert layers["fields.field_calls"] > 0 and layers["fields.field_pairs"] > 0
    assert layers["flow.events"] >= layers["flow.crossing_particles"] > 0
    assert layers["geometry.signed_distance_calls"] > 0
    assert layers["diagnostics.energy_audit_s"] > 0
    assert json.loads(Path(op["trace"]).read_text())["missing"] == []


def test_traced_picard_counts_iterates(tmp_path):
    wl, op = _operate("picard_fold", tmp_path, trace=True)
    assert op["layers"]["selfconsistent.iterates"] == wl.iterates
    assert op["layers"]["fields.field_calls"] == 2 * wl.steps * wl.iterates


def _copy(outputs, name, tmp_path):
    wl, op = outputs[name]
    out = tmp_path / name
    shutil.copytree(op["out"], out)
    return wl, out


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scaled(factor):
    return lambda cell: repr(float(cell) * factor)


# (workload, file, row, column, edit, check, expected message fragment)
CORRUPTIONS = [
    ("bounce3d", "events.csv", 1, 2, lambda c: "1e-6", check_events, "off the wall"),
    ("bounce3d", "events.csv", 1, 8, _scaled(-1.0), check_events, "reverse the normal"),
    ("bounce3d", "events.csv", 1, 9, lambda c: repr(float(c) + 1e-3), check_events,
     "tangential"),
    ("bounce3d", "events.csv", 1, 1, lambda c: "5", check_events, "particle 0 never reflects"),
    ("bounce3d", "snapshots.csv", 5, 2, lambda c: "-1e-3", check_snapshots, "outside"),
    ("bounce3d", "snapshots.csv", 9, 8, _scaled(1.0 + 1e-15), check_snapshots, "weight"),
    ("bounce3d", "snapshots.csv", 3, 5, _scaled(1.0 + 1e-15), check_snapshots, "handed in"),
    ("halfspace_bulk", "snapshots.csv", 7, 3, lambda c: "nan", check_snapshots, "non-finite"),
    ("halfspace_bulk", "ledger.csv", 1, 2, _scaled(1.0 + 1e-9), check_ledger, "potential"),
    ("halfspace_bulk", "ledger.csv", 1, 1, _scaled(1.0 + 1e-9), check_ledger, "kinetic"),
    ("halfspace_bulk", "ledger.csv", 2, 5, lambda c: "1.0", check_ledger, "drift"),
    ("ball_billiards", "ledger.csv", 3, 3, _scaled(1.01), check_ledger, "energy bound"),
    ("ball_billiards", "snapshots.csv", 4, 2, lambda c: "1.5", check_snapshots, "outside"),
    ("picard_fold", "contraction.csv", 2, 2, lambda c: "1.0", check_contraction, "below 1"),
    ("picard_fold", "contraction.csv", 1, 3, _scaled(2.5), check_contraction, "mass * Z_n"),
    ("picard_fold", "contraction.csv", 2, 1, _scaled(1.5), check_contraction, "Z_n / Z_(n-1)"),
]


@pytest.mark.parametrize("case", CORRUPTIONS, ids=lambda c: f"{c[0]}-{c[1]}-{c[6]}")
def test_check_fails_on_a_corrupted_artifact(outputs, tmp_path, case):
    name, fname, row, col, edit, check, fragment = case
    wl, out = _copy(outputs, name, tmp_path)
    assert check(wl, out) == []
    _edit_csv(out / fname, row, col, edit)
    errors = check(wl, out)
    assert any(fragment in e for e in errors), errors


def test_manifest_check_fails_on_an_edited_artifact(outputs, tmp_path):
    _, out = _copy(outputs, "bounce3d", tmp_path)
    assert check_manifest(out) == []
    (out / "events.csv").write_text((out / "events.csv").read_text() + "\n")
    assert any("hash of events.csv" in e for e in check_manifest(out))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["complete"] = False
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert any("not complete" in e for e in check_manifest(out))


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / here.name / "run.py"), "--workload", "bounce3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
