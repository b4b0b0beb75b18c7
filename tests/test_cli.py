import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import specularvp
import specularvp.fields as fields
from specularvp.cli import (
    ParseError,
    ValidationError,
    bounce3d_config_text,
    main,
    parse_config,
    run,
)
from specularvp.geometry import Ball, HalfSpace

MINIMAL = """
[domain]
kind = halfspace
dim = 3

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.1
delta = 0.1

[initial]
type = uniform_box
n = 2
mass = 0.1
seed = 0
x_min = 1.0, -1.0, -1.0
x_max = 2.0, 1.0, 1.0
v_min = -0.5, -0.5, -0.5
v_max = 0.5, 0.5, 0.5

[stepper]
dt = 1e-3
t_end = 0.01
"""


def in_ball(text):
    """MINIMAL's run moved into the unit ball."""
    return (text.replace("kind = halfspace", "kind = ball\nradius = 1.0")
            .replace("x_min = 1.0, -1.0, -1.0", "x_min = -0.5, -0.5, -0.5")
            .replace("x_max = 2.0, 1.0, 1.0", "x_max = 0.5, 0.5, 0.5"))


def with_field(text, kind):
    return text + f"\n[field]\nkind = {kind}\n"


# configs whose run would crash, hang or step other physics: the command,
# the config, and a fragment of the one error line
REFUSED = {
    "zeta-negative": ("simulate", MINIMAL.replace("zeta = 0.1", "zeta = -1"),
                      "zeta must be > 0"),
    "t_end-not-whole-steps": (
        "simulate", MINIMAL.replace("dt = 1e-3", "dt = 0.3").replace("t_end = 0.01", "t_end = 1.0"),
        "t_end = 1.0 is not a whole number of steps"),
    "picard-t0-not-whole-steps": (
        "picard", MINIMAL.replace("dt = 1e-3", "dt = 0.25").replace("t_end = 0.01", "t_end = 0.5"),
        "[picard] t0 = 0.05 is not a whole number of steps"),
    "ball-zeta-too-large": ("simulate", in_ball(MINIMAL).replace("zeta = 0.1", "zeta = 0.6"),
                            "too large for ball radius"),
    "no-reflections": ("simulate", MINIMAL + "max_reflections = 0\n",
                       "max_reflections_per_step must be >= 1"),
    "ball-image-in-halfspace": ("simulate", with_field(MINIMAL, "ball_image"),
                                "does not belong to HalfSpace"),
    "fold-in-ball": ("simulate", in_ball(MINIMAL) + "backend = fold\n",
                     "backend = fold needs a half-space"),
    "halfspace-image-in-ball": ("simulate", with_field(in_ball(MINIMAL), "halfspace_image"),
                                "does not belong to Ball"),
    "halfspace-mollified-in-ball": (
        "simulate", with_field(in_ball(MINIMAL), "halfspace_mollified"),
        "does not belong to Ball"),
    "negative-n": ("simulate", MINIMAL.replace("n = 2", "n = -1"), "n must be >= 0"),
    "negative-mass": ("simulate", MINIMAL.replace("mass = 0.1", "mass = -1"),
                      "mass must be >= 0"),
    # beyond those: more values that crashed a run, or stepped a wrong state
    "zero-cadence": ("simulate", MINIMAL + "\n[output]\ncadence_snapshot = 0\n",
                     "cadences must be >= 1"),
    "negative-temperature": (
        "simulate", MINIMAL.replace("type = uniform_box", "type = maxwellian\ntemperature = -1"),
        "temperature must be >= 0"),
    "vector-of-another-dimension": (
        "simulate", MINIMAL.replace("v_max = 0.5, 0.5, 0.5", "v_max = 0.5, 0.5"),
        "vectors need 3 entries"),
    "explicit-particle-outside": (
        "simulate", MINIMAL[:MINIMAL.index("[initial]")] + "[initial]\ntype = explicit\n"
        "[particles]\n0 = -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1\n[stepper]\ndt = 1e-3\nt_end = 0.01\n",
        "outside the domain"),
    "box-outside-the-halfspace": (
        "simulate",
        MINIMAL.replace("x_min = 1.0", "x_min = -2.0").replace("x_max = 2.0", "x_max = -1.0"),
        "misses the domain"),
    # a value that is not finite: the run would stop at its first step
    "explicit-particle-nan": (
        "simulate", MINIMAL[:MINIMAL.index("[initial]")] + "[initial]\ntype = explicit\n"
        "[particles]\n0 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1\n"
        "1 = nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1\n[stepper]\ndt = 1e-3\nt_end = 0.01\n",
        "initial-condition x is not finite"),
    "explicit-velocity-inf": (
        "simulate", MINIMAL[:MINIMAL.index("[initial]")] + "[initial]\ntype = explicit\n"
        "[particles]\n0 = 1.0, 0.0, 0.0, inf, 0.0, 0.0, 0.1\n[stepper]\ndt = 1e-3\nt_end = 0.01\n",
        "initial-condition v is not finite"),
    "maxwellian-v-center-nan": (
        "simulate",
        MINIMAL.replace("type = uniform_box", "type = maxwellian\nv_center = nan, 0, 0"),
        "initial-condition v_center is not finite"),
    "maxwellian-temperature-inf": (
        "simulate", MINIMAL.replace("type = uniform_box", "type = maxwellian\ntemperature = inf"),
        "initial-condition temperature is not finite"),
    "maxwellian-mass-inf": (
        "simulate", MINIMAL.replace("type = uniform_box", "type = maxwellian")
        .replace("mass = 0.1", "mass = inf"),
        "initial-condition mass is not finite"),
    "delta-x0-nan": (
        "simulate",
        MINIMAL.replace("type = uniform_box", "type = delta\nx0 = nan, 0, 0\nv0 = 0, 0, 0"),
        "initial-condition x0 is not finite"),
    # exact W1 refuses these; the picard run must not step before it says so
    "picard-w1-too-many-particles": (
        "picard", MINIMAL.replace("n = 2", "n = 300") + "backend = fold\n[picard]\nw1 = true\n",
        "exact matching limited to 512 particles, got 600"),
    "picard-w1-unequal-weights": (
        "picard", MINIMAL[:MINIMAL.index("[initial]")] + "[initial]\ntype = explicit\n"
        "[particles]\n0 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1\n"
        "1 = 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2\n[stepper]\ndt = 1e-3\nt_end = 0.01\n"
        "[picard]\nw1 = true\n",
        "exact W_1 requires equal weights"),
    "picard-no-iterates": ("picard", MINIMAL + "\n[picard]\nn_max = 0\n",
                           "[picard] n_max = 0 is not >= 1"),
}

# rejection sampling from this box never ends unless the config is refused
HANGS = {"box-outside-the-halfspace"}

# inputs other than a config that a command refuses: its arguments (``{tmp}``
# is the test's directory) and a fragment of the one error line
LEDGER_HEADER_ONLY = "t,kinetic,potential,total,K_integral,drift\n"
LEDGER_MISSING_COLUMNS = "t,kinetic\n0.0,1.0\n"
BAD_INPUTS = {
    "diagnose-missing-ledger": (["diagnose", "--ledger", "{tmp}/missing.csv"], "not found"),
    "diagnose-header-only-ledger": (["diagnose", "--ledger", "{tmp}/header_only.csv"],
                                    "empty ledger"),
    "diagnose-missing-columns": (["diagnose", "--ledger", "{tmp}/two_columns.csv"],
                                 "no field of name potential"),
    "simulate-missing-config": (["simulate", "--config", "{tmp}/missing.cfg",
                                 "--out", "{tmp}/x"], "No such file"),
    "audit-green-dim-2": (["audit-green", "--dim", "2", "--pairs", "10"],
                          "dimension must be >= 3"),
    "audit-green-no-pairs": (["audit-green", "--pairs", "0"], "--pairs 0 is not >= 1"),
    "audit-green-negative-radius": (["audit-green", "--domain", "ball", "--radius", "-1",
                                     "--pairs", "10"], "radius must be positive"),
}

PACKAGE_ROOT = str(Path(specularvp.__file__).resolve().parents[1])


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert isinstance(cfg.domain, HalfSpace)
        assert cfg.stepper.dt == 1e-3
        assert cfg.t_end == 0.01
        assert cfg.fold is False
        assert cfg.params.zeta == 0.1

    def test_zeta_zero_is_a_validation_error(self, tmp_path):
        text = MINIMAL.replace("zeta = 0.1", "zeta = 0")
        with pytest.raises(ValidationError, match="zeta must be > 0"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_is_a_parse_error(self, tmp_path):
        text = MINIMAL.replace("dt = 1e-3", "dt = 1e-3\nfoo = 1")
        with pytest.raises(ParseError, match="unknown key 'foo'"):
            parse_config(write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ParseError, match=r"unknown section \[frobnicate\]"):
            parse_config(write(tmp_path, MINIMAL + "\n[frobnicate]\nx = 1\n"))

    def test_error_carries_line_and_column(self, tmp_path):
        text = MINIMAL.replace("dt = 1e-3", "dt = 1e-3\nfoo = 1")
        try:
            parse_config(write(tmp_path, text))
        except ParseError as exc:
            assert exc.line > 0 and exc.col > 0
            assert f"line {exc.line}" in str(exc)
        else:
            pytest.fail("expected ParseError")

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError, match="key = value"):
            parse_config(write(tmp_path, "[domain]\nkind halfspace\n"))

    def test_ball_domain(self, tmp_path):
        text = MINIMAL.replace("kind = halfspace", "kind = ball\nradius = 2.0")
        text = text.replace("x_min = 1.0, -1.0, -1.0", "x_min = -0.5, -0.5, -0.5")
        text = text.replace("x_max = 2.0, 1.0, 1.0", "x_max = 0.5, 0.5, 0.5")
        cfg = parse_config(write(tmp_path, text))
        assert isinstance(cfg.domain, Ball)
        assert cfg.domain.radius == 2.0

    def test_explicit_particles(self, tmp_path):
        cfg = parse_config(write(tmp_path, bounce3d_config_text(), "bounce3d.cfg"))
        assert cfg.initial.n == 64
        assert cfg.initial.w.shape == (64,)


class TestRun:
    def test_zero_t_end_single_snapshot(self, tmp_path):
        text = MINIMAL.replace("t_end = 0.01", "t_end = 0.0")
        cfg = parse_config(write(tmp_path, text))
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        snap = (out / "snapshots.csv").read_text().splitlines()
        assert len(snap) == 1 + 2  # header + 2 particles at t=0
        events = (out / "events.csv").read_text().splitlines()
        assert len(events) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert set(manifest["files"]) == {
            "snapshots.csv", "events.csv", "ledger.csv", "diagnostics.json"}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(cfg, out1)
        run(cfg, out2)
        for name in ("snapshots.csv", "events.csv", "ledger.csv",
                     "diagnostics.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tile_size_changes_nothing(self, tmp_path, monkeypatch):
        cfg = parse_config(write(tmp_path, MINIMAL))
        out1, out7 = tmp_path / "t256", tmp_path / "t7"
        run(cfg, out1)
        monkeypatch.setattr(fields, "_CHUNK_TARGETS", 7)
        run(cfg, out7)
        for name in ("snapshots.csv", "ledger.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out7 / name).read_bytes()

    def test_memory_stays_flat_over_a_run(self, tmp_path):
        # every snapshot written: the run holds one sample at a time, so the
        # traced peak of a run four times as long is no larger
        def traced_peak(t_end):
            text = bounce3d_config_text(t_end=t_end).replace(
                "cadence_snapshot = 10", "cadence_snapshot = 1")
            cfg = parse_config(write(tmp_path, text, f"{t_end}.cfg"))
            tracemalloc.start()
            try:
                assert run(cfg, tmp_path / f"out{t_end}") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(0.01)  # first-use allocations (the compiled kernel, caches)
        short, long = traced_peak(0.1), traced_peak(0.4)
        assert long - short < 0.5e6, (short, long)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        out1, out2 = tmp_path / "s0", tmp_path / "s1"
        run(cfg, out1, seed=0)
        run(cfg, out2, seed=1)
        assert (out1 / "snapshots.csv").read_bytes() != (out2 / "snapshots.csv").read_bytes()


class TestCommands:
    def test_simulate_and_diagnose(self, tmp_path):
        cfg_path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["diagnose", "--ledger", str(out / "ledger.csv")]) == 0

    def test_audit_green_passes(self, capsys):
        assert main(["audit-green", "--pairs", "2000", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["audit-green", "--pairs", "2000", "--seed", "1",
                     "--domain", "ball"]) == 0

    def test_compare_backends(self, tmp_path):
        text = MINIMAL.replace("t_end = 0.01", "t_end = 0.05")
        cfg_path = write(tmp_path, text)
        assert main(["compare-backends", "--config", str(cfg_path),
                     "--out", str(tmp_path / "cmp")]) == 0

    def test_picard_writes_contraction_csv(self, tmp_path):
        text = MINIMAL + "\n[picard]\nt0 = 0.01\nn_max = 3\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "picard"
        assert main(["picard", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "contraction.csv").read_text().splitlines()
        assert lines[0] == "n,Z_n,ratio,w1_exact"
        assert len(lines) == 4

    @pytest.mark.parametrize("name, command, text, match", [
        pytest.param(name, *case, id=name) for name, case in REFUSED.items()])
    def test_bad_config_exit_code(self, tmp_path, capsys, name, command, text, match):
        argv = [command, "--config", str(write(tmp_path, text)), "--out", str(tmp_path / "x")]
        if name in HANGS:
            proc = subprocess.run([sys.executable, "-m", "specularvp.cli", *argv],
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
            rc, err = proc.returncode, proc.stderr
        else:
            rc, err = main(argv), capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, match", [
        pytest.param(*case, id=name) for name, case in BAD_INPUTS.items()])
    def test_bad_input_exit_code(self, tmp_path, capsys, argv, match):
        write(tmp_path, LEDGER_HEADER_ONLY, "header_only.csv")
        write(tmp_path, LEDGER_MISSING_COLUMNS, "two_columns.csv")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0]

    def scipy_modules(self, code, *argv):
        """The scipy modules a fresh interpreter holds after running code."""
        probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
        return proc.stdout.strip().splitlines()[-1]

    def test_importing_the_cli_loads_no_scipy(self):
        assert self.scipy_modules("import specularvp.cli") == "[]"

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler: exact W1 needs scipy")
    @pytest.mark.parametrize("command, text", [
        ("simulate", MINIMAL),
        ("picard", MINIMAL + "\n[picard]\nt0 = 0.01\nn_max = 2\nw1 = true\n")])
    def test_commands_load_no_scipy(self, tmp_path, command, text):
        # exact W1 runs in the compiled kernel; importing scipy would be most
        # of a command's start-up time
        run_main = "from specularvp.cli import main\nassert main(sys.argv[1:]) == 0"
        argv = [command, "--config", str(write(tmp_path, text)), "--out", str(tmp_path / "x")]
        assert self.scipy_modules(run_main, *argv) == "[]"

    def test_steps_that_do_not_divide_the_picard_horizon_still_simulate(self, tmp_path):
        # dt = 0.3 divides t_end = 0.9 but not the default [picard] t0 = 0.05
        text = MINIMAL.replace("dt = 1e-3", "dt = 0.3").replace("t_end = 0.01", "t_end = 0.9")
        assert main(["simulate", "--config", str(write(tmp_path, text)),
                     "--out", str(tmp_path / "x")]) == 0


BALL_IMAGE_RUN = """
[domain]
kind = ball
dim = 3
radius = 1.0

[field]
kind = ball_image

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.1
delta = 0.1

[initial]
type = maxwellian
n = 64
mass = 0.5
seed = 0
x_min = -0.5, -0.5, -0.5
x_max = 0.5, 0.5, 0.5
temperature = 25.0

[stepper]
dt = 0.01
t_end = 2.0
backend = event
max_reflections = 8

[output]
cadence_snapshot = 10
"""

# one particle: dt * v overflows to inf in the first step
NON_FINITE_RUN = """
[domain]
kind = halfspace

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.1
delta = 0.1

[initial]
type = explicit

[particles]
0 = 1.0, 0.0, 0.0, 0.0, 1e308, 0.0, 0.1

[stepper]
dt = 10.0
t_end = 10.0
"""

# one fast particle crossing the unit ball several times per step
OVERFLOW_RUN = """
[domain]
kind = ball
radius = 1.0

[field]
kind = whole_space

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.1
delta = 0.1

[initial]
type = explicit

[particles]
0 = 0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.1

[stepper]
dt = 0.1
t_end = 0.1
max_reflections = 2
"""


# the same particle slower and for ten steps: two bounces in each of steps
# 1-6, then a third in step 7 raises
PARTWAY_RUN = (OVERFLOW_RUN.replace("100.0, 0.0, 0.0", "41.5, 0.0, 0.0")
               .replace("t_end = 0.1", "t_end = 1.0"))

ROW_FILES = ("events.csv", "ledger.csv", "snapshots.csv")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFailedRuns:
    @pytest.mark.parametrize("seed", [6, 11, 13])
    def test_ball_image_wall_hits_finish(self, tmp_path, seed):
        # wall hits used to round an ulp outside the ball and raise NegativeArgument
        cfg_path = write(tmp_path, BALL_IMAGE_RUN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
        assert json.loads((out / "manifest.json").read_text())["complete"] is True

    @pytest.mark.parametrize("text, error", [(NON_FINITE_RUN, "NonFiniteState"),
                                             (OVERFLOW_RUN, "ReflectionOverflow")])
    def test_clean_exit_and_incomplete_manifest(self, tmp_path, capsys, text, error):
        cfg_path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {error}: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["error"].startswith(f"{error}: ")

    def test_a_run_that_raises_keeps_its_finished_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write(tmp_path, PARTWAY_RUN)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ReflectionOverflow: ")
        snaps = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1, ndmin=2)
        assert snaps[:, 0].tolist() == [k * 0.1 for k in range(7)]
        events = (out / "events.csv").read_text().splitlines()
        assert len(events) == 1 + 12
        ledger = np.loadtxt(out / "ledger.csv", delimiter=",", skiprows=1, ndmin=2)
        assert ledger[:, 0].tolist() == snaps[:, 0].tolist()
        assert not (out / "diagnostics.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["files"] == {name: sha256(out / name) for name in ROW_FILES}

    def test_the_manifest_hashes_only_the_files_its_run_wrote(self, tmp_path):
        # a failed run into the directory of a complete one: the earlier
        # run's diagnostics.json is not this run's, and goes
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write(tmp_path, MINIMAL)),
                     "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(write(tmp_path, OVERFLOW_RUN, "fail.cfg")),
                     "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["files"] == {name: sha256(out / name) for name in ROW_FILES}
        assert not (out / "diagnostics.json").exists()

    def test_a_run_removes_only_the_files_it_owns(self, tmp_path):
        # the mollified A-route writes no ledger, so an earlier run's
        # ledger.csv goes; a file no run writes stays
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write(tmp_path, MINIMAL)),
                     "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        mollified = write(tmp_path, with_field(MINIMAL, "halfspace_mollified"), "a.cfg")
        assert main(["simulate", "--config", str(mollified), "--out", str(out)]) == 0
        assert not (out / "ledger.csv").exists()
        assert (out / "notes.txt").read_text() == "kept\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["diagnostics.json", "events.csv", "snapshots.csv"]

    def test_non_finite_run_warns_nothing(self, tmp_path):
        # pytest captures warnings, so the capsys check above cannot see them
        cfg_path = write(tmp_path, NON_FINITE_RUN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert [str(w.message) for w in caught] == []


class TestBounceFixture:
    def test_config_text_is_stable(self):
        assert bounce3d_config_text() == bounce3d_config_text()

    def test_fixture_runs(self, tmp_path):
        cfg = parse_config(write(tmp_path, bounce3d_config_text(t_end=0.01)))
        out = tmp_path / "fx"
        assert run(cfg, out) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["particles"] == 64


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The first ``lang`` code block after ``heading`` in README.md."""
    text = README.read_text()
    return re.search(rf"^{re.escape(heading)}$.*?^```{lang}\n(.*?)^```", text,
                     re.S | re.M).group(1)


class TestReadme:
    def test_config_example_parses(self, tmp_path):
        cfg = parse_config(write(tmp_path, readme_block("### Config grammar", "ini")))
        assert isinstance(cfg.domain, HalfSpace) and cfg.initial.n == 64

    def test_command_line_flags_are_the_commands_own(self, capsys):
        lines = readme_block("## Command line", "bash").splitlines()
        assert len(lines) == 5
        for line in lines:
            command = line.split()[1]
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            for flag in re.findall(r"--[\w-]+", line):
                assert re.search(rf"{flag}(?![\w-])", usage), (command, flag)
