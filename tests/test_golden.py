"""Golden artifacts: the sha256 of every data file four short runs write,
and of one Picard run's ``contraction.csv``.

The hashes pin the exact bytes of ``snapshots.csv``, ``events.csv``,
``ledger.csv`` and ``diagnostics.json``, so a refactor or speed-up that
changes any float the CLI writes fails here, not silently.  A change that
is meant to move these bytes must say so and update the table.  The
numpy path of the pair sums must write the same bytes as the compiled
kernel.
"""

import hashlib
import shutil

import pytest

import specularvp.fields as fields
from specularvp.cli import bounce3d_config_text, main, parse_config, run
from test_selfconsistent import PICARD_FOLD

FOLD_RUN = """
[domain]
kind = halfspace
dim = 3

[field]
kind = halfspace_image

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.1
delta = 0.1

[initial]
type = uniform_box
n = 16
mass = 0.5
seed = 3
x_min = 0.01, -0.5, -0.5
x_max = 0.3, 0.5, 0.5
v_min = -1.0, -1.0, -1.0
v_max = 1.0, 1.0, 1.0

[stepper]
dt = 1e-2
t_end = 0.5
backend = fold

[output]
cadence_snapshot = 5
cadence_ledger = 7
"""

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
n = 32
mass = 0.5
seed = 6
x_min = -0.5, -0.5, -0.5
x_max = 0.5, 0.5, 0.5
temperature = 25.0

[stepper]
dt = 0.01
t_end = 0.5
backend = event

[output]
cadence_snapshot = 10
"""

# the same run in d = 4: 89 bounces, up to 5 particles leaving in one step
BALL_IMAGE_D4_RUN = (BALL_IMAGE_RUN.replace("dim = 3", "dim = 4")
                     .replace("x_min = -0.5, -0.5, -0.5", "x_min = -0.5, -0.5, -0.5, -0.5")
                     .replace("x_max = 0.5, 0.5, 0.5", "x_max = 0.5, 0.5, 0.5, 0.5"))

CONFIGS = {
    "bounce3d": bounce3d_config_text(t_end=0.2),
    "fold": FOLD_RUN,
    "ball_image": BALL_IMAGE_RUN,
    "ball_image_d4": BALL_IMAGE_D4_RUN,
}

ARTIFACTS = ("snapshots.csv", "events.csv", "ledger.csv", "diagnostics.json")

GOLDEN = {
    # re-pinned when exit times moved from bisection to polynomial roots:
    # the same 78 bounces in the same order, event times within 3.4e-16,
    # snapshots within 8.2e-14, ledger drift within 1.5e-14 of the old bytes.
    # All three re-pinned when the pair sums became sequential per row
    # (pairs.c): events.csv and diagnostics.json unchanged; snapshots within
    # 1.1e-16 (bounce3d, fold; ball_image unchanged), ledger within 1.1e-16
    "ball_image": {
        "snapshots.csv":
            "85215a861bdd88540bf532392657100fa2276708075c71d35f59581fb54e8398",
        "events.csv":
            "72d43f11b7cf835cf21c75f67b94e01a375d4caf9c05d2244f069f7c9d4f6778",
        "ledger.csv":
            "50a6948057359f4a4fbf6d7de6ea667dcf2cf9f58d9f66353a53007bdab03fca",
        "diagnostics.json":
            "2c9264b3a71649bb74fc07a629bf82b9964186b2be1d74bbec92df9dd7725042",
    },
    "ball_image_d4": {
        "snapshots.csv":
            "b6f05482152f95811ee1dcb4d9595085ac97d2a9f5c028a7ec5eadf0e38c5e76",
        "events.csv":
            "24348643637924bdc2ae184c148b3c1e82c5e331f85bafca0f8a5ade97df74e7",
        "ledger.csv":
            "1fff78ce832bcfd6ba3ffc732c9ad388d3b692499cb8f8e2040cbf68da0d3bab",
        "diagnostics.json":
            "b7d10fa54f297a9e2062008caff6dfbef6f12d85df4070f6102b90121307b426",
    },
    "bounce3d": {
        "snapshots.csv":
            "032394c937e4eb298a4a7e44cc29c95ed2376af1ba8cfaa6a54c97c57169d6d1",
        "events.csv":
            "7865586c06f087f4e48ae934b8dfbd7c4a4c4f943a0f9e026762630ef8649ca6",
        "ledger.csv":
            "23aaf6ff36d3651fc06cbefe3f0061eb98225c1046c5720a030bc3af95032a5e",
        "diagnostics.json":
            "5c14b05a0b35d47e9feb946714d02f242b28df257647e8d73b5689fb7357c0e7",
    },
    "fold": {
        "snapshots.csv":
            "7a72dbbdc749f412f33c64b2257a029f4a077802cdc5f98a23b71010d7c3b828",
        "events.csv":
            "7865586c06f087f4e48ae934b8dfbd7c4a4c4f943a0f9e026762630ef8649ca6",
        "ledger.csv":
            "53f14dc41517d879c7050530f8ea02ceed8c296bb53fd143e235f88a09b95784",
        "diagnostics.json":
            "ef717c43f79e1bb77e4c6b9850bef6be661368304dc3d8328d9d1645a96d1ae1",
    },
}


def run_config(tmp_path, name):
    tmp_path.mkdir(exist_ok=True)
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(CONFIGS[name])
    out = tmp_path / name
    assert run(parse_config(cfg_path), out) == 0
    return out


def artifact_hashes(tmp_path, name):
    out = run_config(tmp_path, name)
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}


def all_files(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, name):
    assert artifact_hashes(tmp_path, name) == GOLDEN[name]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler: numpy is the only path")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_numpy_path_writes_the_same_bytes(tmp_path, monkeypatch, name):
    # the compiled pair kernel against the numpy path, manifest.json included
    assert fields._load_kernel() is not None
    compiled = all_files(run_config(tmp_path / "compiled", name))
    monkeypatch.setattr(fields, "_load_kernel", lambda: None)
    assert "manifest.json" in compiled
    assert all_files(run_config(tmp_path / "numpy", name)) == compiled


# contraction.csv of PICARD_FOLD (w1 = true), pinned from the max of exact W1
# over every grid time: the sup visited in coupling-bound order writes the
# same bytes
PICARD_GOLDEN = "602b914c388e3014238a048c943803da737446a16af1f2ce22516bed01d62ec5"


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_picard_contraction_matches_golden_hash(tmp_path, monkeypatch, compiled):
    if not compiled:
        monkeypatch.setattr(fields, "_load_kernel", lambda: None)
    cfg_path = tmp_path / "picard.cfg"
    cfg_path.write_text(PICARD_FOLD)
    assert main(["picard", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "contraction.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PICARD_GOLDEN
