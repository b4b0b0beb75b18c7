"""Golden artifacts: the sha256 of every data file three short runs write.

The hashes pin the exact bytes of ``snapshots.csv``, ``events.csv``,
``ledger.csv`` and ``diagnostics.json``, so a refactor or speed-up that
changes any float the CLI writes fails here, not silently.  A change that
is meant to move these bytes must say so and update the table.
"""

import hashlib

import pytest

from specularvp.cli import bounce3d_config_text, parse_config, run

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

CONFIGS = {
    "bounce3d": bounce3d_config_text(t_end=0.2),
    "fold": FOLD_RUN,
    "ball_image": BALL_IMAGE_RUN,
}

ARTIFACTS = ("snapshots.csv", "events.csv", "ledger.csv", "diagnostics.json")

GOLDEN = {
    # re-pinned when exit times moved from bisection to polynomial roots:
    # the same 78 bounces in the same order, event times within 3.4e-16,
    # snapshots within 8.2e-14, ledger drift within 1.5e-14 of the old bytes
    "ball_image": {
        "snapshots.csv":
            "85215a861bdd88540bf532392657100fa2276708075c71d35f59581fb54e8398",
        "events.csv":
            "72d43f11b7cf835cf21c75f67b94e01a375d4caf9c05d2244f069f7c9d4f6778",
        "ledger.csv":
            "e3f8a9b3ee537ebc472fa67692f6b12a55f2b09c931d7b90a6f81eb7aa92a452",
        "diagnostics.json":
            "2c9264b3a71649bb74fc07a629bf82b9964186b2be1d74bbec92df9dd7725042",
    },
    "bounce3d": {
        "snapshots.csv":
            "4ab08eb7df2af44169bcc766e76dbbbe8faa8cd864f778246f62f269dd38fe85",
        "events.csv":
            "7865586c06f087f4e48ae934b8dfbd7c4a4c4f943a0f9e026762630ef8649ca6",
        "ledger.csv":
            "188782bf8c8f92eb1ccd1f680e7d42645075bf7312cc6300d9986ed4ee95b698",
        "diagnostics.json":
            "5c14b05a0b35d47e9feb946714d02f242b28df257647e8d73b5689fb7357c0e7",
    },
    "fold": {
        "snapshots.csv":
            "369cd20420dacb854a7a1e36b044c93d3b4a9b99f3dd1132455e38adf42710ba",
        "events.csv":
            "7865586c06f087f4e48ae934b8dfbd7c4a4c4f943a0f9e026762630ef8649ca6",
        "ledger.csv":
            "a23d24dbeb4dc7e8d3238d8a9d3d154f6b8eb83f43b2a0487166ce82c3d9cd68",
        "diagnostics.json":
            "ef717c43f79e1bb77e4c6b9850bef6be661368304dc3d8328d9d1645a96d1ae1",
    },
}


def artifact_hashes(tmp_path, name):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(CONFIGS[name])
    out = tmp_path / name
    assert run(parse_config(cfg_path), out) == 0
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, name):
    assert artifact_hashes(tmp_path, name) == GOLDEN[name]
