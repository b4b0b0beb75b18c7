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
    "ball_image": {
        "snapshots.csv":
            "6c5487d1f87a2cbf80e52d75abdd8ede699db0a1f72ac55fd024779d92b272a3",
        "events.csv":
            "44b9a8c7cd9fc2f6da09d840b6ecfc03bc4dffb9e9348b6b69d7bda2ec9f687e",
        "ledger.csv":
            "e4c6726a5b85b62194f32d348b86c9e1cd1fc449b3851dc08b1a86f84a58d9b8",
        "diagnostics.json":
            "1ef27c8c0d9dacccdcde9b70056ddfc954f1ba09c10b4765bebe56b67d8f7392",
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
