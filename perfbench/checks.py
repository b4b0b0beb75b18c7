"""Output checks, computed apart from the program.

Every check compares an artifact against the benchmark's own computation
or against a property the method must have; none compares against stored
output.  Each function returns a list of failure messages (empty when the
artifact passes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import REG

# relative tolerances of the checks (README.md gives the reasons)
REFLECT_RTOL = 1e-12      # |v+| = |v-|, reflected normal, kept tangent
WALL_RTOL = 1e-12         # event points on the wall, snapshots in the closed domain
POTENTIAL_RTOL = 1e-12    # ledger potential at t = 0 vs the direct double sum
BOUND_TOL = 1e-4          # energy bound: total <= total(0) (1 + tol) + |int K|
PICARD_RTOL = 1e-12       # ratio = Z_n / Z_(n-1) and W1_n <= mass * Z_n, up to rounding


def _table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows):
    return np.array([[float(c) for c in r] for r in rows], dtype=float).reshape(len(rows), -1)


def _signed_distance(wl, x):
    if wl.domain == "ball":
        return wl.radius - np.sqrt(np.sum(x * x, axis=-1))
    return x[..., 0]


def _inward_normal(wl, x):
    if wl.domain == "ball":
        return -x / np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    n = np.zeros_like(x)
    n[..., 0] = 1.0
    return n


def _cut_radial(s, d, delta):
    """r(s/delta) c_d/(d-2) s^(2-d), zero for s <= delta (quintic smoothstep r)."""
    c_d = math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0))
    live = s > delta
    safe = np.where(live, s, 1.0)
    t = np.clip(safe / delta - 1.0, 0.0, 1.0)
    ramp = t**3 * (6.0 * t * t - 15.0 * t + 10.0)
    return np.where(live, ramp * c_d / (d - 2) * safe ** (2.0 - d), 0.0)


def cut_green_energy(wl, x, w, delta):
    """sum_{i,j} w_i w_j G^delta(x_i, x_j), all pairs, by direct double sum.

    G^delta is the workload's Green function (whole-space, or the image
    Green function of the half-space or the ball) with each term cut at its
    own separation.  Summed with ``math.fsum``.
    """
    d = x.shape[1]
    diff = x[:, None, :] - x[None, :, :]
    u = np.sqrt(np.sum(diff * diff, axis=-1))
    if wl.field == "whole_space":
        return math.fsum((w[:, None] * w[None, :] * _cut_radial(u, d, delta)).ravel())
    if wl.domain == "ball":
        r2 = np.sum(x * x, axis=-1)
        s2 = r2[:, None] * r2[None, :] / wl.radius**2 - 2.0 * (x @ x.T) + wl.radius**2
        s = np.sqrt(np.maximum(s2, 0.0))
    else:
        s = np.sqrt(np.sum(diff[..., 1:] ** 2, axis=-1) + (x[:, None, 0] + x[None, :, 0]) ** 2)
    g = _cut_radial(u, d, delta) - _cut_radial(s, d, delta)
    return math.fsum((w[:, None] * w[None, :] * g).ravel())


def check_events(wl, out):
    header, rows = _table(out / "events.csv")
    errors = []
    if not rows:
        return [f"particle {i} never reflects" for i in wl.bouncers]
    a = _floats(rows)
    d = (len(header) - 2) // 3
    x, vm, vp = a[:, 2:2 + d], a[:, 2 + d:2 + 2 * d], a[:, 2 + 2 * d:]
    if not np.all(np.isfinite(a)):
        return ["events.csv holds non-finite values"]
    scale = wl.radius
    if np.max(np.abs(_signed_distance(wl, x))) > WALL_RTOL * scale:
        errors.append("an event point is off the wall")
    n = _inward_normal(wl, x)
    speed = np.sqrt(np.sum(vm * vm, axis=1))
    vn_m = np.sum(vm * n, axis=1)
    vn_p = np.sum(vp * n, axis=1)
    if np.any(np.abs(np.sqrt(np.sum(vp * vp, axis=1)) - speed) > REFLECT_RTOL * speed):
        errors.append("an event changes the speed")
    if np.any(np.abs(vn_p + vn_m) > REFLECT_RTOL * speed):
        errors.append("an event does not reverse the normal velocity")
    if np.any(np.abs((vp - vn_p[:, None] * n) - (vm - vn_m[:, None] * n))
              > REFLECT_RTOL * speed[:, None]):
        errors.append("an event changes the tangential velocity")
    if np.any(vn_m >= 0.0):
        errors.append("an event hits the wall moving inward")
    ids = {int(r[1]) for r in rows}
    errors += [f"particle {i} never reflects" for i in wl.bouncers if i not in ids]
    return errors


def check_snapshots(wl, out):
    header, rows = _table(out / "snapshots.csv")
    d = (len(header) - 3) // 2
    a = _floats(rows)
    errors = []
    if not np.all(np.isfinite(a)):
        return ["snapshots.csv holds non-finite values"]
    if len(a) % wl.n or np.any(a[:, 1] != np.tile(np.arange(wl.n), len(a) // wl.n)):
        errors.append("snapshots.csv does not list every particle at every time")
    if np.min(_signed_distance(wl, a[:, 2:2 + d])) < -WALL_RTOL * wl.radius:
        errors.append("a snapshot position lies outside the closed domain")
    if np.any(a[:, -1] != wl.weight):
        errors.append("a weight differs from mass/n")
    if wl.explicit is not None and np.any(a[:wl.n, 2:2 + 2 * d] != wl.explicit):
        errors.append("the t = 0 snapshot differs from the particles handed in")
    return errors


def check_ledger(wl, out):
    header, rows = _table(out / "ledger.csv")
    a = _floats(rows)
    col = {name: a[:, i] for i, name in enumerate(header)}
    errors = []
    if not np.all(np.isfinite(a)):
        return ["ledger.csv holds non-finite values"]
    total, k_int = col["total"], col["K_integral"]
    e0 = total[0]
    if np.any(total > e0 * (1.0 + BOUND_TOL) + np.abs(k_int)):
        errors.append("the energy bound is violated")
    diag = json.loads((out / "diagnostics.json").read_text())
    if diag.get("energy_bound_passed") is not True:
        errors.append("diagnostics.json does not report the energy bound passed")
    if np.max(np.abs(col["drift"])) > wl.drift_rtol * abs(e0):
        errors.append(f"ledger drift exceeds {wl.drift_rtol:g} |E(0)|")
    # the t = 0 state, read back from the snapshots
    _, srows = _table(out / "snapshots.csv")
    s0 = _floats(srows[:wl.n])
    d = (s0.shape[1] - 3) // 2
    x0, v0, w0 = s0[:, 2:2 + d], s0[:, 2 + d:2 + 2 * d], s0[:, -1]
    pot = cut_green_energy(wl, x0, w0, REG["delta"])
    if abs(col["potential"][0] - pot) > POTENTIAL_RTOL * abs(pot):
        errors.append(f"potential at t = 0 is {col['potential'][0]!r}, "
                      f"the direct double sum gives {pot!r}")
    kin = math.fsum(w0 * np.sum(v0 * v0, axis=1))
    if abs(col["kinetic"][0] - kin) > POTENTIAL_RTOL * abs(kin):
        errors.append("kinetic energy at t = 0 differs from sum w |v|^2")
    return errors


def check_manifest(out):
    """manifest.json is complete and hashes every other file in the directory."""
    manifest = json.loads((out / "manifest.json").read_text())
    errors = []
    if manifest.get("complete") is not True:
        errors.append("manifest.json is not complete")
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if sorted(manifest.get("files", {})) != names:
        errors.append("manifest.json does not list every artifact")
    for name in names:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if manifest["files"].get(name) != digest:
            errors.append(f"manifest hash of {name} does not match")
    return errors


def check_contraction(wl, out):
    """Picard: every ratio < 1 and W1_n <= mass * Z_n (identity coupling bound)."""
    header, rows = _table(out / "contraction.csv")
    errors = []
    if header != ["n", "Z_n", "ratio", "w1_exact"] or len(rows) != wl.iterates:
        return [f"contraction.csv does not hold {wl.iterates} iterates"]
    z = np.array([float(r[1]) for r in rows])
    ratios = np.array([float(r[2]) for r in rows[1:]])
    w1 = np.array([float(r[3]) for r in rows])
    if not (np.all(np.isfinite(z)) and np.all(z > 0) and np.all(np.isfinite(w1))):
        return ["contraction.csv holds a non-finite or non-positive Z_n or W1"]
    if [int(r[0]) for r in rows] != list(range(1, wl.iterates + 1)):
        errors.append("iterates are not numbered 1..n_max")
    if np.any(ratios >= 1.0):
        errors.append("a Picard ratio is not below 1")
    if np.any(np.abs(ratios - z[1:] / z[:-1]) > PICARD_RTOL * ratios):
        errors.append("a ratio is not Z_n / Z_(n-1)")
    if np.any(w1 < 0) or np.any(w1 > wl.mass * z * (1.0 + PICARD_RTOL)):
        errors.append("W1_n exceeds mass * Z_n")
    return errors


def check_output(wl, out):
    """All checks for one operation's output directory."""
    out = Path(out)
    if wl.command == "picard":
        return check_contraction(wl, out)
    return (check_manifest(out) + check_events(wl, out) + check_snapshots(wl, out)
            + check_ledger(wl, out))
