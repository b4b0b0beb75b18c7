"""Benchmark of the specularvp CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout whose ``src/specularvp`` is the
program under test; nothing needs installing.  One operation is one
``specularvp simulate`` or ``specularvp picard`` invocation on the
workload's seeded config, in a fresh interpreter (``child.py``), followed
by the checks in ``checks.py``.  Operations run one at a time, closed
loop, with BLAS pinned to one thread, until the next one would end past
``--seconds``.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics (medians over the operations), with
``--trace 1`` the per-module metrics from ``tracer.py``.  Progress goes to
standard error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_manifest, check_output
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "particle_steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.build_s": "s", "cli.write_s": "s", "cli.artifact_bytes": "B",
    "ensemble.constructions": "count", "ensemble.snapshots_held": "count",
    "ensemble.snapshot_mb": "MB",
    "fields.field_calls": "count", "fields.field_pairs": "count", "fields.field_s": "s",
    "fields.ns_per_pair": "ns", "fields.single_target_calls": "count",
    "fields.energy_pairs": "count", "fields.energy_s": "s", "fields.pair_temp_mb": "MB",
    "flow.steps": "count", "flow.crossing_particles": "count", "flow.events": "count",
    "flow.step_self_s": "s", "flow.event_s": "s", "flow.reflections_per_crossing": "ratio",
    "geometry.signed_distance_calls": "count", "geometry.signed_distance_s": "s",
    "diagnostics.energy_audit_s": "s", "diagnostics.blowup_monitor_s": "s",
    "diagnostics.pairs": "count",
    "selfconsistent.iterates": "count", "selfconsistent.w1_s": "s",
    "selfconsistent.picard_self_s": "s",
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one BLAS thread: one operation at a time then stays within the two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc, timeout):
    """Reap ``proc`` with its own rusage (RUSAGE_CHILDREN would pool all children)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_operation(wl, seed, work, index, trace):
    """One CLI invocation in a fresh interpreter; returns its timings and paths."""
    out = work / f"out{index}"
    timing = work / f"timing{index}.json"
    trace_path = work / f"trace{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(timing), wl.command,
            str(work / "run.cfg"), str(out), str(seed)]
    if trace:
        argv.append(str(trace_path))
    with open(work / "child.err", "w") as err:
        t_launch = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        rc, usage = _wait(proc, CHILD_TIMEOUT_S)
    op = {"ok": rc == 0 and timing.is_file(), "out": out}
    if not op["ok"]:
        tail = (work / "child.err").read_text()[-2000:]
        print(f"operation {index} failed (exit {rc}):\n{tail}", file=sys.stderr)
        return op
    t = json.loads(timing.read_text())
    op.update(
        setup_s=t["t_run"] - t_launch,
        particle_steps_per_s=t["particles"] * wl.steps * wl.iterates / (t["t_done"] - t["t_run"]),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if trace:
        layers = json.loads(trace_path.read_text())["summary"]
        layers["cli.import_s"] = t["t_build"] - t["t_import"]
        layers["cli.build_s"] = t["t_run"] - t["t_build"]
        layers["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        op["layers"] = layers
        op["trace"] = trace_path
    return op


def _metrics(ops, names):
    return {name: {"value": statistics.median(op[name] for op in ops), "unit": unit}
            for name, unit in names.items()}


def _reference_bytes(wl, out):
    """Bytes every repetition must reproduce: the manifest (it hashes every artifact)."""
    name = "contraction.csv" if wl.command == "picard" else "manifest.json"
    return (out / name).read_bytes()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specularvp" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'specularvp'} is missing", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    traces = HERE / "_traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        traces.mkdir(exist_ok=True)
        for stale in traces.glob(f"{args.workload}-op*.json"):
            stale.unlink()
    try:
        (work / "run.cfg").write_text(wl.config_text)
        # byte-compile once, so no operation pays a cold import cache
        compileall.compile_dir(str(SRC / "specularvp"), quiet=1)
        ops, errors, reference, durations = [], [], None, []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            op = run_operation(wl, args.seed, work, len(ops), args.trace)
            ops.append(op)
            if op["ok"]:
                if reference is None:
                    errors += check_output(wl, op["out"])
                    reference = _reference_bytes(wl, op["out"])
                elif _reference_bytes(wl, op["out"]) != reference:
                    errors.append(f"operation {len(ops) - 1} output differs from the first")
                elif wl.command == "simulate":
                    errors += check_manifest(op["out"])
                if args.trace:
                    shutil.move(op["trace"], traces / f"{args.workload}-op{len(ops) - 1}.json")
            shutil.rmtree(op["out"], ignore_errors=True)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if op["ok"]]
    if not good:
        print("every operation failed", file=sys.stderr)
        return 1
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    e2e = _metrics(good, END_TO_END)
    print(f"{args.workload} seed {args.seed}: {len(good)}/{len(ops)} operations, medians "
          + ", ".join(f"{k} {v['value']:.6g}" for k, v in e2e.items()), file=sys.stderr)
    for name in END_TO_END:
        print(f"  {name} per operation: " + " ".join(f"{op[name]:.6g}" for op in good),
              file=sys.stderr)
    if args.trace:
        layers = [op["layers"] for op in good]
        metrics = _metrics(layers, PER_LAYER)
    else:
        metrics = e2e
    print(json.dumps({"correct": not errors, "attempted": len(ops),
                      "failed": len(ops) - len(good), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
