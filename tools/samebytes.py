"""Check that the program writes the same bytes at a git revision as in the
working tree, over one fixed corpus of runs.

The corpus, built from the working tree's files:

- the four perfbench workloads (configs from ``perfbench/workloads.py``,
  imported, not edited) on seeds 1-3, at their committed sizes;
- the golden configs of ``tests/test_golden.py`` under ``simulate``, and
  its Picard config (``tests/test_selfconsistent.PICARD_FOLD``) under
  ``picard``;
- ``compare-backends`` on ``tests/test_golden.FOLD_RUN`` in d = 3 and 4,
  seeds 0-19;
- the five demos, each run in a directory of its own.

Every command's stdout and stderr are kept, with its exit status, beside
the files it writes.  These legs compare the corpus:

- ``kernel``: REV's ``src`` (from ``git archive``, no worktree) against the
  working tree's, both with the compiled kernel;
- ``numpy``: the working tree's with the kernel loader returning None (the
  numpy, scipy and Python-float paths) against the same with the kernel;
- ``avx512f``, ``avx2`` and ``baseline``: the working tree's with pairs.c
  built for that ISA alone (its ``CLONES`` macro set by ``-D``) against the
  same with the default build, which clones for the CPU it runs on.  A leg
  whose ISA the CPU lacks is skipped, with a line saying so.

One line per file: "same", or "moved" with the rows that moved and, for a
CSV, the max |delta| per column.  Both sources are copied to a temporary
directory, which builds its kernels, and nothing is written into the
checkout.  Exit status 0 when every file is the same on every leg.

Run from anywhere:  python tools/samebytes.py REV
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)

# leg -> pairs.c's CLONES macro for a build of that ISA alone
ISAS = {"avx512f": '__attribute__((target("avx512f")))',
        "avx2": '__attribute__((target("avx2")))',
        "baseline": ""}


def in_d4(text):
    """A d = 3 config moved to d = 4: the box corners repeat their last entry."""
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        if key == "dim":
            line = "dim = 4"
        elif key in ("x_min", "x_max", "v_min", "v_max"):
            line += "," + line.rsplit(",", 1)[1]
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_corpus(configs):
    """The corpus as (name, argv) commands; writes their configs to ``configs``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from test_golden import CONFIGS, FOLD_RUN
    from test_selfconsistent import PICARD_FOLD
    from workloads import WORKLOADS

    commands = []

    def config(name, text):
        path = configs / f"{name}.cfg"
        path.write_text(text)
        return str(path)

    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            wl = make(seed)
            run = f"{name}-{seed}"
            commands.append((run, [wl.command, "--config", config(run, wl.config_text),
                                   "--out", run]))
    for name, text in sorted(CONFIGS.items()):
        run = f"golden-{name}"
        commands.append((run, ["simulate", "--config", config(run, text), "--out", run]))
    commands.append(("golden-picard", ["picard", "--config", config("picard", PICARD_FOLD),
                                       "--out", "golden-picard"]))
    for dim, text in ((3, FOLD_RUN), (4, in_d4(FOLD_RUN))):
        path = config(f"fold-d{dim}", text)
        commands += [(f"compare-backends-d{dim}-{seed}",
                      ["compare-backends", "--config", path, "--seed", str(seed)])
                     for seed in range(20)]
    return commands


def run_corpus(out, leg):
    """Child side: run the commands of ``out/../commands.json`` and the demos
    with cwd ``out``, in the specularvp on the path.  On the ``numpy`` leg
    the kernel loader returns None; on an ISA leg it builds pairs.c for that
    ISA alone."""
    import specularvp.fields as fields
    from specularvp import cli

    if leg == "numpy":
        fields._load_kernel = lambda: None
    elif leg in ISAS:
        fields._KERNEL_FLAGS = (*fields._KERNEL_FLAGS, f"-DCLONES={ISAS[leg]}")
    out = Path(out)
    commands = json.loads((out.parent / "commands.json").read_text())
    os.chdir(out)

    def logged(name, call):
        with open(f"{name}.log", "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            try:
                status = call()
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # kept as the command's status
                status = f"{type(exc).__name__}: {exc}"
            print(f"status: {status}")

    for name, argv in commands:
        logged(name, lambda: cli.main(argv))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        Path(demo.stem).mkdir()
        os.chdir(demo.stem)
        logged(demo.stem, lambda: runpy.run_path(str(demo), run_name="__main__") and None)
        os.chdir(out)


def describe(a: Path, b: Path):
    """How file b moved from file a: the rows that differ, and for a CSV the
    max |delta| per column."""
    ra, rb = a.read_text().splitlines(), b.read_text().splitlines()
    if len(ra) != len(rb):
        return f"{len(ra)} -> {len(rb)} rows"
    rows = [k for k, (x, y) in enumerate(zip(ra, rb)) if x != y]
    shown = ", ".join(map(str, rows[:8])) + (f" (+{len(rows) - 8})" if len(rows) > 8 else "")
    text = f"rows {shown} of {len(ra)}"
    if a.suffix != ".csv":
        return text
    header, worst = ra[0].split(","), {}
    for k in rows[1:] if rows and rows[0] == 0 else rows:
        for col, x, y in zip(header, ra[k].split(","), rb[k].split(",")):
            try:
                delta = abs(float(x) - float(y))
            except ValueError:
                delta = float("nan") if x != y else 0.0
            if delta or delta != delta:
                worst[col] = max(worst.get(col, 0.0), delta)
    return text + "; max |delta| " + ", ".join(f"{c} {d:.2e}" for c, d in worst.items())


def compare(leg, a: Path, b: Path):
    """Print one line per file of the two corpus trees; True if all are the same."""
    names = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    same = True
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            verdict = "moved: only " + ("before" if pa.exists() else "after")
        elif pa.read_bytes() == pb.read_bytes():
            verdict = "same"
        else:
            verdict = "moved: " + describe(pa, pb)
        same &= verdict == "same"
        print(f"{leg:8}  {name}  {verdict}")
    return same


def cpu_flags():
    """The CPU's feature flags, empty where /proc/cpuinfo does not list them."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags")
            for f in line.split(":", 1)[1].split()}


def main(argv):
    if argv[:1] == ["--child"]:
        return run_corpus(argv[1], argv[2])
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", argv[0] + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode:
        print(f"error: no revision {argv[0]!r}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev.stdout.strip(), "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        shutil.copytree(ROOT / "src", tmp / "work" / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp / "configs").mkdir()
        sys.path.insert(0, str(tmp / "work" / "src"))
        (tmp / "out").mkdir()
        (tmp / "out" / "commands.json").write_text(json.dumps(write_corpus(tmp / "configs")))
        flags = cpu_flags()
        isas = [isa for isa in ISAS if isa == "baseline" or isa in flags]
        for name in ("rev", "work", "numpy", *isas):
            (tmp / "out" / name).mkdir()
            subprocess.run([sys.executable, __file__, "--child", str(tmp / "out" / name), name],
                           check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                                            "PYTHONPATH": str(tmp / ("rev" if name == "rev" else
                                                                     "work") / "src")})
        same = compare("kernel", tmp / "out" / "rev", tmp / "out" / "work")
        for leg in ("numpy", *isas):
            same &= compare(leg, tmp / "out" / "work", tmp / "out" / leg)
        for isa in ISAS:
            if isa not in isas:
                print(f"{isa:8}  skipped: the CPU has no {isa}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main(sys.argv[1:]))
