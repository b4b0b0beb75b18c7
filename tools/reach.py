"""List the functions in src/specularvp that the program's own traffic never calls.

The traffic, run in this interpreter under ``sys.setprofile``:

- the four perfbench workloads at their ``tiny`` sizes (``simulate`` or
  ``picard`` on each workload's config, seed 1);
- ``diagnose`` on the bounce3d workload's ledger, ``compare-backends`` on
  ``tests/test_golden.FOLD_RUN``, and ``audit-green`` on both domains;
- ``tests/test_acceptance.py`` and ``tests/test_golden.py``;
- the five demos.

It traces a copy of ``src/`` in a temporary directory and runs from there,
so it writes nothing into the checkout (the copy builds its own pair kernel
if the checkout has none built).  It prints each ``def`` that no call
reached, with its line count (decorators included), then the total; a
nested function counts on its own, inside its parent's lines.  It exits 1
if any part of the traffic fails, since a trace of a failing run says
nothing.

Run from anywhere:  python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defined_functions(package):
    """(file, first line) -> (qualified name, lines) for every def in the package."""
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    found[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(tree, "")
    return found


def traffic(work, failures):
    """Run every command, test file and demo of the trace from ``work``."""
    from specularvp import cli
    from workloads import WORKLOADS

    def command(*argv):
        if cli.main([str(a) for a in argv]) != 0:
            failures.append(" ".join(map(str, argv)))

    for name, make in WORKLOADS.items():
        wl = make(1, tiny=True)
        config = work / f"{name}.cfg"
        config.write_text(wl.config_text)
        command(wl.command, "--config", config, "--out", work / name)
    command("diagnose", "--ledger", work / "bounce3d" / "ledger.csv")
    command("audit-green", "--domain", "halfspace")
    command("audit-green", "--domain", "ball")

    import pytest
    tests = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_golden.py"]
    if pytest.main([*map(str, tests), "-q", "-p", "no:cacheprovider",
                    "--basetemp", str(work / "pytest")]) != 0:
        failures.append("pytest " + " ".join(p.name for p in tests))

    from test_golden import FOLD_RUN  # imported by the pytest run above
    fold = work / "fold.cfg"
    fold.write_text(FOLD_RUN)
    command("compare-backends", "--config", fold)

    for demo in sorted((ROOT / "demos").glob("*.py")):
        try:
            runpy.run_path(str(demo), run_name="__main__")
        except Exception as exc:  # reported, and the run exits 1
            failures.append(f"{demo.name}: {type(exc).__name__}: {exc}")


def main():
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        package = work / "src" / "specularvp"
        sys.path[:0] = [str(work / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
        prefix = str(package) + os.sep
        reached = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(prefix):
                reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        failures = []
        cwd = os.getcwd()
        os.chdir(work)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                traffic(work, failures)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)

        unreached = sorted((path, line, name, size) for (path, line), (name, size)
                           in defined_functions(package).items() if (path, line) not in reached)
    for path, line, name, size in unreached:
        print(f"{Path(path).name}:{line}  {name}  {size}")
    print(f"total: {len(unreached)} functions, {sum(u[3] for u in unreached)} lines")
    if failures:
        print("traffic failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
