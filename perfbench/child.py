"""One benchmark operation in a fresh interpreter.

    python child.py TIMING_JSON COMMAND CONFIG OUT SEED [TRACE_JSON]

Imports ``specularvp.cli``, parses the config and builds the initial
ensemble (the set-up phase), then runs the CLI entry point
``cli.main([COMMAND, ...])`` and writes the phase boundaries, read from the
system-wide monotonic clock, to TIMING_JSON.  With TRACE_JSON, spans and
counters are recorded around the calls into every specularvp module after
set-up and written there when the command returns; without it nothing in
the program is wrapped.  The set-up ensemble is rebuilt inside ``main``;
that costs milliseconds at these sizes.
"""

import json
import os
import sys
import time


def main(argv):
    timing_path, command, config, out, seed = argv[:5]
    trace_path = argv[5] if len(argv) > 5 else None
    t_import = time.perf_counter()
    import specularvp.cli as cli

    t_build = time.perf_counter()
    cfg = cli.parse_config(config)
    e0 = cli._build_ensemble(cfg, int(seed))
    t_run = time.perf_counter()

    tracer = None
    if trace_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    args = [command, "--config", config, "--out", out, "--seed", seed]
    rc = cli.main(args)
    t_done = time.perf_counter()

    with open(timing_path, "w") as fh:
        json.dump({"t_import": t_import, "t_build": t_build, "t_run": t_run,
                   "t_done": t_done, "rc": rc, "particles": len(e0)}, fh)
    if tracer is not None:
        tracer.write(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
