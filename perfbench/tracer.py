"""Spans and counters around the calls into each specularvp module.

Used only by traced benchmark runs, from ``child.py``; untraced runs never
import this file.  ``Tracer.install`` replaces each traced function with a
wrapper on every specularvp module that holds it: the program binds
functions by name across modules (``from .fields import field_regularized``
in ``selfconsistent``, ``diagnostics`` and ``cli``), so patching the
defining module alone would miss those callers.  Methods are wrapped on
their classes.

A span is (kind, start, end, parent span, pairs, target rows, sources,
dim, result count, held bytes).  Spans stay in memory and are written,
with the per-layer summary, when the operation ends.  High-rate leaf calls
(``signed_distance``, ``Ensemble`` construction) are counted and timed
without spans.  A name missing from the program (after a refactor) is
skipped and listed under ``missing``, and its metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

# (module, function) -> span kind
SPANS = {
    ("cli", "run"): "command",
    ("cli", "_cmd_picard"): "command",
    ("cli", "parse_config"): "build",
    ("cli", "_build_ensemble"): "build",
    ("flow", "integrate"): "integrate",
    ("flow", "step"): "step",
    ("flow", "step_fold_halfspace"): "step",
    ("flow", "_advance_with_events"): "event",
    ("flow", "_advance_fold_with_events"): "event",
    ("fields", "field_batch"): "field",
    ("fields", "field_regularized"): "field",
    ("fields", "field_problem_b"): "field",
    ("fields", "field_halfspace_A"): "field",
    ("fields", "interaction_energy"): "energy",
    ("diagnostics", "_uncut_gradient_sum"): "diag_sum",
    ("diagnostics", "_odd_kernel_sum"): "diag_sum",
    ("diagnostics", "energy_audit"): "energy_audit",
    ("diagnostics", "blowup_monitor"): "blowup_monitor",
    ("selfconsistent", "picard_iterate"): "picard",
    ("selfconsistent", "w1_exact"): "w1",
}

# (module, class, method) -> probe name
PROBES = {
    ("geometry", "HalfSpace", "signed_distance"): "signed_distance",
    ("geometry", "Ball", "signed_distance"): "signed_distance",
    ("ensemble", "Ensemble", "__post_init__"): "constructions",
}

PAIR_KINDS = ("field", "energy", "diag_sum")

KIND, START, END, PARENT, PAIRS, ROWS, NSRC, DIM, COUNT, BYTES = range(10)


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.probe_calls = {name: 0 for name in set(PROBES.values())}
        self.probe_s = {name: 0.0 for name in set(PROBES.values())}
        self.missing = []
        self.chunk_rows = None

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "specularvp" or n.startswith("specularvp.")]
        for (mod, attr), kind in SPANS.items():
            original = getattr(sys.modules.get(f"specularvp.{mod}"), attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._span(kind, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
        for (mod, cls_name, attr), name in PROBES.items():
            cls = getattr(sys.modules.get(f"specularvp.{mod}"), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._probe(name, original))
        fields = sys.modules.get("specularvp.fields")
        self.chunk_rows = getattr(fields, "_CHUNK_TARGETS", None)

    def _span(self, kind, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [kind, 0.0, 0.0, parent, 0, 0, 0, 0, 0, 0]
            # only the outermost span of a pair kind counts pairs
            if kind in PAIR_KINDS and (parent < 0 or spans[parent][KIND] != kind):
                _count_pairs(rec, sig.bind(*args, **kwargs).arguments)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            _record_result(rec, result)
            return result

        return wrapper

    def _probe(self, name, fn):
        calls, secs = self.probe_calls, self.probe_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[name] += clock() - t0
                calls[name] += 1

        return wrapper

    # -- summary ---------------------------------------------------------------

    def summary(self):
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]

        def kind_of(i):
            return spans[i][KIND] if i >= 0 else None

        def outer(kind):
            return [i for i, s in enumerate(spans)
                    if s[KIND] == kind and kind_of(s[PARENT]) != kind]

        def under(i, kinds):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][KIND] in kinds:
                    return True
                p = spans[p][PARENT]
            return False

        def self_s(kind):
            return sum((dur[i] - child[i] for i in outer(kind)), 0.0)

        def total_s(kind):
            return sum((dur[i] for i in outer(kind)), 0.0)

        fld = outer("field")
        eng = outer("energy")
        pair_spans = fld + eng + outer("diag_sum")
        field_pairs = sum(spans[i][PAIRS] for i in fld)
        field_s = total_s("field")
        chunk = self.chunk_rows
        temp_bytes = max(
            [min(spans[i][ROWS], chunk or spans[i][ROWS]) * spans[i][NSRC] * spans[i][DIM] * 8
             for i in pair_spans] or [0])
        steps = outer("step")
        events = sum(spans[i][COUNT] for i in steps)
        crossing = sum(1 for i in outer("event") if kind_of(spans[i][PARENT]) == "step")
        snaps = [spans[i] for i in outer("integrate")]
        return {
            "cli.write_s": self_s("command"),
            "ensemble.constructions": self.probe_calls["constructions"],
            "ensemble.snapshots_held": sum(s[COUNT] for s in snaps),
            "ensemble.snapshot_mb": sum(s[BYTES] for s in snaps) / 1e6,
            "fields.field_calls": len(fld),
            "fields.field_pairs": field_pairs,
            "fields.field_s": field_s,
            "fields.ns_per_pair": field_s * 1e9 / field_pairs if field_pairs else 0.0,
            "fields.single_target_calls": sum(1 for i in fld if spans[i][ROWS] == 1),
            "fields.energy_pairs": sum(spans[i][PAIRS] for i in eng),
            "fields.energy_s": total_s("energy"),
            "fields.pair_temp_mb": temp_bytes / 1e6,
            "flow.steps": len(steps),
            "flow.crossing_particles": crossing,
            "flow.events": events,
            "flow.step_self_s": self_s("step"),
            "flow.event_s": total_s("event"),
            "flow.reflections_per_crossing": events / crossing if crossing else 0.0,
            "geometry.signed_distance_calls": self.probe_calls["signed_distance"],
            "geometry.signed_distance_s": self.probe_s["signed_distance"],
            "diagnostics.energy_audit_s": total_s("energy_audit"),
            "diagnostics.blowup_monitor_s": total_s("blowup_monitor"),
            "diagnostics.pairs": sum(spans[i][PAIRS] for i in pair_spans
                                     if under(i, ("energy_audit", "blowup_monitor"))),
            "selfconsistent.iterates": sum(spans[i][COUNT] for i in outer("picard")),
            "selfconsistent.w1_s": total_s("w1"),
            "selfconsistent.picard_self_s": self_s("picard"),
        }

    def write(self, path):
        names = ("kind", "start", "end", "parent", "pairs", "rows", "sources", "dim", "count",
                 "bytes")
        with open(path, "w") as fh:
            json.dump({
                "op": os.path.basename(path),
                "missing": self.missing,
                "probes": {"calls": self.probe_calls, "seconds": self.probe_s},
                "summary": self.summary(),
                "spans": [dict(zip(names, s)) for s in self.spans],
            }, fh)


def _count_pairs(rec, arguments):
    """Pairs a field or energy sum will evaluate: target rows x live-or-dead sources."""
    ens = arguments.get("ens", arguments.get("e"))
    src = getattr(ens, "x", None)
    if src is None:
        return
    nsrc, dim = int(src.shape[0]), int(src.shape[1])
    if rec[KIND] == "energy":
        rows = nsrc
    else:
        targets = next((arguments[k] for k in ("targets", "x", "at")
                        if arguments.get(k) is not None), None)
        rows = nsrc if targets is None else _rows(targets)
    rec[PAIRS], rec[ROWS], rec[NSRC], rec[DIM] = rows * nsrc, rows, nsrc, dim


def _record_result(rec, result):
    kind = rec[KIND]
    if kind == "step" and isinstance(result, tuple) and len(result) == 2:
        rec[COUNT] = len(result[1])
    elif kind == "integrate":
        snaps = getattr(result, "snapshots", [])
        rec[COUNT] = len(snaps)
        # held bytes, computed from array sizes
        rec[BYTES] = sum(a.nbytes for _, e in snaps for a in (e.x, e.v, e.w, e.alive))
    elif kind == "picard":
        rec[COUNT] = len(getattr(result, "z_values", []))
