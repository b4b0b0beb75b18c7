"""Configuration parsing, run orchestration, and deterministic artifacts.

Config grammar (strict): ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment; unknown sections or keys are errors.  Sections:

    [domain]          kind = halfspace | ball; dim = 3; radius = 1.0
    [field]           kind = whole_space | halfspace_image | ball_image |
                             halfspace_mollified
    [regularization]  eps_mollify, r_sign, zeta, delta
    [initial]         type = uniform_box | maxwellian | delta | explicit
                      n, mass, seed, and the sampler's own keys
                      (x_min/x_max/v_min/v_max as comma vectors,
                      temperature, v_center, x0, v0)
    [particles]       0 = x..., v..., w   (rows of an explicit list)
    [stepper]         dt, t_end, backend = event | fold,
                      max_reflections, frozen_field
    [output]          cadence_snapshot, cadence_ledger
    [picard]          t0, n_max, tol, w1

``parse_config`` builds the run's objects once, and every command uses
them.  Their checks refuse, with exit 2 and one ``error:`` line, a config
whose run would crash, hang or step other physics (README.md lists them);
so do the commands for a file they cannot read or an argument out of range.

A run appends the rows of snapshots.csv (t, id, x[0..d), v[0..d), w),
events.csv (t, id, x, v_minus, v_plus) and ledger.csv (t, kinetic,
potential, total, K_integral, drift) as it makes each sample, so it holds
one snapshot at a time; then it writes diagnostics.json, and manifest.json
with the content hash of every file it wrote.  Outputs are byte-identical
for identical (config, seed).  A run stopped by a NonFiniteState or
ReflectionOverflow exits 1 with a one-line error; its CSVs keep the rows of
the samples made before it, and its manifest says complete: false, carries
the error and hashes those files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    LEDGER_HEADER,
    LedgerObserver,
    audit_green,
    energy_bound_check,
    float_rows,
    read_ledger_csv,
)
from .ensemble import Ensemble, Frame, InitialCondition, sample_initial, symmetrize
from .fields import (
    FieldModel,
    GreenKind,
    RegularizationParams,
    field_model,
    make_field_factory,
)
from .flow import (
    NonFiniteState,
    ReflectionOverflow,
    StepperConfig,
    fold_halfspace,
    samples,
)
from .geometry import Ball, HalfSpace
from .selfconsistent import check_exact_w1, picard_iterate

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "run",
    "main",
    "bounce3d_ensemble",
    "bounce3d_config_text",
]


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ValidationError(ValueError):
    """A parsed value violates a module invariant."""


_SCHEMA = {
    "domain": {"kind", "dim", "radius"},
    "field": {"kind"},
    "regularization": {"eps_mollify", "r_sign", "zeta", "delta"},
    "initial": {
        "type", "n", "mass", "seed", "x_min", "x_max", "v_min", "v_max",
        "temperature", "v_center", "x0", "v0",
    },
    "particles": None,  # numbered rows
    "stepper": {"dt", "t_end", "backend", "max_reflections", "frozen_field"},
    "output": {"cadence_snapshot", "cadence_ledger"},
    "picard": {"t0", "n_max", "tol", "w1"},
}

_FIELD_KINDS = {
    "whole_space": GreenKind.WHOLE_SPACE,
    "halfspace_image": GreenKind.HALF_SPACE_IMAGE,
    "ball_image": GreenKind.BALL_IMAGE,
    "halfspace_mollified": GreenKind.HALF_SPACE_MOLLIFIED,
}


@dataclass
class RunConfig:
    """A checked run: the objects ``parse_config`` built from one config.
    ``fold`` is ``backend = fold``; ``field`` is the ``FieldModel`` that
    ``simulate`` steps in."""

    domain: object
    field_kind: str
    params: RegularizationParams
    initial: InitialCondition
    seed: int
    t_end: float
    stepper: StepperConfig
    fold: bool
    field: FieldModel
    picard: dict
    cadence_snapshot: int = 1
    cadence_ledger: int = 1
    source_text: str = ""


@contextlib.contextmanager
def _refusing():
    """A check's ValueError, or an input file that cannot be read, becomes a
    ValidationError: the input is refused, and the command exits 2 with one
    line."""
    try:
        yield
    except ParseError:
        raise
    except (OSError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


def _read_sections(text):
    sections = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        body = stripped.strip()
        if body.startswith("["):
            col = raw.index("[") + 1
            if not body.endswith("]"):
                raise ParseError("unterminated section header", ln, col)
            name = body[1:-1].strip()
            if name not in _SCHEMA:
                raise ParseError(f"unknown section [{name}]", ln, col)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", ln, col)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError("key before any [section]", ln, 1)
        if "=" not in body:
            raise ParseError("expected 'key = value'", ln, 1)
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        col = raw.index("=") + 1
        allowed = _SCHEMA[current]
        if allowed is None:
            if not key.isdigit():
                raise ParseError(f"particle rows are numbered, got {key!r}", ln, col)
        elif key not in allowed:
            raise ParseError(f"unknown key {key!r} in [{current}]", ln, col)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", ln, col)
        sections[current][key] = (value, ln, col)
    return sections


def _get(sections, section, key, conv, default=None, required=False):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            raise ValidationError(f"[{section}] {key} is required")
        return default
    value, ln, col = entry
    try:
        return conv(value)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {exc}", ln, col) from None


def _vector(text):
    return np.array([float(p) for p in text.split(",")], dtype=float)


def _boolean(text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_config(path) -> RunConfig:
    """Strict parse of a sectioned key=value run configuration into the
    run's objects; a value their checks refuse, or a file that cannot be
    read, is a ValidationError."""
    with _refusing():
        text = Path(path).read_text()
        return _run_config(_read_sections(text), text)


def _run_config(sections, text):
    dkind = _get(sections, "domain", "kind", str, required=True)
    dim = _get(sections, "domain", "dim", int, default=3)
    if dkind == "halfspace":
        domain = HalfSpace(dim)
    elif dkind == "ball":
        domain = Ball(dim, _get(sections, "domain", "radius", float, default=1.0))
    else:
        raise ValidationError(f"unknown domain kind {dkind!r}")

    fkind_name = _get(sections, "field", "kind", str, default=(
        "halfspace_image" if dkind == "halfspace" else "ball_image"))
    if fkind_name not in _FIELD_KINDS:
        raise ValidationError(f"unknown field kind {fkind_name!r}")
    field_kind = _FIELD_KINDS[fkind_name]

    params = RegularizationParams(*(
        _get(sections, "regularization", key, float, required=True)
        for key in ("eps_mollify", "r_sign", "zeta", "delta")))

    def initial(key, conv=_vector, **kw):
        return _get(sections, "initial", key, conv, **kw)

    itype = initial("type", str, required=True)
    n = initial("n", int, default=0)
    seed = initial("seed", int, default=0)
    if seed < 0:  # numpy's generators take no negative seed
        raise ValidationError(f"[initial] seed = {seed} is not >= 0")
    mass = initial("mass", float, default=1.0)

    def box(name):
        return initial(f"{name}_min", required=True), initial(f"{name}_max", required=True)

    if itype == "uniform_box":
        ic = InitialCondition(kind="uniform_box", n=n, mass=mass, x_bounds=box("x"),
                              v_bounds=box("v"))
    elif itype == "maxwellian":
        ic = InitialCondition(kind="maxwellian", n=n, mass=mass, x_bounds=box("x"),
                              temperature=initial("temperature", float, default=1.0),
                              v_center=initial("v_center", default=None))
    elif itype == "delta":
        ic = InitialCondition(kind="delta", n=n, mass=mass,
                              x0=initial("x0", required=True), v0=initial("v0", required=True))
    elif itype == "explicit":
        rows = sections.get("particles", {})
        if not rows:
            raise ValidationError("explicit initial condition needs a [particles] section")
        table = []
        for key in sorted(rows, key=int):
            value, ln, col = rows[key]
            vec = _vector(value)
            if vec.size != 2 * dim + 1:
                raise ParseError(
                    f"particle row needs {2 * dim + 1} numbers (x, v, w)", ln, col)
            table.append(vec)
        table = np.array(table)
        ic = InitialCondition(
            kind="explicit", n=len(table), mass=float(np.sum(table[:, -1])),
            x=table[:, :dim], v=table[:, dim:2 * dim], w=table[:, -1],
        )
    else:
        raise ValidationError(f"unknown initial type {itype!r}")
    ic.validate_for_domain(domain)

    backend = _get(sections, "stepper", "backend", str, default="event")
    if backend not in ("event", "fold"):
        raise ValidationError(f"unknown backend {backend!r}")
    fold = backend == "fold"
    if fold and not isinstance(domain, HalfSpace):
        raise ValidationError("backend = fold needs a half-space domain")
    stepper = StepperConfig(
        dt=_get(sections, "stepper", "dt", float, required=True),
        max_reflections_per_step=_get(sections, "stepper", "max_reflections", int, default=8),
        frozen_field=_get(sections, "stepper", "frozen_field", _boolean, default=False),
    )
    t_end = _get(sections, "stepper", "t_end", float, required=True)
    stepper.steps(t_end, "t_end")

    cadence_snapshot, cadence_ledger = (_get(sections, "output", key, int, default=1)
                                        for key in ("cadence_snapshot", "cadence_ledger"))
    if min(cadence_snapshot, cadence_ledger) < 1:
        raise ValidationError("cadences must be >= 1")

    return RunConfig(
        domain=domain,
        field_kind=field_kind,
        params=params,
        initial=ic,
        seed=seed,
        t_end=t_end,
        stepper=stepper,
        fold=fold,
        # the hard sign reads no kind, so any kind goes with backend = fold
        field=field_model(domain, field_kind, Frame.PROBLEM_B if fold else Frame.PROBLEM_A,
                          params, fold),
        picard={key: _get(sections, "picard", key, conv, default=default)
                for key, conv, default in (("t0", float, 0.05), ("n_max", int, 6),
                                           ("tol", float, 0.0), ("w1", _boolean, False))},
        cadence_snapshot=cadence_snapshot,
        cadence_ledger=cadence_ledger,
        source_text=text,
    )


# -----------------------------------------------------------------------------
# run orchestration
# -----------------------------------------------------------------------------

def _build_ensemble(cfg: RunConfig, seed):
    """The run's initial ensemble: sampled, and symmetrized for ``fold``."""
    e = sample_initial(cfg.initial, domain=cfg.domain, seed=seed)
    return symmetrize(e) if cfg.fold else e


def _header(dim, *vectors):
    """The CSV header: t, id, then each vector's components."""
    return ",".join(["t", "id", *(f"{name}{i}" for name in vectors for i in range(dim))])


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in blocks: a run's files can be long
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def run(cfg: RunConfig, out_dir, seed=None) -> int:
    """Execute a configured run, writing its rows as it makes each sample;
    returns the exit status.  The manifest is written however the run ends
    and hashes the files this run wrote."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("snapshots.csv", "events.csv", "ledger.csv", "diagnostics.json",
                 "manifest.json"):  # an earlier run's files, and no other
        (out / name).unlink(missing_ok=True)
    seed = cfg.seed if seed is None else seed
    manifest = {
        "version": __version__,
        "seed": int(seed),
        "config_sha256": hashlib.sha256(cfg.source_text.encode()).hexdigest(),
        "complete": False,
        "files": {},
    }
    written = []
    try:
        e0 = _build_ensemble(cfg, seed)
        # the ledger and the log-log moment stream from the stepper's own sweeps
        # (the mollified A-route has no matching cut-Green ledger)
        mollified = cfg.field_kind == GreenKind.HALF_SPACE_MOLLIFIED and not cfg.fold
        ledger = None if mollified else LedgerObserver(every=cfg.cadence_ledger)
        with contextlib.ExitStack() as files:
            def csv(name, header):
                fh = files.enter_context(open(out / name, "w"))
                written.append(name)
                fh.write(header + "\n")
                return fh

            snapshots = csv("snapshots.csv", _header(e0.dim, "x", "v") + ",w")
            events = csv("events.csv", _header(e0.dim, "x", "vm", "vp"))
            rows = None if ledger is None else csv("ledger.csv", LEDGER_HEADER)
            last, n_events = cfg.stepper.steps(cfg.t_end, "t_end"), 0
            for k, (t, snap, field, evts) in enumerate(
                    samples(e0, cfg.field.bind, cfg.stepper, cfg.t_end)):
                if evts:
                    n_events += len(evts)
                    cols = ([getattr(e, a) for e in evts] for a in ("x", "v_minus", "v_plus"))
                    events.writelines(f"{e.t!r},{e.particle},{row}\n"
                                      for e, row in zip(evts, float_rows(*cols)))
                if k % cfg.cadence_snapshot == 0 or k == last:
                    lead = f"{t!r},"
                    snapshots.writelines(f"{lead}{i},{row}\n" for i, row
                                         in enumerate(float_rows(snap.x, snap.v, snap.w)))
                if ledger is not None and (row := ledger(t, snap, field, evts)):
                    rows.write(",".join(map(repr, row)) + "\n")
        diag = {"events": n_events, "particles": len(e0), "t_end": cfg.t_end}
        if ledger is not None:
            kept = ledger.ledger()
            check = energy_bound_check(kept)
            diag.update({
                "max_abs_drift": kept.max_abs_drift,
                "energy_bound_passed": check.passed,
                "energy_bound_min_margin": check.min_margin,
                "loglog_total_variation": ledger.total_variation,
            })
        written.append("diagnostics.json")
        (out / "diagnostics.json").write_text(
            json.dumps(diag, sort_keys=True, indent=2) + "\n")
        manifest["complete"] = True
    except Exception as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["files"] = {name: _sha256(out / name) for name in sorted(written)}
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return 0


# -----------------------------------------------------------------------------
# acceptance fixtures
# -----------------------------------------------------------------------------

def bounce3d_ensemble():
    """The bounce3d fixture: 64 particles in the half-space, one bouncer.

    A light bulk cloud plus one member launched at the wall so that it
    crosses the boundary-cutoff shell and reflects; regularization sized so
    the self-image energy exchange is visible in the ledger.
    """
    rng = np.random.default_rng(7)
    n = 64
    domain = HalfSpace(3)
    x = np.c_[1.0 + 1.0 * rng.random(n), rng.normal(size=(n, 2)) * 0.5]
    v = rng.normal(size=(n, 3)) * 0.5
    x[0] = [0.6, 0.0, 0.0]
    v[0] = [-1.0, 0.0, 0.0]
    w = np.full(n, 0.5 / n)
    e0 = Ensemble(x=x, v=v, w=w, domain=domain, frame=Frame.PROBLEM_A)
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)
    return e0, params


def bounce3d_config_text(dt=1e-3, t_end=2.0):
    """Config-file text reproducing the bounce3d fixture via explicit particles."""
    e0, params = bounce3d_ensemble()
    lines = [
        "[domain]",
        "kind = halfspace",
        "dim = 3",
        "",
        "[field]",
        "kind = halfspace_image",
        "",
        "[regularization]",
        f"eps_mollify = {params.eps_mollify!r}",
        f"r_sign = {params.r_sign!r}",
        f"zeta = {params.zeta!r}",
        f"delta = {params.delta!r}",
        "",
        "[initial]",
        "type = explicit",
        "",
        "[particles]",
    ]
    lines += [f"{i} = {row}" for i, row in enumerate(float_rows(e0.x, e0.v, e0.w))]
    lines += [
        "",
        "[stepper]",
        f"dt = {dt!r}",
        f"t_end = {t_end!r}",
        "backend = event",
        "",
        "[output]",
        "cadence_snapshot = 10",
        "cadence_ledger = 1",
    ]
    return "\n".join(lines) + "\n"


# -----------------------------------------------------------------------------
# subcommands
# -----------------------------------------------------------------------------

def _cmd_simulate(args):
    cfg = parse_config(args.config)
    return run(cfg, args.out, seed=args.seed)


def _cmd_picard(args):
    """The Picard loop.  With ``backend = fold`` it iterates the symmetrized
    ensemble in the smooth-sign field (the regularized Problem B), while
    ``simulate`` steps it in the hard sign."""
    cfg = parse_config(args.config)
    pc = cfg.picard
    e0 = _build_ensemble(cfg, cfg.seed if args.seed is None else args.seed)
    with _refusing():  # before any step; an error of the run itself stays one
        if cfg.stepper.steps(pc["t0"], "[picard] t0") < 1:
            raise ValueError("[picard] t0 must be > 0")
        if pc["n_max"] < 1:
            raise ValueError(f"[picard] n_max = {pc['n_max']} is not >= 1")
        if pc["w1"]:
            check_exact_w1(e0.w[e0.alive])
    state = picard_iterate(e0, make_field_factory(cfg.domain, cfg.field_kind, cfg.params),
                           cfg.stepper, pc["t0"], n_max=pc["n_max"], tol=pc["tol"],
                           compute_w1=pc["w1"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["n,Z_n,ratio,w1_exact"]
    for k, z in enumerate(state.z_values):
        ratio = repr(state.ratios[k - 1]) if k >= 1 else ""
        w1v = repr(state.w1_values[k]) if k < len(state.w1_values) else ""
        lines.append(f"{k + 1},{z!r},{ratio},{w1v}")
    (out / "contraction.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def _cmd_diagnose(args):
    with _refusing():  # a --tol not >= 0; a missing, empty or malformed ledger
        if not args.tol >= 0:
            raise ValueError(f"--tol {args.tol} is not >= 0")
        ledger = read_ledger_csv(args.ledger)
        check = energy_bound_check(ledger, tol=args.tol)
    verdict = "PASS" if check.passed else "FAIL"
    print(f"energy bound: {verdict} (min margin {check.min_margin!r}, "
          f"max |drift| {ledger.max_abs_drift!r})")
    return 0 if check.passed else 1


def _cmd_compare_backends(args):
    cfg = parse_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if not isinstance(cfg.domain, HalfSpace):
        raise ValidationError("compare-backends needs a half-space configuration")
    # Problem A in the mollified image field, event-driven, against its
    # symmetrization in the hard-sign field, folded, walked in lockstep
    base = sample_initial(cfg.initial, domain=cfg.domain, seed=seed)
    n = len(base)
    run_a = samples(base, make_field_factory(cfg.domain, GreenKind.HALF_SPACE_MOLLIFIED,
                                             cfg.params), cfg.stepper, cfg.t_end)
    run_b = samples(symmetrize(base), make_field_factory(cfg.domain, cfg.field_kind,
                                                         cfg.params, hard_sign=True),
                    cfg.stepper, cfg.t_end)
    dev = 0.0
    for (_, sa, _, _), (_, sb, _, _) in zip(run_a, run_b):
        xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
        dev = max(dev, float(np.max(np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]))))
    allowed = 10.0 * cfg.stepper.dt**2 * max(cfg.t_end, 1.0)
    print(f"max folded deviation: {dev!r} (allowed {allowed!r})")
    return 0 if dev <= allowed else 1


def _cmd_audit_green(args):
    with _refusing():  # the domains check their dimension and radius
        if args.pairs < 1:
            raise ValueError(f"--pairs {args.pairs} is not >= 1")
        if args.domain == "ball":
            domain = Ball(args.dim, args.radius)
            kind = GreenKind.BALL_IMAGE
        else:
            domain = HalfSpace(args.dim)
            kind = GreenKind.HALF_SPACE_IMAGE
    report = audit_green(domain, kind, n_pairs=args.pairs, seed=args.seed)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"green audit [{args.domain}, d={args.dim}]: {verdict} "
          f"(value ratio {report.max_value_ratio:.3e}, "
          f"gradient ratio {report.max_gradient_ratio:.3e}, "
          f"boundary potential {report.max_boundary_potential:.3e})")
    return 0 if report.passed else 1


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specularvp",
        description="Vlasov-Poisson particle runs with specular reflection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    _add_common(p)
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("picard", help="run the Picard contraction loop")
    _add_common(p)
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("diagnose", help="check an emitted ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("compare-backends",
                       help="event-driven vs fold backend on one config")
    _add_common(p)
    p.set_defaults(func=_cmd_compare_backends)

    p = sub.add_parser("audit-green", help="sample the Green-function bounds")
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", choices=("halfspace", "ball"), default="halfspace")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=_cmd_audit_green)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValidationError(f"--seed {args.seed} is not >= 0")
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteState, ReflectionOverflow) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
