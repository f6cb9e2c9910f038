"""Command-line front end.

One binary with subcommands:

    plapeig ptrig-table  --p P --x-min A --x-max B --steps N
    plapeig classify     --potential SPEC
    plapeig eigs         --p P --potential SPEC [--ell L] --n-max N
    plapeig verify       --theorem t1|t2|t3|r1 --p P --potential SPEC ...
    plapeig sweep        --axis p|ell|depth --values V1,V2,... [--ell L] ...

Potentials are given inline as a JSON object or as a path to a JSON
file.  Option precedence is CLI flags over config file (--config) over
built-in defaults, and every report echoes the effective configuration
so it can be reproduced from its own header.  Data goes to stdout or
--out; diagnostics go to stderr, a warning as one "warning:" line.
Numbers carry 17 significant digits (round-trip safe) and CSV output is
locale independent; a number not computed is an empty cell or null.

Exit codes: 0 success/verified, 2 usage error or a failed solve in eigs
or sweep, 3 statement violated, 4 inconclusive (hypothesis mismatch, or
a solve inside verify failed).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import warnings
from dataclasses import dataclass, field, fields

from .config import READS, HarnessConfig, SolverConfig
from .errors import DomainError, PLapError, PotentialParseError

# each subcommand imports the layers it runs, so a cold process compiles no other
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .potentials import Potential

EXIT_OK = 0
EXIT_ERROR = 2       # usage problems, and solver failures outside verify
EXIT_VIOLATED = 3
EXIT_INCONCLUSIVE = 4

# p, ell, n_max and format are the CLI's own settings; every other key,
# with its default, is a field of the harness config, the solver's first
DEFAULTS = {"p": 2.0, "ell": 1.0, "n_max": 4,
            **vars(HarnessConfig()), "format": "csv"}


class UsageError(Exception):
    pass


def _flag(key: str) -> str:
    """The flag that sets ``DEFAULTS`` key ``key``."""
    return "--" + key.replace("_", "-")


@dataclass
class RunConfig:
    """Effective run configuration (defaults, config file, CLI merged):
    the CLI's own settings, the harness config holding every other one,
    the parsed potential and the output path.
    ``echo`` names the ``DEFAULTS`` keys the run reads, the only ones
    its output header repeats."""

    p: float
    ell: float
    n_max: int
    format: str
    harness: HarnessConfig
    echo: tuple[str, ...]
    potential: Potential | None = None
    out: str | None = None
    extra: dict = field(default_factory=dict)

    def echo_dict(self) -> dict:
        values = {**vars(self), **vars(self.harness)}
        d = {k: values[k] for k in self.echo}
        if self.potential is not None:
            d["potential"] = self.potential.to_spec()
        d.update(self.extra)
        return d


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _load_potential(arg) -> Potential:
    """Parse a potential given as a spec object, as its JSON text, or as
    the path of a JSON file; any failure is a usage error."""
    from .potentials import parse_potential_spec

    text = arg
    if isinstance(arg, str) and not arg.strip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read potential file {arg!r}: {exc}") from exc
    try:
        return parse_potential_spec(text)
    except PotentialParseError as exc:
        raise UsageError(f"invalid potential spec: {exc}") from exc


def _merge_config(args: argparse.Namespace, unread=()) -> RunConfig:
    """Defaults, then the config file, then every ``DEFAULTS`` flag the
    subcommand registered; one that registers ``--potential`` needs one.
    ``unread`` names registered keys this run does not read: such a flag
    is a usage error, a config-file value passes, and neither is echoed."""
    given = [k for k in unread if getattr(args, k, None) is not None]
    if given:
        raise UsageError("this run does not read "
                         + ", ".join(_flag(k) for k in given))
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS) - {"potential"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    echo = tuple(k for k in DEFAULTS if hasattr(args, k) and k not in unread)
    # each value the run reads takes the type of its default, which must
    # hold it exactly; only those values reach the config dataclasses,
    # so a value the run ignores keeps the default and goes unchecked
    typed = dict(DEFAULTS)
    for k in echo:
        kind, v = type(DEFAULTS[k]), merged[k]
        try:
            exact = kind(v) == v
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact or isinstance(v, bool):
            raise UsageError(f"config key {k!r}: expected "
                             f"{kind.__name__}, got {v!r}")
        typed[k] = kind(v)
    # a setting the run does not read keeps its default; a value the
    # harness config refuses is a usage error
    try:
        harness = HarnessConfig(**{f.name: typed[f.name]
                                   for f in fields(HarnessConfig)
                                   if f.name in echo})
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    cfg = RunConfig(p=typed["p"], ell=typed["ell"], n_max=typed["n_max"],
                    format=typed["format"], harness=harness, echo=echo,
                    out=getattr(args, "out", None))
    # a potential is parsed, and echoed, only where the subcommand reads one
    if hasattr(args, "potential"):
        pot = args.potential or merged.get("potential")
        if pot is not None:
            cfg.potential = _load_potential(pot)
    # the CLI's own settings; one the run does not read holds its default
    if not 0.0 < cfg.ell <= 1.0:
        raise UsageError(f"--ell must lie in (0, 1], got {cfg.ell}")
    if cfg.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {cfg.n_max}")
    if cfg.format not in ("csv", "report"):
        raise UsageError(f"--format must be csv or report, got {cfg.format}")
    if hasattr(args, "potential") and cfg.potential is None:
        raise UsageError("--potential is required")
    return cfg


def _emit(cfg: RunConfig, header: tuple[str, ...], rows: list[tuple],
          payload_kind: str, notes: tuple[str, ...] = (),
          body: dict | None = None) -> None:
    """Write CSV (with '#' config comments, then one '# note=' comment
    per note) or a JSON report of the config, the kind and ``body``, by
    default the columns and rows; a NaN in a report is an error."""
    if cfg.format == "csv":
        import csv
        buf = io.StringIO()
        for key, val in sorted(cfg.echo_dict().items()):
            buf.write(f"# {key}={json.dumps(val, sort_keys=True) if isinstance(val, dict) else _fmt(val)}\n")
        for note in notes:
            buf.write(f"# note={' '.join(note.splitlines())}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        doc = {"config": cfg.echo_dict(), "kind": payload_kind,
               **(body or {"columns": list(header),
                           "rows": [list(row) for row in rows]})}
        text = json.dumps(doc, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_ptrig_table(args) -> int:
    from .ptrig import make_context, sp_pair

    cfg = _merge_config(args)
    if args.steps is None or args.steps < 2:
        raise UsageError("--steps must be >= 2")
    if args.x_max is None or args.x_min is None or not (args.x_max > args.x_min):
        raise UsageError("--x-max must exceed --x-min")
    ctx = make_context(cfg.p)  # rejects p <= 1
    cfg.extra = {"x_min": args.x_min, "x_max": args.x_max, "steps": args.steps}
    xs = [args.x_min + (args.x_max - args.x_min) * i / args.steps
          for i in range(args.steps + 1)]
    rows = [(x, s, c, abs(s) ** ctx.p + abs(c) ** ctx.p)
            for x in xs for s, c in [sp_pair(ctx, x)]]
    _emit(cfg, ("x", "sp", "sp_prime", "identity"), rows, "ptrig_table")
    return EXIT_OK


def cmd_classify(args) -> int:
    from .potentials import classify

    cfg = _merge_config(args)
    d = classify(cfg.potential).as_dict()
    _emit(cfg, tuple(d), [tuple(d.values())], "shape_certificate")
    return EXIT_OK


def cmd_eigs(args) -> int:
    from .eigensolver import compute_spectrum
    from .potentials import restrict
    from .ptrig import make_context

    cfg = _merge_config(args)
    ctx = make_context(cfg.p)
    q = restrict(cfg.potential, cfg.ell)
    # a failed search names its index; main() reports it
    spectrum = compute_spectrum(ctx, q, cfg.n_max, cfg.ell, cfg.harness)
    # rho belongs to q + shift: rho^p = lambda + shift
    rows = [(pr.n, pr.lam, pr.rho, pr.phi_end, pr.residual, pr.zero_count,
             pr.shift) for pr in spectrum.pairs]
    _emit(cfg, ("n", "lambda", "rho", "phi_end", "residual", "zero_count",
                "shift"), rows, "spectrum")
    return EXIT_OK


# the settings a harness leaves unread, which its certificate omits
_UNREAD = {t.lower(): tuple(k for k in DEFAULTS if k not in ("p", "format")
                            and k not in reads) for t, reads in READS.items()}


def cmd_verify(args) -> int:
    from .ptrig import make_context
    from .theorems import (CSV_HEADER, verify_remark1, verify_theorem1,
                           verify_theorem2, verify_theorem3)

    theorem = args.theorem or ""
    cfg = _merge_config(args, _UNREAD.get(theorem, ()))
    harness = {"t1": verify_theorem1, "t2": verify_theorem2,
               "t3": verify_theorem3, "r1": verify_remark1}.get(theorem)
    if harness is None:
        raise UsageError("--theorem must be one of t1, t2, t3, r1")
    kwargs = {"cfg": cfg.harness}
    if theorem != "t1":  # T1 scans rho, not an index range
        kwargs["n_max"] = cfg.n_max
    # a failed solve leaves its point uncomputed in the certificate; any
    # other error reaches main()
    cert = harness(make_context(cfg.p), cfg.potential, **kwargs)

    cfg.extra = {"theorem": theorem}
    _emit(cfg, CSV_HEADER, cert.csv_rows(), "theorem_certificate", cert.notes,
          {"certificate": cert.to_report_dict()})
    print(f"{cert.theorem_id}: {cert.verdict} "
          f"(worst margin {_fmt(cert.worst_margin) or 'none'})",
          file=sys.stderr)
    if cert.verdict == "verified":
        return EXIT_OK
    if cert.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_INCONCLUSIVE


def cmd_sweep(args) -> int:
    from .eigensolver import compute_spectrum
    from .potentials import restrict, scaled_tent
    from .ptrig import make_context

    axis = args.axis or ""
    # the swept setting replaces its flag
    cfg = _merge_config(args, (axis,) if axis in ("p", "ell") else ())
    if axis not in ("p", "ell", "depth"):
        raise UsageError("--axis must be one of p, ell, depth")
    try:
        values = [float(v) for v in (args.values or "").split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"--values must be a comma list of numbers: {exc}")
    if len(values) < 2:
        raise UsageError("--values needs at least 2 points")
    cfg.extra = {"axis": axis, "values": ",".join(_fmt(v) for v in values)}

    base = cfg.potential
    rows = []
    try:
        for v in values:
            p = cfg.p
            ell = cfg.ell
            q = base
            if axis == "p":
                p = v
            elif axis == "ell":
                ell = v
                if not 0.0 < ell <= 1.0:
                    raise UsageError(f"ell value {ell} outside (0, 1]")
            else:
                if base.kind != "builtin_family":
                    raise UsageError("--axis depth requires a scaled_tent potential")
                q = scaled_tent(v, dict(base.params)["rise"])
            q = restrict(q, ell)
            ctx = make_context(p)
            spectrum = compute_spectrum(ctx, q, cfg.n_max, ell, cfg.harness)
            # a ratio to lambda_1 <= 0 says nothing: left empty (null)
            lam1 = spectrum.pairs[0].lam
            for pr in spectrum.pairs:
                rows.append((v, pr.n, pr.lam,
                             pr.lam / lam1 if lam1 > 0.0 else None,
                             float(pr.n) ** p))
    except PLapError as exc:
        print(f"sweep failed at {axis}={_fmt(v)}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(cfg, ("axis", "n", "lambda", "ratio_to_lambda1", "bound"), rows,
          "sweep")
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, p: bool = True,
                potential: bool = True, solver: bool = True,
                ell: bool = False) -> None:
    """Register the output flags and each flag group the subcommand reads."""
    if p:
        sub.add_argument("--p", type=float, default=None,
                         help="exponent p > 1 of the p-Laplacian")
    sub.add_argument("--config", default=None,
                     help="JSON config file; CLI flags override it")
    sub.add_argument("--format", choices=("csv", "report"), default=None,
                     help="output format (csv or JSON report)")
    sub.add_argument("--out", default=None, help="write output to this path")
    if potential:
        sub.add_argument("--potential", default=None,
                         help="potential spec: inline JSON object or file path")
    if ell:
        sub.add_argument("--ell", type=float, default=None,
                         help="right endpoint of the interval, in (0, 1]")
    if solver:
        sub.add_argument("--n-max", dest="n_max", type=int, default=None,
                         help="number of eigenvalues")
        for f in fields(SolverConfig):
            sub.add_argument(_flag(f.name), type=type(DEFAULTS[f.name]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapeig",
        description="Dirichlet spectra of the one-dimensional p-Laplacian "
                    "and eigenvalue-ratio verification")
    subs = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: classify would read --p as --potential
    add = functools.partial(subs.add_parser, allow_abbrev=False)

    s = add("ptrig-table",
            help="tabulate S_p, S_p' and the power identity")
    _add_common(s, potential=False, solver=False)
    s.add_argument("--x-min", dest="x_min", type=float, default=None)
    s.add_argument("--x-max", dest="x_max", type=float, default=None)
    s.add_argument("--steps", type=int, default=None,
                   help="number of grid intervals (emits steps+1 rows)")
    s.set_defaults(func=cmd_ptrig_table)

    s = add("classify", help="shape-certify a potential")
    _add_common(s, p=False, solver=False)
    s.set_defaults(func=cmd_classify)

    s = add("eigs", help="compute the Dirichlet spectrum")
    _add_common(s, ell=True)
    s.set_defaults(func=cmd_eigs)

    s = add("verify", help="run a verification harness")
    _add_common(s)
    s.add_argument("--theorem", choices=("t1", "t2", "t3", "r1"),
                   default=None)
    # the harness's own settings, which follow the solver's fields
    for f in fields(HarnessConfig)[len(fields(SolverConfig)):]:
        s.add_argument(_flag(f.name), type=type(DEFAULTS[f.name]))
    s.set_defaults(func=cmd_verify)

    s = add("sweep", help="parameter sweep, long-form CSV")
    _add_common(s, ell=True)
    s.add_argument("--axis", choices=("p", "ell", "depth"), default=None)
    s.add_argument("--values", default=None,
                   help="comma-separated axis values (at least 2)")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except PLapError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
