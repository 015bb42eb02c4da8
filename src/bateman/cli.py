"""Command line front end: spectra, norm scans, classification, evolution
factors, and the verification suites.

Reports are deterministic: given the same flags and package version the JSON
output is byte-identical (floats rendered with 17 significant digits, no
timestamps or timings).  Exit codes: 0 success, 1 failed checks, 2 usage or
domain errors.
"""

from __future__ import annotations

import argparse
import csv
import io
# argparse's gettext imports locale on first use; importing it here keeps that cost
# in the import instead of inside every command
import locale  # noqa: F401
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__, ft
from .construction import StabilityClass, eigenvalue, pairing_norm_in_time, schrodinger_factor
from .errors import BatemanError, DomainError
from .ft import EDGE_EPSILONS, FT, MODERATE_GRID, NORMS_STATES
from .imagscale import IS
from .params import PhysicalParams, derive_params
from .verify import VerifyConfig, all_passed, run_suite

__all__ = ["main", "build_parser"]

MAX_N_CAP = 16
#: the constructions by the names that --approach takes
APPROACHES = {"ft": FT, "is": IS}


# ---------------------------------------------------------------------------
# deterministic rendering


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return format(value, ".17g")
        return f'"{value!r}"'
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise DomainError(f"cannot serialize {type(value).__name__} deterministically")


def to_json(obj, indent: int = 0) -> str:
    """Recursive serializer with stable key order and 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{_json_scalar(str(k))}: {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


@dataclass
class CommandOutput:
    payload: dict
    csv_header: tuple[str, ...]
    csv_rows: list[tuple]
    text_lines: list[str]
    exit_code: int = 0


def _render(out: CommandOutput, fmt: str) -> str:
    if fmt == "json":
        return to_json(out.payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.csv_header)
        for row in out.csv_rows:
            writer.writerow(["" if v is None else _csv_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "text":
        return "\n".join(out.text_lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# ---------------------------------------------------------------------------
# settings: command line, then the --config file, then the flag's default


def _load_config(path: str, names: tuple[str, ...]) -> dict:
    """Read key=value lines; each key must be one of `names`, each value pass its flag."""
    text = Path(path).read_text()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in names or key == "config":
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        spec = _FLAGS[key]
        try:
            values[key] = spec.get("type", str)(value)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: config value for {key!r} is not valid: "
                              f"{value!r}") from exc
        if "choices" in spec and values[key] not in spec["choices"]:
            raise DomainError(f"{path}:{lineno}: config value for {key!r} must be one of "
                              f"{', '.join(spec['choices'])}, got {value!r}")
    return values


def _resolve(args: argparse.Namespace) -> None:
    """Fill every flag the subcommand registered, then derive the physical parameters."""
    config = _load_config(args.config, args.flags) if args.config else {}
    args.theta_explicit = getattr(args, "theta", None) is not None or "theta" in config
    for name in args.flags:
        if getattr(args, name) is None:
            setattr(args, name, config.get(name, _FLAGS[name]["default"]))
    args.params = derive_params(args.m, args.gamma, args.k, hbar=args.hbar)


def _parse_times(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(piece) for piece in raw.split(",") if piece.strip() != "")
    except ValueError as exc:
        raise DomainError(f"--times expects comma separated numbers, got {raw!r}") from exc
    if not values:
        raise DomainError("--times needs at least one value")
    if not all(math.isfinite(t) for t in values):
        raise DomainError(f"--times values must be finite, got {raw!r}")
    return values


def _params_payload(params: PhysicalParams) -> dict:
    return {
        "m": params.m,
        "gamma": params.gamma,
        "k": params.k,
        "hbar": params.hbar,
        "omega": params.omega,
        "lambda": params.lam,
    }


def _header_payload(command: str, args: argparse.Namespace) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": _params_payload(args.params),
    }


# ---------------------------------------------------------------------------
# commands

_EIGEN_HEADER = ("n1", "n2", "p", "q", "re", "im", "class")


def _eigen_row(args: argparse.Namespace, n1: int, n2: int) -> dict:
    """The (n1, n2, p, q, re, im, class) record of one eigenstate."""
    rec = eigenvalue(APPROACHES[args.approach], n1, n2, args.branch)
    value = rec.as_complex(args.params)
    return dict(zip(_EIGEN_HEADER, (n1, n2, rec.p, rec.q, value.real, value.imag,
                                    rec.stability.value)))


def cmd_spectrum(args: argparse.Namespace) -> CommandOutput:
    if not (0 <= args.n_cap <= MAX_N_CAP):
        raise DomainError(f"--n-cap must lie in [0, {MAX_N_CAP}], got {args.n_cap}")
    states = sorted(
        (
            (n1, n2)
            for n1 in range(args.n_cap + 1)
            for n2 in range(args.n_cap + 1)
            if n1 + n2 <= args.n_cap
        ),
        key=lambda pair: (pair[0] + pair[1], pair[0]),
    )
    rows = [_eigen_row(args, n1, n2) for (n1, n2) in states]
    payload = _header_payload("spectrum", args)
    payload.update(
        {
            "approach": args.approach,
            "branch": args.branch,
            "n_cap": args.n_cap,
            "rows": rows,
        }
    )
    csv_rows = [tuple(r.values()) for r in rows]
    lines = [
        f"spectrum approach={args.approach} branch={args.branch} n_cap={args.n_cap}",
        f"{'n1':>3} {'n2':>3} {'p':>4} {'q':>4} {'re':>12} {'im':>12}  class",
    ]
    for r in rows:
        lines.append(
            f"{r['n1']:>3} {r['n2']:>3} {r['p']:>4} {r['q']:>4} "
            f"{r['re']:>12.6g} {r['im']:>12.6g}  {r['class']}"
        )
    return CommandOutput(payload, _EIGEN_HEADER, csv_rows, lines)


#: perfbench's norm reference checks its own copy of the states against this name
_CLOSED_FORM_PAIRS = NORMS_STATES


def cmd_norms(args: argparse.Namespace) -> CommandOutput:
    if args.theta_explicit:
        grid = (2.0 * args.theta,)
    else:
        grid = tuple(MODERATE_GRID) + tuple(math.pi / 2 - eps for eps in EDGE_EPSILONS)
    rows = []
    for (n1, n2) in NORMS_STATES:
        for big_theta in grid:
            value = ft.ft_standard_norm(big_theta / 2.0, n1, n2)
            closed = ft.ft_norm_closed_forms(big_theta).get((n1, n2))
            rel = abs(value - closed) / abs(closed) if closed is not None else None
            rows.append(
                {
                    "n1": n1,
                    "n2": n2,
                    "big_theta": big_theta,
                    "value": value,
                    "closed_form": closed,
                    "rel_dev": rel,
                }
            )
    fits = []
    for (n1, n2) in NORMS_STATES:
        slope = ft.ft_norm_exponent_fit(ft.FIT_THETA_GRID, n1, n2)
        fits.append({"n1": n1, "n2": n2, "slope": slope, "expected": n1 + n2 + 1})
    payload = _header_payload("norms", args)
    payload.update({"rows": rows, "fits": fits})
    header = ("n1", "n2", "big_theta", "value", "closed_form", "rel_dev")
    csv_rows = [tuple(r[k] for k in header) for r in rows]
    lines = ["standard norms"]
    for r in rows:
        closed = "-" if r["closed_form"] is None else f"{r['closed_form']:.10g}"
        lines.append(
            f"({r['n1']},{r['n2']}) Theta={r['big_theta']:.6g} value={r['value']:.10g} "
            f"closed={closed}"
        )
    for f in fits:
        lines.append(
            f"fit ({f['n1']},{f['n2']}): slope={f['slope']:.6g} expected={f['expected']}"
        )
    return CommandOutput(payload, header, csv_rows, lines)


def cmd_classify(args: argparse.Namespace) -> CommandOutput:
    row = _eigen_row(args, args.n1, args.n2)
    payload = _header_payload("classify", args)
    payload.update(
        {
            "approach": args.approach,
            "branch": args.branch,
            **row,
            "stable": row["class"] == StabilityClass.STABLE.value,
        }
    )
    lines = [
        f"({args.n1},{args.n2}) approach={args.approach} "
        f"branch={args.branch}: p={row['p']} q={row['q']} class={row['class']}"
    ]
    return CommandOutput(payload, _EIGEN_HEADER, [tuple(row.values())], lines)


def cmd_evolve(args: argparse.Namespace) -> CommandOutput:
    times = _parse_times(args.times)
    rec = eigenvalue(APPROACHES[args.approach], args.n1, args.n2, args.branch)
    ev, hbar = rec.as_complex(args.params), args.params.hbar
    rows = []
    for t in times:
        factor = schrodinger_factor(ev, t, hbar)
        rows.append(
            {
                "t": t,
                "re_factor": factor.real,
                "im_factor": factor.imag,
                "abs2_factor": abs(factor) ** 2,
            }
        )
    pairing = pairing_norm_in_time(rec, times, args.params)
    payload = _header_payload("evolve", args)
    payload.update(
        {
            "approach": args.approach,
            "branch": args.branch,
            "n1": args.n1,
            "n2": args.n2,
            "stability": rec.stability.value,
            "amplitude_rate": ev.imag / hbar,
            "phase_rate": -ev.real / hbar,
            "rows": rows,
            "pairing_norm": pairing,
        }
    )
    header = ("t", "re_factor", "im_factor", "abs2_factor")
    csv_rows = [tuple(r[k] for k in header) for r in rows]
    lines = [
        f"evolution ({args.n1},{args.n2}) approach={args.approach} "
        f"branch={args.branch}: {rec.stability.value}",
    ]
    for r in rows:
        lines.append(
            f"t={r['t']:<8g} factor=({r['re_factor']:+.6g}, {r['im_factor']:+.6g}) "
            f"|factor|^2={r['abs2_factor']:.6g}"
        )
    return CommandOutput(payload, header, csv_rows, lines)


def cmd_verify(args: argparse.Namespace) -> CommandOutput:
    cfg = VerifyConfig(
        params=args.params,
        n_max=args.n_max,
        theta=args.theta,
        seed=args.seed,
        corrupt_check=args.corrupt_check,
    )
    results = run_suite(args.suite, cfg)
    ok = all_passed(results)
    payload = _header_payload("verify", args)
    payload.update(
        {
            "suite": args.suite,
            "n_max": args.n_max,
            "theta": args.theta,
            "seed": args.seed,
            "checks": [asdict(r) for r in results],
            "counts": {
                "total": len(results),
                "passed": sum(1 for r in results if r.passed),
                "failed": sum(1 for r in results if not r.passed),
            },
            "passed": ok,
        }
    )
    header = ("check_id", "passed", "deviation", "tolerance")
    csv_rows = [(r.check_id, r.passed, r.deviation, r.tolerance) for r in results]
    lines = [f"verify suite={args.suite}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.check_id:<32} deviation={r.deviation:.3g} tolerance={r.tolerance:.3g}"
        )
    lines.append("OK" if ok else "FAILED")
    return CommandOutput(payload, header, csv_rows, lines, exit_code=0 if ok else 1)


COMMANDS = {
    "spectrum": cmd_spectrum,
    "norms": cmd_norms,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# parser


#: flags every subcommand reads: the physical parameters and the report's form
_SHARED_FLAGS = ("m", "gamma", "k", "hbar", "format", "out", "config")

#: every flag once: its argparse keywords plus the default `_resolve` falls back to
_FLAGS = {
    "m": dict(type=float, default=1.0, help="oscillator mass (default 1)"),
    "gamma": dict(type=float, default=1.0, help="damping coefficient (default 1)"),
    "k": dict(type=float, default=1.25, help="spring constant (default 1.25)"),
    "hbar": dict(type=float, default=1.0, help="Planck constant over 2 pi (default 1)"),
    "format": dict(choices=("json", "csv", "text"), default="json",
                   help="output format (default json)"),
    "out": dict(default=None, help="write the report to this file instead of stdout"),
    "config": dict(default=None, help="key=value file; command line flags take precedence"),
    "n_max": dict(type=int, default=None, help="occupation truncation override"),
    "theta": dict(type=float, default=VerifyConfig.theta,
                  help="transform rotation angle (verify: default 0.3; norms: without it, "
                       "the 8-angle grid, with it that one angle)"),
    "branch": dict(choices=("+", "-"), default="+", help="transform branch sign"),
    "n_cap": dict(type=int, default=6, help=f"largest n1+n2 listed (default 6, max {MAX_N_CAP})"),
    "approach": dict(choices=tuple(APPROACHES), default="ft",
                     help="which construction: rotation (ft) or imaginary scale (is)"),
    "seed": dict(type=int, default=VerifyConfig.seed, help="seed for randomized cross-validation"),
    "n1": dict(type=int, default=0, help="first occupation number (default 0)"),
    "n2": dict(type=int, default=0, help="second occupation number (default 0)"),
    "times": dict(default="0,0.25,0.5,0.75,1,1.25,1.5,1.75,2",
                  help="comma separated time grid for evolve"),
    "corrupt_check": dict(default=None, metavar="CHECK_ID",
                          help="negative control: inflate the named check's deviation"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared flags plus the named ones; a subcommand gets only what it reads.

    Argparse leaves an absent flag at None, so `_resolve` can tell it from a
    given one and look in the config file before falling back to the default.
    """
    for name in _SHARED_FLAGS + names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            **{**_FLAGS[name], "default": None})
    parser.set_defaults(flags=_SHARED_FLAGS + names)


#: each subcommand's help line and the flags it reads besides the shared ones
_SUBCOMMANDS = {
    "spectrum": ("eigenvalue table for one construction and branch", "approach branch n_cap"),
    "norms": ("standard norms of the rotated basis and exponent fits", "theta"),
    "classify": ("stability class of a single (n1, n2) state", "approach branch n1 n2"),
    "evolve": ("scalar evolution factor over a time grid", "approach branch n1 n2 times"),
    "verify": ("run a verification suite and report pass/fail", "n_max theta seed corrupt_check"),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The subcommand that argv[0] names, or every subcommand without such an argv.

    A command line is parsed by its own subcommand alone.  A lone subcommand
    shows in usage and errors as the metavar of all five names, so they read as
    the full parser's.  The full parser has no metavar: one would rename the
    command in its "required" and "invalid choice" errors.
    """
    parser = argparse.ArgumentParser(
        prog="bateman",
        description="Two-mode ladder constructions for the damped/amplified oscillator pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    metavar = None if named is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if named is None else [named]:
        help_line, flags = _SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_line)
        if name == "verify":
            sp.add_argument("suite", nargs="?", default="all",
                            choices=("algebra", "ft", "is", "dynamics", "all"))
        _add_flags(sp, *flags.split())
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        _resolve(args)
        out = COMMANDS[args.command](args)
        text = _render(out, args.format)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except BatemanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for failed checks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
