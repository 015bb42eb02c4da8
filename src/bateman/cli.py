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
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, dynamics, ft
from .construction import normalize_branch
from .dynamics import StateEvolution, classify, eigen_record
from .errors import BatemanError, DomainError
from .params import PhysicalParams, derive_params
from .verify import VerifyConfig, all_passed, run_suite

__all__ = ["main", "build_parser"]

DEFAULT_TIMES = "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2"
MODERATE_GRID = (0.3, 0.6, 1.0, 1.4)
EDGE_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
MAX_N_CAP = 16

_FLOAT_KEYS = ("m", "gamma", "k", "hbar", "theta", "tol_scale")
_INT_KEYS = ("n_max", "margin", "n_cap", "seed", "n1", "n2")
_STR_KEYS = ("branch", "format", "out", "approach", "times", "corrupt_check")

_DEFAULTS = {
    "m": 1.0,
    "gamma": 1.0,
    "k": 1.25,
    "hbar": 1.0,
    "theta": 0.3,
    "tol_scale": 1.0,
    "n_max": None,
    "margin": 2,
    "n_cap": 6,
    "seed": 20260823,
    "n1": 0,
    "n2": 0,
    "branch": None,
    "format": "json",
    "out": None,
    "approach": "ft",
    "times": DEFAULT_TIMES,
    "corrupt_check": None,
}


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
# settings


@dataclass
class Settings:
    params: PhysicalParams
    n_max: int | None
    margin: int
    theta: float
    tol_scale: float
    n_cap: int
    seed: int
    n1: int
    n2: int
    branch: int
    fmt: str
    out: str | None
    approach: str
    times: tuple[float, ...]
    corrupt_check: str | None
    theta_explicit: bool = False
    suite: str = "all"


def _load_config(path: str) -> dict[str, str]:
    text = Path(path).read_text()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _DEFAULTS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _convert(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    except ValueError as exc:
        raise DomainError(f"config value for {key!r} is not valid: {raw!r}") from exc


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


def _resolve(args: argparse.Namespace) -> Settings:
    config = _load_config(args.config) if args.config else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = _convert(key, config[key])
        else:
            merged[key] = default

    branch = normalize_branch(merged["branch"] or "+")

    if merged["format"] not in ("json", "csv", "text"):
        raise DomainError(f"--format must be json, csv, or text, got {merged['format']!r}")
    if merged["approach"] not in ("ft", "is"):
        raise DomainError(f"--approach must be 'ft' or 'is', got {merged['approach']!r}")
    if not (0 <= merged["n_cap"] <= MAX_N_CAP):
        raise DomainError(f"--n-cap must lie in [0, {MAX_N_CAP}], got {merged['n_cap']}")

    params = derive_params(merged["m"], merged["gamma"], merged["k"], hbar=merged["hbar"])
    return Settings(
        params=params,
        n_max=merged["n_max"],
        margin=merged["margin"],
        theta=merged["theta"],
        tol_scale=merged["tol_scale"],
        n_cap=merged["n_cap"],
        seed=merged["seed"],
        n1=merged["n1"],
        n2=merged["n2"],
        branch=branch,
        fmt=merged["format"],
        out=merged["out"],
        approach=merged["approach"],
        times=_parse_times(merged["times"]),
        corrupt_check=merged["corrupt_check"],
        theta_explicit=getattr(args, "theta", None) is not None or "theta" in config,
        suite=getattr(args, "suite", "all"),
    )


def _params_payload(params: PhysicalParams) -> dict:
    return {
        "m": params.m,
        "gamma": params.gamma,
        "k": params.k,
        "hbar": params.hbar,
        "omega": params.omega,
        "lambda": params.lam,
    }


def _header_payload(command: str, settings: Settings) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": _params_payload(settings.params),
    }


def _branch_label(branch: int) -> str:
    return "+" if branch > 0 else "-"


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(settings: Settings) -> CommandOutput:
    states = sorted(
        (
            (n1, n2)
            for n1 in range(settings.n_cap + 1)
            for n2 in range(settings.n_cap + 1)
            if n1 + n2 <= settings.n_cap
        ),
        key=lambda pair: (pair[0] + pair[1], pair[0]),
    )
    rows = []
    for (n1, n2) in states:
        rec = eigen_record(settings.approach, settings.branch, n1, n2)
        value = rec.as_complex(settings.params)
        label = classify(settings.approach, settings.branch, n1, n2).value
        rows.append(
            {
                "n1": n1,
                "n2": n2,
                "p": rec.p,
                "q": rec.q,
                "re": value.real,
                "im": value.imag,
                "class": label,
            }
        )
    payload = _header_payload("spectrum", settings)
    payload.update(
        {
            "approach": settings.approach,
            "branch": _branch_label(settings.branch),
            "n_cap": settings.n_cap,
            "rows": rows,
        }
    )
    header = ("n1", "n2", "p", "q", "re", "im", "class")
    csv_rows = [tuple(r[k] for k in header) for r in rows]
    lines = [
        f"spectrum approach={settings.approach} branch={_branch_label(settings.branch)} "
        f"n_cap={settings.n_cap}",
        f"{'n1':>3} {'n2':>3} {'p':>4} {'q':>4} {'re':>12} {'im':>12}  class",
    ]
    for r in rows:
        lines.append(
            f"{r['n1']:>3} {r['n2']:>3} {r['p']:>4} {r['q']:>4} "
            f"{r['re']:>12.6g} {r['im']:>12.6g}  {r['class']}"
        )
    return CommandOutput(payload, header, csv_rows, lines)


_CLOSED_FORM_PAIRS = ((0, 0), (1, 0), (1, 1), (2, 1))


def cmd_norms(settings: Settings) -> CommandOutput:
    if settings.theta_explicit:
        grid = (2.0 * settings.theta,)
    else:
        grid = tuple(MODERATE_GRID) + tuple(math.pi / 2 - eps for eps in EDGE_EPSILONS)
    rows = []
    for (n1, n2) in _CLOSED_FORM_PAIRS:
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
    for (n1, n2) in _CLOSED_FORM_PAIRS:
        slope = ft.ft_norm_exponent_fit(ft.FIT_THETA_GRID, n1, n2)
        fits.append({"n1": n1, "n2": n2, "slope": slope, "expected": n1 + n2 + 1})
    payload = _header_payload("norms", settings)
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


def cmd_classify(settings: Settings) -> CommandOutput:
    rec = eigen_record(settings.approach, settings.branch, settings.n1, settings.n2)
    value = rec.as_complex(settings.params)
    label = classify(settings.approach, settings.branch, settings.n1, settings.n2)
    payload = _header_payload("classify", settings)
    payload.update(
        {
            "approach": settings.approach,
            "branch": _branch_label(settings.branch),
            "n1": settings.n1,
            "n2": settings.n2,
            "p": rec.p,
            "q": rec.q,
            "re": value.real,
            "im": value.imag,
            "class": label.value,
            "stable": label == dynamics.StabilityClass.STABLE,
        }
    )
    header = ("n1", "n2", "p", "q", "re", "im", "class")
    csv_rows = [
        (settings.n1, settings.n2, rec.p, rec.q, value.real, value.imag, label.value)
    ]
    lines = [
        f"({settings.n1},{settings.n2}) approach={settings.approach} "
        f"branch={_branch_label(settings.branch)}: p={rec.p} q={rec.q} class={label.value}"
    ]
    return CommandOutput(payload, header, csv_rows, lines)


def cmd_evolve(settings: Settings) -> CommandOutput:
    evo = StateEvolution.create(
        settings.approach, settings.branch, settings.n1, settings.n2, settings.params
    )
    rows = []
    for t in settings.times:
        factor = evo.factor(t)
        rows.append(
            {
                "t": t,
                "re_factor": factor.real,
                "im_factor": factor.imag,
                "abs2_factor": abs(factor) ** 2,
            }
        )
    pairing = dynamics.pairing_norm_in_time(
        settings.approach,
        settings.branch,
        settings.n1,
        settings.n2,
        settings.times,
        settings.params,
    )
    payload = _header_payload("evolve", settings)
    payload.update(
        {
            "approach": settings.approach,
            "branch": _branch_label(settings.branch),
            "n1": settings.n1,
            "n2": settings.n2,
            "stability": evo.stability.value,
            "amplitude_rate": evo.amplitude_rate,
            "phase_rate": evo.phase_rate,
            "rows": rows,
            "pairing_norm": pairing,
        }
    )
    header = ("t", "re_factor", "im_factor", "abs2_factor")
    csv_rows = [tuple(r[k] for k in header) for r in rows]
    lines = [
        f"evolution ({settings.n1},{settings.n2}) approach={settings.approach} "
        f"branch={_branch_label(settings.branch)}: {evo.stability.value}",
    ]
    for r in rows:
        lines.append(
            f"t={r['t']:<8g} factor=({r['re_factor']:+.6g}, {r['im_factor']:+.6g}) "
            f"|factor|^2={r['abs2_factor']:.6g}"
        )
    return CommandOutput(payload, header, csv_rows, lines)


def cmd_verify(settings: Settings) -> CommandOutput:
    cfg = VerifyConfig(
        params=settings.params,
        n_max=settings.n_max,
        margin=settings.margin,
        tol_scale=settings.tol_scale,
        theta=settings.theta,
        seed=settings.seed,
        corrupt_check=settings.corrupt_check,
    )
    results = run_suite(settings.suite, cfg)
    ok = all_passed(results)
    checks = [
        {
            "check_id": r.check_id,
            "description": r.description,
            "deviation": r.deviation,
            "tolerance": r.tolerance,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    payload = _header_payload("verify", settings)
    payload.update(
        {
            "suite": settings.suite,
            "n_max": settings.n_max,
            "margin": settings.margin,
            "tol_scale": settings.tol_scale,
            "theta": settings.theta,
            "seed": settings.seed,
            "checks": checks,
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
    lines = [f"verify suite={settings.suite}"]
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

_FLAGS = {
    "m": dict(type=float, help="oscillator mass (default 1)"),
    "gamma": dict(type=float, help="damping coefficient (default 1)"),
    "k": dict(type=float, help="spring constant (default 1.25)"),
    "hbar": dict(type=float, help="Planck constant over 2 pi (default 1)"),
    "format": dict(choices=("json", "csv", "text"), help="output format (default json)"),
    "out": dict(help="write the report to this file instead of stdout"),
    "config": dict(help="key=value file; command line flags take precedence"),
    "n_max": dict(type=int, help="occupation truncation override"),
    "margin": dict(type=int, help="interior margin for matrix checks (default 2)"),
    "theta": dict(type=float, help="transform rotation angle (default 0.3)"),
    "branch": dict(choices=("+", "-"), help="transform branch sign"),
    "n_cap": dict(type=int, help=f"largest n1+n2 listed (default 6, max {MAX_N_CAP})"),
    "tol_scale": dict(type=float, help="multiply every check tolerance (default 1)"),
    "approach": dict(choices=("ft", "is"),
                     help="which construction: rotation (ft) or imaginary scale (is)"),
    "seed": dict(type=int, help="seed for randomized cross-validation"),
    "n1": dict(type=int, help="first occupation number (default 0)"),
    "n2": dict(type=int, help="second occupation number (default 0)"),
    "times": dict(help="comma separated time grid for evolve"),
    "corrupt_check": dict(metavar="CHECK_ID",
                          help="negative control: inflate the named check's deviation"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared flags plus the named ones; a subcommand gets only what it reads."""
    for name in _SHARED_FLAGS + names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bateman",
        description="Two-mode ladder constructions for the damped/amplified oscillator pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalue table for one construction and branch")
    _add_flags(sp, "approach", "branch", "n_cap")
    sp = sub.add_parser("norms", help="standard norms of the rotated basis and exponent fits")
    _add_flags(sp, "theta")
    sp = sub.add_parser("classify", help="stability class of a single (n1, n2) state")
    _add_flags(sp, "approach", "branch", "n1", "n2")
    sp = sub.add_parser("evolve", help="scalar evolution factor over a time grid")
    _add_flags(sp, "approach", "branch", "n1", "n2", "times")
    sp = sub.add_parser("verify", help="run a verification suite and report pass/fail")
    sp.add_argument("suite", nargs="?", default="all",
                    choices=("algebra", "ft", "is", "dynamics", "all"))
    _add_flags(sp, "n_max", "margin", "theta", "tol_scale", "seed", "corrupt_check")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)
        out = COMMANDS[args.command](settings)
        text = _render(out, settings.fmt)
        if settings.out:
            Path(settings.out).write_text(text)
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
