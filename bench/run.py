"""Per-layer CPU timings of `bateman`, alone or paired with a parent tree.

    python bench/run.py [--parent DIR] [--out FILE]

DIR is a `git clone` or `git worktree add` checkout of the commit to compare
with; any other directory is refused, since its commit cannot be told.  Each
tree's `src` is copied to a temporary directory, compiled to fresh bytecode
and loaded under a package name of its own (every import inside `bateman` is
relative), so both trees run in this one interpreter, BLAS on one thread.

A row is one layer at fixed input parameters, called as the CLI calls it
(`build_rows`): the truncated kernels and four whole checks at n_max 8, 12, 24
and 48, the standard norms and their exponent fits, the biorthonormality
sweep, the exact spectrum sweep of each route and the 200-polynomial oracle,
the CLI parser, every check of `verify all` at the CLI defaults,
`import bateman.cli` in a cold child, with its peak RSS, and the CPU of
`cli.main` for each of COLD_INVOCATIONS in a cold child, after its import.
Rows are matched across the trees by layer and parameters.  Counts that a
tree computes itself (sectors, stacks, elements, polys, peak RSS) are recorded
per tree, and a row that one tree cannot build, because its function there does
not take the row's arguments, is listed under "one side only".

Each row runs once per tree to warm its caches, then PAIRS times per tree,
alternating which tree goes first, in CPU seconds per call (of the child, for
the import and the cold invocations).  Alone, a row reports its median,
minimum and maximum.  Paired, it also reports the median per-pair ratio
this/parent, the pairs this tree won and a verdict.  Decision rule, fixed
before any measurement: a row is faster or slower only if its two-sided sign
test has p < ALPHA / (rows compared) and its median ratio lies beyond
1 -+ MIN_CHANGE; every other row is unresolved.
Paired, every invocation of INVOCATIONS also runs as `python -m bateman.cli`
in a cold child of each tree, and stdout, stderr and the exit code are
compared byte for byte.

The JSON record, with the machine (cores, Python, numpy and BLAS versions),
goes to FILE, or to stdout without `--out`; a summary goes to stderr.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import operator  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
N_MAX = (8, 12, 24, 48)
PAIRS = 21
ALPHA = 0.05
MIN_CHANGE = 0.03
#: the CLI's default physical parameters, which `verify all` runs at
DEFAULT_PARAMS = dict(m=1.0, gamma=1.0, k=1.25)
BASIS_STATES = ((0, 0), (1, 0), (2, 1))
#: the bounded-frame states of `is.matrix-element`: n1 + n2 <= 5
TRIANGLE = tuple((n1, n2) for n1 in range(6) for n2 in range(6 - n1))
MODULES = ("algebra", "cli", "construction", "fock", "ft", "imagscale", "params", "verify")
#: the child's own peak RSS is VmHWM: ru_maxrss would carry this process's peak over the exec
IMPORT_CODE = ("import time\nstart = time.process_time()\nimport bateman.cli\n"
               "cpu = time.process_time() - start\nhwm = [line.split()[1] for line in"
               " open('/proc/self/status') if line.startswith('VmHWM')][0]\n"
               "print(cpu, int(hwm) / 1024)\n")
#: the CPU seconds of cli.main(argv) alone, its stdout swallowed, after a cold import
MAIN_CODE = ("import contextlib, io, sys, time\nimport bateman.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    start = time.process_time()\n    code = cli.main(sys.argv[1:])\n"
             "    cpu = time.process_time() - start\nprint(cpu, code)\n")
#: the end-to-end invocations timed as cold-child rows: the oracle, the acceptance run, the norms
COLD_INVOCATIONS = (("verify", "algebra", "--seed", "20260823"), ("verify", "all"), ("norms",))
#: a fresh package name per load, so no load reads another's modules from sys.modules
_LOADS = itertools.count()


def _scalar_invocations() -> list[list[str]]:
    """spectrum, classify and evolve for both approaches, both branches and every format."""
    return [command + ["--approach", approach, "--branch", branch, "--format", fmt]
            for command in (["spectrum"], ["classify", "--n1", "2", "--n2", "2"],
                            ["evolve", "--n1", "1"])
            for approach in ("ft", "is") for branch in ("+", "-")
            for fmt in ("json", "csv", "text")]


INVOCATIONS = [
    ["verify", "all"], ["verify", "all", "--seed", "1"],
    ["verify", "all", "--m", "1.3", "--gamma", "0.7", "--k", "2.1"],
    ["verify", "all", "--corrupt-check", "is.h-identity.quarter"],
    ["verify", "all", "--n-max", "4"], ["verify", "all", "--n-max", "48"],
    ["verify", "is"], ["verify", "is", "--n-max", "8"], ["verify", "is", "--n-max", "16"],
    ["verify", "is", "--n-max", "24"], ["verify", "ft"], ["verify", "dynamics"],
    ["verify", "algebra", "--seed", "5"], ["norms"], ["norms", "--theta", "0.4"],
    # every tolerance model off its floor: the series tails (exit 1 at n_max 8, where the
    # ft.gram tail does not bound the gap) and the scales of H, x/y and the rates above 1
    ["verify", "ft", "--theta", "0.5", "--n-max", "8"],
    ["verify", "ft", "--theta", "-0.3", "--n-max", "16"],
    ["verify", "all", "--hbar", "2", "--m", "0.5", "--gamma", "0.7", "--k", "2.1"],
    # scales whose products under- or overflow: omega lambda 5.6e-451 and hbar lambda 5e-401
    ["verify", "all", "--m", "1e300"], ["evolve", "--hbar", "1e-300", "--m", "1e100"],
    # exit 2: a printed energy would read 0 (hbar lambda 5e-401) or inf (hbar omega 1e310)
    ["spectrum", "--hbar", "1e-300", "--m", "1e100"],
    ["spectrum", "--hbar", "1e300", "--k", "1e20"],
    *_scalar_invocations(),
    ["verify", "is", "--n-max", "3"],                       # exit 2: below the smallest n_max
    ["spectrum", "--approach", "is", "--n-cap", "17"],      # exit 2: past the largest n_cap
]


def stage(tree: Path, into: Path) -> Path:
    """A copy of tree/src under into, compiled to fresh bytecode; returns the copy."""
    src = into / "src"
    shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if not compileall.compile_dir(str(src), quiet=1, force=True):
        raise RuntimeError(f"{tree / 'src'} does not compile")
    return src


def git(tree: Path, *argv: str) -> str | None:
    """The stdout of `git -C tree argv`, or None when git fails there."""
    done = subprocess.run(["git", "-C", str(tree), *argv], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(tree: Path) -> dict:
    """The tree's commit and whether its files differ from it, when it is a git checkout."""
    changes = git(tree, "status", "--porcelain", "--", "src", "bench")
    return {"revision": git(tree, "rev-parse", "HEAD"),
            "worktree_changes": None if changes is None else bool(changes)}


def run_cli(src: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of `python -m bateman.cli argv` in a fresh child."""
    done = subprocess.run([sys.executable, "-m", "bateman.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), cwd=src, timeout=300)
    return done.stdout, done.stderr, done.returncode


def diff_outputs(this: Path, parent: Path, invocations=INVOCATIONS) -> list[dict]:
    """One row per invocation: which of stdout, stderr and exit code differ between the trees."""
    rows = []
    for argv in invocations:
        got, want = run_cli(this, argv), run_cli(parent, argv)
        differs = [name for name, a, b in zip(("stdout", "stderr", "exit"), got, want) if a != b]
        rows.append({"argv": argv, "exit": [got[2], want[2]], "differs": differs})
    return rows


def load(src: Path, label: str) -> SimpleNamespace:
    """The bateman package under src, imported under a fresh name; returns its modules."""
    name = f"bench_{label}_{next(_LOADS)}"
    spec = importlib.util.spec_from_file_location(
        name, src / "bateman" / "__init__.py", submodule_search_locations=[str(src / "bateman")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def cpu(fn, calls: int = 1):
    """A measure: the CPU seconds per call of fn over calls calls."""
    def measure() -> float:
        start = time.process_time()
        for _ in range(calls):
            fn()
        return (time.process_time() - start) / calls
    return measure


def cold_import(src: Path, rss: list[float]):
    """A measure: the CPU seconds of `import bateman.cli` in a fresh child; its peak RSS to rss."""
    env = dict(os.environ, PYTHONPATH=str(src))
    def measure() -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                              text=True, env=env, check=True)
        seconds, mb = map(float, done.stdout.split())
        rss.append(mb)
        return seconds
    return measure


def cold_main(src: Path, argv: tuple[str, ...]):
    """A measure: the CPU seconds of cli.main(argv) in a fresh child, once bateman.cli is
    imported there; the invocation must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    def measure() -> float:
        done = subprocess.run([sys.executable, "-c", MAIN_CODE, *argv], capture_output=True,
                              text=True, env=env, check=True)
        seconds, code = done.stdout.split()
        if code != "0":
            raise RuntimeError(f"{' '.join(argv)} exited {code} under {src}")
        return float(seconds)
    return measure


def column_sweep(algebra, ops, bras, kets) -> None:
    """Every <<m| op |n>>, one basis_column per (op, ket), as the exact sweeps read them:
    an absent element is zero, so only the stored bras and the ket are read."""
    for op in ops:
        for n in kets:
            column = algebra.basis_column(op, *n)
            for m in {n, *column}.intersection(bras):
                column.get(m)


def oracle_matrix_half(verify, draws) -> list[complex]:
    verify._ladder.cache_clear()  # the check starts from an empty ladder cache
    return verify._oracle_numeric(draws)


def build_rows(src: Path, label: str = "this") -> dict[str, tuple]:
    """Every row of the tree under src: {key: (layer and parameters, measure, counts)}."""
    b = load(src, label)
    con, fock, ft, imag, verify = b.construction, b.fock, b.ft, b.imagscale, b.verify
    params = b.params.derive_params(**DEFAULT_PARAMS)
    rows = {}

    def put(key: dict, measure, counts: dict) -> None:
        rows[json.dumps(key, sort_keys=True)] = (key, measure, counts)

    def add(layer: str, fn, *args, calls: int = 1, counts=None, **at) -> None:
        key = {"layer": layer, **at, **({"calls": calls} if calls > 1 else {})}
        try:
            inspect.signature(fn, follow_wrapped=False).bind(*args)
        except TypeError:  # this tree's fn takes other arguments: the row is one side only
            return
        put(key, cpu(partial(fn, *args), calls), counts or {})

    rss = []
    put({"layer": "import bateman.cli"}, cold_import(src, rss), {"peak_rss_mb": rss})
    for argv in COLD_INVOCATIONS:
        put({"layer": "cold cli.main", "argv": list(argv)}, cold_main(src, argv), {})
    for n_max in N_MAX:
        lad = fock.build_ladder(n_max)
        ham = fock.build_hamiltonian(lad, params.r)
        space = lad.space
        at = {"n_max": n_max, "dim": space.dim}
        add("ladder_and_hamiltonian", lambda n=n_max: fock.build_hamiltonian(
            fock.build_ladder(n), params.r), calls=10, **at)
        # each exponent with the charge it conserves: n1 - n2, or n1 and the parity of n2 for Y
        exponents = {"0.3 X": (0.3 * ft.generator_matrix(lad), space.difference),
                     "Y": (imag.generator_y_matrix(lad.a2, lad.a2_dag),
                           space.total + space.difference + np.arange(space.dim) % (n_max + 1) % 2),
                     "i pi/4 Z": (1j * math.pi / 4 * imag.generator_z_matrix(lad), space.difference)}
        for name, (a, charge) in exponents.items():
            stacks = fock.sector_exp(a, charge)
            add("sector_exp", fock.sector_exp, a, charge, **at, exponent=name,
                counts={"sectors": sum(len(idx) for idx, _ in stacks), "stacks": len(stacks)})
        reads = {"0.3 X": (ft.FT, 0.3, ft.generator_matrix(lad)),
                 "0.3i Z": (imag.IS, 0.3j, imag.generator_z_matrix(lad))}
        for name, (route, angle, generator) in reads.items():
            add("similarity_deviation", con.similarity_deviation, route,
                con.transform(route, angle, lad), generator, **at, exponent=name)
        bar = con.transform(ft.FT, 0.3, lad)
        add("ft_basis_similarity", ft.ft_basis_similarity, bar, BASIS_STATES, **at,
            states=len(BASIS_STATES))
        cfg = verify.VerifyConfig(params=params, n_max=n_max)
        for check in (verify.check_h_structure, verify.check_exp_inverse,
                      verify.check_is_vacuum, verify.check_is_matrix_element):
            add("check", check, cfg, **at, check=check.check_id)
        for name, route in (("ft", ft.FT), ("is", imag.IS)):
            add("identity_report", con.identity_report, route,
                con.transform(route, route.quarter(+1), lad), params.r, +1, **at, route=name,
                branch=+1)
        add("ladder_product", operator.matmul, lad.a1, lad.a2, calls=100, **at)
        add("commutator_h0_h1", fock.commutator, ham.h0, ham.h1, **at)
        q_cap = verify._gram_q_cap(n_max)  # the occupations of ft.gram and is.gram
        bounded = imag.bounded_frame(1j * math.pi / 4, lad)
        grams = {"ft theta 0.3": (bar, ft.ft_vacuum_series(0.3, space)),
                 "bounded i pi/4": (bounded, imag.is_vacuum(bounded))}
        for name, (modes, vacuum) in grams.items():
            add("gram", con.gram, modes, vacuum, q_cap, **at, frame=name, q_cap=q_cap)
        add("basis", con.basis, bounded, TRIANGLE, imag.is_vacuum(bounded), **at,
            frame="bounded i pi/4", states=len(TRIANGLE))

    for theta in ft.MODERATE_GRID + tuple(math.pi / 2 - eps for eps in ft.EDGE_EPSILONS):
        add("ft_standard_norm", lambda t=theta: [ft.ft_standard_norm(t / 2.0, *state)
                                                 for state in ft.NORMS_STATES],
            calls=100, Theta=theta, states=len(ft.NORMS_STATES))
    add("ft_norm_exponent_fit", lambda: [ft.ft_norm_exponent_fit(ft.FIT_THETA_GRID, *state)
                                         for state in ft.NORMS_STATES],
        calls=100, states=len(ft.NORMS_STATES), thetas=len(ft.FIT_THETA_GRID))
    grids = [[(theta, *state) for state in ft.NORMS_STATES] for theta in ft.MODERATE_GRID]
    for cases in grids:
        add("_chain_standard_norms", ft._chain_standard_norms, cases, Theta=cases[0][0],
            chains=len(cases))
    whole = [case for cases in grids for case in cases]
    add("_chain_standard_norms", ft._chain_standard_norms, whole, grid="ft.norm.closed-forms",
        chains=len(whole))

    laws = {"ft": (ft.FT, lambda n1, n2, b: (n1 - n2, b * (n1 + n2 + 1)), None),
            "is": (imag.IS, lambda n1, n2, b: (n1 + n2 + 1, b * (n1 - n2)), 1)}
    for name, (route, law, p_floor) in laws.items():  # as ft.spectrum and is.spectrum read them
        add("_spectrum", verify._spectrum, verify.VerifyConfig(params=params), route, law,
            p_floor, route=name)
    occupations = [(n1, n2) for n1 in range(4) for n2 in range(4)]
    add("basis_column_sweep", column_sweep, b.algebra, [b.algebra.LadderPoly.one()],
        occupations, occupations, sweep="algebra.biorthonormality",
        counts={"elements": len(occupations) ** 2})
    seed = verify.VerifyConfig.seed
    draws = verify._oracle_draws(seed)
    polys = {"polys": len(draws)}
    one = b.algebra.LadderPoly.one()
    add("_oracle_draws", verify._oracle_draws, seed, counts=polys)
    add("normal_order", lambda: [poly.normal_order() for poly, _ in draws], counts=polys)
    add("vacuum_pairing", lambda: [b.algebra.vacuum_pairing(one, poly) for poly, _ in draws],
        counts=polys)
    add("vacuum_expectation", lambda: [b.algebra.vacuum_expectation(poly) for poly, _ in draws],
        counts=polys)
    add("_oracle_exact", verify._oracle_exact, draws, counts=polys)
    add("_oracle_numeric", oracle_matrix_half, verify, draws, counts=polys)
    for argv in (None, ["norms"]):
        add("build_parser", b.cli.build_parser, argv, calls=100, argv=argv)

    cfg = verify.VerifyConfig(params=params)
    for suite in verify.SUITE_NAMES:
        for check in verify.SUITES[suite]:
            add("check", check, cfg, check=check.check_id)
    return rows


def sign_test(wins: int, losses: int) -> float:
    """The two-sided p-value of wins against losses under a fair coin (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def verdict(ratios: list[float], rows: int) -> str:
    """The decision rule of the module docstring, on the per-pair ratios this/parent."""
    wins, losses = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
    median = statistics.median(ratios)
    if sign_test(wins, losses) >= ALPHA / rows or abs(median - 1.0) <= MIN_CHANGE:
        return "unresolved"
    return "faster" if median < 1.0 else "slower"


def min_wins(pairs: int, rows: int) -> int | None:
    """The fewest wins of pairs that can resolve a row among rows compared, if any can."""
    return next((w for w in range(pairs // 2 + 1, pairs + 1)
                 if sign_test(w, pairs - w) < ALPHA / rows), None)


def stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def time_pairs(measures: list, pairs: int) -> list[list[float]]:
    """Each tree's times of one row: a warm run each, then pairs runs, alternating the order."""
    for measure in measures:
        measure()
    times = [[] for _ in measures]
    for k in range(pairs):
        for side in (range(len(measures)) if k % 2 == 0 else reversed(range(len(measures)))):
            times[side].append(measures[side]())
    return times


def shared(sides: list[dict]) -> tuple[list[str], list[dict]]:
    """The keys every tree builds, in build order, and the rows only some tree builds."""
    keys = [key for key in sides[0] if all(key in side for side in sides)]
    only = {key: side[key][0] for side in sides for key in side if key not in keys}
    return keys, list(only.values())


def pair_rows(sides: list[dict], pairs: int, keys: list[str]) -> list[dict]:
    """One record per key, timed on every tree in sides (this tree first)."""
    records = []
    for key in keys:
        times = time_pairs([side[key][1] for side in sides], pairs)
        record = dict(sides[0][key][0])
        for label, side, seconds in zip(("this", "parent"), sides, times):
            counts = {name: stats(v) if isinstance(v, list) else v
                      for name, v in side[key][2].items()}
            record[label] = {"time_s": stats(seconds), **counts}
        if len(sides) == 2:
            ratios = [t / p if p > 0 else math.inf for t, p in zip(*times)]
            record.update(median_ratio=statistics.median(ratios),
                          wins=sum(r < 1.0 for r in ratios), pairs=pairs,
                          verdict=verdict(ratios, len(keys)))
        records.append(record)
    return records


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "platform": platform.platform(),
            "clock": "time.process_time (CPU seconds of the timing process)"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path,
                        help="git clone or worktree of the commit to compare with")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {"this": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
        if not (trees["parent"] / "src" / "bateman" / "__init__.py").is_file():
            parser.error(f"{trees['parent']} holds no src/bateman package")
        top = git(trees["parent"], "rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != trees["parent"]:
            # a copy inside another checkout would be recorded as that checkout's commit
            parser.error(f"{trees['parent']} is not the top of a git checkout, so its commit "
                         "cannot be recorded; make it with `git clone` or `git worktree add`")
    start = time.perf_counter()
    record = {"machine": machine(), "sides": {label: describe(t) for label, t in trees.items()}}
    with tempfile.TemporaryDirectory(prefix="bateman-bench-") as tmp:
        srcs = {label: stage(tree, Path(tmp) / label) for label, tree in trees.items()}
        if args.parent is not None:
            record["invocations"] = diff_outputs(srcs["this"], srcs["parent"])
        sides = [build_rows(src, label) for label, src in srcs.items()]
        keys, only = shared(sides)
        record["rule"] = {"pairs": PAIRS, "alpha": ALPHA, "min_change": MIN_CHANGE,
                          "rows_compared": len(keys), "min_wins": min_wins(PAIRS, len(keys))}
        record["rows"] = pair_rows(sides, PAIRS, keys)
        record["one side only"] = only
    record["wall_s"] = time.perf_counter() - start
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    summary = [f"{len(record['rows'])} rows, {len(only)} on one side only,"
               f" {record['wall_s']:.0f} s"]
    if args.parent is not None:
        diff = record["invocations"]
        summary += [f"{sum(not r['differs'] for r in diff)} of {len(diff)} invocations"
                    " byte-identical", *(f"  differs: {' '.join(r['argv'])}"
                                         for r in diff if r["differs"])]
        summary += [f"{r['verdict']} {r['median_ratio']:.3f} {r['wins']}/{r['pairs']}: {key}"
                    for key, r in zip(keys, record["rows"]) if r["verdict"] != "unresolved"]
    print("\n".join(summary), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
