"""Per-layer tracing of the `bateman` package from outside it.

`install()` wraps every public function of the layer modules, plus
`LadderPoly.normal_order`, and rebinds the wrapper wherever a `bateman`
module bound the original by name or holds it in a module-level list or dict
(the verify suites, the CLI command table).  Calls made through a name bound
elsewhere, for example `matrix_exp` imported into `ft`, `imagscale` and
`verify`, or `build_ladder` reached through the `verify._ladder` cache, are
therefore all seen.  The package itself is not modified on disk.

Span times are CPU seconds of the process, like the end-to-end figures.  A
span's self time is its duration minus the time covered by the spans it
caused.  Counts and self times are aggregated per function as calls happen;
one span per verify check is kept and written out with the result.
"""

from __future__ import annotations

import functools
import sys
import types
from time import process_time as clock

LAYERS = ("fock", "ft", "imagscale", "algebra", "verify", "cli")
METHODS = (("algebra", "LadderPoly", "normal_order"),)


def _dim3(a, *args, **kwargs) -> int:
    return int(a.shape[0]) ** 3


# work counters computed from the arguments, so they repeat exactly
WORK = {"fock.matrix_exp": ("work_dim3", _dim3)}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # "module.function" -> [calls, self_s]
        self.work: dict[str, int] = {}
        self.checks: list[dict] = []
        self._open: list[float] = []       # child time of each open span

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        open_spans = self._open
        work = WORK.get(name)
        if work is not None:
            work_key = f"{name}.{work[0]}"
            self.work[work_key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            if work is not None:
                self.work[work_key] += work[1](*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[1] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def wrap_check(self, suite: str, fn):
        """One span per verify check, keyed by the check id it reports."""
        checks = self.checks

        @functools.wraps(fn)
        def traced_check(cfg):
            start = clock()
            result = fn(cfg)
            checks.append({"suite": suite, "check_id": result.check_id,
                           "duration_s": clock() - start})
            return result

        return traced_check

    def report(self) -> dict:
        return {
            "functions": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "work": dict(self.work),
            "checks": self.checks,
        }


def install() -> Tracer:
    """Wrap the already imported `bateman` modules in place and return the tracer."""
    tracer = Tracer()
    wrappers: dict = {}
    for layer in LAYERS:
        module = sys.modules[f"bateman.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"bateman.{layer}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))

    def swap(obj):
        return wrappers.get(obj, obj) if isinstance(obj, types.FunctionType) else obj

    verify = sys.modules["bateman.verify"]
    for suite, checks in verify.SUITES.items():
        checks[:] = [tracer.wrap_check(suite, swap(fn)) for fn in checks]
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bateman" and not mod_name.startswith("bateman."):
            continue
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType):
                setattr(module, name, swap(obj))
            elif isinstance(obj, list):
                obj[:] = [swap(x) for x in obj]
            elif isinstance(obj, dict) and name != "__builtins__":
                for key, value in obj.items():
                    obj[key] = swap(value)
    return tracer
