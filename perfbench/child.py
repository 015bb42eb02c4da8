"""One cold CLI invocation, timed from inside a fresh process.

    python3 perfbench/child.py SRC_DIR TRACE(0|1) [CLI ARGS...]

Times `import bateman.cli` (set-up, CPU time) apart from `cli.main(args)` (CPU
and wall time) in this process, and prints one JSON record on stdout:
the times, the exit code, the exact text the CLI wrote to stdout, the tail of
what it wrote to stderr, this process's own peak RSS and, when tracing, the
per-layer trace.  With no CLI args it only imports.  Only `sys` and `time`
are imported before the import is timed.
"""

import sys
import time


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    cpu = time.process_time()
    import bateman.cli as cli
    record = {"setup_cpu_s": time.process_time() - cpu}

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bateman was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        import tracer as tracer_module
        tracer = tracer_module.install()

    record["version"] = cli.__version__
    if argv:
        out, err = io.StringIO(), io.StringIO()
        cpu, wall = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is reported as the interpreter would: exit 1
                traceback.print_exc()
                code = 1
        record.update(cpu_s=time.process_time() - cpu, wall_s=time.perf_counter() - wall, exit=code,
                      stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["trace"] = tracer.report()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
