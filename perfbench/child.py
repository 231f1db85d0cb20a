"""Program-side shim: runs ``combtiles.cli.main`` once, or as a session.

    python3 perfbench/child.py cold [--trace DIR] -- ARGS...
    python3 perfbench/child.py session [--trace DIR]

``cold`` behaves like the ``combtiles`` console script (same stdout,
stderr and exit code); it is used for traced runs of the cold workloads,
whose untraced runs start the console script's own code. ``session``
imports the package once and then reads one JSON request per line from
stdin: ``{"argv": [...]}`` runs ``main(argv)`` with stdout and stderr
captured and answers with a JSON header line
``{"exit", "out", "err", "cpu_s", "maxrss_kb"}`` followed by ``out`` bytes
of stdout and ``err`` bytes of stderr; ``{"dump": tag}`` writes the
trace. With ``--trace`` the layer functions are wrapped (see tracer.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _load(trace_dir: str | None):
    t0 = time.perf_counter()
    import combtiles.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    return sys.modules["combtiles.cli"], tracer, import_s


def _cold(argv: list[str], trace_dir: str | None) -> int:
    cli, tracer, import_s = _load(trace_dir)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(Path(trace_dir), f"cold-{time.time_ns()}", {"import_s": import_s})


def _session(trace_dir: str | None) -> int:
    cli, tracer, import_s = _load(trace_dir)
    reply = sys.stdout.buffer
    for line in sys.stdin:
        request = json.loads(line)
        if "dump" in request:
            if tracer is not None:
                tracer.dump(Path(trace_dir), request["dump"], {"import_s": import_s})
            out = err = b""
            code = 0
        else:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                try:
                    code = cli.main(request["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = 1
            out = out_buf.getvalue().encode("utf-8")
            err = err_buf.getvalue().encode("utf-8")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        header = {
            "exit": code,
            "out": len(out),
            "err": len(err),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        reply.write(json.dumps(header).encode() + b"\n" + out + err)
        reply.flush()
    return 0


def main() -> int:
    args = sys.argv[1:]
    trace_dir = None
    mode = args.pop(0)
    if args[:1] == ["--trace"]:
        trace_dir = args[1]
        args = args[2:]
    if mode == "cold":
        if args[:1] == ["--"]:
            args = args[1:]
        return _cold(args, trace_dir)
    if mode == "session":
        return _session(trace_dir)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
