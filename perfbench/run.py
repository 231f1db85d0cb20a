"""Benchmark of the combtiles command line: seeded, closed-loop, exactness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a combtiles checkout. NAME is one of the workloads in
catalogue.py, or ``all`` to run each in turn. One client runs the seeded
operation list of the workload (one pass) in a closed loop, again while
another pass fits in S seconds, checks every output against its stored
reference, and prints the metrics, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run makes one
untraced and one traced pass of the same list and reports the per-layer
metrics and the tracing overhead. A run record and the trace spans go to
``.perfbench/`` in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import re
import resource
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import SESSION_WORKLOADS, WORKLOADS, Op, draw  # noqa: E402

MIN_SAMPLES = 100
# every operation runs in at least this many passes and counts at its best
MIN_PASSES = 2
OP_TIMEOUT_S = 20.0
# no operation starts later than this after measuring began, so a run
# ends well within three minutes even when the program hangs
DEADLINE_S = 120.0
SETUP_SAMPLES = 5  # before each pass
SETUP_OP: Op = ("sums", "--m", "1", "--t", "2", "--n", "1")
SETUP_REPLY = b"1\n"
CONSOLE_SCRIPT = "import sys; from combtiles.cli import main; sys.exit(main())"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CHECKS = (
    "ch_eq_chb", "adiag_sum", "col0", "diag", "col1", "zeros", "vert_boundary",
    "ray_boundary", "one_square_block", "two_square_block", "composition",
    "pascal_region", "subset_recurrence", "rr_exact", "sums_exact", "gf_42",
    "multinom", "sumcoeff", "poly_coeff", "tpoly", "s_corollaries",
)

PER_LAYER = {
    "polynomials.mul.calls": "count",
    "polynomials.mul.s": "s",
    "polynomials.mul.coeff_products": "count",
    "polynomials.pow.s": "s",
    "polynomials.pow.self_s": "s",
    "polynomials.entry_via_poly.calls": "count",
    "polynomials.entry_via_poly.s": "s",
    "polynomials.entry_via_poly.self_s": "s",
    "polynomials.antidiagonal_sum_closed.calls": "count",
    "polynomials.antidiagonal_sum_closed.s": "s",
    "polynomials.bonacci_poly.hit_ratio": "share",
    "polynomials.bonacci_poly.cache_size": "count",
    "recursion.walk_count.calls": "count",
    "recursion.walk_count.s": "s",
    "recursion.walk_count.self_s": "s",
    "recursion.walk_count.states": "count",
    "digraph.analyze_structure.calls": "count",
    "digraph.analyze_structure.s": "s",
    "digraph.analyze_structure.refused": "count",
    "digraph.analyze_structure.ok_ratio": "share",
    "digraph.build_digraph.calls": "count",
    "digraph.build_digraph.s": "s",
    "digraph.build_digraph.nodes": "count",
    "digraph.build_digraph.arcs": "count",
    "digraph.enumerate_metatiles.s": "s",
    "digraph.export_dot.s": "s",
    "recursion.synthesize.s": "s",
    "recursion.project_row_sum.s": "s",
    "recursion.evaluate.s": "s",
    "recursion.evaluate.self_s": "s",
    "recursion.evaluate.values": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.max_int_bits": "bits",
    "core.Triangle.from_rows.s": "s",
    "core.Triangle.to_csv.s": "s",
    "oracle.build_triangle.s": "s",
    "oracle.build_triangle.self_s": "s",
    "oracle.enumerate_tilings.s": "s",
    "oracle.enumerate_tile_tilings.s": "s",
    "oracle.enumerate_restricted_subsets.s": "s",
    "oracle.tilings": "count",
    "oracle.subsets": "count",
    "identities.run_check.s": "s",
    "identities.run_check.self_s": "s",
    **{f"identities.run_check.{name}.s": "s" for name in CHECKS},
    "identities.cases": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    code: int | None
    out: bytes
    err: bytes
    latency_s: float
    cpu_s: float
    timed_out: bool = False


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile; refuses when fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(p * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{p * 100:g} of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[rank - 1]


def failure(outcome: Outcome, ref: dict) -> str | None:
    """Why an operation failed against its reference, or None if it passed."""
    if outcome.timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in outcome.err:
        return "traceback"
    if outcome.code != ref["exit"]:
        return f"exit {outcome.code}, expected {ref['exit']}"
    if len(outcome.out) != ref["bytes"] or hashlib.sha256(outcome.out).hexdigest() != ref["sha256"]:
        return "wrong output"
    if ref["exit"] != 0:
        lines = outcome.err.decode("utf-8", "replace").strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return "stderr is not one error line"
    return None


def wrong_answer(outcome: Outcome, ref: dict) -> bool:
    """An answer was given (exit 0) where the reference has another one."""
    if outcome.timed_out or outcome.code != 0:
        return False
    return ref["exit"] != 0 or hashlib.sha256(outcome.out).hexdigest() != ref["sha256"]


def _children_usage() -> tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class ColdRunner:
    """One fresh process per operation, as a user's shell would start it."""

    def __init__(self, root: Path, env: dict, trace_dir: Path | None = None) -> None:
        self.env = env
        if trace_dir is None:
            self.prefix = [sys.executable, "-c", CONSOLE_SCRIPT]
        else:
            self.prefix = [sys.executable, str(HERE / "child.py"), "cold", "--trace", str(trace_dir), "--"]
        self.root = root

    def run(self, op: Op, timeout: float = OP_TIMEOUT_S) -> Outcome:
        return run_process([*self.prefix, *op], self.env, self.root, timeout)

    def peak_rss_kb(self) -> int:
        return _children_usage()[1]

    def close(self) -> None:
        pass


def run_process(cmd: list[str], env: dict, cwd: Path, timeout: float) -> Outcome:
    cpu0, _ = _children_usage()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    latency = time.perf_counter() - t0
    cpu1, _ = _children_usage()
    return Outcome(proc.returncode, out, err, latency, cpu1 - cpu0, timed_out)


class SessionRunner:
    """One long-lived process that runs every operation in-process."""

    def __init__(self, root: Path, env: dict, trace_dir: Path | None = None) -> None:
        self.cmd = [sys.executable, str(HERE / "child.py"), "session"]
        if trace_dir is not None:
            self.cmd += ["--trace", str(trace_dir)]
        self.root, self.env = root, env
        self.proc: subprocess.Popen | None = None
        self.peak_kb = 0
        self.cpu_s = 0.0

    def start(self) -> None:
        self.proc = subprocess.Popen(
            self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=self.env, cwd=self.root,
        )
        self.buf = bytearray()
        self.cpu_s = 0.0

    def _read(self, n: int | None, deadline: float) -> bytes:
        """n bytes, or one line when n is None, from the session's stdout."""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while (end := self._buffered(n)) is None:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise TimeoutError
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise EOFError
                self.buf += chunk
        data = bytes(self.buf[:end])
        del self.buf[:end]
        return data

    def _buffered(self, n: int | None) -> int | None:
        if n is None:
            newline = self.buf.find(b"\n")
            return newline + 1 if newline >= 0 else None
        return n if len(self.buf) >= n else None

    def request(self, payload: dict, timeout: float) -> tuple[dict, bytes, bytes]:
        if self.proc is None:
            self.start()
        deadline = time.monotonic() + timeout
        self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
        self.proc.stdin.flush()
        header = json.loads(self._read(None, deadline))
        out = self._read(header["out"], deadline)
        err = self._read(header["err"], deadline)
        self.peak_kb = max(self.peak_kb, header["maxrss_kb"])
        return header, out, err

    def run(self, op: Op, timeout: float = OP_TIMEOUT_S) -> Outcome:
        if self.proc is None:
            self.start()
        cpu_before = self.cpu_s
        t0 = time.perf_counter()
        try:
            header, out, err = self.request({"argv": list(op)}, timeout)
        except (TimeoutError, EOFError, BrokenPipeError, ValueError) as exc:
            latency = time.perf_counter() - t0
            self.close(kill=True)
            return Outcome(None, b"", repr(exc).encode(), latency, 0.0, isinstance(exc, TimeoutError))
        latency = time.perf_counter() - t0
        self.cpu_s = header["cpu_s"]
        return Outcome(header["exit"], out, err, latency, self.cpu_s - cpu_before)

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def close(self, kill: bool = False) -> None:
        if self.proc is None:
            return
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def measure_setup(workload: str, root: Path, env: dict) -> tuple[list[float], bool]:
    """Cold start to the first answer of a trivial operation, a few times."""
    samples, ok = [], True
    for _ in range(SETUP_SAMPLES):
        if workload in SESSION_WORKLOADS:
            session = SessionRunner(root, env)
            t0 = time.perf_counter()
            outcome = session.run((*SETUP_OP, "--method", "poly"))
            samples.append(time.perf_counter() - t0)
            session.close()
        else:
            outcome = ColdRunner(root, env).run(SETUP_OP)
            samples.append(outcome.latency_s)
        if outcome.code != 0 or outcome.out != SETUP_REPLY:
            ok = False
            break
    return samples, ok


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    records: list[dict]


def run_pass(ops: list[Op], runner, refs: dict, started: float, inspect_output: bool = False) -> PassResult:
    records = []
    t0 = time.perf_counter()
    cpu = 0.0
    for op in ops:
        ref = refs[" ".join(op)]
        if time.perf_counter() - started > DEADLINE_S:
            outcome = Outcome(None, b"", b"", OP_TIMEOUT_S, 0.0, timed_out=True)
            reason = "not run: run deadline"
        else:
            outcome = runner.run(op)
            reason = failure(outcome, ref)
        cpu += outcome.cpu_s
        records.append({
            "op": " ".join(op),
            "latency_s": outcome.latency_s,
            "cpu_s": outcome.cpu_s,
            "exit": outcome.code,
            "failure": reason,
            "wrong_answer": wrong_answer(outcome, ref),
            "stdout_bytes": len(outcome.out),
            "max_int_bits": max_int_bits(outcome.out) if inspect_output else None,
        })
    return PassResult(time.perf_counter() - t0, cpu, records)


def max_int_bits(out: bytes) -> int:
    runs = re.findall(rb"[0-9]+", out)
    return int(max(runs, key=len)).bit_length() if runs else 0


def pin(runner, cpus: set[int]) -> None:
    """Run this process, the processes it starts next and a live session on cpus."""
    os.sched_setaffinity(0, cpus)
    if isinstance(runner, SessionRunner) and runner.proc is not None:
        os.sched_setaffinity(runner.proc.pid, cpus)


def make_runner(workload: str, root: Path, env: dict, trace_dir: Path | None = None):
    cls = SessionRunner if workload in SESSION_WORKLOADS else ColdRunner
    return cls(root, env, trace_dir)


def end_to_end(workload: str, seed: int, seconds: int, root: Path, env: dict, refs: dict) -> tuple[dict, list[PassResult], dict]:
    ops = draw(workload, seed)
    runner = make_runner(workload, root, env)
    passes: list[PassResult] = []
    setup: list[float] = []
    setup_ok = True
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    try:
        while True:
            # Passes take turns on the CPUs: the speed of a shared machine
            # changes per CPU for tens of seconds at a time, and the best
            # pass of an operation is then rarely a slow one.
            pin(runner, {cpus[len(passes) % len(cpus)]})
            samples, ok = measure_setup(workload, root, env)
            setup += samples
            setup_ok = setup_ok and ok
            passes.append(run_pass(ops, runner, refs, started))
            elapsed = time.perf_counter() - started
            if elapsed > DEADLINE_S or (len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > seconds):
                break
        peak_kb = runner.peak_rss_kb()
    finally:
        runner.close()
        os.sched_setaffinity(0, cpus)
    # each operation counts at its best pass, the one least disturbed by
    # other load on the machine
    best = [min((p.records[i] for p in passes), key=lambda r: r["latency_s"]) for i in range(len(ops))]
    records = [r for p in passes for r in p.records]
    failed = sum(1 for r in records if r["failure"])
    latencies = [r["latency_s"] for r in best]
    metrics = {
        "wall_s": sum(latencies),
        "cpu_s": sum(r["cpu_s"] for r in best),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "ok_share": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    counts = {name: len(records) for name in metrics}
    counts.update(setup_s=len(setup), peak_rss_mb=len(passes))
    extra = {"setup_samples": setup, "setup_ok": setup_ok, "samples": counts}
    return metrics, passes, extra


def traced(workload: str, seed: int, root: Path, env: dict, refs: dict, trace_dir: Path) -> tuple[dict, list[PassResult], dict]:
    ops = draw(workload, seed)
    for old in trace_dir.glob("*"):
        old.unlink()
    started = time.perf_counter()
    passes = []
    for directory in (None, trace_dir):
        runner = make_runner(workload, root, env, directory)
        try:
            passes.append(run_pass(ops, runner, refs, started, inspect_output=directory is not None))
            if directory is not None and isinstance(runner, SessionRunner) and runner.proc is not None:
                runner.request({"dump": "session"}, OP_TIMEOUT_S)
        finally:
            runner.close()
    counts: dict[str, float] = defaultdict(float)
    spans = 0
    for path in sorted(trace_dir.glob("*.json")):
        summary = json.loads(path.read_text())
        spans += summary["spans"]
        counts["cli.import_s"] += summary["import_s"]
        for key, value in summary["counts"].items():
            if key == "polynomials.bonacci_poly.cache_size":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    lookups = counts["polynomials.bonacci_poly.hits"] + counts["polynomials.bonacci_poly.misses"]
    analyses = counts["digraph.analyze_structure.calls"]
    records = passes[1].records
    counts.update({
        "polynomials.bonacci_poly.hit_ratio": counts["polynomials.bonacci_poly.hits"] / lookups if lookups else 0.0,
        "digraph.analyze_structure.ok_ratio": counts["digraph.analyze_structure.ok"] / analyses if analyses else 0.0,
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in records),
        "cli.max_int_bits": max(r["max_int_bits"] for r in records),
        "trace.spans": spans,
        "trace.overhead_s": passes[1].wall_s - passes[0].wall_s,
    })
    metrics = {name: counts.get(name, 0.0) for name in PER_LAYER}
    extra = {"untraced_wall_s": passes[0].wall_s, "traced_wall_s": passes[1].wall_s,
             "samples": {name: len(records) for name in PER_LAYER}}
    return metrics, passes[1:], extra


def run_record(root: Path, workload: str, seed: int, trace: int, metrics: dict, passes: list[PassResult], extra: dict) -> dict:
    src = root / "src" / "combtiles"
    digest = hashlib.sha256()
    lines = {}
    for path in sorted(src.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "metrics": metrics,
        **extra,
        "failures": dict(Counter(r["failure"] for p in passes for r in p.records if r["failure"])),
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "ops": p.records} for p in passes],
    }


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: int, root: Path, refs: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUTF8="1")
    out_dir = root / ".perfbench"
    if trace:
        trace_dir = out_dir / "trace" / f"{workload}-seed{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        metrics, passes, extra = traced(workload, seed, root, env, refs, trace_dir)
        units = PER_LAYER
    else:
        metrics, passes, extra = end_to_end(workload, seed, seconds, root, env, refs)
        units = END_TO_END
    records = [r for p in passes for r in p.records]
    failed = sum(1 for r in records if r["failure"])
    record = run_record(root, workload, seed, trace, metrics, passes, extra)
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    (out_dir / "runs" / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# {workload} seed={seed} ops={len(records)} failed={failed} "
          f"failures={record['failures']} nproc={record['nproc']} python={record['python']}")
    for name, unit in units.items():
        print(f"{workload:14s} {name:42s} {metrics[name]:16.6f} {unit}")
    return {
        "correct": extra.get("setup_ok", True) and not any(r["wrong_answer"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "combtiles" / "cli.py").is_file():
        print("error: run from the root of a combtiles checkout (src/combtiles not found)", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    compileall.compile_dir(str(root / "src" / "combtiles"), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, root, refs) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
