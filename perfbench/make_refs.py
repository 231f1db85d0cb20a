"""Write ``references.json``: the expected outcome of every catalogued operation.

Usage, from the repository root:

    python3 perfbench/make_refs.py

Operations that already have a record keep it and records of operations
no longer catalogued are dropped; delete ``references.json`` to rebuild
every record (several minutes).

For each operation the expected stdout is computed by a second engine
where one reaches, formatted the way the command line formats it, and
compared with what the command line prints at the current commit:

- triangles and cell counts: the product closed form
  ``[x^k] f_j^(m-r) f_{j+1}^r``, implemented here independently of
  ``combtiles.polynomials``, and the enumeration oracle on a prefix;
- tile row sums: a transfer-matrix walk count written here, the closed
  form on a prefix, and the oracle on a prefix;
- restricted subset counts: the closed form through the bijection with
  tilings of an (n + (t-1)m)-board;
- DOT digraphs and metatile lists: walk counts on the printed graph and
  the generating function 1/(1 - M(x)) against the closed form;
- recursions: the printed relation evaluated and compared with the
  closed form;
- refusals and inputs over the enumeration caps: the documented exit
  code (1 or 2) with one ``error:`` line.

When the command line answers and agrees, its bytes become the reference.
When it fails (a traceback at this commit), the second engine's bytes
become the reference, so the benchmark counts the failure. Each record
keeps the expected exit code, the SHA-256 and length of the expected
stdout, the engines that validated it and what the command line did when
the record was made.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from catalogue import Op, all_ops  # noqa: E402
from combtiles import cli, oracle  # noqa: E402
from combtiles.core import CombSpec, TriangleKind  # noqa: E402
from combtiles.digraph import (  # noqa: E402
    analyze_structure,
    build_digraph,
    compress_metatile,
    enumerate_metatiles,
    metatile_to_tiling,
)
from combtiles.recursion import Metric, evaluate, project_row_sum, synthesize  # noqa: E402

ORACLE_TILE_CAP = 22
ORACLE_BOARD_CAP = 26
SUBSET_CAP = 24
# prefixes the slower engines are run on
ORACLE_TILE_PREFIX = 9
ORACLE_BOARD_PREFIX = 14
CLOSED_TILE_SUMS_PREFIX = 60
WALK_CHECK_LEN = 24


# --- product closed form ------------------------------------------------------

def _pmul(a: list[int], b: list[int]) -> list[int]:
    """Product of nonnegative integer polynomials by Kronecker substitution."""
    if not a or not b:
        return []
    width = (max(a) * max(b) * min(len(a), len(b))).bit_length() // 8 + 1
    pa = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    n = len(a) + len(b) - 1
    raw = (pa * pb).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(n)]


class ClosedForm:
    """Board polynomials P_b(x) = f_j^(m-r) f_{j+1}^r with b = m*j + r."""

    def __init__(self, m: int, t: int) -> None:
        self.m, self.t = m, t
        self.f: list[list[int]] = [[1]]
        self.boards: dict[int, list[int]] = {}

    def _family(self, j: int) -> list[int]:
        while len(self.f) <= j:
            n = len(self.f)
            prev = self.f[n - 1]
            back = self.f[n - self.t] if n >= self.t else []
            out = prev + [0] * max(0, len(back) + 1 - len(prev))
            for i, c in enumerate(back):
                out[i + 1] += c
            self.f.append(out)
        return self.f[j]

    def board(self, b: int) -> list[int]:
        if b not in self.boards:
            j, r = divmod(b, self.m)
            poly = [1]
            for _ in range(self.m - r):
                poly = _pmul(poly, self._family(j))
            for _ in range(r):
                poly = _pmul(poly, self._family(j + 1))
            self.boards[b] = poly
        return self.boards[b]

    def tile_triangle(self, rows: int) -> list[list[int]]:
        out = []
        for n in range(rows):
            row = []
            for k in range(n + 1):
                poly = self.board(n + (self.t - 1) * k)
                row.append(poly[k] if k < len(poly) else 0)
            out.append(row)
        return out

    def board_triangle(self, rows: int) -> list[list[int]]:
        return [[(self.board(n) + [0] * (n + 1))[k] for k in range(n + 1)] for n in range(rows)]

    def cell_sums(self, n_terms: int) -> list[int]:
        values = [sum(self._family(j)) for j in range(n_terms // self.m + 2)]
        return [
            values[j] ** (self.m - r) * values[j + 1] ** r
            for j, r in (divmod(n, self.m) for n in range(n_terms))
        ]


# --- transfer-matrix walk count ----------------------------------------------

def walk_sums(m: int, t: int, n_terms: int, metric: str) -> list[int]:
    """Closed walks at the empty state, by tile count or by cell count."""
    dg = build_digraph(CombSpec(m, t))
    arcs = [(a.src, a.dst, 1 if metric == "tiles" else a.cell_weight) for a in dg.arcs]
    layers: list[dict[str, int]] = [dict() for _ in range(n_terms)]
    layers[0]["0"] = 1
    for n in range(n_terms):
        layer = layers[n]
        for src, dst, w in arcs:
            if src in layer and n + w < n_terms:
                nxt = layers[n + w]
                nxt[dst] = nxt.get(dst, 0) + layer[src]
    return [layer.get("0", 0) for layer in layers]


def series_inverse_check(metatile_counts: list[int], tile_sums: list[int]) -> bool:
    """Whether 1/(1 - M(x)) agrees with the tile row sums term by term."""
    seq = [1]
    for n in range(1, len(tile_sums)):
        seq.append(sum(metatile_counts[i] * seq[n - i] for i in range(1, n + 1) if i < len(metatile_counts)))
    return seq == tile_sums


# --- command line formats -----------------------------------------------------

def fmt_triangle(m: int, t: int, kind: str, rows: list[list[int]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(str(e) for e in row) for row in rows) + "\n"
    if fmt == "json":
        return json.dumps({"m": m, "t": t, "kind": kind, "rows": [[str(e) for e in row] for row in rows]}) + "\n"
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def fmt_sums(seq: list[int], fmt: str) -> str:
    if fmt == "bfile":
        return "".join(f"{i} {v}\n" for i, v in enumerate(seq))
    if fmt == "csv":
        return ",".join(str(v) for v in seq) + "\n"
    if fmt == "json":
        return json.dumps(seq) + "\n"
    return " ".join(str(v) for v in seq) + "\n"


_SUPERSCRIPT_DIGITS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def expand_metatile(text: str) -> str:
    """Undo the display compression C² -> CC."""
    return re.sub(
        r"C([⁰¹²³⁴⁵⁶⁷⁸⁹]+)",
        lambda mt: "C" * int(mt.group(1).translate(_SUPERSCRIPT_DIGITS)),
        text,
    )


# --- running the command line ---------------------------------------------------

def run_cli(op: Op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def with_deep_stack(fn):
    """Run fn in a thread whose stack and recursion limit fit deep recursion."""
    box: dict = {}

    def job() -> None:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200_000)
        try:
            box["value"] = fn()
        finally:
            sys.setrecursionlimit(limit)

    old = threading.stack_size(1 << 29)
    try:
        th = threading.Thread(target=job)
        th.start()
        th.join()
    finally:
        threading.stack_size(old)
    return box["value"]


# --- expected outcome per command ---------------------------------------------------

def _args(op: Op) -> dict[str, str]:
    out = {"command": op[0]}
    i = 1
    while i < len(op):
        key = op[i][2:]
        if i + 1 < len(op) and not op[i + 1].startswith("--"):
            out[key] = op[i + 1]
            i += 2
        else:
            out[key] = "1"
            i += 1
    return out


class Refusal(Exception):
    """The documented outcome is a refusal with this exit code."""

    def __init__(self, code: int, why: str) -> None:
        super().__init__(why)
        self.code = code


def expect_triangle(a: dict[str, str]) -> tuple[str, list[str]]:
    m, t, rows = int(a["m"]), int(a["t"]), int(a["rows"])
    kind, fmt, method = a.get("kind", "tile"), a.get("format", "csv"), a.get("method", "auto")
    if method == "oracle":
        cap = ORACLE_TILE_CAP if kind == "tile" else ORACLE_BOARD_CAP
        if rows - 1 > cap:
            raise Refusal(2, f"over the oracle's {kind} cap {cap} (README)")
    closed = ClosedForm(m, t)
    table = closed.tile_triangle(rows) if kind == "tile" else closed.board_triangle(rows)
    engines = [f"closed form, rows<{rows}"]
    prefix = min(rows, ORACLE_TILE_PREFIX if kind == "tile" else ORACLE_BOARD_PREFIX)
    if method != "oracle":
        tri = oracle.build_triangle(CombSpec(m, t), TriangleKind(kind), prefix)
        if [list(r) for r in tri.rows] != table[:prefix]:
            raise AssertionError("oracle and closed form disagree")
        engines.append(f"oracle, rows<{prefix}")
    return fmt_triangle(m, t, kind, table, fmt), engines


def expect_sums(a: dict[str, str]) -> tuple[str, list[str]]:
    m, t, n = int(a["m"]), int(a["t"]), int(a["n"])
    metric, fmt, method = a.get("metric", "tiles"), a.get("format", "text"), a.get("method", "auto")
    if method == "oracle":
        cap = ORACLE_TILE_CAP if metric == "tiles" else ORACLE_BOARD_CAP
        if n - 1 > cap:
            raise Refusal(2, f"over the oracle's cap {cap} (README)")
    closed = ClosedForm(m, t)
    engines = []
    if metric == "cells":
        seq = closed.cell_sums(n)
        engines.append(f"closed form, n<{n}")
        walk_len = min(n, 300)
        if len(build_digraph(CombSpec(m, t)).nodes) * walk_len <= 2_000_000:
            if walk_sums(m, t, walk_len, "cells") != seq[:walk_len]:
                raise AssertionError("walk count and closed form disagree")
            engines.append(f"walk count, n<{walk_len}")
        prefix = min(n, ORACLE_BOARD_PREFIX)
        kind = TriangleKind.BOARD
    else:
        seq = walk_sums(m, t, n, "tiles")
        engines.append(f"walk count, n<{n}")
        prefix = min(n, CLOSED_TILE_SUMS_PREFIX)
        if [sum(r) for r in closed.tile_triangle(prefix)] != seq[:prefix]:
            raise AssertionError("closed form and walk count disagree")
        engines.append(f"closed form, n<{prefix}")
        prefix = min(n, ORACLE_TILE_PREFIX)
        kind = TriangleKind.TILE
    if method != "oracle":
        sums = list(oracle.build_triangle(CombSpec(m, t), kind, prefix).row_sums())
        if sums != seq[:prefix]:
            raise AssertionError("oracle disagrees")
        engines.append(f"oracle, n<{prefix}")
    return fmt_sums(seq, fmt), engines


def expect_subsets(a: dict[str, str]) -> tuple[str, list[str]]:
    m, t, n = int(a["m"]), int(a["t"]), int(a["n"])
    if n > SUBSET_CAP:
        raise Refusal(2, f"universe over the cap {SUBSET_CAP} (README)")
    if "count" not in a:
        raise ValueError("only subset counts are catalogued")
    board = ClosedForm(m, t).board(n + (t - 1) * m)
    count = board[int(a["k"])] if "k" in a and int(a["k"]) < len(board) else (0 if "k" in a else sum(board))
    return f"{count}\n", ["closed form via (n+(t-1)m)-board tilings"]


def check_metatiles(m: int, t: int, labels: list[str], max_tiles: int) -> list[str]:
    spec = CombSpec(m, t)
    if labels != sorted(set(labels), key=lambda s: (len(s), s)):
        raise AssertionError("metatiles not unique and in order")
    for label in labels[:500]:
        metatile_to_tiling(spec, label)
    length = min(max_tiles, 40) + 1
    counts = [0] * length
    for label in labels:
        if len(label) < length:
            counts[len(label)] += 1
    sums = [sum(r) for r in ClosedForm(m, t).tile_triangle(length)]
    if not series_inverse_check(counts, sums):
        raise AssertionError("metatile series disagrees with the closed form")
    return [f"closed form: 1/(1-M(x)) = tile row sums, n<{length}"]


def expect_metatiles(a: dict[str, str], cli_out: str, cli_code: int) -> tuple[str, list[str]]:
    m, t, max_tiles = int(a["m"]), int(a["t"]), int(a["max-tiles"])
    fmt = a.get("format", "text")
    if cli_code == 0:
        text = cli_out
        labels = json.loads(text) if fmt == "json" else [expand_metatile(s) for s in text.splitlines()]
        return text, check_metatiles(m, t, labels, max_tiles)
    labels = with_deep_stack(lambda: enumerate_metatiles(build_digraph(CombSpec(m, t)), max_tiles))
    engines = check_metatiles(m, t, labels, max_tiles)
    if fmt == "json":
        text = json.dumps(labels) + "\n"
    else:
        text = "".join(compress_metatile(label) + "\n" for label in labels)
    return text, ["same enumeration with a deep stack", *engines]


def expect_digraph(a: dict[str, str], cli_out: str) -> tuple[str, list[str]]:
    m, t = int(a["m"]), int(a["t"])
    if a.get("format", "dot") != "dot":
        try:
            analyze_structure(build_digraph(CombSpec(m, t)))
        except Exception as exc:
            raise Refusal(1, f"structure refused: {exc}") from None
        raise ValueError("only refused structures are catalogued for text and json")
    arcs = re.findall(r'"([01]+)" -> "([01]+)" \[label="([SC])"\]', cli_out)
    nodes = set(re.findall(r'^  "([01]+)" \[shape=', cli_out, flags=re.M))
    if len(nodes) != t ** (m - 1) or len(arcs) != 2 * len(nodes):
        raise AssertionError("digraph size is not t^(m-1) nodes with two arcs each")
    layers: list[dict[str, int]] = [dict() for _ in range(WALK_CHECK_LEN)]
    layers[0]["0"] = 1
    for n in range(WALK_CHECK_LEN):
        for src, dst, label in arcs:
            w = t if label == "C" else 1
            if src in layers[n] and n + w < WALK_CHECK_LEN:
                layers[n + w][dst] = layers[n + w].get(dst, 0) + layers[n][src]
    if [layer.get("0", 0) for layer in layers] != ClosedForm(m, t).cell_sums(WALK_CHECK_LEN):
        raise AssertionError("walks on the printed digraph disagree with the closed form")
    return cli_out, [f"closed form: cell walks on the printed graph, n<{WALK_CHECK_LEN}"]


def expect_recursion(a: dict[str, str], cli_out: str) -> tuple[str, list[str]]:
    m, t = int(a["m"]), int(a["t"])
    metric = Metric(a.get("metric", "tiles"))
    try:
        rel = synthesize(analyze_structure(build_digraph(CombSpec(m, t))), metric)
    except Exception as exc:
        raise Refusal(1, f"structure refused: {exc}") from None
    closed = ClosedForm(m, t)
    rows = 40
    table = closed.tile_triangle(rows) if metric is Metric.TILES else closed.board_triangle(rows)
    if "sums" in a:
        rel = project_row_sum(rel)
        if list(evaluate(rel, rows - 1)) != [sum(r) for r in table]:
            raise AssertionError("projected relation disagrees with the closed form")
    elif [list(r) for r in evaluate(rel, rows - 1).rows] != table:
        raise AssertionError("relation disagrees with the closed form")
    text = rel.to_json() if a.get("format") == "json" else rel.render()
    return text + "\n", [f"closed form: relation evaluated, n<{rows}"]


def expect_verify(cli_out: str, cli_code: int) -> tuple[str, list[str]]:
    if cli_code != 0:
        raise AssertionError("the identity suite fails")
    return cli_out, ["none reaches: every identity check passes"]


def reference(op: Op) -> dict:
    a = _args(op)
    t0 = time.perf_counter()
    code, out, err = run_cli(op)
    cli_s = time.perf_counter() - t0
    crashed = "Traceback (most recent call last)" in err
    try:
        if a["command"] == "triangle":
            expected, engines = expect_triangle(a)
        elif a["command"] == "sums":
            expected, engines = expect_sums(a)
        elif a["command"] == "subsets":
            expected, engines = expect_subsets(a)
        elif a["command"] == "metatiles":
            expected, engines = expect_metatiles(a, out, code)
        elif a["command"] == "digraph":
            expected, engines = expect_digraph(a, out)
        elif a["command"] == "recursion":
            expected, engines = expect_recursion(a, out)
        elif a["command"] == "verify":
            expected, engines = expect_verify(out, code)
        else:
            raise ValueError(f"no reference rule for {a['command']}")
        expected_code = 0
    except Refusal as refusal:
        expected, engines, expected_code = "", [str(refusal)], refusal.code
    data = expected.encode("utf-8")
    if crashed:
        at_build = "traceback: " + err.strip().splitlines()[-1]
    elif code != expected_code or out.encode("utf-8") != data:
        at_build = "wrong answer"
    else:
        at_build = "ok"
    return {
        "exit": expected_code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "validated_by": engines,
        "cli_at_build": at_build,
        "cli_s_at_build": round(cli_s, 4),
    }


def main() -> int:
    path = HERE / "references.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    refs = {}
    ops = all_ops()
    for i, op in enumerate(ops, 1):
        key = " ".join(op)
        if key in old:
            refs[key] = old[key]
            continue
        refs[key] = reference(op)
        if refs[key]["cli_at_build"] != "ok" or i % 100 == 0:
            print(f"[{i}/{len(ops)}] {key}: {refs[key]['cli_at_build']}", file=sys.stderr, flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
