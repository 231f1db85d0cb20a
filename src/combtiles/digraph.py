"""State digraph whose walks from 0 back to 0 are exactly the metatiles.

A node is the occupancy string of a partially built metatile, read from the
first empty cell to the last occupied cell (so it starts with 0 and ends
with 1); the empty state is the single node "0". An S-arc fills the first
empty cell with a square, a C-arc anchors a comb there when none of its
teeth collide. Cycle structure of this digraph (inner cycles, outer cycles,
common circuits, errant loops) is what recursion synthesis consumes.
"""

from __future__ import annotations

import json
from collections import deque

from .core import CombSpec, Frozen, comb_cells
from .oracle import COMB, SQUARE, Tiling

_LABEL_ORDER = {SQUARE: 0, COMB: 1}
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")

# exhaustive cycle/walk enumeration is exponential on larger digraphs; a
# fixed step budget turns a blow-up into a deterministic refusal
_STEP_BUDGET = 2_000_000

_NO_ANCHOR = "no common node and no errant loop restores one"


class UnsupportedStructureError(RuntimeError):
    """The cycle taxonomy fits neither the common-node nor errant-loop pattern."""


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int) -> None:
        self.left = steps

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


class Arc(Frozen):
    # cell_weight: 1 for a square, t for a comb
    # comb_weight: 0 for a square, 1 for a comb
    __slots__ = _fields = ("src", "dst", "label", "cell_weight", "comb_weight")

    def __init__(
        self, src: str, dst: str, label: str, cell_weight: int, comb_weight: int
    ) -> None:
        self._set(src, dst, label, cell_weight, comb_weight)


class MetatileDigraph(Frozen):
    """Nodes and arcs; equality, hashing and ``repr`` leave out the two lookups."""

    _fields = ("spec", "nodes", "arcs")
    __slots__ = _fields + ("node_index", "arcs_from")

    def __init__(self, spec: CombSpec, nodes: tuple[str, ...], arcs: tuple[Arc, ...]) -> None:
        index = {node: i for i, node in enumerate(nodes)}
        table: dict[str, list[Arc]] = {node: [] for node in nodes}
        for arc in arcs:
            table[arc.src].append(arc)
        self._set(spec, nodes, arcs, index, {n: tuple(out) for n, out in table.items()})


class Cycle(Frozen):
    """A closed walk (or, for circuits, a 0-to-0 walk) as its arc sequence."""

    __slots__ = _fields = ("arcs", "plain")

    def __init__(self, arcs: tuple[Arc, ...], plain: bool = True) -> None:
        self._set(arcs, plain)

    @property
    def n_tiles(self) -> int:
        return len(self.arcs)

    @property
    def n_combs(self) -> int:
        return sum(arc.comb_weight for arc in self.arcs)

    @property
    def n_cells(self) -> int:
        return sum(arc.cell_weight for arc in self.arcs)

    @property
    def label(self) -> str:
        return "".join(arc.label for arc in self.arcs)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(arc.src for arc in self.arcs)

    def visits(self, node: str) -> bool:
        return any(arc.src == node for arc in self.arcs)


class CycleStructure(Frozen):
    """Classified cycles of a metatile digraph.

    Exactly one of three shapes:
      - degenerate: no inner cycles at all (common_node and errant are None);
      - common: common_node is on every inner cycle;
      - pseudo: an errant self-loop at node E is set aside, after which
        pseudo_common is on every remaining inner cycle.
    inner_cycles never includes the errant loop itself. Outer cycles pass
    through "0" and avoid the anchor node; circuits pass through both.
    """

    __slots__ = _fields = ("digraph", "inner_cycles", "outer_cycles", "circuits",
                           "common_node", "pseudo_common", "errant")

    def __init__(
        self, digraph: MetatileDigraph, inner_cycles: tuple[Cycle, ...],
        outer_cycles: tuple[Cycle, ...], circuits: tuple[Cycle, ...],
        common_node: str | None = None, pseudo_common: str | None = None,
        errant: Cycle | None = None,
    ) -> None:
        self._set(
            digraph, inner_cycles, outer_cycles, circuits, common_node, pseudo_common, errant
        )

    @property
    def anchor(self) -> str | None:
        return self.common_node if self.common_node is not None else self.pseudo_common

    @property
    def errant_node(self) -> str | None:
        return self.errant.arcs[0].src if self.errant is not None else None

    @property
    def kind(self) -> str:
        if self.errant is not None:
            return "pseudo"
        if self.inner_cycles:
            return "common"
        return "degenerate"

    @property
    def finite_metatiles(self) -> bool:
        # no cycle avoids "0", so every metatile is a simple cycle
        return not self.inner_cycles and self.errant is None

    def to_json(self) -> str:
        def dump(cycle: Cycle) -> dict:
            return {
                "labels": cycle.label,
                "nodes": list(cycle.nodes),
                "tiles": cycle.n_tiles,
                "combs": cycle.n_combs,
                "cells": cycle.n_cells,
                "plain": cycle.plain,
            }

        payload = {
            "m": self.digraph.spec.m,
            "t": self.digraph.spec.t,
            "kind": self.kind,
            "common_node": self.common_node,
            "pseudo_common": self.pseudo_common,
            "errant": dump(self.errant) if self.errant is not None else None,
            "inner_cycles": [dump(c) for c in self.inner_cycles],
            "outer_cycles": [dump(c) for c in self.outer_cycles],
            "circuits": [dump(c) for c in self.circuits],
        }
        return json.dumps(payload, indent=2)


def _successor(spec: CombSpec, state: str, label: str) -> str | None:
    """State reached by adding one tile at the first empty cell, or None."""
    window = [] if state == "0" else [ch == "1" for ch in state]
    if label == SQUARE:
        offsets = [0]
    elif label == COMB:
        offsets = [i * spec.m for i in range(spec.t)]
    else:
        raise ValueError(f"unknown tile kind {label!r}")
    need = offsets[-1] + 1
    if len(window) < need:
        window.extend([False] * (need - len(window)))
    if any(window[off] for off in offsets):
        return None
    for off in offsets:
        window[off] = True
    if all(window):
        return "0"
    first_empty = window.index(False)
    last_filled = max(i for i, b in enumerate(window) if b)
    if last_filled < first_empty:
        return "0"
    return "".join("1" if b else "0" for b in window[first_empty : last_filled + 1])


def build_digraph(spec: CombSpec) -> MetatileDigraph:
    """Closure of the tile-addition step from the empty state "0"."""
    seen = {"0"}
    queue = deque(["0"])
    raw: list[tuple[str, str, str]] = []
    while queue:
        u = queue.popleft()
        for label in (SQUARE, COMB):
            v = _successor(spec, u, label)
            if v is None:
                continue
            raw.append((u, v, label))
            if v not in seen:
                seen.add(v)
                queue.append(v)
    nodes = ["0"] + sorted((n for n in seen if n != "0"), key=lambda s: (len(s), s))
    index = {n: i for i, n in enumerate(nodes)}
    arcs = sorted(
        (
            Arc(
                u,
                v,
                label,
                spec.t if label == COMB else 1,
                1 if label == COMB else 0,
            )
            for u, v, label in raw
        ),
        key=lambda a: (index[a.src], _LABEL_ORDER[a.label], index[a.dst]),
    )
    return MetatileDigraph(spec, tuple(nodes), tuple(arcs))


def _cycle_sort_key(dg: MetatileDigraph, cycle: Cycle) -> tuple:
    return (
        cycle.n_tiles,
        cycle.label,
        tuple(dg.node_index[n] for n in cycle.nodes),
    )


def _simple_cycles(dg: MetatileDigraph, budget: _Budget) -> list[Cycle]:
    """Every simple cycle once, rooted at its smallest-index node."""
    cycles: list[Cycle] = []
    index = dg.node_index
    for si, start in enumerate(dg.nodes):
        # stack[0] iterates the arcs out of start, stack[i] those out of path[i-1].dst
        path: list[Arc] = []
        on_path: set[str] = set()
        stack = [iter(dg.arcs_from[start])]
        while stack:
            arc = next(stack[-1], None)
            if arc is None:
                stack.pop()
                if path:
                    on_path.remove(path.pop().dst)
                continue
            if not budget.spend():
                raise UnsupportedStructureError(
                    "cycle enumeration exceeded the step budget"
                )
            v = arc.dst
            if v == start:
                cycles.append(Cycle(tuple(path) + (arc,)))
                continue
            if index[v] < si or v in on_path:
                continue
            on_path.add(v)
            path.append(arc)
            stack.append(iter(dg.arcs_from[v]))
    return sorted(cycles, key=lambda c: _cycle_sort_key(dg, c))


def _simple_paths(dg: MetatileDigraph, src: str, dst: str, budget: _Budget) -> list[Cycle]:
    """All node-simple paths src to dst (src != dst), as arc sequences."""
    paths: list[Cycle] = []
    path: list[Arc] = []
    visited = {src}
    stack = [iter(dg.arcs_from[src])]
    while stack:
        arc = next(stack[-1], None)
        if arc is None:
            stack.pop()
            if path:
                visited.remove(path.pop().dst)
            continue
        if not budget.spend():
            raise UnsupportedStructureError("path enumeration exceeded the step budget")
        v = arc.dst
        if v == dst:
            paths.append(Cycle(tuple(path) + (arc,)))
            continue
        if v in visited:
            continue
        visited.add(v)
        path.append(arc)
        stack.append(iter(dg.arcs_from[v]))
    return paths


def _find_cycle(succ: dict[str, list[str]], skip: str | None = None) -> list[str] | None:
    """Nodes of one cycle of succ that avoids node skip, or None if there is none."""
    state: dict[str, bool] = {}  # True while on the DFS path, False once finished
    for root in succ:
        if root == skip or root in state:
            continue
        # stack[i] iterates the successors of path[i]
        path = [root]
        state[root] = True
        stack = [iter(succ[root])]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                state[path.pop()] = False
            elif v == skip:
                continue
            elif v not in state:
                state[v] = True
                path.append(v)
                stack.append(iter(succ[v]))
            elif state[v]:
                return path[path.index(v) :]
    return None


def _on_every_cycle(succ: dict[str, list[str]], cycle: list[str]) -> bool:
    """Whether some node of cycle lies on every cycle of succ.

    Such a node lies on every cycle found, so each cycle that avoids a
    candidate cuts the candidates down to its own nodes.
    """
    candidates = set(cycle)
    while candidates:
        v = min(candidates)
        other = _find_cycle(succ, skip=v)
        if other is None:
            return True
        candidates.intersection_update(other)
    return False


def _anchor_exists(dg: MetatileDigraph) -> bool:
    """Whether analyze_structure finds a common or pseudo-common node.

    Decided on the inner subgraph (without "0") by acyclicity tests, in
    time linear in its size per test (depth-first search, Tarjan 1972),
    instead of by listing every cycle: a node lies on every cycle exactly
    when removing it leaves no cycle.
    """
    succ = {
        node: [arc.dst for arc in dg.arcs_from[node] if arc.dst != "0"]
        for node in dg.nodes
        if node != "0"
    }
    cycle = _find_cycle(succ)
    if cycle is None or _on_every_cycle(succ, cycle):
        return True
    for e, dsts in succ.items():
        if e not in dsts:
            continue
        # set one self-loop at e aside, as an errant loop; no node found
        # now can be e, or e would have been on every cycle already
        rest = list(dsts)
        rest.remove(e)
        succ[e] = rest
        cycle = _find_cycle(succ)
        found = cycle is not None and _on_every_cycle(succ, cycle)
        succ[e] = dsts
        if found:
            return True
    return False


def analyze_structure(dg: MetatileDigraph) -> CycleStructure:
    """Classify the digraph's cycles around a common or pseudo-common node.

    Inner cycles avoid "0". If some node lies on all of them it is the
    common node (ties broken by smallest state string). Failing that, each
    self-loop off "0" is tried as an errant loop: removing it must leave a
    nonempty set of inner cycles sharing a node other than the loop's own.
    Outer cycles and circuits are then computed relative to the chosen node.

    Raises UnsupportedStructureError when no classification fits, which is
    decided before any cycle is enumerated, or when enumerating the cycles
    of a structure that fits would exceed a fixed step budget.
    """
    if not _anchor_exists(dg):
        raise UnsupportedStructureError(_NO_ANCHOR)
    budget = _Budget(_STEP_BUDGET)
    cycles = _simple_cycles(dg, budget)
    inner = [c for c in cycles if not c.visits("0")]
    zero_cycles = [c for c in cycles if c.visits("0")]

    if not inner:
        return CycleStructure(dg, (), tuple(zero_cycles), ())

    errant: Cycle | None = None
    common = set.intersection(*(set(c.nodes) for c in inner))
    if common:
        anchor = min(common)
        kept = inner
    else:
        for cand in inner:
            if cand.n_tiles != 1 or cand.arcs[0].src != cand.arcs[0].dst:
                continue
            rest = [c for c in inner if c is not cand]
            if not rest:
                continue
            shared = set.intersection(*(set(c.nodes) for c in rest))
            shared -= {cand.arcs[0].src}
            if shared:
                errant = cand
                anchor = min(shared)
                kept = rest
                break
        else:
            raise UnsupportedStructureError(_NO_ANCHOR)

    e_node = errant.arcs[0].src if errant is not None else None

    def finish(cycle: Cycle) -> Cycle:
        if e_node is None:
            return cycle
        return cycle.replace(plain=not cycle.visits(e_node))

    outer = [finish(c) for c in zero_cycles if not c.visits(anchor)]
    circuits = []
    seen_arcseqs = set()
    for head in _simple_paths(dg, "0", anchor, budget):
        for tail in _simple_paths(dg, anchor, "0", budget):
            arcs = head.arcs + tail.arcs
            if arcs in seen_arcseqs:
                continue
            seen_arcseqs.add(arcs)
            circuits.append(finish(Cycle(arcs)))
    circuits.sort(key=lambda c: _cycle_sort_key(dg, c))
    return CycleStructure(
        dg,
        tuple(finish(c) for c in kept),
        tuple(outer),
        tuple(circuits),
        common_node=anchor if errant is None else None,
        pseudo_common=anchor if errant is not None else None,
        errant=errant.replace(plain=False) if errant is not None else None,
    )


def enumerate_metatiles(dg: MetatileDigraph, max_tiles: int) -> list[str]:
    """Label strings of all walks 0 to 0 (not revisiting 0) with <= max_tiles arcs."""
    if max_tiles < 1:
        raise ValueError("max_tiles must be >= 1")
    budget = _Budget(_STEP_BUDGET)
    out: list[str] = []
    labels: list[str] = []
    # stack[i] iterates the arcs out of the node reached by labels[:i]
    stack = [iter(dg.arcs_from["0"])]
    while stack:
        arc = next(stack[-1], None)
        if arc is None:
            stack.pop()
            if labels:
                labels.pop()
            continue
        if not budget.spend():
            raise ValueError(
                "metatile enumeration exceeded the step budget; lower max_tiles"
            )
        if arc.dst == "0":
            out.append("".join(labels) + arc.label)
        elif len(labels) + 1 < max_tiles:
            labels.append(arc.label)
            stack.append(iter(dg.arcs_from[arc.dst]))
    return sorted(out, key=lambda s: (len(s), s))


def compress_metatile(label: str) -> str:
    """Display form with comb runs shortened: CC becomes C squared, etc."""
    out: list[str] = []
    i = 0
    while i < len(label):
        ch = label[i]
        j = i
        while j < len(label) and label[j] == ch:
            j += 1
        run = j - i
        if ch == COMB and run > 1:
            out.append(ch + str(run).translate(_SUPERSCRIPTS))
        else:
            out.append(ch * run)
        i = j
    return "".join(out)


def metatile_to_tiling(spec: CombSpec, labels: str) -> Tiling:
    """Replay a label string as tile placements on a fresh board."""
    occupied: set[int] = set()
    placements: list[tuple[str, int]] = []
    frontier = 1
    last = 0
    for ch in labels:
        if ch == SQUARE:
            cells = frozenset({frontier})
        elif ch == COMB:
            cells = comb_cells(spec, frontier)
        else:
            raise ValueError(f"unknown tile kind {ch!r}")
        if occupied & cells:
            raise ValueError("label string places overlapping tiles")
        occupied |= cells
        placements.append((ch, frontier))
        last = max(last, max(cells))
        while frontier in occupied:
            frontier += 1
    if frontier != last + 1:
        raise ValueError("label string leaves a gap in the board")
    return Tiling(spec, last, tuple(placements))


def export_dot(dg: MetatileDigraph) -> str:
    """Fixed-format DOT rendering (stable across runs)."""
    lines = ["digraph metatiles {", "  rankdir=LR;"]
    for node in dg.nodes:
        shape = "doublecircle" if node == "0" else "circle"
        lines.append(f'  "{node}" [shape={shape}];')
    for arc in dg.arcs:
        lines.append(f'  "{arc.src}" -> "{arc.dst}" [label="{arc.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
