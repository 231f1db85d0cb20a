"""State digraph whose walks from 0 back to 0 are exactly the metatiles.

A state of a partially built metatile is an int bitmask: bit i is set when
cell i, counted from the first empty cell, is occupied, so bit 0 is always
clear and the empty state is 0. A tile is a bitmask too, 1 for a square and
sum(1 << (i*m) for i < t) for a comb. Placing it at the first empty cell
sets its bits, and the state then shifts right past its trailing ones to the
next empty cell. An S-arc places a square, a C-arc a comb; every state has
one of each, so the digraph is two successor functions.

Nodes are numbered, with 0 for the empty state, and every search runs over
node numbers. Node labels are for display and tie-breaks only: a label is
the state's occupancy read from the first empty cell to the last occupied
one, as a string of 0s and 1s, so the empty state is "0". Cycle structure
of this digraph (inner cycles, outer cycles, common circuits, errant loops)
is what recursion synthesis consumes.
"""

from __future__ import annotations

import re

from .core import COMB, SQUARE, CombSpec, Frozen, UnsupportedStructureError, _comb_mask, check_int

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_COMB_RUN = re.escape(COMB) + "{2,}"

# exhaustive cycle/walk enumeration is exponential on larger digraphs; a
# fixed step budget turns a blow-up into a deterministic refusal
_STEP_BUDGET = 2_000_000
# a metatile listing holds its labels until it sorts them, about T^2/2 characters
# for T tiles on (2,3); a fixed bound on them (10,000 tiles fit) refuses past it
_LABEL_CHARS = 60_000_000

_NO_ANCHOR = "no common node and no errant loop restores one"


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
    """Labelled nodes, with the empty state "0" first, and their two successors.

    ``square[u]`` and ``comb[u]`` number the nodes that an S-arc and a C-arc
    lead to from node number u. An arc weighs one tile, and one cell for an
    S-arc or t cells for a C-arc. ``arcs`` builds the arcs as :class:`Arc`
    values, for output only.
    """

    __slots__ = _fields = ("spec", "nodes", "square", "comb")

    def __init__(
        self, spec: CombSpec, nodes: tuple[str, ...],
        square: tuple[int, ...], comb: tuple[int, ...],
    ) -> None:
        if not nodes or nodes[0] != "0":
            raise ValueError('the first node must be the empty state "0"')
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node label")
        for succ in (square, comb):
            if len(succ) != len(nodes) or min(succ) < 0 or max(succ) >= len(nodes):
                raise ValueError("each node needs one successor of each kind, by node number")
        self._set(spec, nodes, tuple(square), tuple(comb))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, by source node number, S before C."""
        nodes, t, out = self.nodes, self.spec.t, []
        for src, s, c in zip(nodes, self.square, self.comb):
            out += Arc(src, nodes[s], SQUARE, 1, 0), Arc(src, nodes[c], COMB, t, 1)
        return tuple(out)


class Cycle(Frozen):
    """A closed walk (or a circuit's 0-to-0 walk) that places tile label[i] at nodes[i]."""

    __slots__ = _fields = ("label", "nodes", "n_cells")

    def __init__(self, label: str, nodes: tuple[str, ...], n_cells: int) -> None:
        self._set(label, nodes, n_cells)

    @property
    def n_tiles(self) -> int:
        return len(self.label)

    @property
    def n_combs(self) -> int:
        return self.label.count(COMB)

    def visits(self, node: str) -> bool:
        return node in self.nodes


class CycleStructure(Frozen):
    """Cycles of a metatile digraph, classified by the anchor and errant loop of :func:`_anchor`.

    Exactly one of three shapes:
      - degenerate: no inner cycles at all (anchor and errant are None);
      - common: the anchor, the common node, is on every inner cycle;
      - pseudo: an errant self-loop is set aside, after which the anchor,
        the pseudo-common node, is on every remaining inner cycle.
    inner_cycles never includes the errant loop itself. Outer cycles pass
    through "0" and avoid the anchor; circuits pass through both.
    """

    __slots__ = _fields = ("digraph", "inner_cycles", "outer_cycles", "circuits",
                           "anchor", "errant")

    def __init__(
        self, digraph: MetatileDigraph, inner_cycles: tuple[Cycle, ...],
        outer_cycles: tuple[Cycle, ...], circuits: tuple[Cycle, ...],
        anchor: str | None = None, errant: Cycle | None = None,
    ) -> None:
        self._set(digraph, inner_cycles, outer_cycles, circuits, anchor, errant)

    @property
    def common_node(self) -> str | None:
        return self.anchor if self.errant is None else None

    @property
    def pseudo_common(self) -> str | None:
        return self.anchor if self.errant is not None else None

    @property
    def kind(self) -> str:
        if self.errant is not None:
            return "pseudo"
        return "common" if self.anchor is not None else "degenerate"

    def plain(self, cycle: Cycle) -> bool:
        """Whether cycle avoids the errant loop's node; every cycle does if there is none."""
        return self.errant is None or not cycle.visits(self.errant.nodes[0])

    def to_json(self) -> str:
        import json

        def dump(cycle: Cycle) -> dict:
            return {
                "labels": cycle.label,
                "nodes": list(cycle.nodes),
                "tiles": cycle.n_tiles,
                "combs": cycle.n_combs,
                "cells": cycle.n_cells,
                "plain": self.plain(cycle),
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


def build_digraph(spec: CombSpec) -> MetatileDigraph:
    """Closure of the tile-addition step from the empty state 0.

    Both tiles fit at every state: a square takes the first empty cell, and
    a comb anchored there meets no earlier tooth, since a tooth in its
    residue class would cover that cell (the proof is at
    ``oracle._tile_masks``). Nodes are sorted by label length, then label.
    """
    tiles = (1, _comb_mask(spec))
    number = {0: 0}  # state -> position in the search order
    states = [0]
    succ: tuple[list[int], list[int]] = ([], [])
    for state in states:
        for tile, dsts in zip(tiles, succ):
            nxt = state | tile
            # shift past the trailing ones, to the new first empty cell
            nxt >>= (~nxt & (nxt + 1)).bit_length() - 1
            v = number.setdefault(nxt, len(states))
            if v == len(states):
                states.append(nxt)
            dsts.append(v)
    names = [format(state, "b")[::-1] for state in states]
    order = sorted(range(len(states)), key=lambda i: (len(names[i]), names[i]))
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    square, comb = ([rank[dsts[i]] for i in order] for dsts in succ)
    return MetatileDigraph(spec, tuple([names[i] for i in order]), square, comb)


def _simple_paths(
    dg: MetatileDigraph, src: int, dst: int, budget: _Budget, what: str, floor: int = 0
) -> list[tuple[str, tuple[int, ...]]]:
    """All node-simple paths src to dst whose inner nodes are numbered >= floor.

    Each path is its tile labels and its source node numbers; with src ==
    dst the paths are the simple cycles through src. Arcs are tried depth
    first, S before C, one budget step each.
    """
    paths: list[tuple[str, tuple[int, ...]]] = []
    nodes = [src]
    labels: list[str] = []
    on_path = {src}
    # pending arcs (head, tile, position of the tail on the path), S on top
    stack = [(dg.comb[src], COMB, 0), (dg.square[src], SQUARE, 0)]
    while stack:
        v, tile, depth = stack.pop()
        while len(nodes) > depth + 1:
            on_path.remove(nodes.pop())
        del labels[depth:]
        if not budget.spend():
            raise UnsupportedStructureError(f"{what} enumeration exceeded the step budget")
        if v == dst:
            paths.append(("".join(labels) + tile, tuple(nodes)))
        elif v >= floor and v not in on_path:
            on_path.add(v)
            nodes.append(v)
            labels.append(tile)
            stack += ((dg.comb[v], COMB, depth + 1), (dg.square[v], SQUARE, depth + 1))
    return paths


def _sorted_cycles(dg: MetatileDigraph, paths: list[tuple[str, tuple[int, ...]]]) -> list[Cycle]:
    """Cycles of the closed paths, by tile count, then label, then node numbers."""
    paths.sort(key=lambda p: (len(p[0]), p[0], p[1]))
    nodes, wider = dg.nodes, dg.spec.t - 1  # a comb covers t cells, a square one
    return [
        Cycle(labels, tuple([nodes[u] for u in path]), len(labels) + wider * labels.count(COMB))
        for labels, path in paths
    ]


def _simple_cycles(dg: MetatileDigraph, budget: _Budget) -> list[Cycle]:
    """Every simple cycle once, rooted at its smallest-numbered node."""
    return _sorted_cycles(dg, [
        path
        for start in range(len(dg.nodes))
        for path in _simple_paths(dg, start, start, budget, "cycle", floor=start)
    ])


def _find_cycle(square: list[int], comb: list[int], skip: int = 0) -> list[int] | None:
    """Nodes of one cycle that avoids nodes 0 and skip, or None if there is none.

    An arc into node 0 lies on no such cycle, so pointing it at 0 sets it aside.
    """
    # True while on the DFS path, False once finished or left out, None before
    state: list[bool | None] = [None] * len(square)
    state[0] = state[skip] = False
    path: list[int] = []
    for root in range(len(square)):
        if state[root] is not None:
            continue
        # pending arcs (head, position of the tail on the path), S on top; the
        # root has no tail, so its entry first finishes the last root's path
        stack = [(root, -1)]
        while stack:
            v, depth = stack.pop()
            while len(path) > depth + 1:
                state[path.pop()] = False
            if state[v] is None:
                state[v] = True
                path.append(v)
                stack += ((comb[v], depth + 1), (square[v], depth + 1))
            elif state[v]:
                return path[path.index(v) :]
    return None


def _on_every_cycle(square: list[int], comb: list[int], cycle: list[int]) -> list[int]:
    """The nodes of cycle that lie on every cycle that :func:`_find_cycle` sees.

    Such a node lies on every cycle found, so each cycle that avoids a
    candidate cuts the candidates down to its own nodes.
    """
    candidates = set(cycle)
    found = []
    while candidates:
        v = candidates.pop()
        other = _find_cycle(square, comb, skip=v)
        if other is None:
            found.append(v)
        else:
            candidates.intersection_update(other)
    return found


def _anchor(dg: MetatileDigraph) -> tuple[int | None, int | None]:
    """Node numbers of the anchor and of the errant loop, if any.

    Inner cycles avoid "0". The anchor is the common node, on every inner
    cycle. Failing that, one self-loop is set aside as errant, C-loops
    before S-loops and each by node number, and the anchor is the
    pseudo-common node, on every inner cycle left. Ties go to the smallest
    label, not node number. With no inner cycle both are None.

    Decided on the inner subgraph by acyclicity tests, in time linear in
    its size per test (depth-first search, Tarjan 1972), instead of by
    listing every cycle: a node lies on every cycle exactly when removing
    it leaves no cycle. Raises UnsupportedStructureError when no node fits.
    """
    # copies, in which a loop is set aside by pointing it at node 0
    square, comb = list(dg.square), list(dg.comb)
    cycle = _find_cycle(square, comb)
    if cycle is None:
        return None, None
    common = _on_every_cycle(square, comb, cycle)
    if common:
        return min(common, key=dg.nodes.__getitem__), None
    for dsts in (comb, square):
        for e in [e for e, v in enumerate(dsts) if e and v == e]:
            # with the loop set aside, a node on every cycle left cannot be e,
            # or e would have been on every cycle already
            dsts[e] = 0
            cycle = _find_cycle(square, comb)
            shared = _on_every_cycle(square, comb, cycle) if cycle is not None else []
            dsts[e] = e
            if shared:
                return min(shared, key=dg.nodes.__getitem__), e
    raise UnsupportedStructureError(_NO_ANCHOR)


def analyze_structure(dg: MetatileDigraph) -> CycleStructure:
    """Classify the digraph's cycles around a common or pseudo-common node.

    The anchor and errant loop are those of :func:`_anchor`, chosen before
    any cycle is listed; the cycles are then listed only to report them.
    Outer cycles pass through "0" and avoid the anchor; circuits join each
    path from "0" to the anchor with each path back.

    Raises UnsupportedStructureError when no classification fits, or when
    listing the cycles of a structure that fits would exceed a fixed step
    budget.
    """
    a, e = _anchor(dg)
    budget = _Budget(_STEP_BUDGET)
    cycles = _simple_cycles(dg, budget)
    if a is None:
        return CycleStructure(dg, (), tuple(cycles), ())
    anchor = dg.nodes[a]
    # the errant loop is the one cycle on its node alone: a second loop there
    # would be an inner cycle that misses the pseudo-common node
    loop = (dg.nodes[e],) if e is not None else None
    inner = [c for c in cycles if not c.visits("0")]
    heads = _simple_paths(dg, 0, a, budget, "path")
    tails = _simple_paths(dg, a, 0, budget, "path")
    circuits = _sorted_cycles(dg, [
        (head + tail, head_nodes + tail_nodes)
        for head, head_nodes in heads
        for tail, tail_nodes in tails
    ])
    return CycleStructure(
        dg,
        tuple(c for c in inner if c.nodes != loop),
        tuple(c for c in cycles if c.visits("0") and not c.visits(anchor)),
        tuple(circuits),
        anchor,
        next((c for c in inner if c.nodes == loop), None),
    )


def enumerate_metatiles(dg: MetatileDigraph, max_tiles: int) -> list[str]:
    """Label strings of all walks 0 to 0 (not revisiting 0) with <= max_tiles arcs."""
    check_int("max_tiles", max_tiles, 1)
    budget, chars = _Budget(_STEP_BUDGET), _LABEL_CHARS
    square, comb = dg.square, dg.comb
    out: list[str] = []
    # stack[i] is the node that labels[1 : i + 1] reach, an int state with no object
    # per node (pending arcs as in _simple_paths measured 8-11% slower here): u while
    # its S-arc is next, ~u while its C-arc is, None once both are; labels[0] is ""
    labels = [""]
    stack: list[int | None] = [0]
    while stack:
        u = stack[-1]
        if u is None:
            stack.pop()
            labels.pop()
            continue
        if u >= 0:
            stack[-1], v, tile = ~u, square[u], SQUARE
        else:
            stack[-1], v, tile = None, comb[~u], COMB
        if not budget.spend():
            raise ValueError("metatile enumeration exceeded the step budget; lower max_tiles")
        if v == 0:
            chars -= len(labels)  # labels[0] is "", and tile ends the label
            if chars < 0:
                raise ValueError("metatile listing exceeded its character bound; lower max_tiles")
            out.append("".join(labels) + tile)
        elif len(labels) < max_tiles:
            labels.append(tile)
            stack.append(v)
    return sorted(out, key=lambda s: (len(s), s))


def compress_metatile(label: str) -> str:
    """Display form with comb runs shortened: CC becomes C squared, etc."""
    return re.sub(_COMB_RUN, lambda run: COMB + str(len(run[0])).translate(_SUPERSCRIPTS), label)


def metatile_to_tiling(spec: CombSpec, labels: str) -> oracle.Tiling:
    """Replay a label string as tile placements on a fresh board.

    Each tile goes at the leftmost empty cell, as in the oracle's tile
    search, so no two tiles overlap; the board is the cells covered, and
    they must run from cell 1 with no gap.
    """
    from .oracle import _tiling

    comb = _comb_mask(spec)
    occupied, anchors = 1, 0  # bit c is cell c; bit 0 is set
    for ch in labels:
        cell = ~occupied & (occupied + 1)  # the leftmost empty cell
        if ch == COMB:
            occupied |= comb * cell
            anchors |= cell
        elif ch == SQUARE:
            occupied |= cell
        else:
            raise ValueError(f"unknown tile kind {ch!r}")
    if occupied & (occupied + 1):
        raise ValueError("label string leaves a gap in the board")
    return _tiling(spec, occupied.bit_length() - 1, anchors)


def export_dot(dg: MetatileDigraph) -> str:
    """Fixed-format DOT rendering (stable across runs)."""
    lines = ["digraph metatiles {", "  rankdir=LR;", '  "0" [shape=doublecircle];']
    lines += [f'  "{node}" [shape=circle];' for node in dg.nodes[1:]]
    for src, s, c in zip(dg.nodes, dg.square, dg.comb):
        lines.append(f'  "{src}" -> "{dg.nodes[s]}" [label="{SQUARE}"];')
        lines.append(f'  "{src}" -> "{dg.nodes[c]}" [label="{COMB}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
