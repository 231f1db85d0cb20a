"""Linear recursions read off the cycle structure of a metatile digraph.

The closed walks from node 0 have a rational generating function read off
the inner cycles, outer cycles and circuits, with any errant self-loop as
a factor 1 - e; one formula turns it into literal term lists (delta terms
and backward shifts), collected into a canonical form. Its one refusal is
an outer cycle through the errant loop's node. A direct dynamic program
over walks provides the same numbers with no structure hypothesis at all,
which is the cross-check. Both engines hold a triangle row as one integer
with a slot per comb count.
"""

from __future__ import annotations

from .core import CombSpec, Frozen, Metric, Triangle, TriangleKind, check_int
from .core import _slot_bytes, _slot_reader
from .digraph import CycleStructure, MetatileDigraph, UnsupportedStructureError


class RecursionRelation(Frozen):
    """B(n,k) = sum of delta terms + sum of coeff * B(n - dn, k - dk).

    References with n < 0 read as 0; a tracked k stays in its row, with
    0 <= k0 <= n0 and 0 <= dk <= dn. When tracks_k is false the k slot of
    every term is None and the relation is over a plain sequence B(n).
    """

    __slots__ = _fields = ("spec", "metric", "tracks_k", "delta_terms", "shift_terms")

    def __init__(
        self, spec: CombSpec, metric: Metric, tracks_k: bool,
        delta_terms: tuple[tuple[int, int | None, int], ...],
        shift_terms: tuple[tuple[int, int | None, int], ...],
    ) -> None:
        self._set(spec, metric, tracks_k, delta_terms, shift_terms)
        for n0, k0, coeff in self.delta_terms:
            if n0 < 0 or coeff == 0 or not self._k_within(k0, n0):
                raise ValueError(f"bad delta term ({n0},{k0},{coeff})")
        for dn, dk, coeff in self.shift_terms:
            if dn <= 0 or coeff == 0 or not self._k_within(dk, dn):
                raise ValueError(f"bad shift term ({dn},{dk},{coeff})")

    def _k_within(self, k: int | None, n: int) -> bool:
        return k is not None and 0 <= k <= n if self.tracks_k else k is None

    def render(self) -> str:
        head = "B(n,k)" if self.tracks_k else "B(n)"
        parts: list[str] = []

        def push(coeff: int, body: str) -> None:
            mag = abs(coeff)
            text = body if mag == 1 else f"{mag}{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")

        for n0, k0, coeff in self.delta_terms:
            push(coeff, f"δ({n0},{k0})" if self.tracks_k else f"δ({n0})")
        for dn, dk, coeff in self.shift_terms:
            if self.tracks_k:
                karg = "k" if dk == 0 else f"k-{dk}"
                push(coeff, f"B(n-{dn},{karg})")
            else:
                push(coeff, f"B(n-{dn})")
        if not parts:
            parts.append("0")
        return f"{head} = " + " ".join(parts)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "m": self.spec.m,
                "t": self.spec.t,
                "metric": self.metric.value,
                "tracks_k": self.tracks_k,
                "delta_terms": [list(term) for term in self.delta_terms],
                "shift_terms": [list(term) for term in self.shift_terms],
            },
            indent=2,
        )


def _collect(
    terms: list[tuple[int, int | None, int]]
) -> tuple[tuple[int, int | None, int], ...]:
    acc: dict[tuple[int, int | None], int] = {}
    for n, k, coeff in terms:
        acc[(n, k)] = acc.get((n, k), 0) + coeff
    kept = [(n, k, c) for (n, k), c in acc.items() if c != 0]
    kept.sort(key=lambda term: (term[0], term[1] if term[1] is not None else 0))
    return tuple(kept)


def synthesize(structure: CycleStructure, metric: Metric) -> RecursionRelation:
    """Turn a classified cycle structure into its recursion term lists over (n, k).

    Write a cycle as its monomial x^w y^k, w its tiles or cells and k its
    combs, and a set of cycles as their sum. The errant loop e (0 if there
    is none) may be walked any number of times: a factor 1/(1 - e) on each
    cycle through its node. Split the inner cycles I and circuits C into
    their plain parts I_P, C_P (``structure.plain``) and the rest I_Q, C_Q.
    With O the outer cycles, the closed walks from 0 have generating
    function N / D, where

        N = (1 - e)(1 - I_P) - I_Q,   D = N (1 - O) - (1 - e) C_P - C_Q,

    so B = N + (1 - D) B: the delta terms are N and the shift terms 1 - D.
    An outer cycle through the errant node would leave a 1/(1 - e) that
    does not cancel, so such a structure is refused.
    """
    plain = structure.plain
    if not all(map(plain, structure.outer_cycles)):
        raise UnsupportedStructureError("errant-loop synthesis needs every outer cycle plain")

    def sum_of(cycles) -> list[tuple[int, int, int]]:
        return [(c.n_cells if metric is Metric.CELLS else c.n_tiles, c.n_combs, 1) for c in cycles]

    def split(cycles):
        return sum_of(filter(plain, cycles)), sum_of(c for c in cycles if not plain(c))

    def minus(p, *qs):
        return p + [(n, k, -c) for q in qs for n, k, c in q]

    def times(p, q):
        return [(n1 + n2, k1 + k2, c1 * c2) for n1, k1, c1 in p for n2, k2, c2 in q]

    one = [(0, 0, 1)]
    loop = minus(one, sum_of([structure.errant] if structure.errant is not None else []))
    (inner_p, inner_q), (circ_p, circ_q) = split(structure.inner_cycles), split(structure.circuits)
    num = minus(times(loop, minus(one, inner_p)), inner_q)
    den = minus(times(num, minus(one, sum_of(structure.outer_cycles))), times(loop, circ_p), circ_q)
    spec = structure.digraph.spec
    return RecursionRelation(spec, metric, True, _collect(num), _collect(minus(one, den)))


def project_row_sum(rel: RecursionRelation) -> RecursionRelation:
    """Sum the relation over k, collapsing terms that land on the same shift."""
    if not rel.tracks_k:
        raise ValueError("relation already projected")
    deltas = [(n0, None, c) for n0, _, c in rel.delta_terms]
    shifts = [(dn, None, c) for dn, _, c in rel.shift_terms]
    return RecursionRelation(
        rel.spec, rel.metric, False, _collect(deltas), _collect(shifts)
    )


def evaluate(rel: RecursionRelation, n_max: int) -> Triangle | tuple[int, ...]:
    """Run the relation forward through n = n_max with exact integers.

    Row n is one integer R_n = sum over k of B(n,k) * 2^(w*k), as in
    :func:`walk_count`: the delta terms c << w*k0 at n0 = n plus
    c * R_(n-dn) << w*dk per shift term. A projected relation runs the same
    loop with w = 0. No triangle slot carries into the next: no term reaches
    past k = n (the constructor checks dk <= dn and k0 <= n0), so B_n(y) =
    sum over k of B(n,k) y^k obeys the relation as a polynomial identity and
    y = 2^w is a ring map, negative coefficients included. Entry (n, k)
    counts walks from 0 to 0 of weight n, so the slots of :func:`_slot_width`
    hold it: n_max + 1 bits on tiles, fewer on cells.
    """
    check_int("n_max", n_max, 0)
    packed = [0] * (n_max + 1)
    width = _slot_width(rel.spec, rel.metric, n_max) if rel.tracks_k else 0
    for n0, k0, coeff in rel.delta_terms:
        if n0 <= n_max:
            packed[n0] += coeff << 8 * width * (k0 or 0)
    shifts = [(dn, coeff, 8 * width * (dk or 0)) for dn, dk, coeff in rel.shift_terms]
    for n in range(n_max + 1):
        for dn, coeff, s in shifts:
            if dn <= n:
                packed[n] += (coeff * packed[n - dn]) << s
    if not rel.tracks_k:
        return tuple(packed)
    return _unpack(rel.spec, rel.metric.kind, packed, width)


def _unpack(spec: CombSpec, kind: TriangleKind, packed: list[int], width: int) -> Triangle:
    """The triangle whose row n sits in packed[n], entry k in slot k of width bytes.

    Each row is one read (``core._slot_reader``): one memoryview cast when
    the slots are word-sized, one ``int.from_bytes`` per entry when wider.
    packed is emptied as it is read, last row first, so the packed rows and
    the table they become are not held whole at once.
    """
    read = _slot_reader(width)
    rows = [read(packed.pop(), n + 1) for n in reversed(range(len(packed)))]
    rows.reverse()
    return Triangle(spec, kind, rows)


def _slot_width(spec: CombSpec, metric: Metric, n_max: int) -> int:
    """Bytes per slot that hold a count of walks of weight n <= n_max from any node.

    Every node has one S-arc, of weight 1, and one C-arc, of weight h: 1 on
    tiles, t on cells. Set c_0 = 1 and c_n = c_(n-1) + c_(n-h), with c_n = 0
    for n < 0. A walk of weight n >= 1 from a node is its first arc, then a
    walk of weight n - 1 or n - h from that arc's head. By induction on n,
    at most c_n walks of weight n start at any one node. On tiles c_n = 2^n;
    on cells it grows far slower. c_n rises with n, so c_(n_max) bounds
    them all; its bit length is rounded up to a slot size
    (``core._slot_bytes``).
    """
    if metric is Metric.TILES:
        return _slot_bytes(n_max + 1)  # c_n = 2^n, with no loop over n
    recent = [0] * (spec.t - 1) + [1]  # c_(n-t+1) .. c_n, from n = 0
    for _ in range(n_max):
        recent.append(recent[-1] + recent[-spec.t])
        del recent[0]
    return _slot_bytes(recent[-1].bit_length())


def _walks_home(dg: MetatileDigraph, metric: Metric, n_max: int, shift: int) -> list[int]:
    """W_n for n = 0..n_max: the walks 0 to 0 of weight n, each counted as 2^(shift*k).

    k is the walk's comb count. The dynamic program runs over node numbers
    and keeps only the layers a step from layer n can still reach: a square
    leads to layer n + 1, a comb to layer n + ``heavy``.
    """
    heavy = dg.spec.t if metric is Metric.CELLS else 1
    # at the top of step n, ahead[j] holds the walks of weight n + j
    ahead = [[0] * len(dg.nodes) for _ in range(heavy)]
    ahead[0][0] = 1
    home: list[int] = []
    for _ in range(n_max + 1):
        layer = ahead.pop(0)
        ahead.append([0] * len(dg.nodes))
        home.append(layer[0])
        near, far = ahead[0], ahead[heavy - 1]
        for count, s, c in zip(layer, dg.square, dg.comb):
            if count:
                near[s] += count
                far[c] += count << shift
    return home


def walk_count(dg: MetatileDigraph, metric: Metric, n_max: int) -> Triangle:
    """Count weighted walks 0 to 0 directly on the digraph, no synthesis.

    Arc weight is 1 tile or the arc's cell count; walks may pass through 0
    (a full tiling is a chain of metatiles). Works on any digraph, including
    ones whose cycle structure the synthesizer refuses.

    Row n is read off one integer (Kronecker substitution): every C-arc
    multiplies a count by 2^w, so W_n of ``_walks_home`` holds entry (n, k)
    in bits w*k .. w*k + w - 1. No slot carries into the next: slot k of the
    count at any node and weight n <= n_max counts some of the walks of
    weight n from 0, which :func:`_slot_width` bounds. Layers past weight
    n_max are never read.
    """
    check_int("n_max", n_max, 0)
    width = _slot_width(dg.spec, metric, n_max)
    return _unpack(dg.spec, metric.kind, _walks_home(dg, metric, n_max, 8 * width), width)


def walk_sums(dg: MetatileDigraph, metric: Metric, n_max: int) -> tuple[int, ...]:
    """Row sums of :func:`walk_count`: the same walks with no comb slots.

    No arc depends on the comb count k, so summing over it up front saves
    the factor of n that the packed slots of the triangle cost.
    """
    check_int("n_max", n_max, 0)
    return tuple(_walks_home(dg, metric, n_max, 0))
