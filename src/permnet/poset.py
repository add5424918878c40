"""The graded lattice of all networks sharing a source/sink signature.

Elements are ordered by edge-set inclusion and ranked by edge count.
Meet intersects edge sets; join unions them and adds
``network.forced_edges`` to a fixed point.  Covers are labeled by their
single new edge, edges are totally ordered by ``network.label_key``
(sink, then source descending), and that labeling supports
rising/decreasing chain analysis and two independent Mobius computations
(the textbook recursion and a closed form: mu(x, y) is 0 unless x holds
every edge forced in y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from .network import (
    DEFAULT_CAP,
    Edge,
    Network,
    NetworkError,
    Signature,
    check_signature,
    compatible,
    enumerate_networks,
    forced_edges,
    format_signature,
    label_key,
    max_network,
    sorted_edges,
    strip_neutral,
)

ElementRef = Union[int, Network]


def completion_pass(edges: frozenset[Edge]) -> frozenset[Edge]:
    """Add every edge forced by a crossing pair of ``edges``."""
    return edges | forced_edges(edges)


def completion_closure(edges: frozenset[Edge]) -> frozenset[Edge]:
    cur, nxt = None, frozenset(edges)
    while nxt != cur:
        cur, nxt = nxt, completion_pass(nxt)
    return cur


class LatticeError(ValueError):
    pass


@dataclass
class NetworkLattice:
    """All networks fitting a (zero-free) signature, with cover structure."""

    eps: Signature
    elements: tuple[Network, ...]
    index: dict[frozenset[Edge], int]
    ranks: tuple[int, ...]
    up_adj: tuple[tuple[tuple[int, Edge], ...], ...]
    label_rank: dict[Edge, int]
    up_masks: tuple[int, ...] = field(repr=False, default=())
    down_masks: tuple[int, ...] = field(repr=False, default=())
    _mobius_rows: dict[int, dict[int, int]] = field(default_factory=dict, repr=False)

    # -- element addressing --

    def idx(self, x: ElementRef) -> int:
        if isinstance(x, Network):
            try:
                return self.index[x.edges]
            except KeyError:
                raise LatticeError(f"network not in lattice: {x}") from None
        if not 0 <= x < len(self.elements):
            raise LatticeError(f"bad element index {x}")
        return x

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.index[max_network(self.eps).edges]

    def rank(self, x: ElementRef) -> int:
        return self.ranks[self.idx(x)]

    def leq(self, x: ElementRef, y: ElementRef) -> bool:
        xi, yi = self.idx(x), self.idx(y)
        return bool(self.down_masks[yi] >> xi & 1)

    def interval(self, x: ElementRef, y: ElementRef) -> list[int]:
        xi, yi = self.idx(x), self.idx(y)
        mask = self.up_masks[xi] & self.down_masks[yi]
        return sorted(_bits(mask), key=lambda z: (self.ranks[z], z))

    # -- lattice operations --

    def meet(self, x: ElementRef, y: ElementRef) -> Network:
        xi, yi = self.idx(x), self.idx(y)
        edges = self.elements[xi].edges & self.elements[yi].edges
        try:
            return self.elements[self.index[edges]]
        except KeyError:
            raise LatticeError(f"meet left the lattice: {sorted(edges)}") from None

    def join(self, x: ElementRef, y: ElementRef) -> Network:
        xi, yi = self.idx(x), self.idx(y)
        edges = completion_closure(self.elements[xi].edges | self.elements[yi].edges)
        try:
            return self.elements[self.index[edges]]
        except KeyError:
            raise LatticeError(f"join left the lattice: {sorted(edges)}") from None

    # -- edge labels and chains --

    def maximal_chains(
        self, x: ElementRef, y: ElementRef
    ) -> Iterator[tuple[Edge, ...]]:
        """All saturated chains from x to y, each as its tuple of cover
        labels (the edge each step adds)."""
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            return
        mask = self.up_masks[xi] & self.down_masks[yi]
        stack = [(xi, ())]
        while stack:
            z, labels = stack.pop()
            if z == yi:
                yield labels
                continue
            for w, e in self.up_adj[z]:
                if mask >> w & 1:
                    stack.append((w, labels + (e,)))

    def rising_chains(self, x: ElementRef, y: ElementRef) -> list[list[Network]]:
        """Maximal chains of [x, y] whose labels increase in the edge order."""
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            raise LatticeError("x not below y")
        mask = self.up_masks[xi] & self.down_masks[yi]
        out: list[list[Network]] = []

        def rec(z: int, last: int, acc: tuple[int, ...]) -> None:
            if z == yi:
                out.append([self.elements[i] for i in acc])
                return
            for w, e in self.up_adj[z]:
                if mask >> w & 1 and self.label_rank[e] > last:
                    rec(w, self.label_rank[e], acc + (w,))

        rec(xi, 0, (xi,))
        return out

    def lex_least_chain(self, x: ElementRef, y: ElementRef) -> tuple[int, ...]:
        """Greedy smallest-label maximal chain of [x, y]."""
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            raise LatticeError("x not below y")
        mask = self.up_masks[xi] & self.down_masks[yi]
        chain = [xi]
        z = xi
        while z != yi:
            steps = [
                (self.label_rank[e], w)
                for w, e in self.up_adj[z]
                if mask >> w & 1
            ]
            if not steps:
                raise LatticeError("interval is not graded upward")
            _r, z = min(steps)
            chain.append(z)
        return tuple(chain)

    def decreasing_chain_count(self, x: ElementRef, y: ElementRef) -> int:
        """Number of maximal chains of [x, y] with strictly decreasing labels."""
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            raise LatticeError("x not below y")
        mask = self.up_masks[xi] & self.down_masks[yi]

        def rec(z: int, last: int) -> int:
            if z == yi:
                return 1
            total = 0
            for w, e in self.up_adj[z]:
                if mask >> w & 1 and self.label_rank[e] < last:
                    total += rec(w, self.label_rank[e])
            return total

        return rec(xi, len(self.label_rank) + 1)

    def snelling_check(self, x: ElementRef, y: ElementRef) -> bool:
        """Every maximal chain's labels hit each interval edge exactly once,
        i.e. the rank map of each chain is a permutation."""
        xi, yi = self.idx(x), self.idx(y)
        want = self.elements[yi].edges - self.elements[xi].edges
        for labels in self.maximal_chains(xi, yi):
            if len(set(labels)) != len(labels) or set(labels) != want:
                return False
        return True

    # -- Mobius --

    def _mobius_row(self, xi: int) -> dict[int, int]:
        row = self._mobius_rows.get(xi)
        if row is not None:
            return row
        row = {}
        ups = sorted(_bits(self.up_masks[xi]), key=lambda z: (self.ranks[z], z))
        for z in ups:
            if z == xi:
                row[z] = 1
                continue
            m = self.up_masks[xi] & self.down_masks[z] & ~(1 << z)
            total = 0
            while m:
                b = m & -m
                total += row[b.bit_length() - 1]
                m ^= b
            row[z] = -total
        self._mobius_rows[xi] = row
        return row

    def mobius_recursive(self, x: ElementRef, y: ElementRef) -> int:
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            raise LatticeError("x not below y")
        return self._mobius_row(xi)[yi]

    def mobius_closed(self, x: ElementRef, y: ElementRef) -> int:
        """0 when y has a crossing-forced edge missing from x, else
        (-1) to the rank difference."""
        xi, yi = self.idx(x), self.idx(y)
        if not self.leq(xi, yi):
            raise LatticeError("x not below y")
        if not forced_edges(self.elements[yi].edges) <= self.elements[xi].edges:
            return 0
        return -1 if (self.ranks[yi] - self.ranks[xi]) % 2 else 1

    # -- output --

    def whitney(self) -> tuple[int, ...]:
        top = max(self.ranks, default=0)
        counts = [0] * (top + 1)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)

    def to_dot(self) -> str:
        lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
        for i, net in enumerate(self.elements):
            body = ",".join(f"({a},{b})" for a, b in sorted_edges(net)) or "empty"
            lines.append(f'  n{i} [label="{body}"];')
        arcs = []
        for i, _net in enumerate(self.elements):
            for w, e in self.up_adj[i]:
                arcs.append((i, w, self.label_rank[e]))
        for i, w, r in sorted(arcs):
            lines.append(f'  n{i} -> n{w} [label="{r}"];')
        lines.append("}")
        return "\n".join(lines)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def build_lattice(eps: Sequence[int], cap: int = DEFAULT_CAP) -> NetworkLattice:
    """Construct the lattice for ``eps`` (neutral points stripped first)."""
    eps = strip_neutral(check_signature(eps))
    n = len(eps)
    if n > cap:
        raise NetworkError("endpoint-range", f"signature length {n} exceeds cap {cap}")
    elements = tuple(enumerate_networks(n, eps, cap=cap))
    index = {net.edges: i for i, net in enumerate(elements)}
    ranks = tuple(net.rank for net in elements)
    top_edges = max_network(eps).edges
    if top_edges not in index:
        raise LatticeError("maximal network missing from enumeration")
    label_rank = {
        e: r
        for r, e in enumerate(sorted(top_edges, key=label_key), start=1)
    }
    up: list[list[tuple[int, Edge]]] = [[] for _ in elements]
    for yi, net in enumerate(elements):
        for e in net.edges:
            xi = index.get(net.edges - {e})
            if xi is not None:
                up[xi].append((yi, e))
    up_adj = tuple(tuple(sorted(a)) for a in up)
    # Elements come sorted by rank, so every cover runs to a larger index.
    down_masks = [1 << i for i in range(len(elements))]
    for i in range(len(elements)):
        for y, _e in up_adj[i]:
            down_masks[y] |= down_masks[i]
    up_masks = [1 << i for i in range(len(elements))]
    for i in reversed(range(len(elements))):
        for y, _e in up_adj[i]:
            up_masks[i] |= up_masks[y]
    return NetworkLattice(
        eps=eps,
        elements=elements,
        index=index,
        ranks=ranks,
        up_adj=up_adj,
        label_rank=label_rank,
        up_masks=tuple(up_masks),
        down_masks=tuple(down_masks),
    )


# -- Whitney numbers ---------------------------------------------------------


def _poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _poly_shift(a: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple([0] * k + list(a))


def poly_format(coeffs: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c} q" if c != 1 else "q")
        else:
            terms.append(f"{c} q^{i}" if c != 1 else f"q^{i}")
    return " + ".join(terms) if terms else "0"


def whitney_direct(
    eps: Sequence[int],
    cap: int = DEFAULT_CAP,
    networks: Optional[Sequence[Network]] = None,
) -> tuple[int, ...]:
    """Rank counts of the network lattice, by direct enumeration.

    ``networks`` may hold a pre-enumerated pool for the same point count
    (it is filtered by signature compatibility here).
    """
    eps = strip_neutral(check_signature(eps))
    if networks is None:
        nets = enumerate_networks(len(eps), eps, cap=cap)
    else:
        nets = [net for net in networks if compatible(net, eps)]
    top = max((net.rank for net in nets), default=0)
    counts = [0] * (top + 1)
    for net in nets:
        counts[net.rank] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _whitney_rec(eps: Signature) -> tuple[int, ...]:
    if -1 not in eps:
        return (1,)
    j = eps.index(-1) + 1
    suffix = eps[j:]
    total: tuple[int, ...] = ()
    head = list(range(1, j))
    for mask in range(1 << len(head)):
        chosen = [head[i] for i in range(len(head)) if mask >> i & 1]
        if chosen:
            lo = min(chosen)
            d = sum(1 for k in head if k not in chosen and k > lo)
        else:
            d = 0
        sub = (1,) * (j - 1 - d) + suffix
        part = _poly_shift(_whitney_rec(sub), len(chosen))
        total = _poly_add(total, part)
    return total


def whitney_recurrence(eps: Sequence[int]) -> tuple[int, ...]:
    """Rank generating coefficients via the first-sink deletion recurrence.

    Summing over the edge sets T into the first sink j: each T
    contributes q^{|T|} times the polynomial of the shorter signature in
    which sink j is gone and only the sources below min T survive among
    1..j-1.
    """
    eps = strip_neutral(check_signature(eps))
    return _whitney_rec(eps)


def boolean_check(eps: Sequence[int], cap: int = DEFAULT_CAP) -> bool:
    """True iff the fullest network for ``eps`` has no crossing edges.

    When true, the lattice must structurally be a Boolean lattice: size
    2^atoms and bottom-to-top Mobius value (-1)^rank; violations raise.
    """
    eps = strip_neutral(check_signature(eps))
    top = max_network(eps)
    if forced_edges(top.edges):
        return False
    lat = build_lattice(eps, cap=cap)
    atoms = len(top.edges)
    if len(lat.elements) != 1 << atoms:
        raise LatticeError(
            f"crossing-free signature {format_signature(eps)} gave "
            f"{len(lat.elements)} elements, expected {1 << atoms}"
        )
    mu = lat.mobius_recursive(lat.bottom, lat.top)
    if mu != (-1 if atoms % 2 else 1):
        raise LatticeError(f"Boolean lattice Mobius value {mu} at {atoms} atoms")
    return True
