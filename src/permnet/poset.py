"""The graded lattice of all networks sharing a source/sink signature.

Elements are ordered by edge-set inclusion and ranked by edge count.
Edges are totally ordered by ``network.label_key`` (sink, then source
descending); edge number r in that order is bit r - 1 of an element's
int edge mask, and ``mask_index`` maps each mask back to its element.
Covers are the masks one bit apart, labeled by their new edge; meet is
``&``.  One forcing table per signature, from ``forced_edges`` on pairs
of the fullest network's edges, holds per edge bit the masks ``into``
and ``out`` that force it.  It serves the join (``|`` plus one forcing
pass), the Mobius closed form (mu(x, y) is 0 unless x holds every edge
the table forces in y, else (-1) to the rank difference) and the walk
over int masks that lists a signature's networks for the direct
Whitney count, ``signature_networks`` (so ``signature_lattice``) and
``write_hasse``, which finds covers by one-bit lookups on the masks;
``build_lattice`` scans n! words instead.  One forcing pass closes a
union, since forced edges force nothing new: (j, k) is forced when the
smallest source into k lies below j and the largest sink out of j lies
above k, and adding (j, k) moves neither of those two tables.  Each
element's forced mask is computed once per lattice, for the closed form.
One cached row per bottom x, walked once over up(x) in rank order, holds
for every y above x the Mobius value mu(x, y) by the recursion on the
order masks, the rising and decreasing chain counts, and the lex-least
label word of [x, y].  The chain counts are kept per last label as
sparse dicts, which hold only the labels some counted chain ends with:
on an EL-labeled lattice at most one each, as an interval has one
rising chain and |mu| decreasing ones.  With a Snelling check (every
cover adds its label's edge, and the order is inclusion) these give the
EL route and three independent Mobius routes: recursion, closed form and
decreasing chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_
from typing import Callable, Iterator, Optional, Sequence

from .network import (
    Edge,
    Network,
    Signature,
    check_signature,
    enumerate_networks,
    forced_edges,
    label_key,
    max_network,
    strip_neutral,
)


class LatticeError(ValueError):
    pass


def _cache():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass
class NetworkLattice:
    """All networks fitting a (zero-free) signature, with cover structure.
    Elements are sorted by rank: ascending index is rank order, and every
    cover runs to a larger index."""

    eps: Signature
    elements: tuple[Network, ...]
    ranks: tuple[int, ...]
    up_adj: tuple[tuple[tuple[int, Edge], ...], ...]
    label_rank: dict[Edge, int]
    edge_masks: tuple[int, ...]
    mask_index: dict[int, int]
    up_masks: tuple[int, ...] = field(repr=False, default=())
    down_masks: tuple[int, ...] = field(repr=False, default=())
    _forced_by: tuple[tuple[int, int, int], ...] = field(repr=False, default=())
    _snelling: Optional[bool] = _cache()
    _forced_masks: Optional[tuple[int, ...]] = _cache()
    _row_last: Optional[tuple[int, tuple[dict, dict, dict, dict]]] = _cache()

    # -- element addressing --

    def idx(self, x: int) -> int:
        if not 0 <= x < len(self.elements):
            raise LatticeError(f"bad element index {x}")
        return x

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.mask_index[(1 << len(self.label_rank)) - 1]

    # -- lattice operations --

    def _forced(self, mask: int) -> int:
        """The edges that crossing pairs inside ``mask`` force, as a mask."""
        forced = 0
        for f, into, out in self._forced_by:
            if mask & into and mask & out:
                forced |= f
        return forced

    def meet_index(self, xi: int, yi: int) -> Optional[int]:
        """Meet of two element indices (not range-checked), as an index;
        None if the intersection is not an element."""
        return self.mask_index.get(self.edge_masks[xi] & self.edge_masks[yi])

    def join_index(self, xi: int, yi: int) -> Optional[int]:
        """Join of two element indices (not range-checked), as an index:
        the union plus the edges it forces, which force nothing more;
        None if that is not an element."""
        union = self.edge_masks[xi] | self.edge_masks[yi]
        return self.mask_index.get(union | self._forced(union))

    def join(self, x: int, y: int) -> Network:
        j = self.join_index(self.idx(x), self.idx(y))
        if j is None:
            raise LatticeError(f"join of {x} and {y} left the lattice")
        return self.elements[j]

    # -- edge labels and chains --

    def _interval(self, x: int, y: int) -> tuple[int, int]:
        n = len(self.elements)
        if not (0 <= x < n and 0 <= y < n):
            self.idx(x), self.idx(y)  # raises "bad element index" for the first
        if not self.down_masks[y] >> x & 1:
            raise LatticeError("x not below y")
        return x, y

    def _row(self, xi: int) -> tuple[dict, dict, dict, dict]:
        """For every y above x: mu(x, y) by the recursion, the rising and
        decreasing maximal chains of [x, y] as sparse dicts from last label
        to count (x's empty chain ends at 0 for rising, at len(labels) + 1
        for decreasing; a label no counted chain ends with has no key), and
        the lex-least label word; one walk over up(x) in index order, which
        is rank order."""
        last = self._row_last
        if last is not None and last[0] == xi:
            return last[1]
        up_adj, label_rank, down_masks = self.up_adj, self.label_rank, self.down_masks
        mobius: dict[int, int] = {}
        valued: dict[int, int] = {}  # mask of the elements given each nonzero mu
        values = valued.items()  # a live view: it sees each new value
        rising: dict[int, dict[int, int]] = {xi: {0: 1}}
        falling: dict[int, dict[int, int]] = {xi: {len(label_rank) + 1: 1}}
        lexmin: dict[int, tuple[int, ...]] = {xi: ()}
        for z in _bits(self.up_masks[xi]):
            mu = 1 if z == xi else 0
            down = down_masks[z]  # valued holds only elements of up(x) before z
            for v, m in values:
                mu -= v * (m & down).bit_count()
            mobius[z] = mu
            if mu:
                valued[mu] = valued.get(mu, 0) | 1 << z
            rz, fz, lz = rising[z].items(), falling[z].items(), lexmin[z]
            for w, e in up_adj[z]:
                r = label_rank[e]
                # Graded, so every word into w has the same length and the
                # least one extends the least word into some lower cover.
                word = lz + (r,)
                if w in lexmin:
                    rw, fw = rising[w], falling[w]
                    if word < lexmin[w]:
                        lexmin[w] = word
                else:
                    rw, fw = rising[w], falling[w] = {}, {}
                    lexmin[w] = word
                for s, c in rz:  # counts are never 0, so a key is a chain end
                    if s < r:
                        rw[r] = rw.get(r, 0) + c
                for s, c in fz:
                    if s > r:
                        fw[r] = fw.get(r, 0) + c
        row = mobius, rising, falling, lexmin
        self._row_last = (xi, row)
        return row

    def rising_chains(self, x: int, y: int) -> int:
        """Number of maximal chains of [x, y] whose labels increase in the
        edge order."""
        xi, yi = self._interval(x, y)
        return sum(self._row(xi)[1][yi].values())

    def decreasing_chain_count(self, x: int, y: int) -> int:
        """Number of maximal chains of [x, y] with strictly decreasing labels."""
        xi, yi = self._interval(x, y)
        return sum(self._row(xi)[2][yi].values())

    def lex_least_labels(self, x: int, y: int) -> tuple[int, ...]:
        """The lexicographically least label word (label ranks, bottom
        first) over the maximal chains of [x, y]."""
        xi, yi = self._interval(x, y)
        return self._row(xi)[3][yi]

    def snelling_check(self, x: int, y: int) -> bool:
        """Every cover adds exactly its label's edge, and the order is
        edge-set inclusion; so every maximal chain of [x, y] permutes the
        edges of y - x.  Neither depends on the interval, so both are
        tested once per lattice."""
        self._interval(x, y)
        if self._snelling is None:
            masks, rank = self.edge_masks, self.label_rank
            covers_ok = all(masks[z] | 1 << rank[e] - 1 == masks[w] != masks[z]
                            for z, up in enumerate(self.up_adj) for w, e in up)
            # down(y) must be exactly the elements lacking every edge outside y.
            full = (1 << len(rank)) - 1
            lacking = [sum(1 << i for i, m in enumerate(masks) if not m >> b & 1)
                       for b in range(len(rank))]
            self._snelling = covers_ok and self.down_masks == tuple(
                reduce(and_, [lacking[b] for b in _bits(m ^ full)], (1 << len(masks)) - 1)
                for m in masks
            )
        return self._snelling

    # -- Mobius --

    def mobius_recursive(self, x: int, y: int) -> int:
        xi, yi = self._interval(x, y)
        return self._row(xi)[0][yi]

    def mobius_closed(self, x: int, y: int) -> int:
        """0 if y has a forced edge that x lacks, else (-1) to the rank
        difference; each element's forced mask is found once per lattice."""
        xi, yi = self._interval(x, y)
        if self._forced_masks is None:
            self._forced_masks = tuple(map(self._forced, self.edge_masks))
        if self._forced_masks[yi] & ~self.edge_masks[xi]:
            return 0
        return -1 if (self.ranks[yi] - self.ranks[xi]) % 2 else 1


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def build_lattice(eps: Sequence[int]) -> NetworkLattice:
    """The lattice for ``eps`` (neutral points stripped first) from the n! word
    scan ``enumerate_networks``, which refuses lengths past its cap; it is
    ``signature_lattice``'s oracle in the tests, and the ``mobius`` verb's."""
    return _lattice(eps, lambda e: enumerate_networks(len(e), e))


def signature_lattice(eps: Sequence[int]) -> NetworkLattice:
    """``build_lattice``'s lattice from ``signature_networks``, no word peeled.
    Each element still passes ``Network`` validation, whose crossing test
    does not read the forcing table."""
    return _lattice(eps, signature_networks)


def _lattice(eps: Sequence[int], networks: Callable[[Signature], list]) -> NetworkLattice:
    """The lattice of ``eps``, neutral points stripped, on ``networks(eps)`` in scan order."""
    eps = strip_neutral(check_signature(eps))
    elements = tuple(networks(eps))
    ranks = tuple(net.rank for net in elements)
    labels = sorted(max_network(eps).edges, key=label_key)
    label_rank = {e: r for r, e in enumerate(labels, start=1)}
    edge_masks = tuple(sum(1 << label_rank[e] - 1 for e in net.edges) for net in elements)
    mask_index, up = _covers(edge_masks, labels)
    if (1 << len(labels)) - 1 not in mask_index:
        raise LatticeError("maximal network missing from enumeration")
    up_adj = tuple(map(tuple, up))
    up_masks, down_masks = _order_masks(up_adj)
    return NetworkLattice(
        eps=eps,
        elements=elements,
        ranks=ranks,
        up_adj=up_adj,
        label_rank=label_rank,
        edge_masks=edge_masks,
        mask_index=mask_index,
        up_masks=up_masks,
        down_masks=down_masks,
        _forced_by=tuple((1 << b, i, o) for b, (i, o) in enumerate(_forcing_table(labels)) if i),
    )


def _covers(masks: Sequence[int], labels: Sequence) -> tuple[dict[int, int], list[list]]:
    """Each mask's index, and per index its upper covers (index, labels[b]),
    b the bit the cover adds; masks sorted by rank give sorted lists."""
    mask_index = {m: i for i, m in enumerate(masks)}
    up: list[list] = [[] for _ in masks]
    for yi, m in enumerate(masks):
        for b in _bits(m):
            xi = mask_index.get(m ^ 1 << b)
            if xi is not None:
                up[xi].append((yi, labels[b]))
    return mask_index, up


def _forcing_table(labels: Sequence[Edge]) -> tuple[tuple[int, int], ...]:
    """Entry b holds the masks (into, out) whose meeting forces the edge
    (j, k) at bit b of ``labels``: edges (i, k), i < j, and (j, l), l > k;
    (0, 0) if nothing forces it.  Each pair goes through ``forced_edges``."""
    bit = {e: b for b, e in enumerate(labels)}
    table = [(0, 0)] * len(labels)
    for a, c in combinations(sorted(labels), 2):
        for f in forced_edges((a, c)):  # a = (i, k) and c = (j, l)
            into, out = table[bit[f]]
            table[bit[f]] = (into | 1 << bit[a], out | 1 << bit[c])
    return tuple(table)


def _order_masks(
    up_adj: Sequence[Sequence[tuple[int, Edge]]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets of the elements above and below each element, from the
    covers, which run to larger indices."""
    down_masks = [1 << i for i in range(len(up_adj))]
    for i in range(len(up_adj)):
        for y, _e in up_adj[i]:
            down_masks[y] |= down_masks[i]
    up_masks = [1 << i for i in range(len(up_adj))]
    for i in reversed(range(len(up_adj))):
        for y, _e in up_adj[i]:
            up_masks[i] |= up_masks[y]
    return tuple(up_masks), tuple(down_masks)


# -- Whitney numbers ---------------------------------------------------------


def _poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


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


def _closed_masks(table: Sequence[tuple[int, int]]) -> list[int]:
    """Every edge mask closed under a ``_forcing_table``: the networks
    fitting its signature.  Bits are decided from the highest down (sink
    descending, then source ascending), so both edges that force (j, k)
    are decided first and its own table entry tells whether it is forced.
    Each pass extends every partial mask by bit b, and also keeps it
    without b unless b is forced."""
    masks = [0]
    for b in reversed(range(len(table))):
        into, out = table[b]
        bit = 1 << b
        masks = [m | bit for m in masks] + [m for m in masks if not (m & into and m & out)]
    return masks


def whitney_direct(eps: Sequence[int]) -> tuple[int, ...]:
    """Rank counts of the network lattice, from the definition: the
    networks fitting ``eps`` are the subsets of the fullest network's
    edges closed under the forcing table, listed by ``_closed_masks``."""
    eps = strip_neutral(check_signature(eps))
    table = _forcing_table(sorted(max_network(eps).edges, key=label_key))
    counts = [0] * (len(table) + 1)
    for m in _closed_masks(table):
        counts[m.bit_count()] += 1
    return tuple(counts)


def _sorted_walk(eps: Signature) -> list[tuple[int, tuple[Edge, ...], int]]:
    """Every network fitting ``eps`` as (rank, edges in label order, edge mask)
    from the closed masks of its forcing table, no word peeled and no ``Network``
    made, sorted as ``enumerate_networks`` sorts: positions are element indices."""
    labels = sorted(max_network(eps).edges, key=label_key)
    return sorted((m.bit_count(), tuple(labels[b] for b in _bits(m)), m)
                  for m in _closed_masks(_forcing_table(labels)))


def signature_networks(eps: Sequence[int]) -> list[Network]:
    """All networks fitting ``eps``, neutral points kept, in ``_sorted_walk``'s order."""
    eps = check_signature(eps)
    return [Network(len(eps), frozenset(edges)) for _, edges, _ in _sorted_walk(eps)]


def write_hasse(eps: Sequence[int], fmt: str, out) -> None:
    """Write the lattice of ``eps`` (neutral points stripped) to ``out`` a line
    at a time, in ``signature_lattice``'s element order: ``text`` lists each element
    with its rank, ``dot`` draws the Hasse diagram, each cover labeled by the
    rank of the edge it adds.  No word is peeled and no order mask built."""
    eps = strip_neutral(check_signature(eps))
    walk, dot = _sorted_walk(eps), fmt == "dot"
    if dot:
        out.write("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n")
    for i, (rank, edges, _) in enumerate(walk):
        body = ",".join(f"({a},{b})" for a, b in edges)
        out.write(f'  n{i} [label="{body or "empty"}"];\n' if dot
                  else f"{i} rank={rank} n={len(eps)}; edges={body}\n")
    if dot:  # the top, last in the walk, holds every label
        for i, up in enumerate(_covers([m for *_, m in walk], range(1, walk[-1][0] + 1))[1]):
            for w, r in up:
                out.write(f'  n{i} -> n{w} [label="{r}"];\n')
        out.write("}\n")


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
        total = _poly_add(total, (0,) * len(chosen) + _whitney_rec(sub))
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
