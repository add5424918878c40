"""Source/sink networks on n linearly ordered points.

A network is a duplicate-free set of directed edges (i, j) with i < j
such that no point is simultaneously a source and a sink, closed under
crossing completion: if (i, k) and (j, l) are present with i < j < k < l
then (j, k) must be present too.  ``forced_edges`` and its private
helper ``_crossings`` are the one crossing test: forest inversion calls
``forced_edges``, the one forcing table per signature that serves the
lattice join, the Mobius closed form and the direct Whitney count is
built from it, and validation calls ``_crossings`` on the tables of its
one pass.

Networks biject with permutations: ``from_permutation`` peels a word
from its last entry, one exchange per edge, and ``to_permutation``
plays those exchanges backwards, multiplying the edges out as position
transpositions in the label order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations as _all_perms
from typing import Iterable, Optional, Sequence

from .perm import Word, check_word, identity

Edge = tuple[int, int]
Signature = tuple[int, ...]

ERR_RANGE = "endpoint-range"
ERR_DIRECTION = "edge-direction"
ERR_OVERLAP = "source-sink-overlap"
ERR_COMPLETION = "crossing-completion"

DEFAULT_CAP = 8


class NetworkError(ValueError):
    def __init__(self, code: str, message: str, witness=None):
        super().__init__(message)
        self.code = code
        self.witness = witness


def forced_edges(edges: Iterable[Edge]) -> set[Edge]:
    """Every (j, k) forced by a crossing pair (i, k), (j, l), i < j < k < l.

    Only the smallest source into each sink and the largest sink out of
    each source matter, so this is O(E + sources * sinks), not O(E^2).
    """
    minsrc: dict[int, int] = {}
    maxsnk: dict[int, int] = {}
    for i, j in edges:
        if i < minsrc.get(j, j):
            minsrc[j] = i
        if j > maxsnk.get(i, i):
            maxsnk[i] = j
    return _crossings(minsrc, maxsnk)


def _crossings(minsrc: dict[int, int], maxsnk: dict[int, int]) -> set[Edge]:
    """The crossing test on ``forced_edges``' tables: smallest source into
    each sink, largest sink out of each source."""
    return {
        (j, k)
        for k, lo in minsrc.items()
        for j, hi in maxsnk.items()
        if lo < j < k < hi
    }


def completion_violation(edges: Iterable[Edge]) -> Optional[tuple[Edge, Edge]]:
    """First pair (i,k),(j,l) with i<j<k<l whose forced edge (j,k) is absent."""
    eset = frozenset(edges)
    missing = forced_edges(eset) - eset
    if not missing:
        return None
    # (i, k) starts a violating pair iff some missing (j, k) has j > i.
    missing_into: dict[int, list[int]] = {}
    for j, k in sorted(missing):
        missing_into.setdefault(k, []).append(j)
    i, k = min(e for e in eset if missing_into.get(e[1], [0])[-1] > e[0])
    j = next(jj for jj in missing_into[k] if jj > i)
    return (i, k), (j, min(l for jj, l in eset if jj == j and l > k))


@dataclass(frozen=True, slots=True)
class Network:
    """n points plus a crossing-complete edge set; validates on build.

    Validation is one pass over the edges that tests range and direction
    and fills the tables of ``_crossings``, still the one crossing test.
    Their key sets (sinks, sources) give the overlap test, and completion
    is one subset test; only a failure calls ``completion_violation``.
    """

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        edges = self.edges
        if not isinstance(edges, frozenset):
            edges = frozenset(edges)
            object.__setattr__(self, "edges", edges)
        n = self.n
        minsrc: dict[int, int] = {}
        maxsnk: dict[int, int] = {}
        for e in edges:
            i, j = e
            if not 1 <= i < j <= n:
                if 1 <= i <= n and 1 <= j <= n:
                    raise NetworkError(ERR_DIRECTION, f"edge {e} must have src < dst", e)
                raise NetworkError(ERR_RANGE, f"edge {e} out of range 1..{n}", e)
            if i < minsrc.get(j, j):
                minsrc[j] = i
            if j > maxsnk.get(i, i):
                maxsnk[i] = j
        if not minsrc.keys().isdisjoint(maxsnk):
            p = min(minsrc.keys() & maxsnk.keys())
            raise NetworkError(ERR_OVERLAP, f"point {p} is both a source and a sink", p)
        if not _crossings(minsrc, maxsnk) <= edges:
            bad = completion_violation(edges)
            (i, k), (j, l) = bad
            raise NetworkError(
                ERR_COMPLETION,
                f"edges {(i, k)} and {(j, l)} cross but {(j, k)} is missing",
                bad,
            )

    @property
    def sources(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.edges)

    @property
    def sinks(self) -> frozenset[int]:
        return frozenset(j for _, j in self.edges)

    @property
    def rank(self) -> int:
        return len(self.edges)


def validate(n: int, edges: Iterable[Edge]) -> Network:
    """Build a network, raising NetworkError with a distinct code otherwise.
    A frozenset is used as given."""
    if not isinstance(edges, frozenset):
        edges = frozenset(map(tuple, edges))
    return Network(n=n, edges=edges)


def to_permutation(net: Network) -> Word:
    """Multiply the edges as position transpositions over the identity, in
    the label order: ``from_permutation`` emits its exchanges sink
    descending and, for one sink, source ascending, so this plays them
    backwards."""
    w = list(identity(net.n))
    for i, j in sorted(net.edges, key=label_key):
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def from_permutation(word: Sequence[int]) -> Network:
    """Peel a word down to the identity, collecting one edge per exchange.

    While the entry t at the last position m is not m, exchange it with
    the first larger entry (emitting that edge); once it is m, shrink the
    suffix.  Entries left of a partner never exceed the new t, so one
    index carried forward finds every partner for one m: O(n^2) in all.
    The collected edges always form a valid network.
    """
    w = list(check_word(word))
    n = len(w)
    edges: list[Edge] = []
    for m in range(n, 0, -1):
        k = 0
        t = w[m - 1]
        while t != m:
            while w[k] < t:
                k += 1
            edges.append((k + 1, m))
            w[k], t = t, w[k]
        w[m - 1] = m
    return validate(n, frozenset(edges))


def signature_of(net: Network) -> Signature:
    """+1 at sources, -1 at sinks, 0 at neutral points."""
    srcs, dsts = net.sources, net.sinks
    return tuple(
        1 if p in srcs else (-1 if p in dsts else 0) for p in range(1, net.n + 1)
    )


# -- source/sink signatures ------------------------------------------------


def check_signature(eps: Iterable[int]) -> Signature:
    e = tuple(eps)
    if any(v not in (1, 0, -1) for v in e):
        raise NetworkError(ERR_RANGE, f"signature entries must be in {{1,0,-1}}: {e}")
    nonzero = [v for v in e if v != 0]
    if nonzero and nonzero[0] != 1:
        raise NetworkError(ERR_DIRECTION, "first nonzero signature entry must be +1")
    return e


def parse_signature(text: str) -> Signature:
    """Accepts "++--", "+ + - -", and "1,1,-1,-1" forms; "0" marks a
    neutral point in every form.  Any other character is a NetworkError."""
    s = text.strip()
    try:
        if "1" in s or "," in s:
            tokens = [t for t in s.replace(" ", "").split(",") if t]
            if not all(t.isascii() and t.lstrip("+-").isdigit() for t in tokens):
                raise ValueError
            vals = [int(t) for t in tokens]
        else:
            vals = [{"+": 1, "-": -1, "0": 0}[c] for c in s if not c.isspace()]
    except (ValueError, KeyError):
        raise NetworkError(ERR_RANGE, f"cannot parse signature: {s!r}") from None
    return check_signature(vals)


def format_signature(eps: Sequence[int]) -> str:
    return "".join({1: "+", -1: "-", 0: "0"}[v] for v in eps)


def strip_neutral(eps: Sequence[int]) -> Signature:
    return tuple(v for v in eps if v != 0)


def signature_sources(eps: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(eps, start=1) if v == 1)


def signature_sinks(eps: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(eps, start=1) if v == -1)


def max_network(eps: Sequence[int]) -> Network:
    """The unique largest network for ``eps``: every source-sink pair i < j."""
    eps = check_signature(eps)
    ups, downs = signature_sources(eps), signature_sinks(eps)
    edges = {(i, j) for i in ups for j in downs if i < j}
    return validate(len(eps), edges)


def compatible(net: Network, eps: Sequence[int]) -> bool:
    """Whether ``net`` fits ``eps``: +1 points may be sources or neutral,
    -1 points sinks or neutral, 0 points must be neutral."""
    eps = check_signature(eps)
    if net.n != len(eps):
        return False
    return all(eps[i - 1] == 1 and eps[j - 1] == -1 for i, j in net.edges)


def enumerate_networks(
    n: int,
    eps: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_CAP,
) -> list[Network]:
    """All networks on n points, optionally restricted to those fitting ``eps``.

    Enumerates the symmetric group and maps each word through
    ``from_permutation``; the two are in bijection, so this is exhaustive.
    Networks that do not fit ``eps`` are dropped as they are made, so peak
    memory scales with the networks kept, not with n!.  Fitting ``eps`` is
    one subset test against the edges of ``max_network(eps)``: O(E) per
    network.  Returns a canonically sorted list.  ``poset.signature_networks``
    lists one signature's networks without the scan; the ``eps`` branch
    stays as the reference the tests hold that walk to, and for
    ``poset.build_lattice``, which only the ``mobius`` verb calls.
    """
    if n > cap:
        raise NetworkError(ERR_RANGE, f"n={n} exceeds enumeration cap {cap}")
    if eps is not None:
        eps = check_signature(eps)
        if len(eps) != n:
            raise NetworkError(ERR_RANGE, f"signature length {len(eps)} != n={n}")
    nets = map(from_permutation, _all_perms(range(1, n + 1)))
    if eps is not None:
        allowed = max_network(eps).edges
        nets = (net for net in nets if net.edges <= allowed)
    return sorted(nets, key=lambda net: (net.rank, sorted_edges(net)))


def label_key(edge: Edge) -> tuple[int, int]:
    """The label order on edges: earlier sink first; equal sinks, larger
    source first.  Lattice covers are labeled and ranked in this order."""
    return (edge[1], -edge[0])


def sorted_edges(net: Network) -> tuple[Edge, ...]:
    """Edges in the label order."""
    return tuple(sorted(net.edges, key=label_key))


# -- serialization -----------------------------------------------------------

# An edge list less its ASCII digits and spaces must read (,),(,),...
_SKELETON = str.maketrans("", "", "0123456789 \t\n\r\f\v")
_NO_PARENS = str.maketrans("", "", "()")


def format_network(net: Network) -> str:
    body = ",".join(f"({i},{j})" for i, j in sorted_edges(net))
    return f"n={net.n}; edges={body}"


def parse_network(text: str) -> Network:
    """Reads ``format_network``'s text: ``n=<int>; edges=`` and then exact
    ``(i,j)`` pairs, comma-separated, with spaces allowed between tokens.
    The field names are exactly ``n`` and ``edges``.  Numbers are ASCII
    digits."""
    s = text.strip()
    try:
        left, right = s.split(";", 1)
        n_key, n_text = left.split("=", 1)
        edges_key, body = right.split("=", 1)
        n_text = n_text.strip()
        skeleton = body.translate(_SKELETON)
        if (n_key.strip(), edges_key.strip()) != ("n", "edges") or not (
                n_text.isascii() and n_text.isdigit()) or (
                skeleton != ",".join(["(,)"] * skeleton.count("("))):
            raise ValueError("not n=<int>; edges=(i,j),...")
        n = int(n_text)
        # So the body less its parentheses is i,j,i,j,...; int() refuses
        # an empty number or one with a space inside.
        ends = list(map(int, body.translate(_NO_PARENS).split(","))) if skeleton else []
        pairs = list(zip(ends[0::2], ends[1::2]))
    except (ValueError, IndexError) as exc:
        raise NetworkError(ERR_RANGE, f"cannot parse network text: {s!r}") from exc
    return validate(n, pairs)


def network_to_json(net: Network) -> str:
    return json.dumps({"n": net.n, "edges": [list(e) for e in sorted_edges(net)]})
