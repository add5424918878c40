"""Exhaustive verification suites over small degrees and signatures.

Each check returns a CheckResult; a suite is a named list of checks.
These are the one implementation of each exhaustive check: the command
line ``verify`` verb and the acceptance tests both run them, and the
acceptance tests keep only the worked examples inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as all_words
from typing import Iterator, Optional

from . import diagram, forest, network, perm, poset

# The errors the library raises on an object it cannot take.
LIBRARY_ERRORS = (perm.PermError, network.NetworkError, diagram.PolyominoError,
                  diagram.RibbonError, forest.ForestError, poset.LatticeError)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.counterexample}]" if self.counterexample else ""
        return f"{status} {self.name}: {self.detail}{extra}"


def signatures_up_to(length: int) -> list[network.Signature]:
    """All zero-free signatures of lengths 2..length with valid ends,
    shortest first."""
    return [
        (1,) + tuple(1 if mask >> i & 1 else -1 for i in range(total - 2)) + (-1,)
        for total in range(2, length + 1)
        for mask in range(1 << (total - 2))
    ]


def check_bijection(n: int) -> list[CheckResult]:
    out = []
    words = [perm.check_word(w) for w in all_words(range(1, n + 1))]
    nets = [network.from_permutation(w) for w in words]
    ok = len(set(nets)) == len(words)
    out.append(
        CheckResult(
            "distinct-networks",
            ok,
            f"{len(set(nets))}/{len(words)} distinct networks from words of degree {n}",
        )
    )
    bad = next(
        (w for w, net in zip(words, nets) if network.to_permutation(net) != w), None
    )
    out.append(
        CheckResult(
            "word-round-trip",
            bad is None,
            f"word -> network -> word identity on all {len(words)} words",
            counterexample=None if bad is None else perm.format_word(bad),
        )
    )
    bad_net = next((net for net in nets
                    if network.from_permutation(network.to_permutation(net)) != net), None)
    out.append(
        CheckResult(
            "network-round-trip",
            bad_net is None,
            f"network -> word -> network identity on all {len(nets)} networks",
            counterexample=None if bad_net is None else network.format_network(bad_net),
        )
    )
    return out


def check_polyomino(n: int) -> list[CheckResult]:
    """Boundary-peel edges agree with the inverse word's network, over all
    single-component accepted-class diagrams drawn from words of degree n."""
    tested = 0
    bad = None
    for w in all_words(range(1, n + 1)):
        poly = diagram.rothe_diagram(w)
        if not poly.cells:
            continue
        try:
            word = diagram.polyomino_permutation(poly)
        except diagram.PolyominoError:
            continue
        tested += 1
        expected = network.from_permutation(perm.inverse(word)).edges
        if diagram.peel_edges(poly) != expected:  # shape validated above
            bad = w
            break
    return [
        CheckResult(
            "polyomino-edges",
            bad is None,
            f"peeled edges match the inverse word's network on {tested} diagrams",
            counterexample=None if bad is None else perm.format_word(bad),
        )
    ]


def check_rothe(n: int) -> list[CheckResult]:
    bad = None
    count = 0
    for w in all_words(range(1, n + 1)):
        count += 1
        if diagram.rothe_edges(w) != network.from_permutation(perm.inverse(w)).edges:
            bad = w
            break
    return [
        CheckResult(
            "rothe-edges",
            bad is None,
            f"word-chain edges match the inverse word's network on {count} words",
            counterexample=None if bad is None else perm.format_word(bad),
        )
    ]


def check_forest(eps: network.Signature) -> list[CheckResult]:
    out = []
    forests = forest.enumerate_forests(eps)
    nets = [forest.to_network(f) for f in forests]
    fitting = poset.signature_networks(eps)
    round_ok = all(forest.from_network(net, eps) == f for f, net in zip(forests, nets))
    out.append(
        CheckResult(
            "forest-network-bijection",
            round_ok and set(nets) == set(fitting),
            f"{len(forests)} forests <-> {len(fitting)} networks",
        )
    )
    base = forest.max_network_permutation(eps)
    bad = None
    for f, net in zip(forests, nets):
        if forest.strand_permutation(f) != perm.inverse(network.to_permutation(net)):
            bad = ("strands", f)
            break
        leaf_word = forest.leaf_deletion_permutation(f)
        product = perm.compose(
            forest.strand_permutation(f, resolve_crossings=False), perm.inverse(base)
        )
        if leaf_word != perm.inverse(product):
            bad = ("leaf-vs-strands", f)
            break
        if perm.swap_length(base, leaf_word) != f.size:
            bad = ("swap-length", f)
            break
    out.append(
        CheckResult(
            "forest-permutations",
            bad is None,
            f"strand, leaf-deletion and swap-length identities on {len(forests)} forests",
            counterexample=None if bad is None else f"{bad[0]} at {sorted(bad[1].pointed)}",
        )
    )
    return out


def check_lattice(lat: poset.NetworkLattice) -> list[CheckResult]:
    """Meet and join are the universal bounds, and absorb, on all n x n
    pairs, reporting the first failing pair (x, y) in row-major order.

    ``meet_index`` is ``&`` and ``join_index`` is ``|`` plus a forcing pass
    on the union, so both are symmetric and the universal-bound test on
    (x, y) is the one on (y, x).  Absorption is one test per element: an
    index found in ``mask_index`` has that mask, so join(x, y) holds x's
    edges and meet(x, join(x, y)) looks up x's own mask, as meet(x, x)
    does; and join(x, meet(x, y)) joins x's mask with a subset of itself,
    as join(x, x) does.  So row x fails at (x, 0) when meet(x, x) or
    join(x, x) is not x, and otherwise at its first y failing the bounds,
    which is at least x: a failing y below x failed row y first.
    """
    n = len(lat.elements)
    up, down = lat.up_masks, lat.down_masks
    meet, join = lat.meet_index, lat.join_index
    bad = None
    for x in range(n):
        if meet(x, x) != x or join(x, x) != x:
            bad = (x, 0)
            break
        up_x, down_x = up[x], down[x]
        for y in range(x, n):
            m, j = meet(x, y), join(x, y)
            if None in (m, j) or down_x & down[y] != down[m] or up_x & up[y] != up[j]:
                bad = (x, y)
                break
        if bad:
            break
    return [
        CheckResult(
            "lattice-laws",
            bad is None,
            f"meet/join universal properties and absorption on {n}x{n} pairs",
            counterexample=None if bad is None else str(bad),
        )
    ]


def check_whitney(eps: network.Signature) -> list[CheckResult]:
    direct = poset.whitney_direct(eps)
    rec = poset.whitney_recurrence(eps)
    gen = forest.generating_function(eps)
    ok = direct == rec == gen
    even, odd = sum(direct[0::2]), sum(direct[1::2])
    balanced = even == odd or sum(direct) == 1
    return [
        CheckResult(
            "whitney-triple",
            ok,
            f"direct {poset.poly_format(direct)} == recurrence == forest counts",
        ),
        CheckResult(
            "even-odd-balance",
            balanced,
            f"even {even} vs odd {odd}",
        ),
    ]


def check_mobius(lat: poset.NetworkLattice) -> list[CheckResult]:
    bad = None
    pairs = 0
    for x, y in lat.intervals():
        pairs += 1
        mu = lat.mobius_recursive(x, y)
        sign = -1 if (lat.ranks[y] - lat.ranks[x]) % 2 else 1
        if (mu != lat.mobius_closed(x, y) or mu not in (-1, 0, 1)
                or sign * mu != lat.decreasing_chain_count(x, y)):
            bad = (x, y)
            break
    return [
        CheckResult(
            "mobius",
            bad is None,
            f"closed form, recursion and decreasing-chain counts agree on {pairs} intervals",
            counterexample=None if bad is None else str(bad),
        )
    ]


def check_el(lat: poset.NetworkLattice) -> list[CheckResult]:
    """Each interval has one rising maximal chain, and the lex-least one
    rises (its label word increases); the Snelling check is lattice-wide."""
    bad = None
    intervals = 0
    for x, y in lat.intervals():
        intervals += 1
        if lat.rising_chains(x, y) != 1:
            bad = (x, y, "rising-count")
            break
        word = lat.lex_least_labels(x, y)
        if any(s >= t for s, t in zip(word, word[1:])):
            bad = (x, y, "lex-least")
            break
    if bad is None and not lat.snelling_check(lat.bottom, lat.top):
        bad = (lat.bottom, lat.top, "snelling")
    return [
        CheckResult(
            "el-labeling",
            bad is None,
            f"unique lex-first rising chain and label permutations on {intervals} intervals",
            counterexample=None if bad is None else str(bad),
        )
    ]


# Largest degree each degree suite runs, and largest signature length each
# signature suite runs; ``all`` runs every suite, so its limits are the
# smallest of these.
MAX_N = {"bijection": 8, "polyomino": 8, "rothe": 8}
MAX_LENGTH = {"forest": 8, "lattice": 7, "whitney": 8, "mobius": 7, "el": 7}


class BoundError(ValueError):
    """A requested degree or signature length the suite does not run."""


def _check_limit(suite: str, flag: str, value: Optional[int], low: int, table) -> None:
    high = min((m for s, m in table.items() if suite in (s, "all")), default=None)
    if high is not None and value is not None and not low <= value <= high:
        raise BoundError(f"{flag} {value} is outside {low}..{high} for suite {suite}")


def run_suite(
    suite: str,
    n: Optional[int] = None,
    eps: Optional[str] = None,
    bound: Optional[int] = None,
) -> Iterator[CheckResult]:
    """Run one named suite; ``all`` runs everything at desk-scale bounds.

    ``bound`` caps the signature length and stands in for a missing ``n``;
    one the suite does not run raises BoundError rather than shrinking,
    and so does ``n`` for a signature suite or ``eps`` for a degree suite.
    ``eps`` is signature text, parsed only once the suite takes it.
    Before a suite runs, BoundError refuses for ``forest`` and ``all`` (and
    ForestError for ``whitney``) an ``eps`` that does not end with a sink,
    and BoundError for ``lattice`` and ``all`` one past the lattice limit,
    and for ``mobius`` and ``el`` one past ``network.DEFAULT_CAP``.
    All of that is raised at the call; results then come as each check
    ends, and a library error raised by a check or by building its lattice
    is a failed result.
    """
    if suite != "all" and suite not in MAX_N and suite not in MAX_LENGTH:
        raise ValueError(f"unknown suite: {suite}")
    if n is not None and suite in MAX_LENGTH:
        raise BoundError(f"--n does not apply to suite {suite}; use --bound or --eps")
    if eps is not None and suite in MAX_N:
        raise BoundError(f"--eps does not apply to suite {suite}; use --n")
    flag, n = ("--bound", bound) if n is None else ("--n", n)
    _check_limit(suite, flag, n, 1, MAX_N)
    fixed = None
    if eps is None:
        _check_limit(suite, "--bound", bound, 2, MAX_LENGTH)
    else:
        eps = network.strip_neutral(network.parse_signature(eps))
        if suite in ("forest", "all") and eps and eps[-1] == 1:
            raise BoundError("the forest suite needs a signature that ends with a sink, "
                             f"not {network.format_signature(eps)}")
        if suite in ("lattice", "all") and len(eps) > MAX_LENGTH["lattice"]:
            raise BoundError(f"--eps of length {len(eps)} is past the lattice suite's "
                             f"limit {MAX_LENGTH['lattice']}")
        if suite in ("mobius", "el") and len(eps) > network.DEFAULT_CAP:
            raise BoundError(f"--eps of length {len(eps)} is past the {suite} suite's "
                             f"limit {network.DEFAULT_CAP}")
        if suite == "whitney":
            forest.check_forest_signature(eps)
        fixed = [eps]
    suites = {"bijection": check_bijection, "polyomino": check_polyomino,
              "rothe": check_rothe, "forest": check_forest, "lattice": check_lattice,
              "whitney": check_whitney, "mobius": check_mobius, "el": check_el}

    lattices: dict = {}  # each signature's lattice, or the library error building it raised

    def lattice(eps: network.Signature) -> poset.NetworkLattice:
        if eps not in lattices:
            try:
                lattices[eps] = poset.signature_lattice(eps)
            except LIBRARY_ERRORS as exc:
                lattices[eps] = exc
        if isinstance(lattices[eps], Exception):
            raise lattices[eps]
        return lattices[eps]

    def results() -> Iterator[CheckResult]:
        for name, check in suites.items():
            if suite not in (name, "all"):
                continue
            if name in MAX_N:
                args = [5 if n is None else n]
            else:
                default = 6 if name == "whitney" else 5
                args = fixed or signatures_up_to(default if bound is None else bound)
            for arg in args:
                try:  # the lattice suites take a lattice, and fail if it cannot be built
                    done = check(lattice(arg) if name in ("lattice", "mobius", "el") else arg)
                except LIBRARY_ERRORS as exc:
                    where = f"n={arg}" if name in MAX_N else network.format_signature(arg)
                    done = [CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", where)]
                yield from done
    return results()
