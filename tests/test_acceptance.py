"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Every tolerance here is exact equality; the objects are finite and the
checks exhaustive at the stated bounds.  The exhaustive loops are the
``checks`` suites that ``permnet verify`` runs; only the worked examples
and criterion 13's Boolean check, which no verb runs, live here.
"""

from __future__ import annotations

from math import factorial

import pytest

from permnet import checks, diagram, forest, network, perm, poset
from permnet.network import parse_signature

from test_poset import element


def report(num: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


# Zero-free signatures with valid ends: 2**(length - 2) of each length >= 2.
SIGNATURES_6 = 31
SIGNATURES_8 = 127


def passed(results, expected: int) -> bool:
    """A suite passes only if it ran the expected number of checks (so the
    bound it was given was honoured) and every one of them passed."""
    results = list(results)
    return len(results) == expected and all(r.passed for r in results)


def boolean_check(eps: network.Signature) -> bool:
    """True iff the fullest network for the zero-free ``eps`` has no
    crossing edges.

    When true, the lattice must structurally be a Boolean lattice: size
    2^atoms and bottom-to-top Mobius value (-1)^rank; violations raise.
    """
    top = network.max_network(eps)
    if network.forced_edges(top.edges):
        return False
    lat = poset.build_lattice(eps)
    atoms = len(top.edges)
    if len(lat.elements) != 1 << atoms:
        raise poset.LatticeError(
            f"crossing-free signature {network.format_signature(eps)} gave "
            f"{len(lat.elements)} elements, expected {1 << atoms}"
        )
    mu = lat.mobius_recursive(lat.bottom, lat.top)
    if mu != (-1 if atoms % 2 else 1):
        raise poset.LatticeError(f"Boolean lattice Mobius value {mu} at {atoms} atoms")
    return True


def test_boolean_check_worked_values():
    assert boolean_check(parse_signature("+-+-")) is True
    assert boolean_check(parse_signature("++--")) is False
    assert boolean_check(parse_signature("+-")) is True


@pytest.fixture(scope="module")
def bijection():
    return {n: checks.check_bijection(n) for n in range(1, 8)}


@pytest.fixture(scope="module")
def whitney8():
    return list(checks.run_suite("whitney", bound=8))


@pytest.fixture(scope="module")
def el6():
    return list(checks.run_suite("el", bound=6))


class TestAcceptance:
    def test_01_cardinality(self, bijection):
        ok = True
        for n in range(1, 8):
            distinct = [r for r in bijection[n] if r.name == "distinct-networks"]
            count = f"{factorial(n)}/{factorial(n)} "
            ok = ok and passed(distinct, 1) and distinct[0].detail.startswith(count)
        report(1, "network count is n! for n = 1..7", ok)

    def test_02_round_trips(self, bijection):
        ok = all(
            passed([r for r in bijection[n] if r.name.endswith("round-trip")], 2)
            for n in range(1, 8)
        )
        report(2, "word and network round trips are identities for n <= 7", ok)

    def test_03_worked_network(self):
        net = network.validate(4, [(2, 3), (1, 3), (2, 4), (1, 4)])
        ok = network.to_permutation(net) == (3, 4, 1, 2)
        ok = ok and network.from_permutation((3, 4, 1, 2)) == net
        report(3, "four-edge crossing network maps to 3412 and back", ok)

    def test_04_worked_polyomino_chain(self):
        cells = [
            (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 2), (2, 3), (2, 4), (2, 5),
            (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
            (4, 3), (4, 4),
            (5, 3),
        ]
        poly = diagram.Polyomino(cells)
        golden = {
            (2, 10), (3, 10), (8, 10), (9, 10),
            (2, 7), (3, 7), (4, 7),
            (1, 5), (2, 5), (3, 5), (4, 5),
        }
        edges = diagram.polyomino_edges(poly)
        word = diagram.polyomino_permutation(poly)
        ok = edges == golden
        ok = ok and word == (5, 1, 7, 10, 2, 6, 4, 3, 8, 9)
        ok = ok and edges == network.from_permutation(perm.inverse(word)).edges
        report(4, "worked polyomino peels to the inverse word's network", ok)

    def test_05_rothe_matches_network_route(self):
        golden = diagram.rothe_edges((2, 7, 1, 4, 6, 3, 5))
        ok = golden == {(1, 2), (1, 7), (3, 7), (5, 6), (5, 7)}
        rothe = checks.check_rothe(6)
        ok = ok and passed(rothe, 1) and "on 720 words" in rothe[0].detail
        report(5, "word-chain edges equal the inverse word's network on all 720", ok)

    def test_06_tiling_golden(self):
        ribbon = (
            (1, 8), (1, 7), (1, 6), (1, 5), (2, 5), (3, 5),
            (3, 4), (3, 3), (3, 2), (4, 2), (4, 1),
        )
        sizes = sorted(s for _run, s in diagram.maximal_dyck_tiling(ribbon))
        report(6, "worked ribbon tiles into sizes {0,0,0,1,2}", sizes == [0, 0, 0, 1, 2])

    def test_07_whitney_triple(self, whitney8):
        golden = poset.whitney_recurrence(parse_signature("++---"))
        ok = golden == (1, 6, 12, 13, 9, 4, 1)
        ok = ok and passed([r for r in whitney8 if r.name == "whitney-triple"], SIGNATURES_8)
        report(7, "direct, recurrence and forest counts agree for lengths <= 8", ok)

    def test_08_even_odd_balance(self, whitney8):
        ok = passed([r for r in whitney8 if r.name == "even-odd-balance"], SIGNATURES_8)
        report(8, "even and odd rank counts balance for lengths <= 8", ok)

    def test_09_forest_suite(self):
        fig = forest.make_forest(parse_signature("+++---"), [(2, 1), (3, 2), (1, 3)])
        ok = forest.strand_permutation(fig) == (5, 4, 2, 1, 6, 3)
        ex = forest.make_forest(
            parse_signature("++-+--"), [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]
        )
        kt = forest.strand_permutation(ex, resolve_crossings=False)
        base = forest.max_network_permutation(ex.eps)
        product = perm.compose(kt, perm.inverse(base))
        ok = ok and kt == (6, 3, 5, 1, 4, 2)
        ok = ok and product == (3, 1, 2, 4, 6, 5)
        ok = ok and forest.leaf_deletion_permutation(ex) == (2, 3, 1, 4, 6, 5)
        ex20 = forest.make_forest(
            parse_signature("++-+--"), [(1, 1), (2, 2), (1, 3), (3, 1)]
        )
        ok = ok and ex20.size == 4
        ok = ok and perm.swap_length(base, forest.leaf_deletion_permutation(ex20)) == 4
        ok = ok and passed(checks.run_suite("forest", bound=6), 2 * SIGNATURES_6)
        report(9, "strand, leaf-deletion and swap-length identities for lengths <= 6", ok)

    def test_10_lattice_certification(self):
        ok = passed(checks.run_suite("lattice", bound=6), SIGNATURES_6)
        report(10, "meet/join universal properties and absorption for lengths <= 6", ok)

    def test_11_el_mobius_suite(self, el6):
        lat = poset.build_lattice(parse_signature("++--"))
        top = element(lat, [(1, 3), (2, 3), (2, 4)])
        ok = lat.mobius_recursive(lat.bottom, top) == 0
        for z in poset._bits(lat.up_masks[lat.bottom] & lat.down_masks[top]):
            if z != top:
                want = -1 if lat.ranks[z] % 2 else 1
                ok = ok and lat.mobius_recursive(lat.bottom, z) == want
        ok = ok and passed(checks.run_suite("mobius", bound=6), SIGNATURES_6)
        ok = ok and passed(el6, SIGNATURES_6)
        report(
            11,
            "unique lex-first rising chains and Mobius identities for lengths <= 6",
            ok,
        )

    def test_12_snelling(self, el6):
        ok = passed(el6, SIGNATURES_6)
        report(12, "every maximal chain permutes its interval's label ranks", ok)

    def test_13_boolean_case(self):
        signatures = checks.signatures_up_to(8)
        ok = len(signatures) == SIGNATURES_8
        hits = 0
        for eps in signatures:
            try:
                if boolean_check(eps):
                    hits += 1
            except poset.LatticeError:
                ok = False
                break
        ok = ok and hits == 28
        report(13, "crossing-free signatures give Boolean lattices, lengths <= 8", ok)
