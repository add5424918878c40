from __future__ import annotations

import dataclasses
import io
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permnet import checks, forest, network, poset
from permnet.network import forced_edges, label_key, parse_signature
from permnet.poset import build_lattice


def sig(text):
    return parse_signature(text)


def rank(lat, e):
    """The label rank of edge ``e``: ``lat.labels[rank - 1]`` is ``e``."""
    return lat.labels.index(e) + 1


def element(lat, edges):
    """The index of the element with edge set ``edges``, through ``mask_index``."""
    return lat.mask_index[sum(1 << rank(lat, e) - 1 for e in edges)]


# -- brute-force oracles on frozensets and explicit chains -------------------


def completion_pass(edges):
    """Add every edge forced by a crossing pair of ``edges``."""
    return edges | forced_edges(edges)


def completion_closure(edges):
    cur, nxt = None, frozenset(edges)
    while nxt != cur:
        cur, nxt = nxt, completion_pass(nxt)
    return cur


def maximal_chains(lat, x, y):
    """All saturated chains from x to y, each as its tuple of cover labels
    (the label rank of the edge each step adds)."""
    if not lat.down_masks[y] >> x & 1:
        return
    mask = lat.up_masks[x] & lat.down_masks[y]
    stack = [(x, ())]
    while stack:
        z, labels = stack.pop()
        if z == y:
            yield labels
            continue
        for w, r in lat.up_adj[z]:
            if mask >> w & 1:
                stack.append((w, labels + (r,)))


def lattice_laws_oracle(lat):
    """The first pair (x, y) in row-major order over all n x n ordered
    pairs where meet or join leaves the family, misses its universal
    property, or fails an absorption law; None if there is none."""
    n = len(lat.elements)
    up, down = lat.up_masks, lat.down_masks
    meet, join = lat.meet_index, lat.join_index
    for x in range(n):
        for y in range(n):
            m, j = meet(x, y), join(x, y)
            if (None in (m, j) or down[x] & down[y] != down[m] or up[x] & up[y] != up[j]
                    or meet(x, j) != x or join(x, m) != x):
                return (x, y)
    return None


def assert_lattice_laws_match_oracle(lat):
    """``check_lattice`` gives the ordered scan's verdict and first failing pair."""
    bad = lattice_laws_oracle(lat)
    [result] = checks.check_lattice(lat)
    assert (result.passed, result.counterexample) == (bad is None, bad and str(bad))
    return bad


def rises(word):
    return all(a < b for a, b in zip(word, word[1:]))


def chains_permute_interval(lat, x, y):
    """Every maximal chain of [x, y] adds each edge of y - x exactly once."""
    want = lat.elements[y].edges - lat.elements[x].edges
    return all(
        len(set(labels)) == len(labels) and {lat.labels[r - 1] for r in labels} == want
        for labels in maximal_chains(lat, x, y)
    )


def assert_chain_counts_match_oracle(lat, pairs):
    """Rising and decreasing chain counts equal the ``maximal_chains`` oracle's."""
    for x, y in pairs:
        words = list(maximal_chains(lat, x, y))
        assert lat.rising_chains(x, y) == sum(map(rises, words))
        assert lat.decreasing_chain_count(x, y) == sum(rises(word[::-1]) for word in words)


# Intervals [x, y] with x <= y in the lattice of each signature.
INTERVALS = {"++--": 66, "+-+-": 27, "++-+--": 3009, "+++---": 5976}


def intervals(lat):
    """Every (x, y) with x below or at y, by x, then y, from the down masks."""
    n = len(lat.elements)
    return [(x, y) for x in range(n) for y in range(n) if lat.down_masks[y] >> x & 1]


def interval(lat, x, y):
    """The element indices of [x, y], in rank order."""
    return list(poset._bits(lat.up_masks[x] & lat.down_masks[y]))


@pytest.fixture(scope="module")
def lat4():
    return build_lattice(sig("++--"))


class TestConstruction:
    def test_fourteen_elements(self, lat4):
        assert len(lat4.elements) == 14

    def test_rank_profile(self, lat4):
        assert [lat4.ranks.count(r) for r in range(5)] == [1, 4, 5, 3, 1]

    def test_two_point_chain(self):
        lat = build_lattice(sig("+-"))
        assert len(lat.elements) == 2
        assert lat.ranks == (0, 1)

    def test_bottom_and_top(self, lat4):
        assert lat4.elements[lat4.bottom].rank == 0
        assert lat4.elements[lat4.top].edges == network.max_network(sig("++--")).edges

    def test_neutral_points_stripped(self):
        lat = build_lattice(sig("+0+--0"))
        assert lat.eps == (1, 1, -1, -1)
        assert len(lat.elements) == 14

    def test_walk_and_scan_build_the_same_lattice(self):
        """``signature_lattice`` (the forcing-table walk) against
        ``build_lattice`` (the word scan), field by field, on every
        signature of length <= 7, on ++++---- and on a seeded length-8 sample."""
        eights = [e for e in checks.signatures_up_to(8) if len(e) == 8]
        for eps in checks.signatures_up_to(7) + [sig("++++----")] + random.Random(8).sample(eights, 3):
            walked, scanned = poset.signature_lattice(eps), build_lattice(eps)
            for f in dataclasses.fields(scanned):
                if f.compare:
                    assert getattr(walked, f.name) == getattr(scanned, f.name), (eps, f.name)

    def test_signature_lattice_peels_no_words(self, monkeypatch):
        calls, original = [], network.from_permutation
        monkeypatch.setattr(network, "from_permutation", lambda w: calls.append(w) or original(w))
        assert len(poset.signature_lattice(sig("+0+--0")).elements) == 14
        assert len(poset.signature_lattice(sig("++++----")).elements) == 6902
        assert calls == []

    def test_rank_equals_edge_count(self, lat4):
        for i, net in enumerate(lat4.elements):
            assert lat4.ranks[i] == net.rank

    def test_covers_differ_by_one_edge(self, lat4):
        for i in range(len(lat4.elements)):
            for j, r in lat4.up_adj[i]:
                assert lat4.elements[j].edges - lat4.elements[i].edges == {lat4.labels[r - 1]}

    def test_maximal_chains_have_rank_length(self, lat4):
        for labels in maximal_chains(lat4, lat4.bottom, lat4.top):
            assert len(labels) == lat4.ranks[lat4.top]


class TestMeetJoin:
    def test_worked_example(self, lat4):
        x, y = element(lat4, [(1, 3)]), element(lat4, [(2, 4)])
        assert lat4.elements[lat4.meet_index(x, y)].edges == frozenset()
        assert lat4.join(x, y).edges == {(1, 3), (2, 4), (2, 3)}

    def test_idempotent(self, lat4):
        for i in range(len(lat4.elements)):
            assert lat4.meet_index(i, i) == i
            assert lat4.join(i, i) == lat4.elements[i]

    def test_meet_with_top(self, lat4):
        for i in range(len(lat4.elements)):
            assert lat4.meet_index(i, lat4.top) == i

    def test_absorption_all_pairs(self, lat4):
        n = len(lat4.elements)
        for x in range(n):
            for y in range(n):
                assert lat4.meet_index(x, element(lat4, lat4.join(x, y).edges)) == x
                assert lat4.join(x, lat4.meet_index(x, y)) == lat4.elements[x]

    def test_universal_properties(self, lat4):
        n = len(lat4.elements)
        for x in range(n):
            for y in range(n):
                m = lat4.meet_index(x, y)
                j = element(lat4, lat4.join(x, y).edges)
                assert lat4.down_masks[x] & lat4.down_masks[y] == lat4.down_masks[m]
                assert lat4.up_masks[x] & lat4.up_masks[y] == lat4.up_masks[j]

    @pytest.mark.parametrize("eps", ["++--", "+-+-", "++-+--"])
    def test_single_completion_pass_suffices(self, eps):
        """The one-pass crossing completion already lands on the closure."""
        lat = build_lattice(sig(eps))
        n = len(lat.elements)
        for x in range(n):
            for y in range(n):
                union = lat.elements[x].edges | lat.elements[y].edges
                assert completion_pass(union) == lat.join(x, y).edges

    @given(st.sets(st.tuples(st.integers(1, 12), st.integers(1, 12))
                   .filter(lambda e: e[0] < e[1])))
    def test_forced_edges_force_nothing_new(self, edges):
        """The lemma behind the one-pass join, on arbitrary edge sets."""
        forced = forced_edges(edges)
        assert forced_edges(edges | forced) == forced

    @staticmethod
    def assert_matches_oracle(lat, pairs):
        for x, y in pairs:
            ex, ey = lat.elements[x].edges, lat.elements[y].edges
            assert lat.elements[lat.meet_index(x, y)].edges == ex & ey
            assert lat.join(x, y).edges == completion_closure(ex | ey)

    def test_mask_meet_join_match_frozenset_oracle(self):
        signatures = checks.signatures_up_to(6)
        assert len(signatures) == 31
        for eps in signatures:
            lat = build_lattice(eps)
            n = len(lat.elements)
            self.assert_matches_oracle(lat, [(x, y) for x in range(n) for y in range(n)])

    def test_mask_meet_join_match_oracle_on_length_eight_sample(self):
        lat = build_lattice(sig("++++----"))
        rng = random.Random(8)
        n = len(lat.elements)
        self.assert_matches_oracle(
            lat, [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
        )

    def test_meet_and_join_outside_the_family_fail_the_lattice_suite(self, lat4):
        """With the bottom's mask dropped from ``mask_index``, meet and join
        landing there give None, ``join`` raises, and the suite fails."""
        mask_index = dict(lat4.mask_index)
        del mask_index[0]
        broken = dataclasses.replace(lat4, mask_index=mask_index)
        x, y = element(lat4, [(1, 3)]), element(lat4, [(2, 4)])
        assert broken.meet_index(x, y) is None
        assert broken.join_index(0, 0) is None
        assert broken.join_index(x, y) == lat4.join_index(x, y)
        with pytest.raises(poset.LatticeError, match="left the lattice"):
            broken.join(0, 0)
        [result] = checks.check_lattice(broken)
        assert not result.passed
        assert result.counterexample == "(0, 0)"
        assert assert_lattice_laws_match_oracle(broken) == (0, 0)

    def test_lattice_laws_match_ordered_scan(self):
        """The unordered pairs plus per-element absorption give the verdict
        and first failing pair of the ordered n x n scan."""
        signatures = checks.signatures_up_to(6)
        assert len(signatures) == 31
        for eps in signatures:
            assert assert_lattice_laws_match_oracle(poset.signature_lattice(eps)) is None

    def test_lattice_laws_match_ordered_scan_on_over_forcing_table(self, monkeypatch):
        """Bits 0 and 1 of ++-- forcing the top bit break the join at (0, 6)."""
        table = poset._forcing_table
        monkeypatch.setattr(poset, "_forcing_table",
                            lambda labels: table(labels)[:-1] + ((1 << 0, 1 << 1),))
        lat = poset.signature_lattice(sig("++--"))
        assert len(lat.elements) == 14
        assert assert_lattice_laws_match_oracle(lat) == (0, 6)

    @pytest.mark.parametrize("seed", range(6))
    def test_lattice_laws_match_ordered_scan_on_unclosed_mask(self, seed):
        """One element's mask swapped for an edge set the forcing table does
        not close, ``mask_index`` rebuilt from the masks: both scans fail at
        the same pair."""
        lat = build_lattice(sig("++-+--"))
        rng = random.Random(seed)
        full = (1 << len(lat.labels)) - 1
        unclosed = [m for m in range(full) if lat._forced(m) & ~m]
        i = rng.randrange(1, len(lat.elements) - 1)
        masks = list(lat.edge_masks)
        masks[i] = rng.choice(unclosed)
        broken = dataclasses.replace(lat, edge_masks=tuple(masks),
                                     mask_index={m: k for k, m in enumerate(masks)})
        assert assert_lattice_laws_match_oracle(broken) is not None

    def test_index_is_range_checked(self, lat4):
        with pytest.raises(poset.LatticeError, match="bad element index 14"):
            lat4.join(0, 14)


def forced_mask(labels, edges):
    """The mask of ``forced_edges`` on ``edges``, bit b for ``labels[b]``."""
    return sum(1 << labels.index(e) for e in forced_edges(edges))


class TestForcingTable:
    """The forcing table is derived from ``forced_edges`` on edge pairs;
    its forced masks must equal the primitive's on whole edge sets."""

    def test_forced_mask_matches_primitive_on_every_element(self):
        signatures = ["+" + "".join(t) for length in range(6)
                      for t in itertools.product("+-", repeat=length)]
        assert len(signatures) == 63
        for text in signatures:
            lat = build_lattice(sig(text))
            for m, net in zip(lat.edge_masks, lat.elements):
                assert lat._forced(m) == forced_mask(lat.labels, net.edges)

    def test_forced_mask_matches_primitive_on_length_ten_sample(self):
        eps = sig("+++++-----")
        labels = sorted(network.max_network(eps).edges, key=label_key)
        table = poset._forcing_table(labels)
        rng = random.Random(10)
        for _ in range(2000):
            density = rng.random()  # spread the sample over the ranks
            edges = completion_closure(e for e in labels if rng.random() < density)
            m = sum(1 << labels.index(e) for e in edges)
            got = sum(1 << b for b, (into, out) in enumerate(table) if m & into and m & out)
            assert got == forced_mask(labels, edges)


class TestWhitney:
    def test_worked_polynomial(self):
        assert poset.whitney_direct(sig("++---")) == (1, 6, 12, 13, 9, 4, 1)
        assert poset.whitney_recurrence(sig("++---")) == (1, 6, 12, 13, 9, 4, 1)

    def test_two_points(self):
        assert poset.whitney_direct(sig("+-")) == (1, 1)
        assert poset.whitney_recurrence(sig("+-")) == (1, 1)

    def test_neutral_invariance(self):
        assert poset.whitney_direct(sig("+0+--")) == poset.whitney_direct(sig("++--"))
        assert poset.whitney_recurrence(sig("+0+--")) == poset.whitney_recurrence(
            sig("++--")
        )

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7])
    def test_triple_agreement(self, length):
        """Direct count, recurrence, forests and the definition: each subset
        of the fullest network's edges closed under forcing is a network."""
        for eps in [e for e in checks.signatures_up_to(length) if len(e) == length]:
            edges = sorted(network.max_network(eps).edges)
            subsets = [[e for b, e in enumerate(edges) if m >> b & 1]
                       for m in range(1 << len(edges))]
            sizes = [len(s) for s in subsets if forced_edges(s) <= set(s)]
            direct = poset.whitney_direct(eps)
            assert direct == tuple(sizes.count(r) for r in range(len(edges) + 1))
            assert direct == poset.whitney_recurrence(eps)
            assert direct == forest.generating_function(eps)

    def test_word_scan_matches_direct_count_length_eight(self):
        """The one cross-check of the forcing-table walk against the word
        scan at length 8: rank counts, and the network list element by
        element.  A shorter signature's networks are those on 8 points
        inside its top."""
        nets = network.enumerate_networks(8)
        for eps in checks.signatures_up_to(8):
            top = network.max_network(eps).edges
            scanned = [net.edges for net in nets if net.edges <= top]
            ranks = [len(edges) for edges in scanned]
            assert poset.whitney_direct(eps) == tuple(ranks.count(r) for r in range(len(top) + 1))
            walked = poset.signature_networks(eps)
            assert {net.n for net in walked} == {len(eps)}
            assert [net.edges for net in walked] == scanned

    def test_direct_count_peels_no_words_past_length_eight(self, monkeypatch):
        calls, original = [], network.from_permutation
        monkeypatch.setattr(network, "from_permutation", lambda w: calls.append(w) or original(w))
        assert sum(poset.whitney_direct(sig("++++----"))) == 6902
        nines = [e for e in checks.signatures_up_to(9) if len(e) == 9]
        assert len(nines) == 128
        for eps in nines + [sig("+++++-----")]:
            direct = poset.whitney_direct(eps)
            assert direct == poset.whitney_recurrence(eps)
        assert sum(direct) == 329462  # +++++-----
        assert calls == []

    def test_poly_format(self):
        assert poset.poly_format((1, 6, 12)) == "1 + 6 q + 12 q^2"
        assert poset.poly_format((1, 1)) == "1 + q"


def even_odd(text):
    """(elements of even rank, elements of odd rank) from the direct count."""
    coeffs = poset.whitney_direct(sig(text))
    return (sum(coeffs[0::2]), sum(coeffs[1::2]))


class TestBalance:
    def test_worked_values(self):
        assert even_odd("++--") == (7, 7)
        assert even_odd("++---") == (23, 23)
        assert even_odd("+-") == (1, 1)

    def test_degenerate_single_element(self):
        assert even_odd("+") == (1, 0)


class TestEdgeLabels:
    def test_label_order_worked_example(self):
        order = sorted(
            network.max_network(sig("+-++--")).edges, key=label_key
        )
        assert order == [(1, 2), (4, 5), (3, 5), (1, 5), (4, 6), (3, 6), (1, 6)]

    def test_same_sink_larger_source_first(self):
        assert label_key((2, 3)) < label_key((1, 3))
        assert not label_key((1, 3)) < label_key((2, 3))

    def test_order_axioms(self):
        edges = sorted(network.max_network(sig("++-+--")).edges)

        def less(a, b):
            return label_key(a) < label_key(b)

        for a in edges:
            assert not less(a, a)
        for a in edges:
            for b in edges:
                if a != b:
                    assert less(a, b) != less(b, a)
        for a in edges:
            for b in edges:
                for c in edges:
                    if less(a, b) and less(b, c):
                        assert less(a, c)

    def test_el_label_is_new_edge(self, lat4):
        y = element(lat4, [(2, 3)])
        labels = dict(lat4.up_adj[lat4.bottom])
        assert lat4.labels[labels[y] - 1] == (2, 3)
        assert lat4.top not in labels

    def test_chain_labels_cover_interval_once(self, lat4):
        want = lat4.elements[lat4.top].edges
        for labels in maximal_chains(lat4, lat4.bottom, lat4.top):
            assert sorted(lat4.labels[r - 1] for r in labels) == sorted(want)


class TestCrossingInterval:
    """The seven-element interval below {(1,3),(2,3),(2,4)}."""

    @pytest.fixture
    def top(self, lat4):
        return element(lat4, [(1, 3), (2, 3), (2, 4)])

    def test_interval_size(self, lat4, top):
        assert len(interval(lat4, lat4.bottom, top)) == 7

    def test_unique_rising_chain(self, lat4, top):
        assert lat4.rising_chains(lat4.bottom, top) == 1
        rising = [
            tuple(lat4.labels[r - 1] for r in labels)
            for labels in maximal_chains(lat4, lat4.bottom, top) if rises(labels)
        ]
        assert rising == [((2, 3), (1, 3), (2, 4))]

    def test_rising_chain_is_lex_least(self, lat4, top):
        least = lat4.lex_least_labels(lat4.bottom, top)
        assert rises(least)
        assert least == min(maximal_chains(lat4, lat4.bottom, top))

    def test_no_decreasing_chain(self, lat4, top):
        assert lat4.decreasing_chain_count(lat4.bottom, top) == 0

    def test_mobius_zero_at_top(self, lat4, top):
        assert lat4.mobius_recursive(lat4.bottom, top) == 0
        assert lat4.mobius_closed(lat4.bottom, top) == 0

    def test_mobius_alternates_below_top(self, lat4, top):
        for z in interval(lat4, lat4.bottom, top):
            if z == top:
                continue
            expected = -1 if lat4.ranks[z] % 2 else 1
            assert lat4.mobius_recursive(lat4.bottom, z) == expected

    def test_snelling(self, lat4, top):
        assert lat4.snelling_check(lat4.bottom, top)

    def test_interval_needs_x_below_y(self, lat4, top):
        with pytest.raises(poset.LatticeError, match="x not below y"):
            lat4.mobius_recursive(top, lat4.bottom)


def with_covers(lat, up_adj):
    """``lat`` with its covers replaced and its order rebuilt from them."""
    up_masks, down_masks = poset._order_masks(up_adj)
    return dataclasses.replace(
        lat, up_adj=up_adj, up_masks=up_masks, down_masks=down_masks
    )


class TestSnelling:
    """The Snelling check against the chain oracle, and on broken lattices."""

    @pytest.fixture(scope="class")
    def lat6(self):
        return build_lattice(sig("++-+--"))

    def test_agrees_with_chain_oracle(self, lat6):
        for x, y in intervals(lat6):
            assert lat6.snelling_check(x, y)
            assert chains_permute_interval(lat6, x, y)

    def test_dropped_cover_fails(self, lat6):
        z = next(z for z, up in enumerate(lat6.up_adj) if lat6.ranks[z] == 2 and up)
        up_adj = list(lat6.up_adj)
        up_adj[z] = up_adj[z][1:]
        broken = with_covers(lat6, tuple(up_adj))
        assert not all(broken.snelling_check(x, y) for x, y in intervals(broken))
        # Covers are built as z + {e} and labeled by e's rank, so the chain statement
        # alone cannot see a missing cover.
        assert all(chains_permute_interval(broken, x, y) for x, y in intervals(broken))

    def test_two_edge_cover_fails(self, lat6):
        w = lat6.ranks.index(2)
        r = rank(lat6, min(lat6.elements[w].edges))
        up_adj = list(lat6.up_adj)
        up_adj[lat6.bottom] = tuple(sorted(up_adj[lat6.bottom] + ((w, r),)))
        broken = with_covers(lat6, tuple(up_adj))
        assert not broken.snelling_check(broken.bottom, w)
        assert not all(broken.snelling_check(x, y) for x, y in intervals(broken))


class TestChainsAndMobius:
    @pytest.mark.parametrize("eps", list(INTERVALS))
    def test_intervals_walk_every_pair_in_order(self, eps):
        lat = build_lattice(sig(eps))
        assert list(lat.intervals()) == intervals(lat)
        assert len(intervals(lat)) == INTERVALS[eps]

    def test_single_cover_is_decreasing_chain(self, lat4):
        for x in range(len(lat4.elements)):
            for y, _r in lat4.up_adj[x]:
                assert lat4.decreasing_chain_count(x, y) == 1

    def test_mobius_rows_from_alternating_bottoms(self, lat4):
        pairs = intervals(lat4)
        for (x, y), (u, v) in zip(pairs, reversed(pairs)):
            assert lat4.mobius_recursive(x, y) == lat4.mobius_closed(x, y)
            assert lat4.mobius_recursive(u, v) == lat4.mobius_closed(u, v)

    def test_point_interval(self, lat4):
        i = element(lat4, [(2, 3)])
        assert lat4.mobius_recursive(i, i) == 1
        assert lat4.mobius_closed(i, i) == 1
        assert lat4.rising_chains(i, i) == 1
        assert lat4.lex_least_labels(i, i) == ()

    def test_boolean_interval_decreasing_count(self, lat4):
        """Intervals without crossings admit exactly one decreasing chain."""
        x = lat4.bottom
        y = element(lat4, [(1, 3), (1, 4), (2, 3)])
        assert lat4.decreasing_chain_count(x, y) == 1

    @pytest.mark.parametrize("eps", ["++--", "+-+-", "++-+--", "+++---"])
    def test_closed_form_matches_recursion(self, eps):
        [result] = checks.check_mobius(build_lattice(sig(eps)))
        assert result.passed
        assert result.detail.endswith(f" on {INTERVALS[eps]} intervals")

    def test_closed_form_matches_recursion_length_seven(self):
        results = list(checks.run_suite("mobius", bound=7))
        assert len(results) == 63  # signatures of length 2..7
        assert all(r.passed for r in results)

    def test_recursion_is_not_limited_to_signs(self):
        """Three atoms, each covered only by one rank-2 element t, give
        mu(bottom, t) = -(1 - 3) = 2 and two decreasing chains."""
        lat = build_lattice(sig("++-+--"))
        t = lat.ranks.index(2)
        a, b = (rank(lat, e) for e in sorted(lat.elements[t].edges))
        least = 1
        c = next(rank(lat, e) for e in sorted(lat.labels) if rank(lat, e) not in (a, b, least))
        atoms = [element(lat, [lat.labels[r - 1]]) for r in (a, b, c)]
        up_adj = [()] * len(lat.elements)
        up_adj[lat.bottom] = tuple(sorted(zip(atoms, (a, b, c))))
        # Into t: b after a and a after b (one of the two falls), and the
        # least label after c (falls).
        for z, r in zip(atoms, (b, a, least)):
            up_adj[z] = ((t, r),)
        broken = with_covers(lat, tuple(up_adj))
        assert broken.decreasing_chain_count(broken.bottom, t) == 2
        assert_chain_counts_match_oracle(broken, [(broken.bottom, t)])

    @pytest.mark.parametrize("ranks,rising,falling", [((0, 1, 3, 4), 2, 0),
                                                      ((4, 3, 1, 0), 0, 2)])
    def test_chain_counts_add_up_per_last_label(self, ranks, rising, falling):
        """Two chains into t end with the same label, and one cover extends
        both to u: the count at t's last label is 2, and u takes it whole."""
        lat = build_lattice(sig("++-+--"))
        first, second, into_t, into_u = (r + 1 for r in ranks)
        a1, a2 = [i for i, r in enumerate(lat.ranks) if r == 1][:2]
        t, u = lat.ranks.index(2), lat.ranks.index(3)
        up_adj = [()] * len(lat.elements)
        up_adj[lat.bottom] = ((a1, first), (a2, second))
        up_adj[a1] = up_adj[a2] = ((t, into_t),)
        up_adj[t] = ((u, into_u),)
        broken = with_covers(lat, tuple(up_adj))
        assert broken.rising_chains(broken.bottom, u) == rising
        assert broken.decreasing_chain_count(broken.bottom, u) == falling
        assert_chain_counts_match_oracle(broken, intervals(broken))

    @pytest.mark.parametrize("eps", ["++--", "+-+-", "++-+--"])
    def test_el_property_all_intervals(self, eps):
        [result] = checks.check_el(build_lattice(sig(eps)))
        assert result.passed
        assert result.detail.endswith(f" on {INTERVALS[eps]} intervals")

    @pytest.mark.parametrize("eps", [network.format_signature(eps)
                                     for eps in checks.signatures_up_to(5)]
                             + ["++-+--", "+++---"])
    def test_chain_pass_matches_chain_oracle(self, eps):
        lat = build_lattice(sig(eps))
        assert_chain_counts_match_oracle(lat, intervals(lat))
        for x, y in intervals(lat):
            assert lat.lex_least_labels(x, y) == min(maximal_chains(lat, x, y))

    def test_relabeled_cover_fails_rising_count(self, lat4):
        """The cover from the bottom to {(1,4)}, relabeled (2,3), gives
        [bottom, {(1,3),(1,4)}] a second rising chain."""
        w = element(lat4, [(1, 4)])
        up_adj = list(lat4.up_adj)
        up_adj[lat4.bottom] = tuple(
            (v, rank(lat4, (2, 3)) if v == w else r) for v, r in up_adj[lat4.bottom]
        )
        broken = with_covers(lat4, tuple(up_adj))
        [result] = checks.check_el(broken)
        assert not result.passed
        assert "rising-count" in result.counterexample
        y = element(lat4, [(1, 3), (1, 4)])
        assert broken.rising_chains(broken.bottom, y) == 2
        assert_chain_counts_match_oracle(broken, intervals(broken))


class TestBooleanCheck:
    def test_boolean_lattice_size(self):
        lat = build_lattice(sig("+-+-"))
        assert len(lat.elements) == 8  # three independent edges


def hasse_oracle(lat, fmt):
    """What ``render --poset`` wrote when it drew ``build_lattice``'s
    lattice: the former ``NetworkLattice.to_dot``, or one text line per
    element."""
    if fmt == "text":
        return "".join(f"{i} rank={lat.ranks[i]} {network.format_network(net)}\n"
                       for i, net in enumerate(lat.elements))
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, net in enumerate(lat.elements):
        body = ",".join(f"({a},{b})" for a, b in network.sorted_edges(net)) or "empty"
        lines.append(f'  n{i} [label="{body}"];')
    for i, up in enumerate(lat.up_adj):  # sorted by (i, w) already
        for w, r in up:
            lines.append(f'  n{i} -> n{w} [label="{r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_same_lines(got, want, what):
    """A plain assert would diff megabytes of DOT; name the first line that differs."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"{what}, line {i}: {g!r} != {w!r}")


def hasse(text, fmt):
    out = io.StringIO()
    poset.write_hasse(sig(text), fmt, out)
    return out.getvalue()


SMALL = ["+" + "".join(t) for length in range(6) for t in itertools.product("+-", repeat=length)]
SEVEN = ["+" + "".join(t) for t in itertools.product("+-", repeat=6)]


class TestDot:
    def test_node_count(self, lat4):
        dot = hasse("++--", "dot")
        assert dot.count("[label=") == 14 + sum(len(a) for a in lat4.up_adj)

    def test_deterministic(self):
        assert hasse("++--", "dot") == hasse("++--", "dot")


class TestHasse:
    @pytest.mark.parametrize("signatures", [
        ["", "+0+--0", *SMALL],
        random.Random(7).sample(SEVEN, 4),
        ["++++----"],
    ], ids=["length-up-to-6", "length-7-sample", "length-8"])
    def test_walk_matches_lattice_oracle(self, signatures):
        """``write_hasse`` reads the forcing-table walk and ``hasse_oracle``
        the word scan's lattice; both formats must agree byte for byte,
        and the DOT holds one label per element and per cover, every time."""
        for text in signatures:
            lat = build_lattice(sig(text))
            dot = hasse(text, "dot")
            assert dot.count("[label=") == len(lat.elements) + sum(map(len, lat.up_adj))
            assert_same_lines(dot, hasse(text, "dot"), f"{text} dot, twice")
            assert_same_lines(dot, hasse_oracle(lat, "dot"), f"{text} dot")
            assert_same_lines(hasse(text, "text"), hasse_oracle(lat, "text"), f"{text} text")
