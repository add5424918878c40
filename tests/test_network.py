from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permnet import checks, network, perm, poset
from permnet.network import (
    ERR_COMPLETION,
    ERR_DIRECTION,
    ERR_OVERLAP,
    ERR_RANGE,
    NetworkError,
)


def brute_force_networks(n):
    """Oracle: every edge subset that validates, by raw enumeration."""
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            try:
                out.append(network.validate(n, chosen))
            except NetworkError:
                pass
    return out


def all_signatures(n):
    """Every signature of length n, neutral points included: entries in
    {1, 0, -1} whose first nonzero entry, if any, is +1."""
    return [
        eps
        for eps in product((1, 0, -1), repeat=n)
        if next((v for v in eps if v), 1) == 1
    ]


def fits(net, eps):
    """The pointwise definition: each point of the network is neutral or
    has the sign ``eps`` gives it."""
    return all(s in (0, e) for s, e in zip(network.signature_of(net), eps))


class TestValidate:
    def test_missing_completion_edge(self):
        with pytest.raises(NetworkError) as exc:
            network.validate(4, [(1, 3), (2, 4)])
        assert exc.value.code == ERR_COMPLETION
        assert exc.value.witness == ((1, 3), (2, 4))

    def test_empty_is_valid(self):
        net = network.validate(4, [])
        assert net.rank == 0

    def test_crossing_with_completion(self):
        net = network.validate(4, [(1, 3), (2, 4), (2, 3)])
        assert net.rank == 3

    def test_out_of_range(self):
        with pytest.raises(NetworkError) as exc:
            network.validate(3, [(1, 4)])
        assert exc.value.code == ERR_RANGE

    def test_bad_direction(self):
        with pytest.raises(NetworkError) as exc:
            network.validate(4, [(3, 2)])
        assert exc.value.code == ERR_DIRECTION

    def test_source_sink_overlap(self):
        with pytest.raises(NetworkError) as exc:
            network.validate(4, [(1, 2), (2, 3)])
        assert exc.value.code == ERR_OVERLAP


def edge_order(net):
    """Oracle: the (size, leftmost) total order on edges, smallest size
    j - i first, leftmost breaking ties.  Well defined because no point
    is both a source and a sink: two edges of equal size and equal
    source would coincide."""
    return tuple(sorted(net.edges, key=lambda e: (e[1] - e[0], e[0])))


def edge_order_product(net):
    """Oracle for ``to_permutation``: the edges multiplied as position
    transpositions over the identity in the (size, leftmost) order."""
    w = list(perm.identity(net.n))
    for i, j in edge_order(net):
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


class TestEdgeOrder:
    """The label order that ``to_permutation`` multiplies in gives the
    product of the (size, leftmost) order."""

    def test_worked_example(self):
        net = network.validate(4, [(2, 3), (1, 3), (2, 4), (1, 4)])
        assert edge_order(net) == ((2, 3), (1, 3), (2, 4), (1, 4))
        assert network.to_permutation(net) == edge_order_product(net) == (3, 4, 1, 2)

    def test_empty(self):
        net = network.validate(3, [])
        assert edge_order(net) == ()
        assert network.to_permutation(net) == edge_order_product(net) == (1, 2, 3)

    def test_equal_size_leftmost_first(self):
        net = network.validate(4, [(1, 2), (3, 4)])
        assert edge_order(net) == ((1, 2), (3, 4))
        assert network.to_permutation(net) == edge_order_product(net) == (2, 1, 4, 3)

    def test_every_word_up_to_degree_7(self):
        for n in range(8):
            for word in permutations(range(1, n + 1)):
                net = network.from_permutation(word)
                assert network.to_permutation(net) == edge_order_product(net) == word

    def test_seeded_words_of_degree_9_to_256(self):
        rng = random.Random(20)
        for _ in range(300):
            word = list(range(1, rng.randint(9, 256) + 1))
            rng.shuffle(word)
            net = network.from_permutation(word)
            assert network.to_permutation(net) == edge_order_product(net) == tuple(word)


@pytest.fixture(scope="module")
def bijection():
    """``checks.check_bijection``'s results by name, for n = 1..6, each
    degree run once."""
    return {n: {r.name: r for r in checks.check_bijection(n)} for n in range(1, 7)}


class TestPermutationMaps:
    def test_to_permutation_worked_example(self):
        net = network.validate(4, [(2, 3), (1, 3), (2, 4), (1, 4)])
        assert network.to_permutation(net) == (3, 4, 1, 2)

    def test_to_permutation_empty(self):
        assert network.to_permutation(network.validate(5, [])) == perm.identity(5)

    def test_to_permutation_single_edge(self):
        net = network.validate(4, [(2, 3)])
        assert network.to_permutation(net) == (1, 3, 2, 4)

    def test_from_permutation_worked_example(self):
        net = network.from_permutation((3, 4, 1, 2))
        assert net.edges == frozenset({(1, 4), (2, 4), (1, 3), (2, 3)})

    def test_from_permutation_identity(self):
        assert network.from_permutation(perm.identity(4)).rank == 0

    def test_from_permutation_distinct_over_s4(self):
        nets = [network.from_permutation(w) for w in permutations(range(1, 5))]
        assert len(set(nets)) == 24

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_round_trip(self, n, bijection):
        result = bijection[n]["word-round-trip"]
        assert result.passed
        assert result.detail.endswith(f" on all {factorial(n)} words")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_network_round_trip(self, n, bijection, networks_by_degree):
        """The check's round trip runs over the networks of words; the
        enumerated networks are walked here, so a wrong enumeration fails."""
        result = bijection[n]["network-round-trip"]
        assert result.passed
        assert result.detail.endswith(f" on all {len(networks_by_degree[n])} networks")
        for net in networks_by_degree[n]:
            assert network.from_permutation(network.to_permutation(net)) == net

    def test_injective_on_enumeration(self, networks_by_degree):
        for n in range(1, 7):
            images = {network.to_permutation(net) for net in networks_by_degree[n]}
            assert len(images) == len(networks_by_degree[n])


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))).map(tuple),
            st.lists(
                st.tuples(
                    st.integers(1, n), st.integers(1, n)
                ).filter(lambda e: e[0] < e[1]),
                min_size=2,
                max_size=2,
                unique=True,
            ),
        )
    )
)
def test_disjoint_edges_commute(case):
    """Exchanges with no common endpoint act the same in either order."""
    word, edges = case
    (a, b), (c, d) = edges
    if {a, b} & {c, d}:
        return
    def act(w, e):
        w = list(w)
        i, j = e
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        return tuple(w)
    assert act(act(word, (a, b)), (c, d)) == act(act(word, (c, d)), (a, b))


class TestSignature:
    def test_signature_of_crossing_network(self):
        net = network.validate(4, [(1, 3), (2, 4), (2, 3)])
        assert network.signature_of(net) == (1, 1, -1, -1)

    def test_signature_of_empty(self):
        assert network.signature_of(network.validate(3, [])) == (0, 0, 0)

    def test_signature_of_single_edge(self):
        net = network.validate(4, [(2, 3)])
        assert network.signature_of(net) == (0, 1, -1, 0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("++--", (1, 1, -1, -1)),
            ("+ + - -", (1, 1, -1, -1)),
            ("1,1,-1,-1", (1, 1, -1, -1)),
            ("+0-", (1, 0, -1)),
        ],
    )
    def test_parse_signature(self, text, expected):
        assert network.parse_signature(text) == expected

    def test_first_nonzero_must_be_positive(self):
        with pytest.raises(NetworkError):
            network.parse_signature("-+")
        with pytest.raises(NetworkError):
            network.parse_signature("0-+")

    def test_entry_outside_range(self):
        with pytest.raises(NetworkError) as exc:
            network.check_signature((2,))
        assert exc.value.code == ERR_RANGE

    def test_strip_neutral(self):
        assert network.strip_neutral((1, 0, -1, 0)) == (1, -1)

    def test_max_network(self):
        net = network.max_network((1, -1, 1, -1))
        assert net.edges == frozenset({(1, 2), (1, 4), (3, 4)})


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_factorial_counts(self, n, count):
        assert len(network.enumerate_networks(n)) == count

    def test_signature_of_another_length(self):
        with pytest.raises(NetworkError, match="signature length 2 != n=3"):
            network.enumerate_networks(3, (1, -1))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force(self, n):
        assert set(network.enumerate_networks(n)) == set(brute_force_networks(n))

    def test_two_sources_two_sinks_strict(self):
        """Exactly five networks use both sources and both sinks of ++--."""
        eps = (1, 1, -1, -1)
        strict = [
            net
            for net in network.enumerate_networks(4, eps)
            if network.signature_of(net) == eps
        ]
        oracle = [
            net for net in brute_force_networks(4) if network.signature_of(net) == eps
        ]
        assert len(strict) == 5
        assert set(strict) == set(oracle)

    def test_compatible_allows_neutral_endpoints(self):
        eps = (1, 1, -1, -1)
        nets = network.enumerate_networks(4, eps)
        assert len(nets) == 14

    def test_compatible_rejects_signature_of_other_length(self):
        net = network.validate(2, [(1, 2)])
        assert network.compatible(net, (1, -1))
        assert not network.compatible(net, (1, 0, -1))

    def test_cap(self):
        with pytest.raises(NetworkError):
            network.enumerate_networks(9, cap=8)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signature_filter_matches_pointwise_definition(self, n):
        """The word scan's filter and the forcing-table walk, neutral
        points included, each give the fitting networks in order."""
        nets = network.enumerate_networks(n)
        for eps in all_signatures(n):
            fitting = [net for net in nets if fits(net, eps)]
            assert network.enumerate_networks(n, eps) == fitting
            assert poset.signature_networks(eps) == fitting

    def test_compatible_matches_pointwise_definition(self, networks_by_degree):
        for n in range(1, 6):
            for eps in all_signatures(n):
                for net in networks_by_degree[n]:
                    assert network.compatible(net, eps) == fits(net, eps)

    def test_signature_filter_keeps_only_fitting_networks_in_memory(self):
        eps = network.parse_signature("+-+-+--")
        peaks = []
        for args in ((7,), (7, eps)):
            tracemalloc.start()
            try:
                network.enumerate_networks(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 4


class TestTextFormats:
    def test_format_sorted_by_sink_then_source_desc(self):
        net = network.validate(4, [(2, 3), (1, 3), (2, 4), (1, 4)])
        assert network.format_network(net) == "n=4; edges=(2,3),(1,3),(2,4),(1,4)"

    def test_parse_round_trip(self, networks_by_degree):
        for net in networks_by_degree[4]:
            assert network.parse_network(network.format_network(net)) == net

    def test_parse_empty_edges(self):
        assert network.parse_network("n=3; edges=").rank == 0

    def test_parse_round_trip_at_degree_128(self):
        n, h = 128, 64
        net = network.from_permutation(tuple(range(h + 1, n + 1)) + tuple(range(1, h + 1)))
        assert net.rank == h * h
        assert network.parse_network(network.format_network(net)) == net

    def test_parse_allows_spaces_between_tokens(self):
        text = " n = 4 ;  edges= ( 2 , 3 ) , (1,3) "
        assert network.parse_network(text) == network.validate(4, [(1, 3), (2, 3)])

    @pytest.mark.parametrize("text", [
        "n=4; edges=(1,2,3,4)", "n=4; edges=1,3", "n=4; edges=((1,3))", "n=4; edges=(1,3),",
        "n=4; edges=(1,3)(2,3)", "n=4; edges=(1 3)", "n=4; edges=(1 2,3)", "n=4; edges=( , )",
        "n=4; edges=(+1,3)", "n=\uff14; edges=(1,2)",
        "n=4; edges=(1,\uff12)", "n=-1; edges=",
    ])
    def test_parse_takes_exact_pairs_of_ascii_digits(self, text):
        with pytest.raises(NetworkError, match="cannot parse network text"):
            network.parse_network(text)


# -- the crossing primitive ----------------------------------------------------


def reference_violation(edges):
    """Oracle: the lexicographically first crossing pair missing its forced
    edge, by the plain scan over all ordered edge pairs."""
    es = sorted(set(edges))
    eset = set(es)
    for a in es:
        for b in es:
            i, k = a
            j, l = b
            if i < j < k < l and (j, k) not in eset:
                return (a, b)
    return None


edge_sets = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.frozensets(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
        max_size=n * (n - 1) // 2,
    )
)


@given(edge_sets)
def test_forced_edges_match_four_index_definition(edges):
    brute = {
        (j, k)
        for (i, k) in edges
        for (j, l) in edges
        if i < j < k < l
    }
    assert network.forced_edges(edges) == brute


@given(edge_sets)
def test_completion_violation_witness_matches_pair_scan(edges):
    assert network.completion_violation(edges) == reference_violation(edges)


# -- the one-pass validator against the three-pass definition ---------------


def reference_validate(n, edges):
    """Oracle: the three passes of the definition, in order: range and
    direction, source/sink overlap, then crossing completion, whose witness
    comes from the pair scan.  Returns None or (code, message, witness)."""
    eset = frozenset(map(tuple, edges))
    for e in eset:
        i, j = e
        if not 1 <= i < j <= n:
            if 1 <= i <= n and 1 <= j <= n:
                return ERR_DIRECTION, f"edge {e} must have src < dst", e
            return ERR_RANGE, f"edge {e} out of range 1..{n}", e
    both = {i for i, _ in eset} & {j for _, j in eset}
    if both:
        p = min(both)
        return ERR_OVERLAP, f"point {p} is both a source and a sink", p
    bad = reference_violation(eset)
    if bad is not None:
        (i, k), (j, l) = bad
        return ERR_COMPLETION, f"edges {(i, k)} and {(j, l)} cross but {(j, k)} is missing", bad
    return None


def reference_peel(word):
    """Oracle: the edges of ``from_permutation`` by its definition, with a
    fresh scan for each exchange partner."""
    w = list(word)
    edges = set()
    for m in range(len(w), 0, -1):
        while w[m - 1] != m:
            t = w[m - 1]
            k = next(k for k in range(m) if w[k] > t)
            edges.add((k + 1, m))
            w[k], w[m - 1] = t, w[k]
    return edges


def outcome(n, edges):
    try:
        network.validate(n, edges)
    except NetworkError as exc:
        return exc.code, str(exc), exc.witness
    return None


# Any endpoints, so reversed, loop and out-of-range edges; and forward edges
# in range only, which reach the overlap and completion tests.
raw_edge_lists = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2)), max_size=12),
    )
)
forward_edge_lists = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))), max_size=12),
    )
)


@given(st.one_of(raw_edge_lists, forward_edge_lists))
def test_validate_matches_three_pass_definition(case):
    n, edges = case
    assert outcome(n, list(edges)) == reference_validate(n, edges)


def test_from_permutation_matches_reference_peel_at_degree_7():
    for word in permutations(range(1, 8)):
        edges = reference_peel(word)
        assert reference_validate(7, edges) is None
        assert network.from_permutation(word).edges == edges


def test_dense_word_round_trip_at_degree_400():
    n, h = 400, 200
    word = tuple(range(h + 1, n + 1)) + tuple(range(1, h + 1))
    net = network.from_permutation(word)
    assert net.rank == h * h
    assert network.to_permutation(net) == word


def test_signature_with_stray_sign_is_network_error():
    with pytest.raises(NetworkError) as exc:
        network.parse_signature("+1-")
    assert exc.value.code == ERR_RANGE


@pytest.mark.parametrize("text", ["1,\uff11,-1,-1", "1,1,-\uff11", "1,1_0,-1"])
def test_signature_entries_are_ascii_digits(text):
    with pytest.raises(NetworkError, match="cannot parse signature"):
        network.parse_signature(text)


def test_signature_with_stray_letter_is_network_error():
    with pytest.raises(NetworkError) as exc:
        network.parse_signature("++x--")
    assert exc.value.code == ERR_RANGE


def test_word_with_letter_is_perm_error():
    with pytest.raises(perm.PermError):
        perm.parse_word("3a12")
    with pytest.raises(perm.PermError):
        perm.parse_word("3,x,1,2")
