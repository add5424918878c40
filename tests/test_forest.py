from __future__ import annotations

import random
from functools import cache
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permnet import checks, forest, network, perm
from permnet.forest import ForestError
from permnet.network import parse_signature


def sig(text):
    return parse_signature(text)


FORESTS = {"+-": 2, "++--": 14, "+-+-": 8, "++-+--": 152, "+++---": 230}


@cache
def forest_permutations(eps):
    """``checks.check_forest``'s one result for the strand, leaf-vs-strands
    and swap-length steps on ``eps``, run once per signature for the three
    tests that name those identities."""
    [_, result] = checks.check_forest(sig(eps))
    return result


def assert_forest_permutations(eps):
    result = forest_permutations(eps)
    assert result.name == "forest-permutations"
    assert result.passed, result.line()
    assert result.detail.endswith(f" on {FORESTS[eps]} forests")


class TestShape:
    @pytest.mark.parametrize(
        "eps,shape",
        [
            ("+-+-", (2, 1)),
            ("++--", (2, 2)),
            ("+++---", (3, 3, 3)),
            ("++-+--", (3, 3, 2)),
            ("+-", (1,)),
        ],
    )
    def test_young_shape(self, eps, shape):
        assert forest.young_shape(sig(eps)) == shape

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ForestError):
            forest.young_shape((1, -1, 1))

    def test_neutral_points_are_stripped(self):
        assert forest.young_shape(sig("+0-")) == (1,)

    def test_cell_labels(self):
        """A forest with one mark maps to the network of that cell's edge:
        the column picks the source in increasing order, the row the sink
        in decreasing order."""
        eps = sig("++--")
        for cell, edge in [((1, 1), (1, 4)), ((1, 2), (2, 4)),
                           ((2, 1), (1, 3)), ((2, 2), (2, 3))]:
            assert forest.to_network(forest.make_forest(eps, [cell])).edges == {edge}


class TestValidation:
    def test_admissible(self):
        f = forest.make_forest(sig("+-+-"), [(1, 1), (1, 2), (2, 1)])
        assert f.size == 3

    def test_double_shadow_rejected(self):
        with pytest.raises(ForestError) as exc:
            forest.make_forest(sig("++--"), [(1, 2), (2, 1), (2, 2)])
        assert exc.value.cell == (2, 2)
        assert exc.value.witnesses == ((1, 2), (2, 1))

    def test_empty_is_valid(self):
        assert forest.make_forest(sig("++--"), []).size == 0

    def test_outside_shape_rejected(self):
        with pytest.raises(ForestError):
            forest.make_forest(sig("+-+-"), [(2, 2)])


class TestCrossings:
    def test_two_point_crossing(self):
        f = forest.make_forest(sig("++--"), [(1, 2), (2, 1)])
        assert forest.crossing_cells(f) == frozenset({(2, 2)})

    def test_three_point_crossing(self):
        f = forest.make_forest(sig("++--"), [(1, 1), (1, 2), (2, 1)])
        assert forest.crossing_cells(f) == frozenset({(2, 2)})

    def test_no_points_no_crossings(self):
        f = forest.make_forest(sig("++--"), [])
        assert forest.crossing_cells(f) == frozenset()


class TestNetworkBijection:
    def test_worked_examples(self):
        f1 = forest.make_forest(sig("++--"), [(1, 2), (2, 1)])
        assert forest.to_network(f1).edges == {(1, 3), (2, 3), (2, 4)}
        f2 = forest.make_forest(sig("++--"), [(1, 1), (1, 2), (2, 1)])
        assert forest.to_network(f2).edges == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_empty(self):
        f = forest.make_forest(sig("++--"), [])
        assert forest.to_network(f).rank == 0
        assert forest.from_network(network.validate(4, []), sig("++--")) == f

    def test_from_network_worked_example(self):
        net = network.validate(4, [(1, 3), (2, 3), (2, 4)])
        f = forest.from_network(net, sig("++--"))
        assert f.pointed == frozenset({(1, 2), (2, 1)})

    def test_incompatible_network_rejected(self):
        net = network.validate(4, [(1, 2)])
        with pytest.raises(network.NetworkError):
            forest.from_network(net, sig("++--"))

    @staticmethod
    def assert_round_trip(e):
        """Every forest of ``e`` survives forest -> network -> forest, and
        the images are exactly the networks of ``e``, one per forest."""
        forests = forest.enumerate_forests(e)
        images = [forest.to_network(f) for f in forests]
        assert all(forest.from_network(net, e) == f for f, net in zip(forests, images))
        assert len(set(images)) == len(forests)
        assert set(images) == set(network.enumerate_networks(len(e), e))

    @pytest.mark.parametrize("eps", ["++--", "+-+-", "+++---", "++-+--", "+--+--"])
    def test_round_trip_bijection(self, eps):
        self.assert_round_trip(sig(eps))

    def test_round_trip_bijection_wide(self):
        """Exhaustive over every length-7 signature, plus the two largest
        length-8 shapes."""
        sigs = [e for e in checks.signatures_up_to(7) if len(e) == 7]
        for e in sigs + [sig("++++----"), sig("+-+-+-+-")]:
            self.assert_round_trip(e)

    def test_edge_count_is_points_plus_crossings(self):
        for f in forest.enumerate_forests(sig("++-+--")):
            net = forest.to_network(f)
            assert net.rank == f.size + len(forest.crossing_cells(f))


class TestStrandPermutation:
    def test_worked_example(self):
        f = forest.make_forest(sig("+++---"), [(2, 1), (3, 2), (1, 3)])
        assert len(forest.crossing_cells(f)) == 2
        assert forest.strand_permutation(f) == (5, 4, 2, 1, 6, 3)
        inv = perm.inverse((5, 4, 2, 1, 6, 3))
        assert inv == (4, 3, 6, 2, 1, 5)

    def test_empty_forest_is_identity(self):
        f = forest.make_forest(sig("++--"), [])
        assert forest.strand_permutation(f) == perm.identity(4)

    def test_no_crossings_variants_agree(self):
        f = forest.make_forest(sig("++--"), [(1, 1), (2, 1)])
        assert forest.crossing_cells(f) == frozenset()
        assert forest.strand_permutation(f) == forest.strand_permutation(
            f, resolve_crossings=False
        )

    @pytest.mark.parametrize("eps", ["+-", "++--", "+-+-", "++-+--", "+++---"])
    def test_inverts_network_permutation(self, eps):
        assert_forest_permutations(eps)


def leaf_orders(marks):
    """Every order that peels ``marks`` one leaf at a time; a leaf has no
    mark above it in its column nor right of it in its row."""
    if not marks:
        yield []
    for r, c in sorted(marks):
        if not any((rr > r and cc == c) or (rr == r and cc > c) for rr, cc in marks):
            for rest in leaf_orders(marks - {(r, c)}):
                yield [(r, c)] + rest


def peel_in_order(f, order):
    """Leaf deletion by hand: each peeled cell swaps the label on the west
    end of its row with the one under its column; then the boundary is
    read west top to bottom, then south left to right."""
    south = [i for i, v in enumerate(f.eps, start=1) if v == 1]
    west = [j for j, v in enumerate(f.eps, start=1) if v == -1]  # top row first
    for r, c in order:
        west[-r], south[c - 1] = south[c - 1], west[-r]
    return tuple(west + south)


class TestLeafDeletion:
    def worked_forest(self):
        return forest.make_forest(
            sig("++-+--"), [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]
        )

    def test_worked_example(self):
        f = self.worked_forest()
        assert forest.strand_permutation(f, resolve_crossings=False) == (6, 3, 5, 1, 4, 2)
        assert forest.leaf_deletion_permutation(f) == (2, 3, 1, 4, 6, 5)

    def test_explicit_leaf_orders_agree(self):
        """Order independence: peeling every forest of length <= 6 in each
        of its leaf orders gives the library's word."""
        forests = orders = 0
        for e in checks.signatures_up_to(6):
            for f in forest.enumerate_forests(e):
                forests += 1
                expected = forest.leaf_deletion_permutation(f)
                for order in leaf_orders(f.pointed):
                    orders += 1
                    assert peel_in_order(f, order) == expected
        assert (forests, orders) == (1630, 3677)

    def test_empty_forest_reads_base(self):
        f = forest.make_forest(sig("++-+--"), [])
        assert forest.leaf_deletion_permutation(f) == (3, 5, 6, 1, 2, 4)
        assert forest.leaf_deletion_permutation(f) == forest.max_network_permutation(
            sig("++-+--")
        )

    def test_base_permutation_worked_example(self):
        assert forest.max_network_permutation(sig("++-+--")) == (3, 5, 6, 1, 2, 4)
        assert perm.inverse((3, 5, 6, 1, 2, 4)) == (4, 5, 1, 6, 2, 3)

    def test_product_identity_worked_example(self):
        f = self.worked_forest()
        kt = forest.strand_permutation(f, resolve_crossings=False)
        base = forest.max_network_permutation(f.eps)
        product = perm.compose(kt, perm.inverse(base))
        assert product == (3, 1, 2, 4, 6, 5)
        assert forest.leaf_deletion_permutation(f) == perm.inverse(product)

    @pytest.mark.parametrize("eps", ["+-", "++--", "+-+-", "++-+--"])
    def test_leaf_word_inverts_product(self, eps):
        assert_forest_permutations(eps)


def swap_distance(f):
    """Swap-graded distance from the base word to f's leaf-deletion word."""
    base = forest.max_network_permutation(f.eps)
    return perm.swap_length(base, forest.leaf_deletion_permutation(f))


class TestSwapLengthIdentity:
    def test_worked_example(self):
        f = forest.make_forest(sig("++-+--"), [(1, 1), (2, 2), (1, 3), (3, 1)])
        assert forest.leaf_deletion_permutation(f) == perm.identity(6)
        assert (f.size, swap_distance(f)) == (4, 4)

    def test_empty(self):
        f = forest.make_forest(sig("++--"), [])
        assert (f.size, swap_distance(f)) == (0, 0)

    @pytest.mark.parametrize("eps", ["+-", "++--", "+-+-"])
    def test_all_forests(self, eps):
        assert_forest_permutations(eps)


class TestGeneratingFunction:
    def test_counts(self):
        assert sum(forest.generating_function(sig("++--"))) == 14
        assert sum(forest.generating_function(sig("+-+-"))) == 8

    def test_single_cell(self):
        assert forest.generating_function(sig("+-")) == (1, 1)

    def test_profile_matches_worked_lattice(self):
        assert forest.generating_function(sig("++--")) == (1, 4, 5, 3, 1)


class TestSerialization:
    def test_json_round_trip(self):
        f = forest.make_forest(sig("++-+--"), [(1, 1), (2, 2)])
        assert forest.forest_from_json(forest.forest_to_json(f)) == f

    def test_json_format(self):
        f = forest.make_forest(sig("++--"), [(1, 2)])
        assert forest.forest_to_json(f) == (
            '{"epsilon": "+ + - -", "pointed": [[1, 2]]}'
        )

    def test_render_marks_points_and_crossings(self):
        f = forest.make_forest(sig("++--"), [(1, 2), (2, 1)])
        art = forest.render_forest(f)
        assert art.count("[•]") == 2
        assert art.count("[□]") == 1


# -- the linear shadow tests against the pointwise definitions ----------------


def reference_crossing_cells(f):
    """The pointwise definition: scan every mark for every empty cell."""
    pts = f.pointed
    out = set()
    for cell in forest.shape_cells(f.shape):
        if cell in pts:
            continue
        r, c = cell
        below = any(cc == c and rr < r for rr, cc in pts)
        left = any(rr == r and cc < c for rr, cc in pts)
        if below and left:
            out.add(cell)
    return frozenset(out)


def reference_shadow_error(pts):
    """The first marked cell, in ``pts`` order, with marks both below it and
    left of it, with the first witness of each kind in that order."""
    for r, c in pts:
        below = next(((rr, cc) for rr, cc in pts if cc == c and rr < r), None)
        left = next(((rr, cc) for rr, cc in pts if rr == r and cc < c), None)
        if below is not None and left is not None:
            message = f"cell {(r, c)} has marked cells both below {below} and left {left}"
            return (r, c), (below, left), message
    return None


def greedy_marking(rng, n, p):
    """A signature of length n and a valid marking, drawn like the benchmark's
    ``random_forest``: cells bottom row first, left to right, each marked with
    probability p unless its column has a mark below and its row one left."""
    eps = "+" + "".join(rng.choice("+-") for _ in range(n - 2)) + "-"
    shape = forest.young_shape(sig(eps))
    marks, cols, rows = [], set(), set()
    for r, width in enumerate(shape, start=1):
        for c in range(1, width + 1):
            if rng.random() < p and not (c in cols and r in rows):
                marks.append((r, c))
                cols.add(c)
                rows.add(r)
    return sig(eps), shape, marks


@pytest.mark.parametrize("length", range(2, 7))
def test_crossing_cells_match_pointwise_definition(length):
    for e in checks.signatures_up_to(length):
        if len(e) == length:
            for f in forest.enumerate_forests(e):
                assert forest.crossing_cells(f) == reference_crossing_cells(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 128), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_crossing_cells_match_pointwise_definition_on_random_markings(n, p, rng):
    e, _shape, marks = greedy_marking(rng, n, p)
    f = forest.make_forest(e, marks)
    assert forest.crossing_cells(f) == reference_crossing_cells(f)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 64), st.floats(0.0, 0.3), st.randoms(use_true_random=False))
def test_double_shadow_error_matches_reference_scan(n, p, rng):
    e, shape, marks = greedy_marking(rng, n, p)
    rows = [r for r in range(2, len(shape) + 1) if shape[r - 1] >= 2]
    assume(rows)
    r = rng.choice(rows)
    c = rng.randint(2, shape[r - 1])
    marks += [(rng.randint(1, r - 1), c), (r, rng.randint(1, c - 1)), (r, c)]
    marks += rng.sample(forest.shape_cells(shape), rng.randint(0, 3))
    expected = reference_shadow_error(frozenset(marks))
    with pytest.raises(ForestError) as exc:
        forest.make_forest(e, marks)
    assert (exc.value.cell, exc.value.witnesses, str(exc.value)) == expected


# -- the builders fill the shape; enumeration against the pointwise rule -------


def reference_forests(e):
    """Every subset of the shape's cells that ``make_forest`` accepts,
    sorted by (size, cells)."""
    cells = forest.shape_cells(forest.young_shape(e))
    out = []
    for mask in range(1 << len(cells)):
        try:
            out.append(forest.make_forest(e, [x for i, x in enumerate(cells) if mask >> i & 1]))
        except ForestError:
            pass
    out.sort(key=lambda f: (f.size, sorted(f.pointed)))
    return out


@pytest.mark.parametrize("length", [0, *range(2, 7)])
def test_enumerate_forests_matches_pointwise_reference(length):
    sigs = [()] if length == 0 else [e for e in checks.signatures_up_to(length) if len(e) == length]
    for e in sigs:
        got, expected = forest.enumerate_forests(e), reference_forests(e)
        assert [sorted(f.pointed) for f in got] == [sorted(f.pointed) for f in expected]
        assert got == expected


def test_builders_fill_shape_outside_equality_and_hash():
    forests = []
    for e in [(), *checks.signatures_up_to(5)]:
        for f in forest.enumerate_forests(e):
            g = forest.make_forest(e, sorted(f.pointed))
            forests += [f, g]
            assert f.shape == g.shape == forest.young_shape(f.eps)
            assert "shape" not in repr(f)
    for f in forests:
        for g in forests:
            same = (f.eps, f.pointed) == (g.eps, g.pointed)
            assert (f == g) == same
            assert not same or hash(f) == hash(g)


@pytest.mark.parametrize("build", [forest.enumerate_forests, forest.generating_function])
def test_one_young_shape_call_per_enumeration(monkeypatch, build):
    """The shape is computed once per enumeration, by the private helper
    behind ``young_shape``."""
    calls = []
    shape = forest._shape
    monkeypatch.setattr(forest, "_shape", lambda eps: calls.append(eps) or shape(eps))
    for eps in ["+-", "++-+--", "+++---"]:
        calls.clear()
        build(sig(eps))
        assert len(calls) == 1


def test_forest_suite_checks_each_signature_once_per_forest(monkeypatch):
    """One check per forest built: 1,630 from ``from_network`` plus one
    per signature each from ``enumerate_forests`` and
    ``max_network_permutation``."""
    calls = []
    check = forest.check_forest_signature
    monkeypatch.setattr(forest, "check_forest_signature",
                        lambda eps: calls.append(eps) or check(eps))
    results = list(checks.run_suite("forest", bound=6))
    assert all(r.passed for r in results)
    assert len(calls) == 1630 + 31 + 31
