from __future__ import annotations

import random
import time
from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest

from permnet import checks, diagram, network, perm
from permnet.diagram import PolyominoError

# 17-cell staircase diagram encoding a degree-10 permutation
BIG_CELLS = [
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 3), (4, 4),
    (5, 3),
]

BIG_EDGES = {
    (2, 10), (3, 10), (8, 10), (9, 10),
    (2, 7), (3, 7), (4, 7),
    (1, 5), (2, 5), (3, 5), (4, 5),
}


@pytest.fixture
def big_poly():
    return diagram.Polyomino(BIG_CELLS)


class TestShapeValidation:
    def test_big_polyomino_is_accepted(self, big_poly):
        diagram.validate_shape(big_poly)

    def test_disconnected(self):
        with pytest.raises(PolyominoError) as exc:
            diagram.validate_shape(diagram.Polyomino([(1, 1), (3, 3)]))
        assert exc.value.condition == diagram.COND_CONNECTED

    def test_hole(self):
        ring = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
        with pytest.raises(PolyominoError) as exc:
            diagram.validate_shape(diagram.Polyomino(ring))
        assert exc.value.condition == diagram.COND_HOLES

    def test_north_heights_must_weakly_decrease(self):
        with pytest.raises(PolyominoError) as exc:
            diagram.validate_shape(diagram.Polyomino([(2, 1), (2, 2), (1, 2)]))
        assert exc.value.condition == diagram.COND_NORTH

    def test_south_heights_must_be_unimodal(self):
        peak = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3)]
        with pytest.raises(PolyominoError) as exc:
            diagram.validate_shape(diagram.Polyomino(peak))
        assert exc.value.condition == diagram.COND_SOUTH


def flood_fill_condition(cells):
    """Oracle: the condition ``validate_shape`` fails on, or None, with the
    hole test a flood fill of the outside over the bounding box grown by
    one, and the exposed north and south edges listed left to right."""
    cells = frozenset(cells)
    if not cells:
        return diagram.COND_EMPTY
    if diagram.Polyomino(cells).component_count != 1:
        return diagram.COND_CONNECTED
    rmin, rmax = min(r for r, _ in cells) - 1, max(r for r, _ in cells) + 1
    cmin, cmax = min(c for _, c in cells) - 1, max(c for _, c in cells) + 1
    outside, stack = {(rmin, cmin)}, [(rmin, cmin)]
    while stack:
        r, c = stack.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (rmin <= nb[0] <= rmax and cmin <= nb[1] <= cmax
                    and nb not in cells and nb not in outside):
                outside.add(nb)
                stack.append(nb)
    if len(outside) + len(cells) != (rmax - rmin + 1) * (cmax - cmin + 1):
        return diagram.COND_HOLES
    norths = sorted((rc for rc in cells if (rc[0] - 1, rc[1]) not in cells),
                    key=lambda rc: (rc[1], rc[0]))
    if any(b[0] < a[0] for a, b in zip(norths, norths[1:])):
        return diagram.COND_NORTH
    souths = sorted((rc for rc in cells if (rc[0] + 1, rc[1]) not in cells),
                    key=lambda rc: (rc[1], -rc[0]))
    heights = [-r for r, _ in souths]
    k = heights.index(min(heights))
    if (any(b > a for a, b in zip(heights[:k + 1], heights[1:k + 1]))
            or any(b < a for a, b in zip(heights[k:], heights[k + 1:]))):
        return diagram.COND_SOUTH
    return None


def shape_condition(cells):
    try:
        diagram.validate_shape(diagram.Polyomino(cells))
    except PolyominoError as exc:
        return exc.condition
    return None


class TestShapeOracle:
    def test_every_subset_of_a_3x4_box(self):
        box = [(r, c) for r in range(1, 4) for c in range(1, 5)]
        tally = {}
        for mask in range(1, 1 << len(box)):
            cells = [cell for i, cell in enumerate(box) if mask >> i & 1]
            condition = flood_fill_condition(cells)
            assert shape_condition(cells) == condition, cells
            tally[condition] = tally.get(condition, 0) + 1
        assert len(tally) == 5  # every condition but empty, and acceptance

    def test_seeded_subsets_of_a_6x6_box(self):
        rng = random.Random(20)
        box = [(r, c) for r in range(1, 7) for c in range(1, 7)]
        seen = set()
        for _ in range(3000):
            density = rng.choice((0.5, 0.7, 0.85, 0.95))
            cells = [cell for cell in box if rng.random() < density]
            condition = flood_fill_condition(cells)
            assert shape_condition(cells) == condition, cells
            seen.add(condition)
        assert seen == {diagram.COND_CONNECTED, diagram.COND_HOLES, diagram.COND_NORTH,
                        diagram.COND_SOUTH, None}

    def test_diagonal_gaps_are_two_holes(self):
        cells = [(r, c) for r in range(1, 5) for c in range(1, 5) if (r, c) not in {(2, 2), (3, 3)}]
        assert shape_condition(cells) == flood_fill_condition(cells) == diagram.COND_HOLES

    def test_long_arms_read_off_in_linear_validation(self):
        """A top row and a left column of 2,000 cells each: the old
        bounding-box fill visited all 4,000,000 cells of the box."""
        arm = 2000
        cells = [(1, c) for c in range(1, arm + 1)] + [(r, 1) for r in range(2, arm + 1)]
        word = diagram.polyomino_permutation(diagram.Polyomino(cells))
        assert word == (arm + 1, *range(2, arm + 1), 1)


class TestReadingPermutation:
    def test_worked_example(self, big_poly):
        assert diagram.polyomino_permutation(big_poly) == (5, 1, 7, 10, 2, 6, 4, 3, 8, 9)

    def test_intermediate_words(self):
        """Bottom-k-row stacks give the intermediate words of the recursion."""
        bottoms = {
            1: (2, 1),
            2: (3, 2, 1),
            3: (7, 1, 4, 3, 2, 5, 6),
            4: (5, 8, 1, 4, 3, 2, 6, 7),
        }
        rows = sorted({r for r, _ in BIG_CELLS}, reverse=True)
        for k, expected in bottoms.items():
            cells = [(r, c) for r, c in BIG_CELLS if r in rows[:k]]
            assert diagram.polyomino_permutation(diagram.Polyomino(cells)) == expected

    def test_single_cell(self):
        assert diagram.polyomino_permutation(diagram.Polyomino([(1, 1)])) == (2, 1)

    def test_empty(self):
        assert diagram.polyomino_permutation(diagram.Polyomino([])) == ()


class TestLabeling:
    def test_worked_labels(self, big_poly):
        lp = diagram.label_polyomino(big_poly)
        assert lp.east == {
            (1, 4): 5, (2, 5): 7, (3, 7): 10, (4, 4): 6, (5, 3): 4,
        }
        assert lp.south == {
            (1, 1): 1, (3, 2): 2, (3, 6): 8, (3, 7): 9, (5, 3): 3,
        }

    def test_labels_form_a_permutation(self, big_poly):
        lp = diagram.label_polyomino(big_poly)
        values = sorted(lp.east.values()) + sorted(lp.south.values())
        assert sorted(values) == list(range(1, 11))
        assert max(values) == 10

    def test_single_cell_labels(self):
        lp = diagram.label_polyomino(diagram.Polyomino([(1, 1)]))
        assert lp.east == {(1, 1): 2}
        assert lp.south == {(1, 1): 1}


class TestRibbonAndTiling:
    def test_worked_ribbon(self, big_poly):
        lp = diagram.label_polyomino(big_poly)
        assert diagram.boundary_ribbon(lp) == (
            (3, 7), (3, 6), (3, 5), (3, 4), (4, 4), (4, 3), (5, 3),
        )

    def test_single_cell_ribbon(self):
        lp = diagram.label_polyomino(diagram.Polyomino([(1, 1)]))
        assert diagram.boundary_ribbon(lp) == ((1, 1),)

    def test_worked_tiling_sizes(self):
        """Standalone eleven-cell ribbon tiles into sizes {0,0,0,1,2}."""
        ribbon = (
            (1, 8), (1, 7), (1, 6), (1, 5), (2, 5), (3, 5),
            (3, 4), (3, 3), (3, 2), (4, 2), (4, 1),
        )
        tiles = diagram.maximal_dyck_tiling(ribbon)
        assert sorted(size for _run, size in tiles) == [0, 0, 0, 1, 2]

    def test_single_cell_tile(self):
        assert diagram.maximal_dyck_tiling(((1, 1),)) == [(((1, 1),), 0)]

    def test_tiles_partition_ribbon(self, big_poly):
        lp = diagram.label_polyomino(big_poly)
        ribbon = diagram.boundary_ribbon(lp)
        tiles = diagram.maximal_dyck_tiling(ribbon)
        flat = [c for run, _size in tiles for c in run]
        assert flat == list(ribbon)
        assert sorted(size for _run, size in tiles) == [0, 0, 2]


class TestPeeling:
    def test_worked_chain(self, big_poly):
        lp0 = diagram.label_polyomino(big_poly)
        e0, p1 = diagram.peel_step(lp0)
        assert e0 == {(2, 10), (3, 10), (8, 10), (9, 10)}
        assert p1.cells == frozenset(
            [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (2, 5), (3, 4)]
        )
        e1, p2 = diagram.peel_step(diagram.label_polyomino(p1))
        assert e1 == {(2, 7), (3, 7), (4, 7)}
        assert p2.cells == frozenset([(1, 1), (1, 2), (1, 3), (1, 4)])
        e2, p3 = diagram.peel_step(diagram.label_polyomino(p2))
        assert e2 == {(1, 5), (2, 5), (3, 5), (4, 5)}
        assert not p3.cells

    def test_chain_tops_strictly_decrease(self, big_poly):
        current = big_poly
        tops = []
        while current.cells:
            edges, current = diagram.peel_step(diagram.label_polyomino(current))
            tops.append(max(j for _i, j in edges))
        assert tops == sorted(tops, reverse=True)
        assert len(set(tops)) == len(tops)

    def test_peel_carries_kept_labels_over(self):
        """Observed, not proved, on every accepted diagram drawn from words of
        degree <= 6: after each strip that leaves cells, each label of a kept
        cell sits on that cell after the row shift, and each label the reduced
        diagram gains was held by a cell the strip deleted."""
        steps = gained = 0
        for n in range(2, 7):
            for w in permutations(range(1, n + 1)):
                current = diagram.rothe_diagram(w)
                try:
                    diagram.polyomino_permutation(current)
                except PolyominoError:
                    continue
                while current.cells:
                    lp = diagram.label_polyomino(current)
                    top_row = diagram.boundary_ribbon(lp)[0][0]
                    _edges, current = diagram.peel_step(lp)
                    if not current.cells:
                        break
                    steps += 1
                    after = diagram.label_polyomino(current)
                    kept = {}  # cell after the row shift -> the same cell before it
                    for r, c in lp.poly.cells:
                        moved = (r, c + 1) if r >= top_row else (r, c)
                        if moved in current.cells:
                            kept[moved] = (r, c)
                    deleted = lp.poly.cells - set(kept.values())
                    held = {old[d] for old in (lp.east, lp.south) for d in deleted if d in old}
                    for old, new in ((lp.east, after.east), (lp.south, after.south)):
                        carried = {cell: was for cell, was in kept.items() if was in old}
                        assert {cell: new.get(cell) for cell in carried} == \
                            {cell: old[was] for cell, was in carried.items()}
                        gains = [v for cell, v in new.items() if old.get(kept[cell]) != v]
                        assert set(gains) <= held
                        gained += len(gains)
        assert (steps, gained) == (876, 1696)

    def test_polyomino_edges_worked_example(self, big_poly):
        assert diagram.polyomino_edges(big_poly) == BIG_EDGES

    def test_polyomino_edges_empty(self):
        assert diagram.polyomino_edges(diagram.Polyomino([])) == frozenset()

    def test_edges_match_inverse_word_network(self, big_poly):
        word = diagram.polyomino_permutation(big_poly)
        expected = network.from_permutation(perm.inverse(word)).edges
        assert diagram.polyomino_edges(big_poly) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_edges_match_inverse_over_small_degrees(self, n):
        """All single-component accepted-class inversion diagrams agree with
        the inverse word's network."""
        [result] = checks.check_polyomino(n)
        assert result.passed
        tested = {3: 5, 4: 22, 5: 102, 6: 503}[n]
        assert result.detail.endswith(f" on {tested} diagrams")

    def test_suite_validates_each_diagram_once(self, monkeypatch):
        calls, original = [], diagram.validate_shape
        monkeypatch.setattr(diagram, "validate_shape", lambda p: calls.append(p) or original(p))
        [result] = checks.check_polyomino(6)
        assert result.passed
        assert "on 503 diagrams" in result.detail
        # one call for each of the 6! - 1 non-empty diagrams: 503 accepted, 216 rejected
        assert len(calls) == 719

    def test_edges_match_inverse_on_every_shape_in_a_box(self):
        """The claim beyond Rothe diagrams: every accepted shape in the 4x4
        box anchored at (1, 1).  A shape with a row that is not an interval
        is rejected, so the shapes built from interval rows are all of them
        (a scan of all 2^16 cell sets finds the same 816)."""
        spans = [range(0)] + [range(a, b + 1) for a in range(1, 5) for b in range(a, 5)]
        tested = 0
        for rows in product(spans, repeat=4):
            cells = [(r, c) for r, cols in enumerate(rows, start=1) for c in cols]
            if not cells or min(cells)[0] != 1 or min(c for _, c in cells) != 1:
                continue
            poly = diagram.Polyomino(cells)
            try:
                diagram.validate_shape(poly)
            except PolyominoError:
                continue
            tested += 1
            word = diagram.polyomino_permutation(poly)
            expected = network.from_permutation(perm.inverse(word)).edges
            assert diagram.polyomino_edges(poly) == expected
        assert tested == 816


def renumbering_word_and_labels(poly):
    """Oracle: the row recursion that renumbers the whole older word for
    every row and completes it with the values still missing."""
    rows = diagram._rows(poly.cells)
    word, slots, prev_cols = [], [], None
    for r in sorted(rows, reverse=True):
        cols = rows[r]
        left_count = len(cols) if prev_cols is None else sum(1 for c in cols if c < prev_cols[0])
        seq = [len(cols) + 1] + list(range(1, left_count + 1))
        seq_slots = [("east", (r, cols[-1]))] + [
            ("south", (r, cols[0] + i)) for i in range(left_count)
        ]
        if not word:
            word, slots = seq, seq_slots
        else:
            taken = set(seq)
            free = [v for v in range(1, len(seq) + len(word) + len(taken) + 2) if v not in taken]
            word = seq + [free[v - 1] for v in word]
            slots = seq_slots + slots
        have = set(word)
        missing = [v for v in range(1, max(word) + 1) if v not in have]
        word = word + missing
        slots = slots + [("pending", (r, 0))] * len(missing)
        prev_cols = cols
    return word, slots


def scanning_ribbon(lp):
    """Oracle: the ribbon walk that scans every cell for each step's
    nearest cell below, then its nearest cell to the left."""
    cells = lp.poly.cells
    if not cells:
        raise diagram.RibbonError("empty polyomino has no ribbon")
    if not lp.east:
        raise diagram.RibbonError("no east labels to start the ribbon from")
    start = max(lp.east, key=lambda cell: lp.east[cell])
    bottom = max(r for r, _ in cells)
    end = (bottom, min(c for r, c in cells if r == bottom))
    path = [start]
    cur = start
    for _ in range(len(cells) + 1):
        if cur == end:
            return tuple(path)
        r, c = cur
        below = [rr for rr, cc in cells if cc == c and rr > r]
        left = [cc for rr, cc in cells if rr == r and cc < c]
        if below:
            cur = (min(below), c)
        elif left:
            cur = (r, max(left))
        else:
            raise diagram.RibbonError(f"ribbon stuck at {cur} before reaching {end}")
        path.append(cur)
    raise diagram.RibbonError("ribbon walk did not terminate")


def outcome(f, *args):
    """A call's value, or the type, condition and message of its error."""
    try:
        value = f(*args)
    except (PolyominoError, diagram.RibbonError) as exc:
        return "raised", type(exc).__name__, getattr(exc, "condition", None), str(exc)
    if isinstance(value, diagram.LabeledPolyomino):
        return value.east, value.south
    return value


class TestPeelOracle:
    """The value-ordered slot list and the neighbour-map walk against the
    renumbering recursion and the scanning walk they replace."""

    @pytest.fixture
    def compare(self, monkeypatch):
        def oracle_labels(poly):
            with monkeypatch.context() as m:
                m.setattr(diagram, "_build_word_and_labels", renumbering_word_and_labels)
                m.setattr(diagram, "boundary_ribbon", scanning_ribbon)
                return outcome(diagram.label_polyomino, poly)

        def check(cells):
            """Compares word, slots, labels and ribbon; names what happened."""
            poly = diagram.Polyomino(cells)
            assert (outcome(diagram._build_word_and_labels, poly)
                    == outcome(renumbering_word_and_labels, poly)), cells
            labels = outcome(diagram.label_polyomino, poly)
            assert labels == oracle_labels(poly), cells
            if labels[0] == "raised":
                return labels[2] or labels[1]
            lp = diagram.LabeledPolyomino(poly, *labels)
            ribbon = outcome(diagram.boundary_ribbon, lp)
            assert ribbon == outcome(scanning_ribbon, lp), cells
            return "stuck ribbon" if ribbon[0] == "raised" else "ribbon"
        return check

    def test_every_subset_of_a_3x4_box(self, compare):
        box = [(r, c) for r in range(1, 4) for c in range(1, 5)]
        tally = Counter(compare([cell for i, cell in enumerate(box) if mask >> i & 1])
                        for mask in range(1, 1 << len(box)))
        assert tally == {diagram.COND_ROWS: 2292, "RibbonError": 13,
                         "stuck ribbon": 90, "ribbon": 1700}

    def test_seeded_subsets_of_a_6x6_box_at_random_offsets(self, compare):
        rng = random.Random(23)
        seen = set()
        for _ in range(3000):
            dr, dc = rng.randrange(4), rng.randrange(4)
            density = rng.choice((0.5, 0.7, 0.85, 0.95))
            seen.add(compare([(r + dr, c + dc) for r in range(1, 7) for c in range(1, 7)
                              if rng.random() < density]))
        assert seen == {diagram.COND_ROWS, "ribbon"}

    def test_every_strip_of_every_peel_chain_to_degree_seven(self, compare):
        diagrams = set()
        for n in range(2, 8):
            for w in permutations(range(1, n + 1)):
                cells = diagram.rothe_diagram(w).cells
                if cells and shape_condition(cells) is None:
                    diagrams.add(cells)
        strips = 0
        for cells in diagrams:
            current = diagram.Polyomino(cells)
            while current.cells:
                compare(current.cells)
                _edges, current = diagram.peel_step(diagram.label_polyomino(current))
                strips += 1
        assert (len(diagrams), strips) == (2085, 6547)


def greedy_dyck_tiling(ribbon):
    """Oracle: from each tile start, scan forward for the last cell at which
    left and down steps balance before down steps outnumber left ones."""
    tiles = []
    i = 0
    n = len(ribbon)
    while i < n:
        best = i
        lefts = downs = 0
        j = i
        while j + 1 < n:
            r0, c0 = ribbon[j]
            r1, c1 = ribbon[j + 1]
            if r0 == r1 and c1 < c0:
                lefts += 1
            elif c0 == c1 and r1 > r0:
                downs += 1
            else:
                raise diagram.RibbonError(f"non-adjacent ribbon cells {ribbon[j]}, {ribbon[j+1]}")
            if downs > lefts:
                break
            j += 1
            if lefts == downs:
                best = j
        run = tuple(ribbon[i : best + 1])
        tiles.append((run, (len(run) - 1) // 2))
        i = best + 1
    return tiles


def random_ribbon(rng):
    """Up to 24 steps: left or down by 1 to 3 (longer steps jump gaps), and
    one step in 50 diagonal, up, right or standing still."""
    ribbon = [(rng.randint(1, 5), rng.randint(30, 40))]
    for _ in range(rng.randrange(24)):
        r, c = ribbon[-1]
        kind, jump = rng.random(), rng.choice((1, 1, 1, 2, 3))
        if kind < 0.49:
            ribbon.append((r, c - jump))
        elif kind < 0.98:
            ribbon.append((r + jump, c))
        else:
            ribbon.append(rng.choice(((r + 1, c - 1), (r - 1, c), (r, c + 1), (r, c))))
    return tuple(ribbon)


class TestTilingOracle:
    """The one-pass tiling against the greedy rescan it replaces: the
    tiles, or the error's message."""

    def test_every_strip_of_every_accepted_rothe_diagram_to_degree_seven(self):
        strips = 0
        for n in range(1, 8):
            for w in permutations(range(1, n + 1)):
                current = diagram.rothe_diagram(w)
                if (not current.cells
                        or outcome(diagram.polyomino_permutation, current)[0] == "raised"):
                    continue
                while current.cells:
                    lp = diagram.label_polyomino(current)
                    ribbon = diagram.boundary_ribbon(lp)
                    assert diagram.maximal_dyck_tiling(ribbon) == greedy_dyck_tiling(ribbon), w
                    _edges, current = diagram.peel_step(lp)
                    strips += 1
        assert strips == 9319

    def test_seeded_step_words_with_gaps_and_bad_steps(self):
        rng = random.Random(25)
        tally = Counter()
        for _ in range(200_000):
            ribbon = random_ribbon(rng)
            got = outcome(diagram.maximal_dyck_tiling, ribbon)
            assert got == outcome(greedy_dyck_tiling, ribbon), ribbon
            tally["raised" if got[0] == "raised" else max(size for _run, size in got) > 0] += 1
        assert tally == {True: 128026, False: 32084, "raised": 39890}

    def test_long_bar_is_one_pass(self):
        """20,000 left steps give one-cell tiles in well under a second; the
        greedy rescan, quadratic in the run, takes about 20 s."""
        ribbon = tuple((1, c) for c in range(20_000, 0, -1))
        start = time.perf_counter()
        tiles = diagram.maximal_dyck_tiling(ribbon)
        assert time.perf_counter() - start < 0.5
        assert tiles == [((cell,), 0) for cell in ribbon]


def rothe_cells(word):
    """The pointwise oracle: (i, j) with word[i] > j and value j placed after i."""
    w = perm.check_word(word)
    inv = {v: p for p, v in enumerate(w, start=1)}
    return frozenset(
        (i, j)
        for i, v in enumerate(w, start=1)
        for j in range(1, v)
        if inv[j] > i
    )


def compact_maps(cells):
    """Rank of each used row and column among the used ones."""
    used_rows = sorted({r for r, _ in cells})
    used_cols = sorted({c for _, c in cells})
    return (
        {r: i for i, r in enumerate(used_rows, start=1)},
        {c: i for i, c in enumerate(used_cols, start=1)},
    )


def compacted_rothe_cells(word):
    cells = rothe_cells(word)
    rmap, cmap = compact_maps(cells)
    return frozenset((rmap[r], cmap[c]) for r, c in cells)


class TestRotheDiagram:
    def test_worked_example_two_components(self):
        poly = diagram.rothe_diagram((2, 6, 3, 5, 1, 4))
        assert len(poly.cells) == 8
        assert poly.component_count == 2
        assert poly.cells == frozenset(
            [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (2, 4), (4, 3)]
        )

    def test_identity_is_empty(self):
        assert not diagram.rothe_diagram(perm.identity(5)).cells

    def test_transpose_property(self):
        for w in permutations(range(1, 6)):
            cells = rothe_cells(w)
            flipped = frozenset((c, r) for r, c in cells)
            assert rothe_cells(perm.inverse(w)) == flipped
            poly_cells = diagram.rothe_diagram(w).cells
            flipped = frozenset((c, r) for r, c in poly_cells)
            assert diagram.rothe_diagram(perm.inverse(w)).cells == flipped

    @pytest.mark.parametrize("n", range(8))
    def test_matches_compacted_oracle_on_every_word(self, n):
        for w in permutations(range(1, n + 1)):
            assert diagram.rothe_diagram(w).cells == compacted_rothe_cells(w)

    def test_matches_compacted_oracle_on_seeded_words(self):
        rng = random.Random(2048)
        for n in (2 ** k for k in range(12)):  # degrees 1, 2, 4, ..., 2048
            w = rng.sample(range(1, n + 1), n)
            assert diagram.rothe_diagram(w).cells == compacted_rothe_cells(w)

    def test_rejects_non_permutation(self):
        with pytest.raises(perm.PermError):
            diagram.rothe_diagram((1, 3, 3))


class TestRotheStep:
    def test_reorder_worked_example(self):
        edges, succ = diagram.rothe_step((8, 1, 3, 6, 2, 4, 7, 5))
        assert succ == (1, 2, 3, 6, 4, 5, 7, 8)
        assert edges == {(1, 8), (2, 8), (4, 8), (5, 8)}

    def test_decreasing_run_worked_example(self):
        assert decreasing_run((8, 1, 3, 6, 2, 4, 7, 5), 5) == (5, 4, 2, 1)

    def test_step_edges_worked_example(self):
        edges, _succ = diagram.rothe_step((2, 7, 1, 4, 6, 3, 5))
        assert edges == {(1, 7), (3, 7), (5, 7)}

    def test_identity_rejected(self):
        with pytest.raises(PolyominoError):
            diagram.rothe_step(perm.identity(4))

    def test_chain_for_small_degree(self):
        edges, succ = diagram.rothe_step((2, 6, 3, 5, 1, 4))
        assert edges == {(1, 6), (4, 6)}
        assert succ == (2, 1, 3, 5, 4, 6)


class TestRotheEdges:
    def test_worked_example(self):
        assert diagram.rothe_edges((2, 7, 1, 4, 6, 3, 5)) == {
            (1, 2), (1, 7), (3, 7), (5, 6), (5, 7),
        }

    def test_identity(self):
        assert diagram.rothe_edges(perm.identity(6)) == frozenset()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_inverse_word_network(self, n):
        [result] = checks.check_rothe(n)
        assert result.passed
        assert result.detail.endswith(f" on {factorial(n)} words")


# -- the geometric route: one reduction step read off the drawn diagram --


def _rank(value, table):
    """Position of ``value`` after deleting the indices missing from
    ``table``; a missing value lands just past the kept ones below it."""
    if value in table:
        return table[value]
    return sum(1 for k in table if k < value) + 1


def rothe_polyomino(word):
    """Compacted inversion diagram with the word's labels carried along.

    The value at position i labels (i, value); after compaction it
    becomes an east label when a cell survives on its left in the row
    (nearest first), else a south label of the nearest surviving cell
    above it in the column.  Fully detached labels are dropped (they
    never feed the ribbon pipeline).
    """
    w = perm.check_word(word)
    cells = rothe_cells(w)
    rmap, cmap = compact_maps(cells)
    glued = frozenset((rmap[r], cmap[c]) for r, c in cells)
    east, south = {}, {}
    for i, v in enumerate(w, start=1):
        r, c = _rank(i, rmap), _rank(v, cmap)
        if (r, c - 1) in glued:
            east[(r, c - 1)] = v
        elif (r - 1, c) in glued:
            south[(r - 1, c)] = v
        else:
            left = [cc for rr, cc in glued if rr == r and cc < c]
            above = [rr for rr, cc in glued if cc == c and rr < r]
            if left:
                east[(r, max(left))] = v
            elif above:
                south[(max(above), c)] = v
    return diagram.LabeledPolyomino(poly=diagram.Polyomino(cells=glued), east=east, south=south)


def decreasing_run(word, start):
    """Nearest-smaller chain walking left from ``start``'s position.

    Entries skipped between consecutive chain members are all larger
    than the member on the right; the walk stops at the position of the
    largest value not fixed by the word's tail.
    """
    w = perm.check_word(word)
    top = diagram._active_top(w)
    if top == 0:
        return ()
    pos = {v: p for p, v in enumerate(w, start=1)}
    limit = pos[top]
    p = pos[start]
    if p <= limit:
        raise PolyominoError(diagram.COND_ROWS, f"value {start} not right of {top}")
    run = [start]
    cur = start
    for k in range(p - 1, limit, -1):
        if w[k - 1] < cur:
            run.append(w[k - 1])
            cur = w[k - 1]
    return tuple(run)


def geometric_step_edges(word):
    """Edge set of one step read off the drawn diagram instead of the word."""
    lp = rothe_polyomino(word)
    ribbon = diagram.boundary_ribbon(lp)
    tiles = diagram.maximal_dyck_tiling(ribbon)
    labels = {lp.south[run[-1]] for run, _size in tiles}
    top_label = lp.east[ribbon[0]]
    run = decreasing_run(word, min(labels))
    return frozenset((x, top_label) for x in labels | set(run))


class TestGeometricCrossCheck:
    def test_two_component_figure(self):
        lp = rothe_polyomino((2, 7, 1, 4, 6, 3, 5))
        assert diagram.boundary_ribbon(lp) == ((2, 5), (2, 4), (4, 4), (4, 2))
        assert geometric_step_edges((2, 7, 1, 4, 6, 3, 5)) == {(1, 7), (3, 7), (5, 7)}

    def test_figure_chain(self):
        word = (2, 7, 1, 4, 6, 3, 5)
        collected = set()
        while word != perm.identity(7):
            step, nxt = diagram.rothe_step(word)
            assert geometric_step_edges(word) == step
            collected |= step
            word = nxt
        assert collected == {(1, 2), (1, 7), (3, 7), (5, 6), (5, 7)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_word_route(self, n):
        for w in permutations(range(1, n + 1)):
            if w == tuple(range(1, n + 1)):
                continue
            step, _succ = diagram.rothe_step(w)
            assert geometric_step_edges(w) == step


class TestRendering:
    def test_cell_dump_deterministic(self, big_poly):
        lp = diagram.label_polyomino(big_poly)
        dump = diagram.cell_dump(big_poly, lp)
        assert dump.splitlines()[0] == "cell 1 1"
        assert "cell 1 4 5" in dump.splitlines()
        assert len(dump.splitlines()) == len(BIG_CELLS)

    def test_grid_contains_cells(self, big_poly):
        art = diagram.render_polyomino(big_poly)
        assert art.count("##") == len(BIG_CELLS)

    def test_json_round_trip(self, big_poly):
        text = diagram.polyomino_to_json(big_poly)
        assert diagram.polyomino_from_json(text) == big_poly
