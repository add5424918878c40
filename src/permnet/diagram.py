"""Cell diagrams: polyominoes, boundary ribbons, Dyck tilings, Rothe diagrams.

Cells are (row, col) pairs with row 1 at the top, increasing downward
(matrix convention).  A polyomino in the accepted class has no holes,
weakly decreasing north-edge heights, and unimodal south-edge heights;
such a diagram encodes a permutation (``polyomino_permutation``) and an
edge set (``polyomino_edges``) obtained by repeatedly stripping the
boundary ribbon.

Rothe diagrams are handled on one-line words directly: ``rothe_diagram``
lists the inversion cells with empty rows and columns compacted away,
and ``rothe_step``/``rothe_edges`` reduce the word down to the identity,
emitting the edge set of the inverse word's network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .perm import Word, check_word
from .network import Edge

Cell = tuple[int, int]

COND_EMPTY = "empty"
COND_CONNECTED = "connected"
COND_HOLES = "holes"
COND_NORTH = "north-steps"
COND_SOUTH = "south-unimodal"
COND_ROWS = "row-gap"


class PolyominoError(ValueError):
    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class Polyomino:
    """Takes any iterable of (row, col) pairs and freezes it once."""

    cells: frozenset[Cell]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(map(tuple, self.cells)))
        for r, c in self.cells:
            if r < 1 or c < 1:
                raise PolyominoError(COND_EMPTY, f"cell {(r, c)} not positive")

    @property
    def component_count(self) -> int:
        """Number of edge-connected components of the cells."""
        todo = set(self.cells)
        count = 0
        while todo:
            count += 1
            stack = [todo.pop()]
            while stack:
                r, c = stack.pop()
                for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if nb in todo:
                        todo.remove(nb)
                        stack.append(nb)
        return count


def _rows(cells: frozenset[Cell]) -> dict[int, list[int]]:
    """Columns of each row, top row first; rows must be contiguous."""
    rows: dict[int, list[int]] = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    rows = {r: sorted(cs) for r, cs in sorted(rows.items())}
    for r, cs in rows.items():
        if cs != list(range(cs[0], cs[0] + len(cs))):
            raise PolyominoError(COND_ROWS, f"row {r} is not contiguous")
    return rows


def validate_shape(poly: Polyomino) -> None:
    """Check membership in the accepted polyomino class.

    Raises PolyominoError with the failed condition: connectivity, a
    hole, a north-edge height increase, or a south-edge height that is
    not unimodal (a valley).  A connected cell set has a hole exactly
    when its Euler count, corners - unit sides + cells, is not 1.
    """
    cells = poly.cells
    if not cells:
        raise PolyominoError(COND_EMPTY, "empty polyomino")
    count = poly.component_count
    if count != 1:
        raise PolyominoError(COND_CONNECTED, f"{count} components, expected 1")
    corners = {(r + a, c + b) for r, c in cells for a in (0, 1) for b in (0, 1)}
    horizontal = {(r + a, c) for r, c in cells for a in (0, 1)}
    vertical = {(r, c + b) for r, c in cells for b in (0, 1)}
    if len(corners) - len(horizontal) - len(vertical) + len(cells) != 1:
        raise PolyominoError(COND_HOLES, "polyomino has a hole")
    # north heights weakly decreasing left to right (row index weakly increasing)
    norths = sorted((c, r) for r, c in cells if (r - 1, c) not in cells)
    for (ca, ra), (cb, rb) in zip(norths, norths[1:]):
        if rb < ra:
            raise PolyominoError(
                COND_NORTH, f"north edge of {(rb, cb)} higher than that of {(ra, ca)}"
            )
    # south heights unimodal: down then up (row index up then down)
    heights = [h for _, h in sorted((c, -r) for r, c in cells if (r + 1, c) not in cells)]
    k = heights.index(min(heights))
    for a, b in zip(heights[: k + 1], heights[1 : k + 1]):
        if b > a:
            raise PolyominoError(COND_SOUTH, "south edges not unimodal")
    for a, b in zip(heights[k:], heights[k + 1 :]):
        if b < a:
            raise PolyominoError(COND_SOUTH, "south edges not unimodal")


def _build_word_and_labels(
    poly: Polyomino,
) -> tuple[list[int], list[tuple[str, Cell]]]:
    """Run the row recursion, tracking which edge every value labels.

    Rows are absorbed bottom to top into one list of slots in value
    order: a row's south slots (the cells protruding left of the row
    below) take the first ranks and its east slot rank ``len(cols) + 1``,
    which renumbers the older slots without reordering them.  If the list
    is too short for the east slot, pending slots fill it first; they
    belong to south edges protruding right of the row below, and which of
    those edges actually carry them is settled by the boundary ribbon's
    tiling.  The word holds each row's east then south values, top row
    first, then the pending values, bottom row's first.
    """
    rows = _rows(poly.cells)
    slots: list[tuple[str, Cell]] = []
    by_value: list[int] = []  # indexes into slots, smallest value first
    seeds: list[int] = []  # east and south slots in word order
    spare: list[int] = []  # pending slots in word order
    below = float("inf")  # first column of the row below; none under the bottom row
    for r in sorted(rows, reverse=True):
        cols = rows[r]
        left_count = min(len(cols), max(0, below - cols[0]))
        east = len(slots)
        slots.append(("east", (r, cols[-1])))
        slots.extend(("south", (r, cols[0] + i)) for i in range(left_count))
        seeds[:0] = range(east, len(slots))
        by_value[:0] = range(east + 1, len(slots))
        pending = range(len(slots), len(slots) + len(cols) - len(by_value))
        slots.extend([("pending", (r, 0))] * len(pending))
        spare.extend(pending)
        by_value.extend(pending)
        by_value.insert(len(cols), east)
        below = cols[0]
    value = {i: v for v, i in enumerate(by_value, start=1)}
    order = seeds + spare
    return [value[i] for i in order], [slots[i] for i in order]


def polyomino_permutation(poly: Polyomino) -> Word:
    """The permutation encoded by a polyomino of the accepted class.

    Built row by row from the bottom; equal to the reading word of the
    diagram's edge labeling.
    """
    if not poly.cells:
        return ()
    validate_shape(poly)
    word, _slots = _build_word_and_labels(poly)
    return check_word(word)


# -- labeling ---------------------------------------------------------------


@dataclass(frozen=True)
class LabeledPolyomino:
    """A polyomino with east-edge and south-edge integer labels."""

    poly: Polyomino
    east: dict[Cell, int]
    south: dict[Cell, int]


def label_polyomino(poly: Polyomino) -> LabeledPolyomino:
    """Assign the edge labels whose reading word is the row-recursion
    permutation: one east label per row (its rightmost cell), one south
    label per cell with no cell below it and no lower east label sitting
    in its below slot.

    Chain polyominoes may have empty ambient columns (symbols already
    fixed by earlier peels; the peel shifts survivors right for exactly
    this reason), so the recursion runs on the column-compacted shape
    and every label is raised by the number of empty columns on its
    left.  Values the recursion appends past the main word label the
    boundary-ribbon tile bottoms that no other slot covers.
    """
    if not poly.cells:
        raise PolyominoError(COND_EMPTY, "cannot label an empty polyomino")
    used_cols = sorted({c for _r, c in poly.cells})
    cmap = {c: i for i, c in enumerate(used_cols, start=1)}
    back = {i: c for c, i in cmap.items()}
    compacted = Polyomino((r, cmap[c]) for r, c in poly.cells)
    word, slots = _build_word_and_labels(compacted)

    def lift(value: int, ambient_col: int) -> int:
        return value + (ambient_col - cmap[ambient_col])

    east: dict[Cell, int] = {}
    south: dict[Cell, int] = {}
    pending: list[int] = []
    for value, (kind, cell) in zip(word, slots):
        if kind == "pending":
            pending.append(value)
            continue
        r, c = cell
        target = east if kind == "east" else south
        target[r, back[c]] = lift(value, back[c])
    if pending:
        draft = LabeledPolyomino(poly=poly, east=east, south=south)
        ribbon = boundary_ribbon(draft)
        needy = sorted(
            {run[-1] for run, _size in maximal_dyck_tiling(ribbon)} - set(south),
            key=lambda rc: (rc[1], rc[0]),
        )
        if len(needy) > len(pending):
            raise PolyominoError(
                COND_ROWS,
                f"{len(needy)} unlabeled tile bottoms for {len(pending)} spare labels",
            )
        for value, (r, c) in zip(sorted(pending), needy):
            south[(r, c)] = lift(value, c)
    return LabeledPolyomino(poly=poly, east=east, south=south)


class RibbonError(ValueError):
    pass


def boundary_ribbon(lp: LabeledPolyomino) -> tuple[Cell, ...]:
    """Boundary cells from the maximal east label to the lowest-leftmost cell.

    Steps go to the nearest cell below in the same column when one
    exists, else to the nearest cell to the left in the same row; on
    multi-component diagrams these steps may jump gaps.
    """
    cells = lp.poly.cells
    if not cells:
        raise RibbonError("empty polyomino has no ribbon")
    if not lp.east:
        raise RibbonError("no east labels to start the ribbon from")
    start = max(lp.east, key=lambda cell: lp.east[cell])
    end = max(cells, key=lambda rc: (rc[0], -rc[1]))
    by_col = sorted(cells, key=lambda rc: (rc[1], rc[0]))
    down = {a: b for a, b in zip(by_col, by_col[1:]) if a[1] == b[1]}
    by_row = sorted(cells)
    left = {b: a for a, b in zip(by_row, by_row[1:]) if a[0] == b[0]}
    path = [start]
    while path[-1] != end:  # every step goes down or left, so this ends
        step = down.get(path[-1]) or left.get(path[-1])
        if step is None:
            raise RibbonError(f"ribbon stuck at {path[-1]} before reaching {end}")
        path.append(step)
    return tuple(path)


Tile = tuple[tuple[Cell, ...], int]


def maximal_dyck_tiling(ribbon: Sequence[Cell]) -> list[Tile]:
    """Partition a ribbon into maximal Dyck tiles.

    The ribbon is read from its maximal-label end; each tile is the
    longest run from the current cell whose step word is a Dyck path
    (reading away from the start, every prefix has at least as many left
    steps as down steps, with equal totals).  A tile of 2k+1 cells has
    size k.  One pass matches each down step with the nearest open left
    step before it; a tile then runs through consecutive matched blocks.
    """
    closes: dict[int, int] = {}  # cell of a left step -> cell after its matching down
    opens: list[int] = []
    for j, ((r0, c0), (r1, c1)) in enumerate(zip(ribbon, ribbon[1:])):
        if r0 == r1 and c1 < c0:
            opens.append(j)
        elif c0 == c1 and r1 > r0:
            if opens:
                closes[opens.pop()] = j + 1
        else:
            raise RibbonError(f"non-adjacent ribbon cells {ribbon[j]}, {ribbon[j+1]}")
    tiles: list[Tile] = []
    i = 0
    while i < len(ribbon):
        j = i
        while j in closes:
            j = closes[j]
        run = tuple(ribbon[i : j + 1])
        tiles.append((run, (len(run) - 1) // 2))
        i = j + 1
    return tiles


def peel_step(lp: LabeledPolyomino) -> tuple[frozenset[Edge], Polyomino]:
    """One boundary strip: emitted edges plus the reduced polyomino.

    Every tile of the boundary ribbon's maximal Dyck tiling contributes
    (bottom south label, top label); south labels left of the ribbon end
    and strictly below the top label's row contribute likewise.  The
    reduction deletes the ribbon and those extra cells, then shifts the
    rows weakly below the top label's row right by one.
    """
    cells = lp.poly.cells
    if not cells:
        raise RibbonError("cannot peel an empty polyomino")
    ribbon = boundary_ribbon(lp)
    tiles = maximal_dyck_tiling(ribbon)
    start = ribbon[0]
    top_label = lp.east[start]
    bottoms = []
    for run, _size in tiles:
        cell = run[-1]
        if cell not in lp.south:
            raise RibbonError(f"tile bottom {cell} carries no south label")
        bottoms.append(cell)
    end = ribbon[-1]
    if end not in lp.south:
        raise RibbonError(f"ribbon end {end} carries no south label")
    ribbon_set = set(ribbon)
    extra = [
        cell
        for cell, _v in lp.south.items()
        if cell not in ribbon_set and cell[1] < end[1] and cell[0] >= start[0]
    ]
    edges = {(lp.south[cell], top_label) for cell in bottoms}
    edges |= {(lp.south[cell], top_label) for cell in extra}
    remaining = cells - ribbon_set - set(extra)
    shifted = Polyomino(
        (r, c + 1) if r >= start[0] else (r, c) for r, c in remaining
    )
    return frozenset(edges), shifted


def polyomino_edges(poly: Polyomino) -> frozenset[Edge]:
    """Union of peeled edge sets over the reduction chain down to empty, for
    the diagram moved to start at column 1: its word ignores its position too."""
    if not poly.cells:
        return frozenset()
    validate_shape(poly)
    shift = min(c for _, c in poly.cells) - 1
    return peel_edges(Polyomino((r, c - shift) for r, c in poly.cells))


def peel_edges(poly: Polyomino) -> frozenset[Edge]:
    """``polyomino_edges`` on a diagram whose shape is already validated."""
    edges: set[Edge] = set()
    current = poly
    last_top = None
    while current.cells:
        lp = label_polyomino(current)
        step_edges, current = peel_step(lp)
        top = max(j for _, j in step_edges)
        if last_top is not None and top >= last_top:
            raise RibbonError("top labels failed to decrease along the chain")
        last_top = top
        edges |= step_edges
    return frozenset(edges)


# -- Rothe diagrams ----------------------------------------------------------


def rothe_diagram(word: Sequence[int]) -> Polyomino:
    """The word's inversion diagram with empty rows and columns removed.

    Cell (i, j) is an inversion when word[i] > j and value j sits right
    of position i.  Row i is empty when no smaller value sits right of
    it (a suffix minimum) and column j when no larger value sits left of
    it (a prefix maximum), so the compacted coordinates are running
    counts of the non-empty ones, found in O(n) before the one pass over
    the cells.
    """
    w = check_word(word)
    n = len(w)
    pos = [0] * (n + 1)
    for p, v in enumerate(w, start=1):
        pos[v] = p
    keep_row = [False] * (n + 1)
    low = n + 1
    for i in range(n, 0, -1):
        if w[i - 1] > low:
            keep_row[i] = True
        else:
            low = w[i - 1]
    high = list(accumulate(w, max, initial=0))  # high[p]: max of the first p
    row = list(accumulate(keep_row))
    col = list(accumulate([False] + [high[pos[j] - 1] > j for j in range(1, n + 1)]))
    return Polyomino(
        (row[i], col[j]) for i, v in enumerate(w, start=1) for j in range(1, v) if pos[j] > i
    )


def _active_top(w: Word) -> int:
    m = len(w)
    while m >= 1 and w[m - 1] == m:
        m -= 1
    return m


def rothe_step(word: Sequence[int]) -> tuple[frozenset[Edge], Word]:
    """One reduction step on a word: emitted edges plus the successor.

    With m the largest value not already fixed at its own position, the
    moved set holds m together with every smaller value that sits right
    of m and right of all values below it.  Each moved value x != m
    yields the edge (x, m); the successor keeps all other positions and
    rewrites the moved values in increasing order.
    """
    w = check_word(word)
    top = _active_top(w)
    if top == 0:
        raise PolyominoError(COND_EMPTY, "identity word has no reduction step")
    pos = {v: p for p, v in enumerate(w, start=1)}
    moved = [top]
    running_max = 0
    for v in range(1, top):
        dominant = pos[v] > running_max
        running_max = max(running_max, pos[v])
        if dominant and pos[v] > pos[top]:
            moved.append(v)
    edges = frozenset((v, top) for v in moved if v != top)
    slots = sorted(pos[v] for v in moved)
    values = sorted(moved)
    out = list(w)
    for p, v in zip(slots, values):
        out[p - 1] = v
    return edges, check_word(out)


def rothe_edges(word: Sequence[int]) -> frozenset[Edge]:
    """Union of step edges along the reduction chain down to the identity."""
    w = check_word(word)
    edges: set[Edge] = set()
    while _active_top(w) != 0:
        step, w = rothe_step(w)
        edges |= step
    return frozenset(edges)


# -- rendering ---------------------------------------------------------------


def render_polyomino(poly: Polyomino, lp: Optional[LabeledPolyomino] = None) -> str:
    """Plain-text grid; with labels, east labels sit right of their cell
    and south labels below it."""
    if not poly.cells:
        return "(empty)"
    east = lp.east if lp else {}
    south = lp.south if lp else {}
    width = max((len(str(v)) for v in list(east.values()) + list(south.values())), default=1)
    width = max(width, 2)
    # A cell's mark wins over an east label there, which wins over a south label.
    marks = {(r + 1, c): str(v).ljust(width) for (r, c), v in south.items()}
    marks.update(((r, c + 1), str(v).ljust(width)) for (r, c), v in east.items())
    marks.update((cell, "##".ljust(width)) for cell in poly.cells)
    rows: dict[int, dict[int, str]] = {}
    for (r, c), text in marks.items():
        rows.setdefault(r, {})[c] = text
    # Only columns up to a row's last mark: the rest would be stripped.
    blank = " " * width
    lines = []
    for r in range(1, max(rows) + 1):
        row = rows.get(r, {})
        cols = range(1, max(row, default=0) + 1)
        lines.append(" ".join(row.get(c, blank) for c in cols).rstrip())
    return "\n".join(lines)


def cell_dump(poly: Polyomino, lp: Optional[LabeledPolyomino] = None) -> str:
    """One ``cell row col [label]`` line per cell, deterministic order."""
    east = lp.east if lp else {}
    lines = []
    for r, c in sorted(poly.cells):
        if (r, c) in east:
            lines.append(f"cell {r} {c} {east[(r, c)]}")
        else:
            lines.append(f"cell {r} {c}")
    return "\n".join(lines)


def polyomino_to_json(poly: Polyomino) -> str:
    return json.dumps({"cells": sorted(poly.cells)})  # tuples dump as arrays


def polyomino_from_json(text: str) -> Polyomino:
    try:
        obj = json.loads(text)
        cells = [tuple(c) for c in obj["cells"]]
        if not all(len(c) == 2 and type(c[0]) is type(c[1]) is int  # no bool, float or str
                   for c in cells):
            raise TypeError("cells must be pairs of integers")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise PolyominoError(COND_EMPTY, f"cannot parse polyomino json: {text!r}") from exc
    return Polyomino(cells)
