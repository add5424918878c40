"""Pointed Young diagrams ("forests") attached to a source/sink signature.

The signature (over {+1, -1}, starting with +1 and ending with -1)
determines a Young diagram in French notation: row i from the bottom is
as long as the number of sources before the i-th largest sink.  A forest
marks some cells, subject to one rule: no marked cell may have marked
cells both below it in its column and left of it in its row.

A forest carries its shape, computed once by its builder
(``make_forest`` or ``enumerate_forests``) from the checked signature.

Cells are (row, col) with row 1 at the BOTTOM here; conversions to the
matrix convention used by the diagram module are explicit at call sites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .perm import Word, check_word, identity, inverse
from .network import (
    Network,
    NetworkError,
    Signature,
    check_signature,
    compatible,
    forced_edges,
    format_signature,
    max_network,
    parse_signature,
    signature_sinks,
    signature_sources,
    strip_neutral,
    to_permutation,
    validate,
)

Cell = tuple[int, int]


class ForestError(ValueError):
    def __init__(self, message: str, cell=None, witnesses=None):
        super().__init__(message)
        self.cell = cell
        self.witnesses = witnesses


def check_forest_signature(eps: Sequence[int]) -> Signature:
    e = strip_neutral(check_signature(eps))
    if not e:
        return e
    if e[0] != 1 or e[-1] != -1:
        raise ForestError(
            f"forest signature must start with + and end with -: {format_signature(e)}"
        )
    return e


def young_shape(eps: Sequence[int]) -> tuple[int, ...]:
    """Row lengths bottom-to-top: row i counts sources before the i-th
    largest sink.

    >>> young_shape(parse_signature("+-+-"))
    (2, 1)
    >>> young_shape(parse_signature("++--"))
    (2, 2)

    One left-to-right pass counts the sources seen at each sink: O(n).
    """
    return _shape(check_forest_signature(eps))


def _shape(e: Signature) -> tuple[int, ...]:
    """``young_shape`` of a signature already checked."""
    rows = []
    seen = 0
    for v in e:
        if v == 1:
            seen += 1
        else:
            rows.append(seen)
    return tuple(reversed(rows))


def shape_cells(shape: Sequence[int]) -> list[Cell]:
    return [(r, c) for r, width in enumerate(shape, start=1) for c in range(1, width + 1)]


def _label_tables(eps: Signature) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sources by column and sinks by row, both 0-based: cell (r, c) is
    labeled (ups[c - 1], downs[r - 1]).  They are also the boundary
    labels: south edges left to right, west edges bottom row first."""
    return signature_sources(eps), signature_sinks(eps)[::-1]


def _shadows(pts: Iterable[Cell]) -> tuple[dict[int, int], dict[int, int]]:
    """One pass over the marks: the lowest marked row of each column and
    the leftmost marked column of each row.  A cell (r, c) has a mark
    below it iff low[c] < r, and one left of it iff left[r] < c."""
    low: dict[int, int] = {}
    left: dict[int, int] = {}
    for r, c in pts:
        if r < low.get(c, r + 1):
            low[c] = r
        if c < left.get(r, c + 1):
            left[r] = c
    return low, left


def _inside(shape: Sequence[int], cell) -> bool:
    """Whether ``cell`` is one of ``shape_cells(shape)``, without listing
    them.  ``range`` membership, like membership in that list, accepts
    exactly the coordinates equal to an int in range."""
    if len(cell) != 2:
        return False
    r, c = cell
    return r in range(1, len(shape) + 1) and c in range(1, shape[int(r) - 1] + 1)


@dataclass(frozen=True)
class Forest:
    """A marking of the Young diagram of ``eps``.  Build one with ``make_forest``,
    the constructor that validates, or take it from ``enumerate_forests``;
    both fill ``shape``, which is derived from ``eps`` and so is left out
    of equality, the hash and the repr."""

    eps: Signature
    pointed: frozenset[Cell]
    shape: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.pointed)


def make_forest(eps: Sequence[int], pointed: Iterable[Cell]) -> Forest:
    """Validate cells against the shape and the no-double-shadow rule.

    A marked cell with marked cells both below (same column) and left
    (same row) is rejected, reporting one witness of each kind.  The
    rule costs O(1) per mark, so this is O(n + marks); only a rejected
    cell pays for the scan that names its witnesses.
    """
    return _mark(check_forest_signature(eps), pointed)


def _mark(e: Signature, pointed: Iterable[Cell]) -> Forest:
    """``make_forest`` on a signature already checked."""
    shape = _shape(e)
    pts = frozenset(tuple(c) for c in pointed)
    for cell in pts:
        if not _inside(shape, cell):
            raise ForestError(f"cell {cell} outside shape {shape}", cell=cell)
    low, leftmost = _shadows(pts)
    for r, c in pts:
        if low[c] < r and leftmost[r] < c:
            below = next((rr, cc) for rr, cc in pts if cc == c and rr < r)
            left = next((rr, cc) for rr, cc in pts if rr == r and cc < c)
            raise ForestError(
                f"cell {(r, c)} has marked cells both below {below} and left {left}",
                cell=(r, c),
                witnesses=(below, left),
            )
    return Forest(eps=e, pointed=pts, shape=shape)


def crossing_cells(f: Forest) -> frozenset[Cell]:
    """Empty cells where an upward ray from a mark below meets a
    rightward ray from a mark on the left: O(cells + marks)."""
    pts = f.pointed
    low, left = _shadows(pts)
    shape = f.shape
    return frozenset(
        (r, c)
        for r, start in left.items()
        for c in range(start + 1, shape[r - 1] + 1)
        if low.get(c, r) < r and (r, c) not in pts
    )


def enumerate_forests(eps: Sequence[int]) -> list[Forest]:
    """All forests over ``eps``, by depth-first search in raster order.

    Scanning rows bottom-to-top and left-to-right makes the marking rule
    checkable at placement time, so invalid branches die immediately.
    Every earlier mark lies below or left of the cell being placed, so
    the rule costs O(1): a mark below means the column already holds a
    mark, and a mark to the left means the last mark is in this row.
    """
    e = check_forest_signature(eps)
    shape = _shape(e)
    cells = sorted(shape_cells(shape))
    found: list[tuple[Cell, ...]] = []
    chosen: list[Cell] = []
    column_marks = [0] * (max(shape, default=0) + 1)

    def place(idx: int) -> None:
        if idx == len(cells):
            found.append(tuple(chosen))
            return
        place(idx + 1)
        r, c = cells[idx]
        if not (column_marks[c] and chosen[-1][0] == r):
            chosen.append((r, c))
            column_marks[c] += 1
            place(idx + 1)
            column_marks[c] -= 1
            chosen.pop()

    place(0)
    # ``chosen`` grows in raster order, so each tuple is its sorted marks.
    found.sort(key=lambda marks: (len(marks), marks))
    return [Forest(eps=e, pointed=frozenset(marks), shape=shape) for marks in found]


def to_network(f: Forest) -> Network:
    """Edges are the labels of marked and crossing cells."""
    ups, downs = _label_tables(f.eps)
    edges = {(ups[c - 1], downs[r - 1]) for r, c in f.pointed | crossing_cells(f)}
    return validate(len(f.eps), edges)


def from_network(net: Network, eps: Sequence[int]) -> Forest:
    """Inverse of ``to_network``: keep only the edges outside
    ``network.forced_edges``, i.e. those that no crossing pair forces."""
    e = check_forest_signature(eps)
    if not compatible(net, e):
        raise NetworkError(
            "endpoint-range",
            f"network does not fit signature {format_signature(e)}",
        )
    ups, downs = _label_tables(e)
    col = {i: c for c, i in enumerate(ups, start=1)}
    row = {j: r for r, j in enumerate(downs, start=1)}
    forced = forced_edges(net.edges)
    pts = {(row[j], col[i]) for i, j in net.edges if (i, j) not in forced}
    return _mark(e, pts)


# -- strand routing ----------------------------------------------------------


def _boundary_order(shape: Sequence[int]) -> list[tuple[str, int]]:
    """Exit slots along the upper-right staircase, clockwise from the
    top-left: column tops left to right, row ends interleaved top row
    first."""
    order: list[tuple[str, int]] = []
    r = len(shape)
    width = shape[0] if shape else 0
    for c in range(1, width + 1):
        while r >= 1 and shape[r - 1] < c:
            order.append(("right", r))
            r -= 1
        order.append(("top", c))
    while r >= 1:
        order.append(("right", r))
        r -= 1
    return order


def _route(f: Forest, resolve_crossings: bool) -> dict[tuple[str, int], int]:
    """Trace every strand to its boundary exit.

    Each marked cell launches an upward strand carrying its sink label
    (unless another mark lies left in its row, which would take that
    lane over) and a rightward strand carrying its source label (unless
    a mark lies below in its column).  Strands turn at marked cells; if
    ``resolve_crossings`` they also turn at crossing cells, otherwise
    they pass straight through.
    """
    shape = f.shape
    pts = f.pointed
    crossings = crossing_cells(f) if resolve_crossings else frozenset()
    ups, downs = _label_tables(f.eps)
    low, left = _shadows(pts)
    starts: list[tuple[Cell, str, int]] = []
    for cell in sorted(pts):
        r, c = cell
        left_in = left[r] < c
        below_in = low[c] < r
        if left_in and below_in:
            raise ForestError(f"marking rule violated at {cell}", cell=cell)
        if not left_in:
            starts.append((cell, "up", downs[r - 1]))
        if not below_in:
            starts.append((cell, "right", ups[c - 1]))
    exits: dict[tuple[str, int], int] = {}
    for cell, direction, label in starts:
        r, c = cell
        d = direction
        while True:
            nr, nc = (r + 1, c) if d == "up" else (r, c + 1)
            if nr > len(shape) or nc > shape[nr - 1]:
                key = ("top", c) if d == "up" else ("right", r)
                if key in exits:
                    raise ForestError(f"two strands exit at {key}")
                exits[key] = label
                break
            r, c = nr, nc
            if (r, c) in pts or (r, c) in crossings:
                d = "right" if d == "up" else "up"
    return exits


def strand_permutation(f: Forest, resolve_crossings: bool = True) -> Word:
    """Permutation read clockwise from the strand exit labels.

    Labels absent from the strands are fixed points; the sorted labels
    receive the clockwise reading word in order.  With
    ``resolve_crossings=False`` crossing cells keep their two strands
    crossing instead of turning them.
    """
    exits = _route(f, resolve_crossings)
    reading = [exits[k] for k in _boundary_order(f.shape) if k in exits]
    labels = sorted(reading)
    if len(set(labels)) != len(labels):
        raise ForestError(f"duplicate strand labels: {reading}")
    word = list(identity(len(f.eps)))
    for slot, value in zip(labels, reading):
        word[slot - 1] = value
    return check_word(word)


def max_network_permutation(eps: Sequence[int]) -> Word:
    """Inverse of the permutation of the fullest network for ``eps``."""
    return inverse(to_permutation(max_network(check_forest_signature(eps))))


def leaf_deletion_permutation(f: Forest) -> Word:
    """Peel leaves, swapping their two boundary labels, then read the
    boundary counterclockwise (west edges top to bottom, then south
    edges left to right).

    A leaf is a marked cell with no mark above it in its column nor
    right of it in its row.  The outcome does not depend on the order
    leaves are taken in; marks are peeled from the largest (row, col)
    down: the largest remaining mark has none above it and none right
    of it, so it is always a leaf.
    """
    shape = f.shape
    rows = len(shape)
    south, west = _label_tables(f.eps)
    west_by_row = dict(enumerate(west, start=1))
    south_by_col = dict(enumerate(south, start=1))
    for r, c in sorted(f.pointed, reverse=True):
        west_by_row[r], south_by_col[c] = south_by_col[c], west_by_row[r]
    reading = [west_by_row[r] for r in range(rows, 0, -1)]
    reading += [south_by_col[c] for c in range(1, len(south) + 1)]
    return check_word(reading)


def generating_function(eps: Sequence[int]) -> tuple[int, ...]:
    """Coefficients by total count of marked plus crossing cells."""
    forests = enumerate_forests(eps)
    top = 0
    counts: dict[int, int] = {}
    for f in forests:
        w = f.size + len(crossing_cells(f))
        counts[w] = counts.get(w, 0) + 1
        top = max(top, w)
    return tuple(counts.get(i, 0) for i in range(top + 1))


# -- serialization -----------------------------------------------------------


def forest_to_json(f: Forest) -> str:
    return json.dumps(
        {
            "epsilon": " ".join(format_signature(f.eps)),
            "pointed": [list(c) for c in sorted(f.pointed)],
        }
    )


def forest_from_json(text: str) -> Forest:
    try:
        obj = json.loads(text)
        if type(obj["epsilon"]) is not str:
            raise TypeError("epsilon must be signature text")
        eps = parse_signature(obj["epsilon"])
        pts = [tuple(c) for c in obj["pointed"]]
        if not all(type(v) is int for c in pts for v in c):  # no bool, float or str
            raise TypeError("mark coordinates must be integers")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ForestError(f"cannot parse forest json: {text!r}") from exc
    return make_forest(eps, pts)


def render_forest(f: Forest) -> str:
    """Rows top-to-bottom with marked cells, crossing cells, and the
    boundary labels."""
    shape = f.shape
    rows = len(shape)
    crossings = crossing_cells(f)
    south, west = _label_tables(f.eps)
    lines = []
    for r in range(rows, 0, -1):
        cells = []
        for c in range(1, shape[r - 1] + 1):
            if (r, c) in f.pointed:
                cells.append("[•]")
            elif (r, c) in crossings:
                cells.append("[□]")
            else:
                cells.append("[ ]")
        lines.append(f"{west[r - 1]:>2} " + "".join(cells))
    lines.append("   " + "".join(f"{v:^3}" for v in south))
    return "\n".join(lines)
