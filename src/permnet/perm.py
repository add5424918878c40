"""Permutations in one-line notation on {1, ..., n}.

Words are plain tuples of ints.  Text formats: bare digits for n <= 9
("3412"), comma-separated in general ("5,1,7,10,2,6,4,3,8,9"); output is
always comma-separated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]


class PermError(ValueError):
    """Raised for words that are not permutations of 1..n."""


def check_word(word: Iterable[int]) -> Word:
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise PermError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Word:
    return tuple(range(1, n + 1))


def inverse(w: Sequence[int]) -> Word:
    """Inverse word: ``inverse(w)[w[i]-1] == i`` for 1-based positions i.

    >>> inverse((5, 1, 7, 10, 2, 6, 4, 3, 8, 9))
    (2, 5, 8, 7, 1, 6, 3, 9, 10, 4)
    """
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[val - 1] = pos
    return tuple(out)


def compose(u: Sequence[int], v: Sequence[int]) -> Word:
    """Product of permutations: apply ``u`` first, then ``v``.

    (u * v)[i] = v[u[i]].

    >>> compose((6, 3, 5, 1, 4, 2), (4, 5, 1, 6, 2, 3))
    (3, 1, 2, 4, 6, 5)
    """
    if len(u) != len(v):
        raise PermError(f"degree mismatch: {len(u)} vs {len(v)}")
    return tuple(v[u[i] - 1] for i in range(len(u)))


def parse_word(text: str) -> Word:
    """Entries are ASCII digits: ``int`` alone would also take signs,
    underscores and other scripts' digits."""
    s = text.strip()
    tokens = [t.strip() for t in s.split(",")] if "," in s else [
        ch for ch in s if not ch.isspace()]
    try:
        if not all(t.isascii() and t.isdigit() for t in tokens):
            raise ValueError
        vals = [int(t) for t in tokens]
    except ValueError:
        raise PermError(f"cannot parse permutation: {s!r}") from None
    return check_word(vals)


def format_word(w: Sequence[int]) -> str:
    return ",".join(str(v) for v in w)


def swap_covers(w: Sequence[int]) -> set[Word]:
    """All words reachable by one exchange of entries w[i] > w[j], i < j.

    The returned words agree with ``w`` except at the two swapped
    positions.
    """
    w = tuple(w)
    out = set()
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                lst = list(w)
                lst[i], lst[j] = lst[j], lst[i]
                out.add(tuple(lst))
    return out


@lru_cache(maxsize=8)
def swap_levels(base: Word) -> tuple[frozenset[Word], ...]:
    """Breadth-first grading of all words reachable from ``base``.

    Level 0 is {base}; level i+1 holds the covers of level-i words not
    seen in any earlier level, so the levels partition the reachable set.
    Cached for a few bases only: each can hold n! words.
    """
    base = check_word(base)
    seen = {base}
    levels: list[frozenset[Word]] = [frozenset([base])]
    while True:
        nxt: set[Word] = set()
        for w in levels[-1]:
            nxt.update(swap_covers(w))
        nxt -= seen
        if not nxt:
            return tuple(levels)
        seen |= nxt
        levels.append(frozenset(nxt))


def swap_length(base: Sequence[int], target: Sequence[int]) -> Optional[int]:
    """Level at which ``target`` first appears above ``base``, or None.

    swap_length(w, w) == 0 for every word w.
    """
    base = check_word(base)
    target = check_word(target)
    if len(base) != len(target):
        raise PermError(f"degree mismatch: {len(base)} vs {len(target)}")
    for r, level in enumerate(swap_levels(base)):
        if target in level:
            return r
    return None
