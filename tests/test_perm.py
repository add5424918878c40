from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permnet import perm

words = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestBasics:
    def test_identity(self):
        assert perm.identity(4) == (1, 2, 3, 4)
        assert perm.identity(0) == ()

    def test_check_word_rejects(self):
        with pytest.raises(perm.PermError):
            perm.check_word((1, 1, 2))
        with pytest.raises(perm.PermError):
            perm.check_word((0, 1, 2))

    def test_inverse_worked_example(self):
        w = (5, 1, 7, 10, 2, 6, 4, 3, 8, 9)
        assert perm.inverse(w) == (2, 5, 8, 7, 1, 6, 3, 9, 10, 4)

    def test_inverse_of_involution(self):
        w = (3, 4, 1, 2)
        assert perm.compose(w, w) == perm.identity(4)
        assert perm.inverse(w) == w

    def test_inverse_identity(self):
        assert perm.inverse(perm.identity(5)) == perm.identity(5)

    def test_compose_worked_example(self):
        assert perm.compose((6, 3, 5, 1, 4, 2), (4, 5, 1, 6, 2, 3)) == (3, 1, 2, 4, 6, 5)

    def test_compose_identity(self):
        u = (2, 4, 1, 3)
        assert perm.compose(u, perm.identity(4)) == u
        assert perm.compose(perm.identity(4), u) == u

    def test_compose_inverse(self):
        u = (2, 4, 1, 3)
        assert perm.compose(u, perm.inverse(u)) == perm.identity(4)

    def test_compose_degree_mismatch(self):
        with pytest.raises(perm.PermError):
            perm.compose((1, 2), (1, 2, 3))

    @given(words)
    def test_inverse_involutive(self, w):
        assert perm.inverse(perm.inverse(w)) == w
        assert perm.compose(w, perm.inverse(w)) == perm.identity(len(w))


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3412", (3, 4, 1, 2)),
            ("5,1,7,10,2,6,4,3,8,9", (5, 1, 7, 10, 2, 6, 4, 3, 8, 9)),
            ("3 4 1 2", (3, 4, 1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert perm.parse_word(text) == expected

    @pytest.mark.parametrize("text", ["\uff12,\uff11", "\u0662\u0661", "+2,1", "1_0,1"])
    def test_parse_takes_ascii_digits_only(self, text):
        with pytest.raises(perm.PermError, match="cannot parse permutation"):
            perm.parse_word(text)

    def test_canonical_output_is_comma_separated(self):
        assert perm.format_word((3, 4, 1, 2)) == "3,4,1,2"

    @given(words)
    def test_round_trip(self, w):
        assert perm.parse_word(perm.format_word(w)) == w


class TestSwapCovers:
    def test_full_reversal(self):
        assert perm.swap_covers((3, 2, 1)) == {
            (2, 3, 1),
            (3, 1, 2),
            (1, 2, 3),
        }

    def test_identity_has_none(self):
        assert perm.swap_covers(perm.identity(4)) == set()

    def test_312(self):
        assert perm.swap_covers((3, 1, 2)) == {(2, 1, 3), (1, 3, 2)}

    @given(words)
    def test_positional_contract(self, w):
        for cover in perm.swap_covers(w):
            diff = [k for k in range(len(w)) if w[k] != cover[k]]
            assert len(diff) == 2
            i, j = diff
            assert i < j and w[i] > w[j]
            assert (cover[i], cover[j]) == (w[j], w[i])


class TestSwapLength:
    @pytest.mark.parametrize(
        "base,target,expected",
        [
            ((3, 2, 1), (1, 2, 3), 1),
            ((3, 1, 2), (1, 2, 3), 2),
            ((3, 5, 6, 1, 2, 4), (1, 2, 3, 4, 5, 6), 4),
        ],
    )
    def test_worked_values(self, base, target, expected):
        assert perm.swap_length(base, target) == expected

    def test_zero_iff_equal(self):
        w = (2, 3, 1)
        assert perm.swap_length(w, w) == 0
        for other in permutations(range(1, 4)):
            if tuple(other) != w:
                assert perm.swap_length(w, other) != 0

    def test_absent_target(self):
        # nothing reaches below the base in the cover direction
        assert perm.swap_length((1, 2, 3), (3, 2, 1)) is None

    def test_degree_mismatch(self):
        with pytest.raises(perm.PermError, match="degree mismatch"):
            perm.swap_length((1, 2), (1, 2, 3))

    def test_levels_cache_is_bounded(self):
        for base in permutations(range(1, 5)):
            perm.swap_levels(base)
        info = perm.swap_levels.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize < 24

    def test_levels_partition_reachable(self):
        for n in range(1, 6):
            for base in permutations(range(1, n + 1)):
                levels = perm.swap_levels(tuple(base))
                assert levels[0] == frozenset([tuple(base)])
                seen = set()
                for i, level in enumerate(levels):
                    assert not (level & seen)
                    seen |= level
                    if i > 0:
                        covered = set()
                        for w in levels[i - 1]:
                            covered |= perm.swap_covers(w)
                        assert level <= covered
