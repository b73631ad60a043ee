"""Differ checks.

The load-bearing property is the replay oracle: applying the emitted
hunks to the pre side must rebuild the post side exactly, for any pair
of line sequences.  Everything else is shape and placement detail.
"""

from hypothesis import given, settings, strategies as st

from patchloom.linediff import RawHunk, histogram_diff

from conftest import apply_hunks

lines = st.lists(
    st.sampled_from(["a", "b", "c", "int x = 1 ;", "}", "return ;", ""]),
    max_size=14,
)


@given(pre=lines, post=lines)
@settings(max_examples=400, deadline=None)
def test_replay_rebuilds_post(pre, post):
    hunks = histogram_diff(pre, post)
    assert apply_hunks(pre, post, hunks) == post


@given(pre=lines, post=lines)
@settings(max_examples=200, deadline=None)
def test_hunks_are_ordered_and_separated(pre, post):
    hunks = histogram_diff(pre, post)
    for h in hunks:
        assert 0 <= h.pre_start <= h.pre_end <= len(pre)
        assert 0 <= h.post_start <= h.post_end <= len(post)
        # a hunk must change something
        assert h.pre_end > h.pre_start or h.post_end > h.post_start
    for prev, nxt in zip(hunks, hunks[1:]):
        # zero-context hunks never touch: at least one common line between
        assert nxt.pre_start > prev.pre_end
        assert nxt.post_start > prev.post_end


def test_identical_sides_produce_no_hunks():
    src = ["int a ;", "int b ;", "int c ;"]
    assert histogram_diff(src, list(src)) == []


def test_single_line_replacement():
    pre = ["int a ;", "int b ;", "int c ;"]
    post = ["int a ;", "long b ;", "int c ;"]
    hunks = histogram_diff(pre, post)
    assert hunks == [RawHunk(1, 2, 1, 2)]
    hunk = hunks[0]
    assert pre[hunk.pre_start:hunk.pre_end] == ["int b ;"]
    assert post[hunk.post_start:hunk.post_end] == ["long b ;"]


def test_pure_insertion_and_pure_deletion():
    base = ["a", "b", "c"]
    ins = histogram_diff(base, ["a", "b", "x", "c"])
    assert ins == [RawHunk(2, 2, 2, 3)]
    dele = histogram_diff(base, ["a", "c"])
    assert dele == [RawHunk(1, 2, 1, 1)]


def test_two_disjoint_edits_yield_two_hunks():
    pre = ["a", "b", "c", "d", "e"]
    post = ["a", "B", "c", "d", "E"]
    hunks = histogram_diff(pre, post)
    assert hunks == [RawHunk(1, 2, 1, 2), RawHunk(4, 5, 4, 5)]


def test_rare_line_anchors_through_repetition():
    # "marker" appears once on each side; the braces repeat.  The diff
    # must keep the marker aligned instead of matching some brace run.
    pre = ["{", "{", "marker", "}", "}"]
    post = ["{", "added", "{", "marker", "}", "}"]
    hunks = histogram_diff(pre, post)
    assert apply_hunks(pre, post, hunks) == post
    assert len(hunks) == 1
    assert hunks[0] == RawHunk(1, 1, 1, 2)


def test_empty_sides():
    assert histogram_diff([], []) == []
    assert histogram_diff([], ["a"]) == [RawHunk(0, 0, 0, 1)]
    assert histogram_diff(["a"], []) == [RawHunk(0, 1, 0, 0)]
