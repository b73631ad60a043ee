"""Histogram-style line diff producing zero-context change hunks.

The algorithm anchors on the rarest line shared between the two sides
(counted over both), extends the match greedily in both directions, and
recurses left and right of it.  Regions with no shared line become one
hunk.  Common prefixes and suffixes are trimmed before a hunk is emitted,
so every hunk is a maximal contiguous changed region and two hunks are
always separated by at least one unchanged line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class RawHunk:
    """One contiguous changed region: pre[pre_start:pre_end] -> post[post_start:post_end]."""

    pre_start: int
    pre_end: int
    post_start: int
    post_end: int


def histogram_diff(pre_lines: list[str], post_lines: list[str]) -> list[RawHunk]:
    """Diff two line sequences into an ordered list of zero-context hunks."""
    hunks: list[RawHunk] = []
    _diff_region(pre_lines, 0, len(pre_lines), post_lines, 0, len(post_lines), hunks)
    return hunks


def apply_hunks(pre_lines: list[str], post_lines: list[str], hunks: list[RawHunk]) -> list[str]:
    """Replay an edit script against pre_lines (added text taken from post_lines)."""
    out: list[str] = []
    cursor = 0
    for h in hunks:
        out.extend(pre_lines[cursor : h.pre_start])
        out.extend(post_lines[h.post_start : h.post_end])
        cursor = h.pre_end
    out.extend(pre_lines[cursor:])
    return out


def _diff_region(
    a: list[str],
    alo: int,
    ahi: int,
    b: list[str],
    blo: int,
    bhi: int,
    out: list[RawHunk],
) -> None:
    while alo < ahi and blo < bhi and a[alo] == b[blo]:
        alo += 1
        blo += 1
    while ahi > alo and bhi > blo and a[ahi - 1] == b[bhi - 1]:
        ahi -= 1
        bhi -= 1
    if alo == ahi and blo == bhi:
        return
    if alo == ahi or blo == bhi:
        out.append(RawHunk(alo, ahi, blo, bhi))
        return

    anchor = _pick_anchor(a, alo, ahi, b, blo, bhi)
    if anchor is None:
        out.append(RawHunk(alo, ahi, blo, bhi))
        return

    i, j = anchor
    s, t = i, j
    while s > alo and t > blo and a[s - 1] == b[t - 1]:
        s -= 1
        t -= 1
    e_i, e_j = i + 1, j + 1
    while e_i < ahi and e_j < bhi and a[e_i] == b[e_j]:
        e_i += 1
        e_j += 1

    _diff_region(a, alo, s, b, blo, t, out)
    _diff_region(a, e_i, ahi, b, e_j, bhi, out)


def _pick_anchor(
    a: list[str], alo: int, ahi: int, b: list[str], blo: int, bhi: int
) -> tuple[int, int] | None:
    """First occurrence positions of the rarest shared line, or None if disjoint."""
    count_a = Counter(a[alo:ahi])
    count_b = Counter(b[blo:bhi])
    best_line: str | None = None
    best_cost = 0
    # scan a in order so ties resolve to the leftmost occurrence in a
    seen: set[str] = set()
    for idx in range(alo, ahi):
        line = a[idx]
        if line in seen or line not in count_b:
            continue
        seen.add(line)
        cost = count_a[line] + count_b[line]
        if best_line is None or cost < best_cost:
            best_line = line
            best_cost = cost
    if best_line is None:
        return None
    i = a.index(best_line, alo, ahi)
    j = b.index(best_line, blo, bhi)
    return i, j
