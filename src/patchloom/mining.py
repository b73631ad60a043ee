"""Change-hunk mining over version-control history.

Walks non-merge commits in deterministic order, diffs each modified
Java file against its first parent on normalized lines, traces deleted
lines back to the commit that introduced them, and flags bug-fixing
commits with a keyword heuristic (the first phase of SZZ).  Blame
visits only the first-parent commits that changed the file and stops
at file adds and renames; merge commits are skipped.  Both counts are
tracked in the mining report.  A hunk's method scope comes from a
brace-depth scan of the file's lines with the tokenizer's token pattern:
``strip_line_comment`` drops a ``//`` comment and ``brace_counts`` skips
braces inside string and char literals.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .linediff import histogram_diff
from .repo import CommitRecord, normalize_lines
from .tokenizer import brace_counts, strip_line_comment

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChangeHunk:
    deleted_lines: tuple[str, ...]
    added_lines: tuple[str, ...]
    file_path: str
    commit_post: str
    commit_pre_origin: str
    year_pre: int
    year_post: int
    method_scoped: bool

    def to_json_obj(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["deleted_lines"] = list(self.deleted_lines)
        obj["added_lines"] = list(self.added_lines)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ChangeHunk":
        """Raises KeyError or TypeError on an object that to_json_obj
        cannot have written."""
        for key in ("deleted_lines", "added_lines"):
            if not (isinstance(obj[key], list)
                    and all(isinstance(line, str) for line in obj[key])):
                raise TypeError(f"{key} is not a list of strings")
        for key in ("file_path", "commit_post", "commit_pre_origin"):
            if not isinstance(obj[key], str):
                raise TypeError(f"{key} is not a string")
        for key in ("year_pre", "year_post"):
            if type(obj[key]) is not int:
                raise TypeError(f"{key} is not an integer")
        if not isinstance(obj["method_scoped"], bool):
            raise TypeError("method_scoped is not a boolean")
        return cls(
            deleted_lines=tuple(obj["deleted_lines"]),
            added_lines=tuple(obj["added_lines"]),
            file_path=obj["file_path"],
            commit_post=obj["commit_post"],
            commit_pre_origin=obj["commit_pre_origin"],
            year_pre=obj["year_pre"],
            year_post=obj["year_post"],
            method_scoped=obj["method_scoped"],
        )


@dataclass
class MiningReport:
    commits_seen: int = 0
    merges_skipped: int = 0
    hunks_emitted: int = 0
    origin_unknown: int = 0
    unparseable_files: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class OriginUnknown(Exception):
    pass


# ---------------------------------------------------------------------------
# method scope

# first words that open a type or a control-flow body, not a method
_CONTROL_STARTS = frozenset((
    "class", "interface", "enum", "record",
    "if", "else", "for", "while", "switch", "do", "try", "catch",
    "finally", "synchronized", "return", "throw", "new", "case",
))

_SIGNATURE_RE = re.compile(r"[A-Za-z_$][\w$]*\s*\(")


def _looks_like_signature(line: str) -> bool:
    """Heuristic: a method/constructor signature line opening a body."""
    if ";" in line or "=" in line:
        return False
    if not line.rstrip().endswith("{"):
        return False
    head, paren, _ = line.partition("(")
    words = head.split(None, 1)
    if not paren or not words or words[0] in _CONTROL_STARTS:
        return False
    return bool(_SIGNATURE_RE.search(line))


def method_ranges(lines: list[str]) -> list[tuple[int, int]]:
    """Inclusive (start, end) index ranges of method bodies in a
    normalized line list, via a brace-depth scan."""
    ranges: list[tuple[int, int]] = []
    in_method = False
    start = 0
    depth = 0
    entry_depth = 0
    for i, raw in enumerate(lines):
        line = strip_line_comment(raw)
        opens, closes = brace_counts(line)
        if not in_method and _looks_like_signature(line):
            in_method = True
            start = i
            entry_depth = depth
        depth += opens - closes
        if in_method and depth <= entry_depth:
            ranges.append((start, i))
            in_method = False
    if in_method:
        ranges.append((start, len(lines) - 1))
    return ranges


def _inside_one_range(lo: int, hi: int, ranges: list[tuple[int, int]]) -> bool:
    """Whether [lo, hi) lies strictly inside a single body (excluding the
    signature and closing lines)."""
    if lo >= hi:
        return True
    for start, end in ranges:
        if start < lo and hi - 1 < end:
            return True
    return False


# ---------------------------------------------------------------------------
# mining

def mine_hunks(
    repo,
    since: int | None = None,
    until: int | None = None,
    report: MiningReport | None = None,
) -> Iterator[ChangeHunk]:
    """Yield ChangeHunks for every modification in history, in
    deterministic (commit time, hash, path, position) order."""
    if report is None:
        report = MiningReport()
    for commit in repo.commits():
        report.commits_seen += 1
        if commit.is_merge:
            report.merges_skipped += 1
            continue
        if not commit.parent_ids:
            continue
        year_post = commit.year
        if since is not None and year_post < since:
            continue
        if until is not None and year_post > until:
            continue
        parent_id = commit.parent_ids[0]
        for path in repo.changed_java_files(commit):
            pre_raw = repo.file_lines(parent_id, path)
            post_raw = repo.file_lines(commit.id, path)
            if pre_raw is None or post_raw is None:
                report.unparseable_files += 1
                continue
            pre = normalize_lines(pre_raw)
            post = normalize_lines(post_raw)
            pre_ranges = method_ranges(pre)
            post_ranges = method_ranges(post)
            for hunk in histogram_diff(pre, post):
                deleted = tuple(pre[hunk.pre_start : hunk.pre_end])
                added = tuple(post[hunk.post_start : hunk.post_end])
                if deleted:
                    try:
                        origin, year_pre = blame_origin(
                            repo, commit.id, path, hunk.pre_start
                        )
                    except OriginUnknown:
                        report.origin_unknown += 1
                        continue
                else:
                    origin, year_pre = commit.id, year_post
                scoped = _inside_one_range(
                    hunk.pre_start, hunk.pre_end, pre_ranges
                ) and _inside_one_range(
                    hunk.post_start, hunk.post_end, post_ranges
                )
                report.hunks_emitted += 1
                yield ChangeHunk(
                    deleted_lines=deleted,
                    added_lines=added,
                    file_path=path,
                    commit_post=commit.id,
                    commit_pre_origin=origin,
                    year_pre=min(year_pre, year_post),
                    year_post=year_post,
                    method_scoped=scoped,
                )


def blame_origin(
    repo, commit_post: str, file_path: str, deleted_line_index: int
) -> tuple[str, int]:
    """Commit that introduced the line at deleted_line_index (indexing
    the normalized parent-side content of commit_post's first-parent
    diff), walking first parents only.  A commit that left the file
    alone has the same content as its parent, so the walk steps past it
    without reading or diffing."""
    commit = repo.commit(commit_post)
    if not commit.parent_ids:
        raise OriginUnknown(f"{commit_post} has no parent")
    current = repo.commit(commit.parent_ids[0])
    raw = repo.file_lines(current.id, file_path)
    if raw is None:
        raise OriginUnknown(f"{file_path} missing at {current.id}")
    lines = normalize_lines(raw)
    index = deleted_line_index
    if index >= len(lines):
        raise OriginUnknown(f"line {index} out of range at {current.id}")

    while True:
        if not current.parent_ids:
            return current.id, current.year
        parent = repo.commit(current.parent_ids[0])
        if repo.touched(current.id, file_path):
            parent_raw = repo.file_lines(parent.id, file_path)
            if parent_raw is None:
                # file added (or renamed into place) here: introduction point
                return current.id, current.year
            parent_lines = normalize_lines(parent_raw)
            mapped = _map_line_back(parent_lines, lines, index)
            if mapped is None:
                return current.id, current.year
            index, lines = mapped, parent_lines
        current = parent


def _map_line_back(pre_lines, post_lines, post_index: int) -> int | None:
    """Map a line index in post back to pre through the edit script;
    None when the line was introduced by this edit."""
    offset = 0
    for hunk in histogram_diff(pre_lines, post_lines):
        if hunk.post_start <= post_index < hunk.post_end:
            return None
        if hunk.post_end <= post_index:
            offset += (hunk.pre_end - hunk.pre_start) - (hunk.post_end - hunk.post_start)
        else:
            break
    return post_index + offset


# ---------------------------------------------------------------------------
# fix identification

_FIX_WORD_RE = re.compile(r"\b(fix|bug|defect|patch)\b", re.IGNORECASE)
_ISSUE_KEY_RE = re.compile(r"\b[A-Z]+-[0-9]+\b")


def is_fix_message(message: str) -> bool:
    if _FIX_WORD_RE.search(message):
        return True
    return bool(_ISSUE_KEY_RE.search(message)) and "fix" in message.lower()


def identify_fix_commits(commits: Iterable[CommitRecord]) -> set[str]:
    return {c.id for c in commits if is_fix_message(c.message)}


# ---------------------------------------------------------------------------
# hunk dump I/O

def write_hunks(path: str, hunks: Iterable[ChangeHunk]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for hunk in hunks:
            fh.write(json.dumps(hunk.to_json_obj(), sort_keys=True) + "\n")
            count += 1
    return count


class HunkFormatError(ValueError):
    """A hunks.jsonl line that write_hunks cannot have written."""


def read_hunks(path: str) -> list[ChangeHunk]:
    hunks = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    hunks.append(ChangeHunk.from_json_obj(json.loads(line.decode("utf-8"))))
                except (KeyError, TypeError, ValueError) as exc:
                    raise HunkFormatError(f"{path}:{lineno}: not a hunk ({exc!r})") from None
    return hunks
