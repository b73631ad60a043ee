"""Repository access for history mining.

Two adapters expose the same minimal read interface: GitCliRepo shells
out to the system git with fixed flags, InMemoryRepo serves snapshot
commits from a JSON description (used by the test suite and by the
synthetic pipeline so mining stays deterministic without a VCS
installation).

All file content is normalized before diffing: runs of whitespace
collapse to single spaces, leading/trailing whitespace is stripped, and
blank lines are dropped.
"""

from __future__ import annotations

import datetime as _dt
import json
import subprocess
from dataclasses import dataclass


@dataclass(frozen=True)
class CommitRecord:
    id: str
    author_time: _dt.datetime
    message: str
    parent_ids: tuple[str, ...]

    @property
    def year(self) -> int:
        return self.author_time.year

    @property
    def is_merge(self) -> bool:
        return len(self.parent_ids) > 1


def normalize_lines(lines: list[str]) -> list[str]:
    """Collapse internal whitespace and drop blank lines."""
    out = []
    for line in lines:
        collapsed = " ".join(line.split())
        if collapsed:
            out.append(collapsed)
    return out


class RepositoryError(RuntimeError):
    pass


class InMemoryRepo:
    """Snapshot-per-commit repository.

    JSON shape: {"commits": [{"id": ..., "time": ISO-8601 or unix int,
    "message": ..., "parents": [...], "files": {path: content}}, ...]}
    Each commit carries the full file tree.
    """

    def __init__(self, commits: list[dict]):
        self._records: list[CommitRecord] = []
        self._trees: dict[str, dict[str, str]] = {}
        for obj in commits:
            when = obj["time"]
            if isinstance(when, (int, float)):
                ts = _dt.datetime.fromtimestamp(when, tz=_dt.timezone.utc)
            else:
                ts = _dt.datetime.fromisoformat(when)
                if ts.tzinfo is None:
                    ts = ts.replace(tzinfo=_dt.timezone.utc)
            rec = CommitRecord(
                id=str(obj["id"]),
                author_time=ts,
                message=obj.get("message", ""),
                parent_ids=tuple(obj.get("parents", [])),
            )
            self._records.append(rec)
            self._trees[rec.id] = dict(obj.get("files", {}))
        self._by_id = {r.id: r for r in self._records}

    @classmethod
    def from_json(cls, path: str) -> "InMemoryRepo":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls(json.load(fh)["commits"])
            except (KeyError, TypeError, ValueError) as exc:
                raise RepositoryError(f"{path}: not a repository snapshot ({exc!r})") from None

    def commits(self) -> list[CommitRecord]:
        return sorted(self._records, key=lambda r: (r.author_time, r.id))

    def commit(self, commit_id: str) -> CommitRecord:
        try:
            return self._by_id[commit_id]
        except KeyError:
            raise RepositoryError(f"no such commit {commit_id!r}") from None

    def changed_java_files(self, commit: CommitRecord) -> list[str]:
        """Paths modified (present on both sides, content differs) vs the
        first parent; mirrors diff-filter=M."""
        if not commit.parent_ids:
            return []
        parent_tree = self._trees.get(commit.parent_ids[0], {})
        tree = self._trees[commit.id]
        changed = []
        for path in sorted(tree):
            if not path.endswith(".java"):
                continue
            if path in parent_tree and parent_tree[path] != tree[path]:
                changed.append(path)
        return changed

    def file_lines(self, commit_id: str, path: str) -> list[str] | None:
        tree = self._trees.get(commit_id)
        if tree is None or path not in tree:
            return None
        return tree[path].splitlines()


class GitCliRepo:
    """Adapter over the git command-line tool (read-only)."""

    def __init__(self, root: str):
        self.root = root
        self._commit_cache: list[CommitRecord] | None = None
        self._file_cache: dict[tuple[str, str], list[str] | None] = {}

    def _git(self, *args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", self.root, *args],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RepositoryError(
                f"git {' '.join(args)} failed: {proc.stderr.strip()}"
            )
        return proc.stdout

    def commits(self) -> list[CommitRecord]:
        if self._commit_cache is not None:
            return self._commit_cache
        sep, end = "\x01", "\x02"
        out = self._git(
            "log", "--all", "--topo-order", "--reverse",
            f"--format=%H{sep}%ct{sep}%P{sep}%B{end}",
        )
        records = []
        for chunk in out.split(end):
            chunk = chunk.strip("\n")
            if not chunk:
                continue
            cid, ctime, parents, message = chunk.split(sep, 3)
            records.append(CommitRecord(
                id=cid,
                author_time=_dt.datetime.fromtimestamp(int(ctime), tz=_dt.timezone.utc),
                message=message.strip(),
                parent_ids=tuple(parents.split()) if parents.strip() else (),
            ))
        records.sort(key=lambda r: (r.author_time, r.id))
        self._commit_cache = records
        return records

    def commit(self, commit_id: str) -> CommitRecord:
        for rec in self.commits():
            if rec.id == commit_id:
                return rec
        raise RepositoryError(f"no such commit {commit_id!r}")

    def changed_java_files(self, commit: CommitRecord) -> list[str]:
        if not commit.parent_ids:
            return []
        out = self._git(
            "diff", "--name-only", "--diff-filter=M",
            commit.parent_ids[0], commit.id, "--", "*.java",
        )
        return sorted(p for p in out.splitlines() if p)

    def file_lines(self, commit_id: str, path: str) -> list[str] | None:
        key = (commit_id, path)
        if key in self._file_cache:
            return self._file_cache[key]
        try:
            text = self._git("show", f"{commit_id}:{path}")
            lines: list[str] | None = text.splitlines()
        except RepositoryError:
            lines = None
        self._file_cache[key] = lines
        return lines


def open_repository(path: str):
    """Pick an adapter: a .json file loads in-memory, else git."""
    if path.endswith(".json"):
        return InMemoryRepo.from_json(path)
    return GitCliRepo(path)
