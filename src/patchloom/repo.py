"""Repository access for history mining.

Two adapters expose the same minimal read interface: GitCliRepo reads
a checkout through the system git with fixed flags, InMemoryRepo serves
snapshot commits from a JSON description (used by the test suite and by
the synthetic pipeline so mining stays deterministic without a VCS
installation).  Both are context managers; leaving the `with` block
ends any git process the adapter started.

Both adapters' file_lines return normalized lines: runs of whitespace
collapse to single spaces, leading/trailing whitespace is stripped, and
blank lines are dropped.  Mining diffs and blames these lines as they
come.
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


class _Repository:
    """Context-manager support shared by both adapters."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InMemoryRepo(_Repository):
    """Snapshot-per-commit repository.

    JSON shape: {"commits": [{"id": ..., "time": ISO-8601 or unix number,
    "message": ..., "parents": [...], "files": {path: content}}, ...]}
    Each commit carries the full file tree.  Ids are unique, a unix time
    is a number (not a boolean) that a datetime can hold, messages,
    parent ids, paths and contents are strings, and every parent is
    listed before its children, so no history has a cycle.
    """

    def __init__(self, commits: list[dict]):
        self._records: list[CommitRecord] = []
        self._trees: dict[str, dict[str, str]] = {}
        for obj in commits:
            cid = str(obj["id"])
            when = obj["time"]
            if isinstance(when, bool):
                raise RepositoryError(f"commit {cid!r}: time {when!r} is not a time")
            if isinstance(when, (int, float)):
                try:
                    ts = _dt.datetime.fromtimestamp(when, tz=_dt.timezone.utc)
                except (OverflowError, OSError, ValueError):
                    raise RepositoryError(
                        f"commit {cid!r}: time {when!r} is out of range") from None
            else:
                ts = _dt.datetime.fromisoformat(when)
                if ts.tzinfo is None:
                    ts = ts.replace(tzinfo=_dt.timezone.utc)
            parents = obj.get("parents", [])
            if not (isinstance(parents, list)
                    and all(isinstance(p, str) for p in parents)):
                raise RepositoryError(f"commit {cid!r}: parents is not a list of ids")
            rec = CommitRecord(
                id=cid,
                author_time=ts,
                message=obj.get("message", ""),
                parent_ids=tuple(parents),
            )
            files = obj.get("files", {})
            if rec.id in self._trees:
                raise RepositoryError(f"commit {rec.id!r} is listed twice")
            if not isinstance(rec.message, str):
                raise RepositoryError(f"commit {rec.id!r}: message is not a string")
            if not (isinstance(files, dict) and all(
                    isinstance(k, str) and isinstance(v, str) for k, v in files.items())):
                raise RepositoryError(f"commit {rec.id!r}: files is not a "
                                      f"map of paths to contents")
            for parent in rec.parent_ids:
                if parent not in self._trees:
                    raise RepositoryError(f"commit {rec.id!r}: parent {parent!r} "
                                          f"is not listed before it")
            self._records.append(rec)
            self._trees[rec.id] = dict(files)
        self._by_id = {r.id: r for r in self._records}

    @classmethod
    def from_json(cls, path: str) -> "InMemoryRepo":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls(json.load(fh)["commits"])
            except RepositoryError as exc:
                raise RepositoryError(f"{path}: {exc}") from None
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

    def touched(self, commit_id: str, path: str) -> bool:
        """Whether path differs from the commit's first parent (added,
        deleted or modified)."""
        commit = self.commit(commit_id)
        parent_tree = (self._trees.get(commit.parent_ids[0], {})
                       if commit.parent_ids else {})
        return self._trees[commit_id].get(path) != parent_tree.get(path)

    def file_lines(self, commit_id: str, path: str) -> list[str] | None:
        tree = self._trees.get(commit_id)
        if tree is None or path not in tree:
            return None
        return normalize_lines(tree[path].splitlines())


def _decode(data: bytes) -> str:
    """git output as text: UTF-8 with undecodable bytes replaced, and
    universal newlines (\r\n and \r become \n)."""
    text = data.decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


class GitCliRepo(_Repository):
    """Adapter over the git command-line tool (read-only).

    The whole repository is read with at most three git processes, each
    started on first use: one `git log` for the commit records, one
    `git log --name-status` for the paths every commit changed against
    its first parent, and one `git cat-file --batch` that stays open and
    serves every file read until close().  Paths keep git's raw bytes
    (decoded as UTF-8, undecodable bytes escaped so they round-trip).
    """

    def __init__(self, root: str):
        self.root = root
        self._records: list[CommitRecord] | None = None
        self._by_id: dict[str, CommitRecord] = {}
        self._changes: dict[str, dict[str, str]] | None = None
        self._file_cache: dict[tuple[str, str], list[str] | None] = {}
        self._batch: subprocess.Popen | None = None

    def _git(self, *args: str) -> bytes:
        proc = subprocess.run(["git", "-C", self.root, *args], capture_output=True)
        if proc.returncode != 0:
            raise RepositoryError(
                f"git {' '.join(args)} failed: {_decode(proc.stderr).strip()}"
            )
        return proc.stdout

    def commits(self) -> list[CommitRecord]:
        if self._records is not None:
            return self._records
        sep, end = "\x01", "\x02"
        out = _decode(self._git(
            "log", "--all", "--topo-order", "--reverse",
            f"--format=%H{sep}%ct{sep}%P{sep}%B{end}",
        ))
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
        self._records = records
        self._by_id = {r.id: r for r in records}
        return records

    def commit(self, commit_id: str) -> CommitRecord:
        if self._records is None:
            self.commits()
        try:
            return self._by_id[commit_id]
        except KeyError:
            raise RepositoryError(f"no such commit {commit_id!r}") from None

    def _changed_paths(self, commit_id: str) -> dict[str, str]:
        """{path: status letter} of the paths that differ from the first
        parent (every path of a root commit, as A)."""
        if self._changes is None:
            out = self._git(
                "log", "--all", "--no-renames", "--name-status", "-z",
                "--diff-merges=first-parent", "--format=%x01%H",
            )
            # NUL-separated tokens: "\x01<hash>" opens a commit, then
            # status and path alternate; the first status follows a newline
            changes: dict[str, dict[str, str]] = {}
            paths: dict[str, str] = {}
            tokens = iter(out.split(b"\0"))
            for token in tokens:
                token = token.lstrip(b"\n")
                if token.startswith(b"\x01"):
                    paths = changes[token[1:].decode("ascii")] = {}
                elif token:
                    path = next(tokens).decode("utf-8", errors="surrogateescape")
                    paths[path] = token.decode("ascii")
            self._changes = changes
        return self._changes.get(commit_id, {})

    def changed_java_files(self, commit: CommitRecord) -> list[str]:
        if not commit.parent_ids:
            return []
        return sorted(path for path, status in self._changed_paths(commit.id).items()
                      if status == "M" and path.endswith(".java"))

    def touched(self, commit_id: str, path: str) -> bool:
        """Whether path differs from the commit's first parent (added,
        deleted or modified)."""
        return path in self._changed_paths(commit_id)

    def file_lines(self, commit_id: str, path: str) -> list[str] | None:
        key = (commit_id, path)
        if key in self._file_cache:
            return self._file_cache[key]
        blob = self._cat_file(f"{commit_id}:{path}")
        lines = None if blob is None else normalize_lines(_decode(blob).splitlines())
        self._file_cache[key] = lines
        return lines

    def _cat_file(self, name: str) -> bytes | None:
        """Contents of the blob `name` names, or None when it names no
        blob."""
        if "\n" in name:
            return None     # the batch protocol reads one name per line
        if self._batch is None:
            self._batch = subprocess.Popen(
                ["git", "-C", self.root, "cat-file", "--batch"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        batch = self._batch
        try:
            batch.stdin.write(name.encode("utf-8", errors="surrogateescape") + b"\n")
            batch.stdin.flush()
        except BrokenPipeError:
            header = b""
        else:
            header = batch.stdout.readline()
        if header.endswith((b" missing\n", b" ambiguous\n")):
            return None
        if header:
            _, kind, size = header.split()
            body = batch.stdout.read(int(size) + 1)     # content, then LF
            if len(body) == int(size) + 1:
                return body[:-1] if kind == b"blob" else None
        raise RepositoryError(f"git cat-file --batch in {self.root} ended "
                              f"early (exit code {batch.poll()})")

    def close(self) -> None:
        """End the cat-file process; a later read starts a new one."""
        batch, self._batch = self._batch, None
        if batch is not None:
            batch.stdin.close()
            batch.stdout.close()
            batch.wait()


def open_repository(path: str):
    """Pick an adapter: a .json file loads in-memory, else git."""
    if path.endswith(".json"):
        return InMemoryRepo.from_json(path)
    return GitCliRepo(path)
