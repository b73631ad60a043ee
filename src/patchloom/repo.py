"""Repository access for history mining.

Two adapters expose the same minimal read interface: GitCliRepo reads
a checkout through the system git with fixed flags, InMemoryRepo serves
snapshot commits from a JSON description (used by the test suite and by
the synthetic pipeline so mining stays deterministic without a VCS
installation).  Both are context managers; leaving the `with` block
ends any git process the adapter started.

Each adapter reads its history once: the commit records, sorted by
(time, id), and one change map per commit, {path: status} against the
first parent, where the status is A (added), D (deleted) or M
(modified) and every path of a root commit is an A.  Everything but
file_lines reads only those, in _Repository.

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
    """The reads both adapters share, over the history an adapter keeps
    with _keep: its records sorted by (time, id) and its change maps
    by commit id.  GitCliRepo reads that history on first use (_load),
    InMemoryRepo when it is built.  Leaving a `with` block calls
    close()."""

    _records: list[CommitRecord] | None = None
    _by_id: dict[str, CommitRecord]
    _changes: dict[str, dict[str, str]]

    def _keep(self, records: list[CommitRecord],
              changes: dict[str, dict[str, str]]) -> None:
        self._records = sorted(records, key=lambda r: (r.author_time, r.id))
        self._by_id = {r.id: r for r in records}
        self._changes = changes

    def _load(self) -> None:
        """Read the history if it is not kept yet."""

    def commits(self) -> list[CommitRecord]:
        self._load()
        return self._records

    def commit(self, commit_id: str) -> CommitRecord:
        self._load()
        try:
            return self._by_id[commit_id]
        except KeyError:
            raise RepositoryError(f"no such commit {commit_id!r}") from None

    def changed_java_files(self, commit: CommitRecord) -> list[str]:
        """The .java paths modified against the first parent (status M:
        present on both sides, content differs), sorted."""
        self._load()
        return sorted(path for path, status in self._changes.get(commit.id, {}).items()
                      if status == "M" and path.endswith(".java"))

    def touched(self, commit_id: str, path: str) -> bool:
        """Whether path differs from the commit's first parent (added,
        deleted or modified)."""
        self._load()
        return path in self._changes.get(commit_id, {})

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
        records: list[CommitRecord] = []
        changes: dict[str, dict[str, str]] = {}
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
            before = self._trees[rec.parent_ids[0]] if rec.parent_ids else {}
            tree = self._trees[rec.id] = dict(files)
            records.append(rec)
            changes[rec.id] = {
                path: "A" if path not in before else "D" if path not in tree else "M"
                for path in before.keys() | tree.keys()
                if before.get(path) != tree.get(path)}
        self._keep(records, changes)

    @classmethod
    def from_json(cls, path: str) -> "InMemoryRepo":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls(json.load(fh)["commits"])
            except RepositoryError as exc:
                raise RepositoryError(f"{path}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise RepositoryError(f"{path}: not a repository snapshot ({exc!r})") from None

    # bound on each adapter class itself: perfbench/spans.py patches and
    # restores them per class
    commits = _Repository.commits
    commit = _Repository.commit
    changed_java_files = _Repository.changed_java_files

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

    The whole repository is read with at most two git processes, each
    started on first use: one `git log --name-status -z` for the commit
    records and the paths every commit changed against its first parent,
    and one `git cat-file --batch` that stays open and serves every file
    read until close().  Paths keep git's raw bytes (decoded as UTF-8,
    undecodable bytes escaped so they round-trip).
    """

    def __init__(self, root: str):
        self.root = root
        self._file_cache: dict[tuple[str, str], list[str] | None] = {}
        self._batch: subprocess.Popen | None = None

    def _load(self) -> None:
        if self._records is not None:
            return
        args = ("log", "--all", "--no-renames", "--name-status", "-z",
                "--diff-merges=first-parent", "--format=%x01%H%x01%ct%x01%P%x01%B")
        proc = subprocess.run(["git", "-C", self.root, *args], capture_output=True)
        if proc.returncode != 0:
            raise RepositoryError(
                f"git {' '.join(args)} failed: {_decode(proc.stderr).strip()}")
        # NUL-separated tokens: "\x01<hash>\x01<time>\x01<parents>\x01<message>"
        # opens a commit, then status and path alternate, the first status
        # after a newline.  git refuses a NUL in a commit message, so a
        # message cannot end its record early.
        records: list[CommitRecord] = []
        changes: dict[str, dict[str, str]] = {}
        tokens = iter(proc.stdout.split(b"\0"))
        for token in tokens:
            token = token.lstrip(b"\n")
            if token.startswith(b"\x01"):
                cid, ctime, parents, message = token[1:].split(b"\x01", 3)
                rec = CommitRecord(
                    id=cid.decode("ascii"),
                    author_time=_dt.datetime.fromtimestamp(int(ctime), tz=_dt.timezone.utc),
                    message=_decode(message).strip(),
                    parent_ids=tuple(parents.decode("ascii").split()),
                )
                records.append(rec)
                paths = changes[rec.id] = {}
            elif token:
                path = next(tokens).decode("utf-8", errors="surrogateescape")
                paths[path] = token.decode("ascii")
        self._keep(records, changes)

    # bound on each adapter class itself: perfbench/spans.py patches and
    # restores them per class
    commits = _Repository.commits
    commit = _Repository.commit
    changed_java_files = _Repository.changed_java_files

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
