"""Repository adapters: the JSON snapshot form and the git CLI form.

The git tests (skipped without git) cover what the git adapter reads
itself: first-parent change lists, merges, text decoding, non-UTF-8
contents, non-ASCII paths and the lifetime of its cat-file process."""

import datetime
import gc
import json
import os
import subprocess
import warnings

import pytest

from patchloom import synthdata
from patchloom.cli import main
from patchloom.mining import MiningReport, mine_hunks, read_hunks
from patchloom.repo import (
    CommitRecord,
    GitCliRepo,
    InMemoryRepo,
    RepositoryError,
    normalize_lines,
    open_repository,
)

from conftest import needs_git

SNAPSHOT = {"commits": [
    {
        "id": "c1", "time": "2013-04-01T10:00:00", "message": "initial",
        "parents": [],
        "files": {"A.java": "int a = 1;\nint b = 2;\n", "note.txt": "x\n"},
    },
    {
        "id": "c2", "time": "2013-06-01T10:00:00", "message": "fix: adjust b",
        "parents": ["c1"],
        "files": {"A.java": "int a = 1;\nint b = 3;\n", "note.txt": "x\n"},
    },
    {
        "id": "c3", "time": "2014-01-05T10:00:00", "message": "add file",
        "parents": ["c2"],
        "files": {"A.java": "int a = 1;\nint b = 3;\n", "B.java": "int c;\n",
                  "note.txt": "x\n"},
    },
]}


@pytest.fixture()
def repo(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text(json.dumps(SNAPSHOT))
    return InMemoryRepo.from_json(str(path))


def test_commits_sorted_by_time(repo):
    assert [c.id for c in repo.commits()] == ["c1", "c2", "c3"]


def test_commit_record_year_and_merge_flag(repo):
    c1 = repo.commit("c1")
    assert c1.year == 2013
    assert not c1.is_merge
    merge = CommitRecord(
        id="m",
        author_time=datetime.datetime(2014, 1, 1, tzinfo=datetime.timezone.utc),
        message="merge", parent_ids=("a", "b"),
    )
    assert merge.is_merge
    assert merge.year == 2014


def test_unix_timestamps_accepted(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text(json.dumps({"commits": [
        {"id": "u1", "time": 1388534400, "message": "", "parents": [],
         "files": {}},
    ]}))
    repo = InMemoryRepo.from_json(str(path))
    assert repo.commit("u1").year == 2014


@pytest.mark.parametrize("edit,complaint", [
    (lambda cs: cs.append(dict(cs[0])), "listed twice"),
    # a commit that is its own parent made the blame walk loop forever
    (lambda cs: cs[1].update(parents=["c2"]), "parent 'c2' is not listed before it"),
    (lambda cs: cs[1].update(files=["A.java"]), "files is not a map"),
    # a boolean passed for the unix time 1: 1970-01-01T00:00:01
    (lambda cs: cs[1].update(time=True), "time True is not a time"),
    (lambda cs: cs[1].update(time=1e300), "time 1e[+]300 is out of range"),
    (lambda cs: cs[1].update(time=-1e20), "out of range"),
    (lambda cs: cs[1].update(time=float("nan")), "time nan is out of range"),
    # a string was read character by character: a merge of c and 1
    (lambda cs: cs[1].update(parents="c1"), "parents is not a list of ids"),
    (lambda cs: cs[1].update(parents=[1]), "parents is not a list of ids"),
], ids=["duplicate id", "own parent", "file list", "boolean time", "huge time",
        "time before year 1", "nan time", "parents string", "numeric parent"])
def test_malformed_snapshot_raises(edit, complaint):
    commits = [dict(c) for c in SNAPSHOT["commits"]]
    edit(commits)
    with pytest.raises(RepositoryError, match=complaint):
        InMemoryRepo(commits)


def test_unknown_commit_raises(repo):
    with pytest.raises(RepositoryError):
        repo.commit("nope")


def test_changed_java_files_modified_only(repo):
    # c2 modified A.java; note.txt is not java; B.java arrives in c3 as
    # an addition, which has no pre side to mine
    assert repo.changed_java_files(repo.commit("c2")) == ["A.java"]
    assert repo.changed_java_files(repo.commit("c3")) == []
    assert repo.changed_java_files(repo.commit("c1")) == []


def test_file_lines_and_missing_path(repo):
    assert repo.file_lines("c1", "A.java") == ["int a = 1;", "int b = 2;"]
    assert repo.file_lines("c1", "B.java") is None
    assert repo.file_lines("ghost", "A.java") is None


def test_normalize_lines_collapses_whitespace_and_blanks():
    raw = ["  int   a = 1;", "", "\t", "   return  a ;  "]
    assert normalize_lines(raw) == ["int a = 1;", "return a ;"]


def test_open_repository_dispatch(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(SNAPSHOT))
    assert isinstance(open_repository(str(path)), InMemoryRepo)
    assert isinstance(open_repository(str(tmp_path)), GitCliRepo)


def test_touched_compares_with_the_first_parent(repo):
    assert repo.touched("c1", "A.java")          # root: every file is added
    assert repo.touched("c2", "A.java")
    assert not repo.touched("c2", "note.txt")
    assert repo.touched("c3", "B.java")          # added
    assert not repo.touched("c3", "A.java")
    assert not repo.touched("c3", "Gone.java")   # on neither side


def _git(root, date, *args):
    env = {**os.environ,
           "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@x",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@x",
           "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
    subprocess.run(["git", "-C", str(root), *args], check=True,
                   capture_output=True, env=env)


def _commit_files(root, date, message, files: dict[str, bytes]):
    """Write files into the work tree and commit everything."""
    for name, body in files.items():
        (root / name).write_bytes(body)
    _git(root, date, "add", "-A")
    _git(root, date, "commit", "-q", "-m", message)


@needs_git
def test_git_cli_repo_round_trip(tmp_path):
    _git(tmp_path, "2015-03-01T12:00:00 +0000", "init", "-q")
    _commit_files(tmp_path, "2015-03-01T12:00:00 +0000", "initial",
                  {"Main.java": b"int a = 1;\nint b = 2;\n"})
    _commit_files(tmp_path, "2015-03-02T12:00:00 +0000", "fix b",
                  {"Main.java": b"int a = 1;\nint b = 3;\n"})

    with GitCliRepo(str(tmp_path)) as repo:
        commits = repo.commits()
        assert [c.message for c in commits] == ["initial", "fix b"]
        assert commits[0].year == 2015
        head = commits[1]
        assert repo.commit(head.id) == head
        assert repo.changed_java_files(head) == ["Main.java"]
        assert repo.touched(head.id, "Main.java")
        assert repo.file_lines(head.id, "Main.java") == ["int a = 1;", "int b = 3;"]
        assert repo.file_lines(head.id, "Missing.java") is None
        assert repo.file_lines("0" * 40, "Main.java") is None
        with pytest.raises(RepositoryError):
            repo.commit("0" * 40)


@needs_git
def test_git_touched_on_a_merge_compares_with_the_first_parent(tmp_path):
    day = "2015-03-0{}T12:00:00 +0000".format
    _git(tmp_path, day(1), "init", "-q", "-b", "main")
    _commit_files(tmp_path, day(1), "initial",
                  {"A.java": b"int a;\n", "B.java": b"int b;\n"})
    _git(tmp_path, day(2), "checkout", "-q", "-b", "side")
    _commit_files(tmp_path, day(2), "side", {"B.java": b"int b = 2;\n"})
    _git(tmp_path, day(3), "checkout", "-q", "main")
    _commit_files(tmp_path, day(3), "main", {"A.java": b"int a = 1;\n"})
    _git(tmp_path, day(4), "merge", "-q", "--no-edit", "side")

    with GitCliRepo(str(tmp_path)) as repo:
        merge = repo.commits()[-1]
        assert merge.is_merge
        assert repo.touched(merge.id, "B.java")
        assert not repo.touched(merge.id, "A.java")
        assert repo.changed_java_files(merge) == ["B.java"]


@needs_git
def test_git_file_lines_decodes_like_text_mode(tmp_path):
    body = b"int a;\r\nint b;\rint c; // caf\xe9\n\nint d;"
    _git(tmp_path, "2015-03-01T12:00:00 +0000", "init", "-q")
    _commit_files(tmp_path, "2015-03-01T12:00:00 +0000", "initial", {"E.java": body})
    with GitCliRepo(str(tmp_path)) as repo:
        head = repo.commits()[0]
        # CRLF and a lone CR end lines, an undecodable byte becomes
        # U+FFFD, and normalization drops the blank line
        assert repo.file_lines(head.id, "E.java") == [
            "int a;", "int b;", "int c; // caf\ufffd", "int d;"]


@needs_git
def test_non_utf8_source_is_mined(tmp_path):
    repo_dir = tmp_path / "repo"
    repo_dir.mkdir()
    body = b"class L {\nvoid f ( ) {\nint x = %d ; // caf\xe9\n}\n}\n"
    _git(repo_dir, "2015-03-01T12:00:00 +0000", "init", "-q")
    _commit_files(repo_dir, "2015-03-01T12:00:00 +0000", "initial",
                  {"L.java": body % 1})
    _commit_files(repo_dir, "2015-03-02T12:00:00 +0000", "fix x",
                  {"L.java": body % 2})
    out = tmp_path / "hunks.jsonl"
    assert main(["mine", "--repo", str(repo_dir), "--out", str(out)]) == 0
    hunks = read_hunks(str(out))
    assert len(hunks) == 1
    assert hunks[0].deleted_lines == ("int x = 1 ; // caf\ufffd",)


@needs_git
def test_a_message_holding_control_bytes_is_mined(tmp_path):
    # the records of the commit log used to end at byte 0x02, so this
    # message split its record and mine failed with a traceback
    repo_dir = tmp_path / "repo"
    repo_dir.mkdir()
    body = b"class L {\nvoid f ( ) {\nint x = %d ;\n}\n}\n"
    _git(repo_dir, "2015-03-01T12:00:00 +0000", "init", "-q")
    _commit_files(repo_dir, "2015-03-01T12:00:00 +0000", "initial",
                  {"L.java": body % 1})
    _commit_files(repo_dir, "2015-03-02T12:00:00 +0000", "fix \x01 x \x02 bug",
                  {"L.java": body % 2})
    out = tmp_path / "hunks.jsonl"
    assert main(["mine", "--repo", str(repo_dir), "--out", str(out)]) == 0
    hunks = read_hunks(str(out))
    assert [(h.deleted_lines, h.added_lines) for h in hunks] == [
        (("int x = 1 ;",), ("int x = 2 ;",))]
    with GitCliRepo(str(repo_dir)) as repo:
        assert repo.commit(hunks[0].commit_post).message == "fix \x01 x \x02 bug"


def _snapshot_commit(cid, day, parents, text):
    return {"id": cid, "time": f"2015-03-0{day}T12:00:00", "message": "edit",
            "parents": parents, "files": {"Café.java": text}}


@needs_git
def test_non_ascii_path_mines_the_same_hunks_on_both_adapters(tmp_path, workloads):
    body = "class C {{\nvoid f ( ) {{\nint x = {} ;\n}}\n}}\n".format
    commits = [_snapshot_commit("c1", 1, [], body(1)),
               _snapshot_commit("c2", 2, ["c1"], body(2))]
    workloads.write_git_repo(commits, str(tmp_path / "repo"))
    memory = [(h.file_path, h.deleted_lines, h.added_lines)
              for h in mine_hunks(InMemoryRepo(commits))]
    with GitCliRepo(str(tmp_path / "repo")) as repo:
        report = MiningReport()
        git = [(h.file_path, h.deleted_lines, h.added_lines)
               for h in mine_hunks(repo, report=report)]
    assert report.unparseable_files == 0
    assert git == memory == [("Café.java", ("int x = 1 ;",), ("int x = 2 ;",))]


@needs_git
def test_mine_ends_the_git_processes_it_starts(tmp_path, workloads, git_processes):
    commits = synthdata.make_repo(seed=1, n_train_pairs=3)["commits"]
    workloads.write_git_repo(commits, str(tmp_path / "repo"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["mine", "--repo", str(tmp_path / "repo"),
                     "--out", str(tmp_path / "hunks.jsonl")]) == 0
        assert git_processes.popened
        assert [p.returncode is not None for p in git_processes.popened] == [
            True] * len(git_processes.popened)
        git_processes.popened.clear()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
