"""Mining: fix-message detection, blame tracing, scope flags, and the
hunk JSONL round trip.

The blame oracle is a handcrafted four-commit history where every
line's introducing commit is known by construction.  _reference_blame
is the first-parent walk that diffs at every commit; blame_origin,
which steps past commits that left the file alone, must agree with it
on hand-built histories and on every blame of a mined git repository.
Both start from a commit and the file's lines there, as mine_hunks
passes the parent side of a diff.
"""

import os
import subprocess

import pytest

from patchloom import mining, synthdata
from patchloom.linediff import histogram_diff
from patchloom.mining import (
    ChangeHunk,
    MiningReport,
    blame_origin,
    identify_fix_commits,
    is_fix_message,
    method_ranges,
    mine_hunks,
    read_hunks,
    write_hunks,
)
from patchloom.repo import GitCliRepo, InMemoryRepo

from conftest import DATA_DIR, load_tagged, needs_git

FIX_CASES = load_tagged(os.path.join(DATA_DIR, "fix_messages.txt"))


@pytest.mark.parametrize("label,message", FIX_CASES,
                         ids=[m[:40] for _, m in FIX_CASES])
def test_fix_message_rule(label, message):
    assert label in ("fix", "nofix")
    assert is_fix_message(message) == (label == "fix")


# ---------------------------------------------------------------------------
# blame oracle history
#
#   k1 (2012): method with lines a, b, s, c (s is a spacer)
#   k2 (2013): rewrites b        -> origin of the new b is k2
#   k3 (2014): appends line d    -> origin of d is k3
#   k4 (2015): "fix" rewrites k2's b and k1's c; the spacer keeps the
#              two edits in separate hunks

_BODY = "void run ( ) {{\n{lines}\n}}\n"


def _file(*lines):
    return _BODY.format(lines="\n".join(lines))


HISTORY = {"commits": [
    {"id": "k1", "time": "2012-05-01T00:00:00", "message": "start",
     "parents": [],
     "files": {"M.java": _file("int a = 1 ;", "int b = 2 ;", "int s = 0 ;",
                               "int c = 3 ;")}},
    {"id": "k2", "time": "2013-05-01T00:00:00", "message": "rework b",
     "parents": ["k1"],
     "files": {"M.java": _file("int a = 1 ;", "int b = 20 ;", "int s = 0 ;",
                               "int c = 3 ;")}},
    {"id": "k3", "time": "2014-05-01T00:00:00", "message": "add d",
     "parents": ["k2"],
     "files": {"M.java": _file("int a = 1 ;", "int b = 20 ;", "int s = 0 ;",
                               "int c = 3 ;", "int d = 4 ;")}},
    {"id": "k4", "time": "2015-05-01T00:00:00", "message": "fix overflow",
     "parents": ["k3"],
     "files": {"M.java": _file("int a = 1 ;", "int b = 200 ;", "int s = 0 ;",
                               "int c = 30 ;", "int d = 4 ;")}},
]}


@pytest.fixture()
def history_repo():
    return InMemoryRepo(HISTORY["commits"])


def _blame_deleted(repo, post, path, index):
    """Blame line index of path's parent side of post's diff, from the
    start mine_hunks gives it."""
    parent = repo.commit(repo.commit(post).parent_ids[0])
    return blame_origin(repo, parent, path, repo.file_lines(parent.id, path), index)


def test_blame_traces_to_introducing_commit(history_repo):
    # normalized file at k3: signature, a, b, s, c, d, closing brace;
    # index 2 is the b line (introduced by k2), index 4 the c line (k1)
    assert _blame_deleted(history_repo, "k4", "M.java", 2) == ("k2", 2013)
    assert _blame_deleted(history_repo, "k4", "M.java", 4) == ("k1", 2012)
    assert _blame_deleted(history_repo, "k4", "M.java", 5) == ("k3", 2014)


def test_blame_stops_at_file_add(history_repo):
    # every line of k1's file was introduced by k1 (the file add)
    assert _blame_deleted(history_repo, "k2", "M.java", 2) == ("k1", 2012)


def test_mined_hunks_carry_origin_years(history_repo):
    k4 = [h for h in mine_hunks(history_repo) if h.commit_post == "k4"]
    assert len(k4) == 2
    b_hunk = next(h for h in k4 if h.deleted_lines == ("int b = 20 ;",))
    c_hunk = next(h for h in k4 if h.deleted_lines == ("int c = 3 ;",))
    assert b_hunk.added_lines == ("int b = 200 ;",)
    assert b_hunk.commit_pre_origin == "k2" and b_hunk.year_pre == 2013
    assert c_hunk.commit_pre_origin == "k1" and c_hunk.year_pre == 2012
    assert b_hunk.year_post == 2015
    assert b_hunk.method_scoped and c_hunk.method_scoped


def test_addition_only_hunk_originates_at_its_own_commit(history_repo):
    k3 = [h for h in mine_hunks(history_repo) if h.commit_post == "k3"]
    assert len(k3) == 1
    assert k3[0].deleted_lines == ()
    assert k3[0].added_lines == ("int d = 4 ;",)
    assert k3[0].commit_pre_origin == "k3"
    assert k3[0].year_pre == k3[0].year_post == 2014


def test_since_until_filter_on_post_year(history_repo):
    years = {h.year_post for h in mine_hunks(history_repo, since=2014)}
    assert years == {2014, 2015}
    years = {h.year_post for h in mine_hunks(history_repo, until=2013)}
    assert years == {2013}


def test_merge_commits_skipped_and_counted():
    commits = [dict(c) for c in HISTORY["commits"]]
    commits.append({
        "id": "m1", "time": "2016-01-01T00:00:00", "message": "merge",
        "parents": ["k4", "k2"],
        "files": {"M.java": _file("int merged ;")},
    })
    report = MiningReport()
    hunks = list(mine_hunks(InMemoryRepo(commits), report=report))
    assert all(h.commit_post != "m1" for h in hunks)
    assert report.merges_skipped == 1
    assert report.commits_seen == 5
    assert report.hunks_emitted == len(hunks)


def test_change_outside_method_not_scoped():
    commits = [
        {"id": "f1", "time": "2013-01-01T00:00:00", "message": "a",
         "parents": [],
         "files": {"C.java": "class C {\nint field = 1 ;\n}\n"}},
        {"id": "f2", "time": "2013-02-01T00:00:00", "message": "b",
         "parents": ["f1"],
         "files": {"C.java": "class C {\nint field = 2 ;\n}\n"}},
    ]
    hunks = list(mine_hunks(InMemoryRepo(commits)))
    assert len(hunks) == 1
    assert not hunks[0].method_scoped


def test_method_ranges_brace_scan():
    lines = [
        "class C {",
        "void f ( ) {",
        "int a ;",
        "if ( a > 0 ) {",
        "a ++ ;",
        "}",
        "}",
        "int field ;",
        "String g ( ) {",
        "return \"}\" ;",  # brace inside a string must not close the body
        "}",
        "}",
    ]
    assert method_ranges(lines) == [(1, 6), (8, 10)]


def test_a_record_header_is_not_a_method_signature():
    lines = ["record Point ( int x , int y ) {",
             "Point ( ) {",
             "this ( 0 , 0 ) ;",
             "}",
             "}"]
    assert method_ranges(lines) == [(1, 3)]


def test_fix_commit_hunks_blame_to_the_inducing_commits(history_repo):
    fixes = identify_fix_commits(history_repo.commits())
    assert fixes == {"k4"}
    origins = {h.commit_pre_origin for h in mine_hunks(history_repo)
               if h.commit_post in fixes}
    assert origins == {"k1", "k2"}


def test_hunk_jsonl_round_trip(tmp_path, history_repo):
    hunks = list(mine_hunks(history_repo))
    path = tmp_path / "hunks.jsonl"
    count = write_hunks(str(path), hunks)
    assert count == len(hunks)
    assert read_hunks(str(path)) == hunks


def test_hunk_json_obj_round_trip():
    h = ChangeHunk(
        deleted_lines=("int a ;",), added_lines=("int b ;", "int c ;"),
        file_path="X.java", commit_post="p", commit_pre_origin="o",
        year_pre=2012, year_post=2014, method_scoped=True,
    )
    assert ChangeHunk.from_json_obj(h.to_json_obj()) == h


# ---------------------------------------------------------------------------
# blame against the walk that diffs at every commit

def _reference_blame(repo, commit, path, lines, index):
    """blame_origin without the skip: reads and diffs the file at every
    first-parent commit."""
    while commit.parent_ids:
        parent = repo.commit(commit.parent_ids[0])
        parent_lines = repo.file_lines(parent.id, path)
        if parent_lines is None:
            break
        offset = 0
        for hunk in histogram_diff(parent_lines, lines):
            if hunk.post_start <= index < hunk.post_end:
                return commit.id, commit.year
            if hunk.post_end <= index:
                offset += (hunk.pre_end - hunk.pre_start) - (hunk.post_end - hunk.post_start)
            else:
                break
        index += offset
        commit, lines = parent, parent_lines
    return commit.id, commit.year


def _commit(cid, year, parents, files):
    return {"id": cid, "time": f"{year}-05-01T00:00:00", "message": "edit",
            "parents": parents, "files": files}


_OTHER = "class O {\n}\n"

ORACLE_HISTORIES = {
    # k2 and k3 change only O.java, so the walk from k4 steps past them
    "untouched intermediate commits": ([
        _commit("k1", 2011, [], {"M.java": _file("int a ;", "int b ;"), "O.java": _OTHER}),
        _commit("k2", 2012, ["k1"], {"M.java": _file("int a ;", "int b ;"),
                                     "O.java": "class O {\nint o ;\n}\n"}),
        _commit("k3", 2013, ["k2"], {"M.java": _file("int a ;", "int b ;"),
                                     "O.java": "class O {\nint p ;\n}\n"}),
        _commit("k4", 2014, ["k3"], {"M.java": _file("int a ;", "int b = 1 ;"),
                                     "O.java": "class O {\nint p ;\n}\n"}),
    ], ("k4", "M.java", 2, "k1")),
    # k2 re-indents b: the file changed but its normalized lines did not
    "whitespace-only edit": ([
        _commit("k1", 2011, [], {"M.java": _file("int a ;", "int b ;")}),
        _commit("k2", 2012, ["k1"], {"M.java": _file("int a ;", "    int   b ;")}),
        _commit("k3", 2013, ["k2"], {"M.java": _file("int a ;", "int b = 1 ;")}),
    ], ("k3", "M.java", 2, "k1")),
    "delete then re-add": ([
        _commit("k1", 2011, [], {"M.java": _file("int a ;", "int b ;"), "O.java": _OTHER}),
        _commit("k2", 2012, ["k1"], {"O.java": _OTHER}),
        _commit("k3", 2013, ["k2"], {"M.java": _file("int a ;", "int b ;"), "O.java": _OTHER}),
        _commit("k4", 2014, ["k3"], {"M.java": _file("int a ;", "int b = 1 ;"),
                                     "O.java": _OTHER}),
    ], ("k4", "M.java", 2, "k3")),
    "rename": ([
        _commit("k1", 2011, [], {"A.java": _file("int a ;", "int b ;")}),
        _commit("k2", 2012, ["k1"], {"B.java": _file("int a ;", "int b ;")}),
        _commit("k3", 2013, ["k2"], {"B.java": _file("int a ;", "int b = 1 ;")}),
    ], ("k3", "B.java", 2, "k2")),
    # the side branch s1 rewrites b; against its first parent k2 the
    # merge m1 introduces that b, so blame from k3 stops at m1
    "merge with a side-branch change": ([
        _commit("k1", 2011, [], {"M.java": _file("int a ;", "int b ;"), "O.java": _OTHER}),
        _commit("s1", 2012, ["k1"], {"M.java": _file("int a ;", "int b = 2 ;"),
                                     "O.java": _OTHER}),
        _commit("k2", 2012, ["k1"], {"M.java": _file("int a ;", "int b ;"),
                                     "O.java": "class O {\nint o ;\n}\n"}),
        _commit("m1", 2013, ["k2", "s1"], {"M.java": _file("int a ;", "int b = 2 ;"),
                                           "O.java": "class O {\nint o ;\n}\n"}),
        _commit("k3", 2014, ["m1"], {"M.java": _file("int a ;", "int b = 3 ;"),
                                     "O.java": "class O {\nint o ;\n}\n"}),
    ], ("k3", "M.java", 2, "m1")),
}


def _assert_blame_matches_reference(repo, commits, ids):
    """blame_origin equals _reference_blame for every line of every file
    at every commit; ids maps the history's ids to repo's."""
    checked = 0
    for c in commits:
        start = repo.commit(ids[c["id"]])
        for path in c["files"]:
            lines = repo.file_lines(start.id, path)
            for index in range(len(lines)):
                args = (repo, start, path, lines, index)
                assert blame_origin(*args) == _reference_blame(*args), (start.id, path, index)
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(ORACLE_HISTORIES))
def test_blame_equals_the_reference_walk(name):
    commits, (post, path, index, origin) = ORACLE_HISTORIES[name]
    repo = InMemoryRepo(commits)
    assert _blame_deleted(repo, post, path, index)[0] == origin
    _assert_blame_matches_reference(repo, commits, {c["id"]: c["id"] for c in commits})


@needs_git
@pytest.mark.parametrize("name", sorted(
    name for name, (commits, _) in ORACLE_HISTORIES.items()
    if all(len(c["parents"]) <= 1 for c in commits)))
def test_git_blame_equals_the_reference_walk(tmp_path, workloads, name):
    commits, (post, path, index, origin) = ORACLE_HISTORIES[name]
    workloads.write_git_repo(commits, str(tmp_path / "repo"))
    with GitCliRepo(str(tmp_path / "repo")) as repo:
        # the writer keeps the history's order and makes each commit the
        # previous one's child, as these histories are
        ids = {c["id"]: r.id for c, r in zip(commits, repo.commits())}
        assert _blame_deleted(repo, ids[post], path, index)[0] == ids[origin]
        _assert_blame_matches_reference(repo, commits, ids)


def test_untouched_commits_are_not_diffed(monkeypatch):
    commits, (post, path, index, _) = ORACLE_HISTORIES["untouched intermediate commits"]
    diffs = []
    real = mining.histogram_diff
    monkeypatch.setattr(mining, "histogram_diff",
                        lambda pre, post: diffs.append(1) or real(pre, post))
    _blame_deleted(InMemoryRepo(commits), post, path, index)
    assert diffs == []      # k3, k2: untouched; k1: the root


def _count_reads(monkeypatch, repo):
    """The commit ids of every file_lines call on repo from here on."""
    reads = []
    real = repo.file_lines
    monkeypatch.setattr(repo, "file_lines",
                        lambda commit_id, path: reads.append(commit_id) or real(commit_id, path))
    return reads


def test_blame_reads_no_file_at_the_commit_it_starts_from(monkeypatch):
    commits, (post, path, index, origin) = ORACLE_HISTORIES["untouched intermediate commits"]
    repo = InMemoryRepo(commits)
    start = repo.commit(repo.commit(post).parent_ids[0])
    lines = repo.file_lines(start.id, path)
    reads = _count_reads(monkeypatch, repo)
    assert blame_origin(repo, start, path, lines, index)[0] == origin
    assert start.id not in reads


def test_mining_reads_each_file_version_once_per_diff(monkeypatch):
    # 672 reads for both sides of 336 diffs and 336 for the blame walks
    # past the parent; a walk that re-read the parent side made 1,344
    repo = InMemoryRepo(synthdata.make_repo(seed=1, n_train_pairs=320)["commits"])
    reads = _count_reads(monkeypatch, repo)
    assert list(mine_hunks(repo))
    assert len(reads) == 1008


# ---------------------------------------------------------------------------
# a real git repository written from synthdata.make_repo

@pytest.fixture(scope="module")
def synthetic_git(tmp_path_factory, workloads):
    """{n_train_pairs: (git repository path, commits)}."""
    out = {}
    for pairs in (10, 20):
        commits = synthdata.make_repo(seed=1, n_train_pairs=pairs)["commits"]
        path = str(tmp_path_factory.mktemp("synthetic") / "repo")
        workloads.write_git_repo(commits, path)
        out[pairs] = path, commits
    return out


@needs_git
def test_git_and_in_memory_adapters_mine_equal_hunks(synthetic_git, workloads):
    hunk_key = workloads._hunk_key
    path, commits = synthetic_git[10]
    with GitCliRepo(path) as repo:
        got = [hunk_key(h) for h in mine_hunks(repo)]
    want = [hunk_key(h) for h in mine_hunks(InMemoryRepo(commits))]
    assert got == want and got


# a root, a side branch that modifies B.java, a main commit that
# modifies A.java and deletes Old.java, their merge, and a child of the
# merge that adds a file and modifies a non-Java one
MERGE_AND_DELETE = [
    {"id": "r", "time": "2015-03-01T12:00:00", "message": "root", "parents": [],
     "files": {"A.java": "int a ;\n", "B.java": "int b ;\n",
               "Old.java": "int o ;\n", "note.txt": "x\n"}},
    {"id": "s", "time": "2015-03-02T12:00:00", "message": "side", "parents": ["r"],
     "files": {"A.java": "int a ;\n", "B.java": "int b = 2 ;\n",
               "Old.java": "int o ;\n", "note.txt": "x\n"}},
    {"id": "m", "time": "2015-03-03T12:00:00", "message": "main", "parents": ["r"],
     "files": {"A.java": "int a = 1 ;\n", "B.java": "int b ;\n", "note.txt": "x\n"}},
    {"id": "j", "time": "2015-03-04T12:00:00", "message": "merge", "parents": ["m", "s"],
     "files": {"A.java": "int a = 1 ;\n", "B.java": "int b = 2 ;\n", "note.txt": "x\n"}},
    {"id": "c", "time": "2015-03-05T12:00:00", "message": "child", "parents": ["j"],
     "files": {"A.java": "int a = 3 ;\n", "B.java": "int b = 2 ;\n",
               "New.java": "int n ;\n", "note.txt": "y\n"}},
]


def _write_history(commits: list[dict], path: str) -> None:
    """Commit a snapshot history, merges included, into a new git
    repository, one commit per entry."""
    subprocess.run(["git", "init", "-q", "--template=", path], check=True)
    mark = {c["id"]: i for i, c in enumerate(commits, 1)}
    stream = []
    for c in commits:
        stream.append(f"commit refs/heads/main\nmark :{mark[c['id']]}\n"
                      f"committer t <t@x> {1425211200 + mark[c['id']]} +0000\n"
                      f"data {len(c['message'])}\n{c['message']}\n")
        stream += [f"{kind} :{mark[p]}\n" for kind, p in
                   zip(["from"] + ["merge"] * len(c["parents"]), c["parents"])]
        stream.append("deleteall\n")
        stream += [f"M 100644 inline {p}\ndata {len(body)}\n{body}\n"
                   for p, body in sorted(c["files"].items())]
    subprocess.run(["git", "-C", path, "fast-import", "--quiet"],
                   input="".join(stream).encode(), check=True)


@needs_git
@pytest.mark.parametrize("history", ["synthetic", "merge and delete"])
def test_git_and_in_memory_adapters_read_equal_changes(synthetic_git, tmp_path, history):
    if history == "synthetic":
        path, commits = synthetic_git[10]
    else:
        path, commits = str(tmp_path / "repo"), MERGE_AND_DELETE
        _write_history(commits, path)
    memory = InMemoryRepo(commits)
    paths = sorted({p for c in commits for p in c["files"]} | {"Never.java"})
    with GitCliRepo(path) as git:
        # a snapshot commit's git counterpart has its message and the
        # counterparts of its parents
        theirs = {}
        for c in commits:
            parents = tuple(theirs[p].id for p in c["parents"])
            [rec] = [r for r in git.commits() if r.parent_ids == parents
                     and r.message == c["message"].strip()]
            theirs[c["id"]] = rec
            ours = memory.commit(c["id"])
            assert git.changed_java_files(rec) == memory.changed_java_files(ours)
            assert ([git.touched(rec.id, p) for p in paths]
                    == [memory.touched(ours.id, p) for p in paths]), c["id"]
    if history != "synthetic":
        assert theirs["j"].is_merge
        assert memory.changed_java_files(memory.commit("j")) == ["B.java"]
        assert memory.touched("m", "Old.java") and not memory.touched("j", "Old.java")


@needs_git
@pytest.mark.parametrize("pairs", [10, 20])
def test_mining_a_git_repository_starts_at_most_two_git_processes(
        synthetic_git, git_processes, pairs):
    path, commits = synthetic_git[pairs]
    with GitCliRepo(path) as repo:
        hunks = list(mine_hunks(repo))
    assert len(hunks) > 0
    assert git_processes.calls <= 2


@needs_git
def test_blame_equals_the_reference_walk_on_every_mined_hunk(synthetic_git, monkeypatch):
    path, commits = synthetic_git[10]
    real = mining.blame_origin
    with GitCliRepo(path) as git_repo:
        for repo in (InMemoryRepo(commits), git_repo):
            calls = []

            def checked(*args):
                calls.append(args)
                assert real(*args) == _reference_blame(*args), args[1:3] + args[4:]
                return real(*args)

            monkeypatch.setattr(mining, "blame_origin", checked)
            deleting = [h for h in mine_hunks(repo) if h.deleted_lines]
            assert len(calls) >= len(deleting) > 0
