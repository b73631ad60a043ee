"""Mining: fix-message detection, blame tracing, scope flags, and the
hunk JSONL round trip.

The blame oracle is a handcrafted four-commit history where every
line's introducing commit is known by construction.  _reference_blame
is the first-parent walk that diffs at every commit; blame_origin,
which steps past commits that left the file alone, must agree with it
on hand-built histories and on every blame of a mined git repository.
"""

import os

import pytest

from patchloom import mining, synthdata
from patchloom.linediff import histogram_diff
from patchloom.mining import (
    ChangeHunk,
    MiningReport,
    OriginUnknown,
    blame_origin,
    identify_fix_commits,
    is_fix_message,
    method_ranges,
    mine_hunks,
    read_hunks,
    write_hunks,
)
from patchloom.repo import GitCliRepo, InMemoryRepo, normalize_lines

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


def test_blame_traces_to_introducing_commit(history_repo):
    # normalized file at k3: signature, a, b, s, c, d, closing brace;
    # index 2 is the b line (introduced by k2), index 4 the c line (k1)
    assert blame_origin(history_repo, "k4", "M.java", 2) == ("k2", 2013)
    assert blame_origin(history_repo, "k4", "M.java", 4) == ("k1", 2012)
    assert blame_origin(history_repo, "k4", "M.java", 5) == ("k3", 2014)


def test_blame_stops_at_file_add(history_repo):
    # every line of k1's file was introduced by k1 (the file add)
    assert blame_origin(history_repo, "k2", "M.java", 2) == ("k1", 2012)


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

def _reference_blame(repo, commit_post, file_path, deleted_line_index):
    """blame_origin without the skip: reads and diffs the file at every
    first-parent commit."""
    commit = repo.commit(commit_post)
    if not commit.parent_ids:
        raise OriginUnknown(f"{commit_post} has no parent")
    current = repo.commit(commit.parent_ids[0])
    lines = repo.file_lines(current.id, file_path)
    if lines is None:
        raise OriginUnknown(f"{file_path} missing at {current.id}")
    index = deleted_line_index
    if index >= len(normalize_lines(lines)):
        raise OriginUnknown(f"line {index} out of range at {current.id}")
    while True:
        if not current.parent_ids:
            return current.id, current.year
        parent = repo.commit(current.parent_ids[0])
        parent_raw = repo.file_lines(parent.id, file_path)
        if parent_raw is None:
            return current.id, current.year
        child_lines = normalize_lines(repo.file_lines(current.id, file_path))
        parent_lines = normalize_lines(parent_raw)
        offset = 0
        for hunk in histogram_diff(parent_lines, child_lines):
            if hunk.post_start <= index < hunk.post_end:
                return current.id, current.year
            if hunk.post_end <= index:
                offset += (hunk.pre_end - hunk.pre_start) - (hunk.post_end - hunk.post_start)
            else:
                break
        index += offset
        current = parent


def _outcome(blame, *args):
    try:
        return blame(*args)
    except OriginUnknown:
        return "unknown"


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
    at every commit's first parent; ids maps the history's ids to repo's."""
    by_id = {c["id"]: c for c in commits}
    checked = 0
    for c in commits:
        if not c["parents"]:
            continue
        for path, text in by_id[c["parents"][0]]["files"].items():
            for index in range(len(normalize_lines(text.splitlines())) + 1):
                args = (repo, ids[c["id"]], path, index)
                assert _outcome(blame_origin, *args) == _outcome(_reference_blame, *args), args
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(ORACLE_HISTORIES))
def test_blame_equals_the_reference_walk(name):
    commits, (post, path, index, origin) = ORACLE_HISTORIES[name]
    repo = InMemoryRepo(commits)
    assert blame_origin(repo, post, path, index)[0] == origin
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
        assert blame_origin(repo, ids[post], path, index)[0] == ids[origin]
        _assert_blame_matches_reference(repo, commits, ids)


def test_untouched_commits_are_not_diffed(monkeypatch):
    commits, (post, path, index, _) = ORACLE_HISTORIES["untouched intermediate commits"]
    diffs = []
    real = mining.histogram_diff
    monkeypatch.setattr(mining, "histogram_diff",
                        lambda pre, post: diffs.append(1) or real(pre, post))
    blame_origin(InMemoryRepo(commits), post, path, index)
    assert diffs == []      # k3, k2: untouched; k1: the root


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


@needs_git
@pytest.mark.parametrize("pairs", [10, 20])
def test_mining_a_git_repository_starts_at_most_three_git_processes(
        synthetic_git, git_processes, pairs):
    path, commits = synthetic_git[pairs]
    with GitCliRepo(path) as repo:
        hunks = list(mine_hunks(repo))
    assert len(hunks) > 0
    assert git_processes.calls <= 3


@needs_git
def test_blame_equals_the_reference_walk_on_every_mined_hunk(synthetic_git, monkeypatch):
    path, commits = synthetic_git[10]
    real = mining.blame_origin
    with GitCliRepo(path) as git_repo:
        for repo in (InMemoryRepo(commits), git_repo):
            calls = []

            def checked(*args):
                calls.append(args)
                assert _outcome(real, *args) == _outcome(_reference_blame, *args), args[1:]
                return real(*args)

            monkeypatch.setattr(mining, "blame_origin", checked)
            deleting = [h for h in mine_hunks(repo) if h.deleted_lines]
            assert len(calls) >= len(deleting) > 0
