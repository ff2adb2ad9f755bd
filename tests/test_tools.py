"""The pure helpers of the scripts under tools/, on small hand-written inputs."""

import importlib.util
import json
import math
import os
import shutil
import subprocess

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_drift = load("report_drift")
code_lines = load("code_lines")
ref_tree = load("ref_tree")
ab_bench = load("ab_bench")

CSV_OLD = """\
# version=0.1.0
# fixture_id=0123456789ab
# config={"mode": "sum"}
# summary.slope=1.0000000000000000e-01
x,value,log_magnitude,error
1.0000000000000000e+00,2.0000000000000000e+00,6.9314718055994529e-01,
2.0000000000000000e+00,nan,nan,ValueError: x is bad
"""

# value moves in its first row, and the summary's slope moves
CSV_NEW = CSV_OLD.replace("2.0000000000000000e+00,6.93", "2.5000000000000000e+00,6.93").replace(
    "slope=1.0000000000000000e-01", "slope=1.5000000000000000e-01"
)

JSON_OLD = json.dumps({
    "columns": ["x", "ratio", "error"],
    "rows": [[15.0, 0.5, ""], [30.0, 0.25, ""]],
    "summary": {"slope": -0.01, "ratio_min": 0.25},
})

# ratio moves in its last row, and the summary's ratio_min with it
JSON_NEW = json.dumps({
    "columns": ["x", "ratio", "error"],
    "rows": [[15.0, 0.5, ""], [30.0, 0.2, ""]],
    "summary": {"slope": -0.01, "ratio_min": 0.2},
})


class TestReportDrift:
    def test_parse_a_csv_report(self):
        columns, rows, summary = report_drift._parse(CSV_OLD)
        assert columns == ["x", "value", "log_magnitude", "error"]
        assert rows[1] == ["2.0000000000000000e+00", "nan", "nan", "ValueError: x is bad"]
        assert len(rows) == 2
        assert summary == {"summary.slope": "1.0000000000000000e-01"}

    def test_parse_a_json_report(self):
        columns, rows, summary = report_drift._parse(JSON_OLD)
        assert columns == ["x", "ratio", "error"]
        assert rows == [[15.0, 0.5, ""], [30.0, 0.25, ""]]
        assert summary == {"summary.slope": -0.01, "summary.ratio_min": 0.25}

    @pytest.mark.parametrize(
        "old, new, want",
        [("1.5", "1.5", None), (2.0, 2.0, None), ("1.0", "1.00", (0.0, 0.0)),
         ("2.0", "3.0", (1.0, 1.0 / 3.0)), (-4.0, -3.0, (1.0, 0.25)),
         ("nan", "1.0", (math.inf, math.inf)), ("", "ValueError: x", (math.inf, math.inf)),
         (None, "1.0", (math.inf, math.inf))],
    )
    def test_change(self, old, new, want):
        assert report_drift._change(old, new) == want

    @pytest.mark.parametrize("report", [CSV_OLD, JSON_OLD], ids=["csv", "json"])
    def test_an_identical_pair_moves_nothing(self, report):
        assert report_drift._drift(report, report) == [
            "  only the text outside the columns and summary changed"
        ]

    def test_a_csv_pair_names_the_column_and_the_field_that_moved(self):
        assert report_drift._drift(CSV_OLD, CSV_NEW) == [
            "  value: 1 of 2 rows moved, largest absolute 0.5, relative 0.2",
            "  summary.slope: 1.0000000000000000e-01 -> 1.5000000000000000e-01 "
            "(absolute 0.05, relative 0.333)",
        ]

    def test_a_json_pair_names_the_column_and_the_field_that_moved(self):
        assert report_drift._drift(JSON_OLD, JSON_NEW) == [
            "  ratio: 1 of 2 rows moved, largest absolute 0.05, relative 0.2",
            "  summary.ratio_min: 0.25 -> 0.2 (absolute 0.05, relative 0.2)",
        ]

    def test_a_changed_layout_is_reported_as_such(self):
        fewer = "\n".join(CSV_OLD.splitlines()[:-1])
        assert report_drift._drift(CSV_OLD, fewer)[0].startswith("  layout changed: 2 rows")


MODULE = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment counts once

# a comment line


def f(x):
    """A function docstring."""
    return (x +
            1)


class A:
    \'\'\'A class docstring.\'\'\'

    y = "a string that is no docstring"
'''


class TestCodeLines:
    def test_counts_code_lines_only(self):
        # import, def, the two lines of the return, class and y
        assert code_lines.code_lines(MODULE) == 6

    def test_main_prints_each_module_and_the_total(self, tmp_path, capsys):
        (tmp_path / "small.py").write_text(MODULE)
        (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
        (tmp_path / "notes.txt").write_text("x = 1\n")
        assert code_lines.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "6 small\n0 empty\n6 total\n"

    def test_ref_compares_each_module_with_the_working_tree(self, tmp_path, monkeypatch, capsys):
        # a module only at the ref counts 0 now, one only in the working
        # tree 0 at the ref; the ref is read by git archive, so nothing under
        # .git changes
        package = tmp_path / "src" / "hermite_decay"
        package.mkdir(parents=True)
        (package / "small.py").write_text(MODULE)
        (package / "gone.py").write_text("x = 1\n")
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.org"]
        for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
            subprocess.run(git + command, check=True)
        (package / "gone.py").unlink()
        (package / "small.py").write_text(MODULE + "z = 2\n")
        (package / "new.py").write_text("a = 1\nb = 2\n")

        def git_files():
            return {
                os.path.join(top, name): os.stat(os.path.join(top, name)).st_mtime_ns
                for top, _, names in os.walk(tmp_path / ".git") for name in names
            }

        before = git_files()
        monkeypatch.setattr(code_lines, "ROOT", str(tmp_path))
        assert code_lines.main(["--ref", "HEAD"]) == 0
        assert capsys.readouterr().out == "6 7 +1 small\n0 2 +2 new\n1 0 -1 gone\n7 9 +2 total\n"
        assert git_files() == before
        assert code_lines.main(["--ref", "no-such-ref"]) == 2
        assert "cannot check out 'no-such-ref'" in capsys.readouterr().err


def git_repository(path):
    """A git repository at path with one commit of src/hermite_decay/small.py and notes.txt."""
    package = path / "src" / "hermite_decay"
    package.mkdir(parents=True)
    (package / "small.py").write_text(MODULE)
    (path / "notes.txt").write_text("not under src\n")
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@example.org"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
        subprocess.run(git + command, check=True)
    return package


class TestRefTree:
    def test_both_tools_load_the_one_unpacker(self):
        path = os.path.join(TOOLS, "ref_tree.py")
        for tool in (code_lines, report_drift, ab_bench):
            assert tool.unpacked_src.__wrapped__.__code__.co_filename == path

    def test_unpacks_the_src_of_a_ref_and_removes_it(self, tmp_path):
        # the ref's src and nothing else, in a directory gone on the way out
        package = git_repository(tmp_path)
        (package / "small.py").write_text("changed = 1\n")
        with ref_tree.unpacked_src(str(tmp_path), "HEAD", "ref-tree-test-") as tree:
            assert os.path.basename(tree).startswith("ref-tree-test-")
            assert os.listdir(tree) == ["src"]
            with open(os.path.join(tree, "src", "hermite_decay", "small.py")) as handle:
                assert handle.read() == MODULE
        assert not os.path.exists(tree)

    def test_a_bad_ref_raises_and_leaves_no_directory(self, tmp_path, monkeypatch):
        git_repository(tmp_path / "repo")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(ref_tree.tempfile, "tempdir", str(scratch))
        with pytest.raises(subprocess.CalledProcessError):
            with ref_tree.unpacked_src(str(tmp_path / "repo"), "no-such-ref", "ref-tree-test-"):
                pass
        assert os.listdir(scratch) == []


class TestAbBench:
    def test_one_round_against_a_copy_of_the_working_tree(self, tmp_path):
        # one round of one sweep of the oscillator workload: two workers,
        # each on its own tree, with equal digests at seeds 1 and 42
        # (about 1.5 s on a 2-core x86-64 VM)
        src = os.path.join(ab_bench.ROOT, "src")
        copy = shutil.copytree(src, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        found = ab_bench.compare([str(copy), src], "oscillator", rounds=1, sweeps=1)
        assert found.digests[0] == found.digests[1]
        assert all(len(digest) == 64 for digest in found.digests[0])
        assert [len(side) for side in found.readings] == [1, 1]
        assert found.ratios[0] > 0.0
        lines = found.lines(("copy", "working tree"))
        assert lines[2] == "digests: equal"
        assert lines[-1].startswith("ratio working tree / copy: median ")
        assert lines[-1].endswith(" of 1")

    def test_refuses_one_tree_twice(self):
        # two workers on one path would measure one tree against itself
        src = os.path.join(ab_bench.ROOT, "src")
        with pytest.raises(ValueError, match="two separate trees"):
            ab_bench.compare([src, os.path.join(src, ".")], "oscillator", rounds=1, sweeps=1)

    def test_a_bad_ref_exits_2(self, capsys):
        assert ab_bench.main(["no-such-ref", "--rounds", "1", "--sweeps", "1"]) == 2
        assert "cannot check out 'no-such-ref'" in capsys.readouterr().err
