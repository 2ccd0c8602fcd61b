"""``tools/ab_trees.py`` times two trees in one process and refuses outputs
that differ, ``tools/bench_pairs.py`` runs both trees in the same bytecode
state and closes with a table of the medians,
``tools/bridge_levels.py`` prints each level's cost and their ratio, and
``tools/src_lines.py`` counts a package's lines by kind."""

import importlib.util
import json
import math
import re
import shutil
import types
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refuses_to_start_while_a_tree_holds_bytecode(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "bench").mkdir()
    cache = tmp_path / "change" / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    out = tmp_path / "BENCH.json"
    code = _tool("bench_pairs").main(["--parent", str(tmp_path / "parent"),
                                      "--change", str(tmp_path / "change"), "--out", str(out)])
    assert code == 2 and not out.exists()
    assert str(cache) in capsys.readouterr().err


def test_runs_write_no_bytecode(monkeypatch, tmp_path):
    bench_pairs = _tool("bench_pairs")
    envs = []

    def run(command, cwd, env, **kwargs):
        envs.append(env)
        return types.SimpleNamespace(stdout='{"correctness": {}}\n{"metrics": {}}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    bench_pairs.run_bench(tmp_path, "telomere-ensemble", 1, 1.0)
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]


def test_closing_table_gives_each_workload_and_metric(monkeypatch, tmp_path, capsys):
    # Two workloads over three pairs; the change is faster in pairs 1 and 3
    # of "a" and its first run of "b" is not correct.
    bench_pairs = _tool("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "traj_per_s", "better": "higher"},
                       {"name": "setup_s", "better": "lower"}]}))
    speeds = {("parent", "a"): [10.0, 12.0, 11.0], ("change", "a"): [11.0, 11.5, 13.0],
              ("parent", "b"): [5.0, 5.0, 5.0], ("change", "b"): [4.0, 6.0, 5.0]}

    def run_bench(tree, workload, seed, seconds):
        traj = speeds[tree.name, workload][seed - 1]
        correct = not (tree.name == "change" and workload == "b" and seed == 1)
        return {"result": {"correct": correct, "failed": 0, "metrics": {
                    "traj_per_s": {"value": traj}, "setup_s": {"value": 0.5}}},
                "correctness": {"units": 2, "statistic_mismatches": 0,
                                "digest_mismatches": 0 if correct else 1}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "3",
                             "--out", str(tmp_path / "BENCH.json")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[0].split()[:6] == [
        "workload", "metric", "parent", "change", "ratio", "better"]
    assert [line.split() for line in lines[1:]] == [
        ["a", "traj_per_s", "11.0", "11.5", "1.045", "2/3", "yes,", "yes"],
        ["a", "setup_s", "0.5", "0.5", "1.0", "0/3", "yes,", "yes"],
        ["b", "traj_per_s", "5.0", "5.0", "1.0", "1/3", "yes,", "NO"],
        ["b", "setup_s", "0.5", "0.5", "1.0", "0/3", "yes,", "NO"]]


def test_bridge_levels_prints_each_level_and_the_ratio(capsys):
    # A 3-level grid, 2^-4 .. 2^-6: the finest level first, each with the
    # merge before its walk (none before the finest), then the merges' total
    # and the top-ups, then R.
    rs = _tool("bridge_levels").main(["--coarsest", "4", "--finest", "6"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["merge", "ms"]
    rows = [line.split() for line in lines[1:-2]]
    assert [float(row[0]) for row in rows] == [2.0 ** -6, 2.0 ** -5, 2.0 ** -4]
    assert all(int(row[1]) > 0 and float(row[2]) > 0.0 for row in rows)
    assert float(rows[0][4]) < min(float(row[4]) for row in rows[1:])
    merges = re.fullmatch(r"run 1: merges (\S+) ms, (\d+) top-ups (\S+) ms", lines[-2])
    assert merges and float(merges[1]) > 0.0 and int(merges[2]) > 0 and float(merges[3]) > 0.0
    assert len(rs) == 1 and 0.0 < rs[0] < math.inf
    assert lines[-1] == f"run 1: R = {rs[0]:.3f}"


# Two docstring lines, a code line with a comment, a comment line, a class
# and a function docstring (a blank line inside counts as docstring), and a
# string over two lines that is not a docstring, which counts as code.
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring

        with a blank line.
        """
        x = """not a
docstring"""
        return os.sep + x
'''


def test_src_lines_counts_each_kind(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("# one comment\n\nX = 1\n")
    totals = _tool("src_lines").main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "code", "docstring", "comment", "blank"]
    assert lines[1].split() == ["a.py", "3", "1", "0", "1", "1"]
    assert lines[2].split() == ["b.py", "19", "6", "7", "1", "5"]
    assert lines[3].split() == ["total", "22", "7", "7", "2", "6"]
    assert totals == {"total": 22, "code": 7, "docstring": 7, "comment": 2, "blank": 6}


def test_ab_trees_passes_a_tree_against_itself_and_exits_1_on_differing_outputs(
        tmp_path, capsys):
    ab_trees, root = _tool("ab_trees"), TOOLS.parent
    assert ab_trees.main(["--parent", str(root), "--change", str(root), "--units", "2",
                          "--stages"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fast-switching: 2 units, outputs equal"
    assert re.fullmatch(r"ratio parent/change: median \S+, quartiles \S+ \.\. \S+; "
                        r"the change won [012] of 2 units", lines[3])
    assert lines[4].split()[-6:] == ["chains", "streams", "walk", "noise", "newton", "rest"]
    assert [line.split()[0] for line in lines[5:]] == ["parent", "change"]
    # The streams and the noise stages hold time of their own.
    assert all(float(line.split()[2]) > 0 and float(line.split()[4]) > 0 for line in lines[5:])

    # A Milstein correction of half its size (the telomere lane form's g'/2
    # is sqrt(3a x) times _QUARTER) changes every unit's outputs; the message
    # names the unit's study seed.
    changed = tmp_path / "change" / "src" / "switchsde"
    shutil.copytree(root / "src" / "switchsde", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "models.py", "a") as fh:
        fh.write("\n_QUARTER = np.array(0.125)\n")
    assert ab_trees.main(["--parent", str(root), "--change", str(tmp_path / "change"),
                          "--units", "2"]) == 1
    assert capsys.readouterr().err == "unit 0 (study seed 0): the trees' outputs differ\n"
    assert ab_trees.main(["--parent", str(root), "--change", str(tmp_path / "change"),
                          "--units", "1", "--first-seed", "5"]) == 1
    assert capsys.readouterr().err == "unit 0 (study seed 5): the trees' outputs differ\n"


def test_ab_trees_unit_i_runs_study_seed_first_plus_i(monkeypatch, capsys):
    # Each tree's study is called with the seeds first, first + 1, ...
    ab_trees, root = _tool("ab_trees"), TOOLS.parent
    seeds = []

    def study(package, workload):
        def run(seed):
            seeds.append(seed)
            return (np.array([float(seed)]),)
        return run

    monkeypatch.setattr(ab_trees, "study", study)
    assert ab_trees.main(["--parent", str(root), "--change", str(root), "--units", "3",
                          "--first-seed", "90"]) == 0
    assert seeds == [90, 90, 91, 91, 92, 92]
    assert capsys.readouterr().out.splitlines()[0] == "fast-switching: 3 units, outputs equal"
