"""``tools/bench_pairs.py`` runs both trees in the same bytecode state, and
``tools/bridge_levels.py`` prints each level's cost and their ratio."""

import importlib.util
import math
import types
from pathlib import Path

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


def test_bridge_levels_prints_each_level_and_the_ratio(capsys):
    # A 3-level grid, 2^-4 .. 2^-6: the finest level first, then R.
    rs = _tool("bridge_levels").main(["--coarsest", "4", "--finest", "6"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [float(row[0]) for row in rows] == [2.0 ** -6, 2.0 ** -5, 2.0 ** -4]
    assert all(int(row[1]) > 0 and float(row[2]) > 0.0 for row in rows)
    assert len(rs) == 1 and 0.0 < rs[0] < math.inf
    assert lines[-1] == f"run 1: R = {rs[0]:.3f}"
