"""``tools/bench_pairs.py`` runs both trees in the same bytecode state."""

import importlib.util
import types
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
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
    code = _bench_pairs().main(["--parent", str(tmp_path / "parent"),
                                "--change", str(tmp_path / "change"), "--out", str(out)])
    assert code == 2 and not out.exists()
    assert str(cache) in capsys.readouterr().err


def test_runs_write_no_bytecode(monkeypatch, tmp_path):
    bench_pairs = _bench_pairs()
    envs = []

    def run(command, cwd, env, **kwargs):
        envs.append(env)
        return types.SimpleNamespace(stdout='{"correctness": {}}\n{"metrics": {}}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    bench_pairs.run_bench(tmp_path, "telomere-ensemble", 1, 1.0)
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]
