"""``tools/record_bench.py`` records without bytecode: it refuses, with exit
code 2 and before any run, a tree whose package holds a .pyc for this
interpreter, and gives its runs PYTHONDONTWRITEBYTECODE=1."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


@pytest.fixture
def record_bench(tmp_path, monkeypatch):
    """The tool as a module, rooted at a temporary tree with a package
    src/surfpos of one module and a BENCHMARK.json of one workload."""
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package = tmp_path / "src" / "surfpos"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("X = 1\n")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "w"}]}')
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def test_refuses_a_package_with_bytecode(record_bench, tmp_path,
                                         monkeypatch, capsys):
    package = tmp_path / "src" / "surfpos"
    cache = Path(importlib.util.cache_from_source(str(package / "mod.py")))
    cache.parent.mkdir()
    cache.write_bytes(b"")
    assert record_bench.bytecode_files(package) == [cache]

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(record_bench, "run_one", no_run)
    assert record_bench.main(["29"]) == 2
    assert "src/surfpos holds bytecode" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_29.json").exists()


def test_bytecode_of_another_interpreter_is_not_refused(record_bench,
                                                        tmp_path):
    cache = tmp_path / "src" / "surfpos" / "__pycache__"
    cache.mkdir()
    (cache / "mod.other-99.pyc").write_bytes(b"")
    assert record_bench.bytecode_files(cache.parent) == []


def test_runs_get_no_bytecode(record_bench, monkeypatch):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs["env"])
        return subprocess.CompletedProcess(argv, 0, "{}\n", "")

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    rec = record_bench.run_one("w", 1, 0)
    assert rec["exit_code"] == 0 and rec["result_line"] == "{}"
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"
