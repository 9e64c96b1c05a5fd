"""The documented library entry points, the names the benchmark relies on, and
which module may use which."""

import ast
import dataclasses
import doctest
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fas_optim
from fas_optim import harness, rate  # noqa: F401  (loads every module the tracer patches)
from fas_optim.scenario import load_scenario
from conftest import SCENARIO_DIR

REPO = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(REPO)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_ini_example_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    assert load_scenario(path) == load_scenario(SCENARIO_DIR / "table1_k3.ini")


def test_package_doctests_pass():
    attempted = failed = 0
    for info in pkgutil.iter_modules(fas_optim.__path__):
        module = importlib.import_module(f"fas_optim.{info.name}")
        result = doctest.testmod(module)
        attempted += result.attempted
        failed += result.failed
    assert attempted >= 1
    assert failed == 0


def test_benchmark_names_and_micro_cases(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    import micro
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # getattr of every pinned name; fails if one is gone
    finally:
        tracer.uninstall()
    samples = micro.run_cases(SCENARIO_DIR / "table1_k5.ini", repeats=1)
    assert samples and all(len(v) == 1 and v[0] > 0.0 for v in samples.values())


def test_import_and_load_leave_pools_and_writers_unloaded():
    # start-up pays only for what loading a scenario runs: the pools, the
    # summary statistics and the CSV writer load where they are first used
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fas_optim import harness, scenario\n"
        "scenario.load_scenario(sys.argv[2])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = Path(fas_optim.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(SCENARIO_DIR / "table1_k5.ini")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.split())
    assert "fas_optim.harness" in loaded
    deferred = {"multiprocessing", "concurrent.futures", "statistics", "csv"}
    assert not deferred & loaded


def test_module_layering():
    # each solver depends on scenario, rate and channel, not on the other;
    # rate's private names stay in rate; the feasible set has one home
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "src" / "fas_optim").glob("*.py"))
    }
    imported = set()
    for node in ast.walk(trees["opt_grad"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if name.split(".")[-1] == "opt_ga"]

    private = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "rate"
            ):
                private.add((module, node.attr))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("rate"):
                private.update((module, alias.name) for alias in node.names)
    assert {(m, n) for m, n in private if m != "rate" and n.startswith("_")} == set()

    feasible_set = ("project", "violation_counts", "violation_set", "_violation_mask")
    defined = {name: [] for name in feasible_set}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(module)
    assert defined == {name: ["scenario"] for name in feasible_set}


def test_closed_form_context_is_memoised(table1_k5):
    ctx = rate.closed_form_context(table1_k5)
    assert rate.closed_form_context(table1_k5) is ctx
    arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    louder = dataclasses.replace(table1_k5, tx_power=2.0 * table1_k5.tx_power)
    other = rate.closed_form_context(louder)
    assert other is not ctx
    assert other.tx_power == 2.0 * ctx.tx_power
