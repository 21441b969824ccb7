"""The benchmark's ablation, retrieval and graph workloads, at their tiny
size, pass their own checks.

Each test runs one pass of a ``perfbench/workloads.py`` workload in-process
so that tier-1 catches a change that breaks the benchmark's correctness
checks without running the full ``perfbench/run.py --self-check``.  The
graph workload checks ``sftlab diagnose``'s escape probabilities and
``sftlab transform``'s output against its own independent oracle; the
ablation workload trains every cell of the grid for a few epochs and
checks each cell's per-seed metrics.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def check_tiny_pass(name, tmp_path):
    workload = load_workloads().WORKLOADS[name](1, tmp_path, tiny=True)
    outcome = workload.check(workload.run())
    assert outcome.ops > 0
    assert outcome.failed == 0, outcome.problems
    assert outcome.digest


def test_tiny_retrieval_pass_checks_clean(tmp_path):
    check_tiny_pass("retrieval", tmp_path)


def test_tiny_graph_pass_checks_clean(tmp_path):
    check_tiny_pass("graph", tmp_path)


def test_tiny_ablation_pass_checks_clean(tmp_path):
    check_tiny_pass("ablation", tmp_path)
