"""The benchmark's retrieval workload, at its tiny size, passes its own checks.

This runs one pass of ``perfbench/workloads.py``'s ``Retrieval`` in-process
so that tier-1 catches a change that breaks the benchmark's correctness
checks without running the full ``perfbench/run.py --self-check``.
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


def test_tiny_retrieval_pass_checks_clean(tmp_path):
    workload = load_workloads().Retrieval(1, tmp_path, tiny=True)
    outcome = workload.check(workload.run())
    assert outcome.ops > 0
    assert outcome.failed == 0, outcome.problems
    assert outcome.digest
