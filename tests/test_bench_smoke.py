"""The benchmark's ablation, retrieval and graph workloads, at their tiny
size, pass their own checks.

Each test runs one pass of a ``perfbench/workloads.py`` workload in-process
so that tier-1 catches a change that breaks the benchmark's correctness
checks without running the full ``perfbench/run.py --self-check``.  The
graph workload checks ``sftlab diagnose``'s escape probabilities and
``sftlab transform``'s output against its own independent oracle; the
ablation workload trains every cell of the grid for a few epochs and
checks each cell's per-seed metrics.  A last test checks that the traced
benchmark's lookup sites (``perfbench/layertrace.py``) still resolve.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every lookup site of perfbench/layertrace.py that resolves to a function.
# The tracer reports a site that no longer resolves as absent and its span
# as zero calls, so a refactor that moves or renames one of these functions
# would blind a span without failing the benchmark; it fails here instead.
TRACED_SITES = (
    "sftlab.experiment:run_experiment",
    "sftlab.experiment:make_dataset",
    "sftlab.cli:main",
    "sftlab.experiment:train",
    "sftlab.cli:train",
    "sftlab.training:sample_pk",
    "sftlab.training:EmbedModel.forward",
    "sftlab.training:EmbedModel.backward",
    "sftlab.training:ncut_loss",
    "sftlab.ranking:sft_transform_array",
    "sftlab.cli:sft_transform",
    "sftlab.experiment:affinity",
    "sftlab.training:affinity",
    "sftlab.experiment:rank",
    "sftlab.cli:rank",
    "sftlab.ranking:rank",
    "sftlab.experiment:refine_ranking",
    "sftlab.cli:refine_ranking",
    "sftlab.ranking:refine_ranking",
    "sftlab.experiment:evaluate",
    "sftlab.cli:evaluate",
    "sftlab.ranking:evaluate",
    "sftlab.experiment:k_reciprocal_rerank",
    "sftlab.ranking:k_reciprocal_rerank",
    "sftlab.cli:load_features",
    "sftlab.cli:save_features",
    "sftlab.cli:load_manifest",
    "sftlab.rng:Xoshiro256StarStar.next_u64",
)


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def check_tiny_pass(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name](1, tmp_path, tiny=True)
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


def test_traced_sites_resolve():
    layertrace = load_perfbench("layertrace")
    known = {site for sites in layertrace.SPANS.values() for site in sites}
    assert set(TRACED_SITES) <= known | {layertrace.RNG_SITE}
    assert [site for site in TRACED_SITES if layertrace._resolve(site) is None] == []
