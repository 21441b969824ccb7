import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sftlab import experiment, training
from sftlab.data import FeatureMatrix, split_features
from sftlab.experiment import (
    MODES,
    ExperimentConfig,
    ablation_table,
    make_dataset,
    run_experiment,
    sweep_table,
    toy_train_config,
)
from sftlab.ranking import evaluate, rank
from sftlab.training import sample_pk, train

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_TRAIN = dict(epochs=12, warmup_epochs=4, decay_epochs=(8, 10), p=4, k=4,
                   hidden_dim=16, embed_dim=8)


def small_config(**over):
    base = dict(
        identities=6,
        train_per_id=4,
        query_per_id=1,
        gallery_per_id=3,
        seeds=(1, 2),
        top_n=5,
        kr_k1=4,
        kr_k2=2,
        train=toy_train_config(**SMALL_TRAIN),
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_config())


class TestAblation:
    def test_all_cells_present(self, report):
        expected = {"baseline", "sft", "sft+ds_unshared", "sft+ds_shared",
                    "sft+ds_shared+post", "sft+ds_shared+kr", "ncut"}
        assert set(report["cells"]) == expected
        for cell in report["cells"].values():
            assert len(cell["per_seed"]) == 2
            assert 0.0 <= cell["median"]["map"] <= 1.0

    @pytest.mark.parametrize("mode,overrides,cell", [
        ("ablation", dict(method="baseline"),
         lambda report: report["cells"]["baseline"]),
        ("sigma_sweep", dict(sigma=0.2, method="sft+ds_shared"),
         lambda report: report["rows"][0]),
        ("k_sweep", dict(k=2, method="sft+ds_shared"),
         lambda report: report["rows"][0]["sft+ds_shared"]),
    ], ids=["ablation", "sigma_sweep", "k_sweep"])
    def test_baseline_cell_equals_direct_composition(self, report, mode, overrides, cell):
        cfg = small_config(mode=mode, sigma_values=(0.2,), k_values=(2,))
        if mode != "ablation":
            report = run_experiment(cfg)
        features, manifest = make_dataset(cfg, seed=1)
        run_cfg = replace(cfg.train, seed=1, **overrides)
        result = train(features, manifest, run_cfg)
        emb = FeatureMatrix(result.model.embed(features.data))
        ranking = rank(split_features(emb, manifest, "query"),
                       split_features(emb, manifest, "gallery"), manifest)
        direct = evaluate(ranking, manifest)
        row = cell(report)["per_seed"][0]
        assert row.get("seed", 1) == 1  # sweep rows carry no seed
        assert row["map"] == direct.map_score
        assert row["cmc1"] == direct.cmc[1]

    def test_post_with_top_n_one_equals_plain_cell(self):
        report = run_experiment(small_config(top_n=1))
        plain = report["cells"]["sft+ds_shared"]
        post = report["cells"]["sft+ds_shared+post"]
        for a, b in zip(plain["per_seed"], post["per_seed"]):
            assert a["map"] == b["map"]

    def test_table_structure(self, report):
        table = ablation_table(report)
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == ["method", "sft", "ds_u", "ds_s", "post", "kr",
                                        "mAP", "Rank-1", "Rank-5"]
        assert len(lines) == 8
        row = dict(zip(lines[0].split("\t"), lines[4].split("\t")))
        assert row["method"] == "sft+ds_shared"
        assert row["sft"] == "x" and row["ds_s"] == "x" and row["post"] == ""


class TestSweeps:
    def test_sigma_sweep_rows_finite(self):
        cfg = small_config(mode="sigma_sweep", seeds=(1,),
                           sigma_values=(0.02, 0.05, 0.1, 0.2, 0.5))
        report = run_experiment(cfg)
        assert len(report["rows"]) == 5
        for row in report["rows"]:
            assert math.isfinite(row["median"]["map"])
        table = sweep_table(report)
        assert table.startswith("sigma\t")
        assert len(table.strip().split("\n")) == 6

    def test_k_sweep_rows(self):
        cfg = small_config(mode="k_sweep", seeds=(1,), k_values=(2, 4))
        report = run_experiment(cfg)
        assert [row["k"] for row in report["rows"]] == [2, 4]
        for row in report["rows"]:
            assert math.isfinite(row["baseline"]["median"]["map"])
            assert math.isfinite(row["sft+ds_shared"]["median"]["map"])
        assert sweep_table(report).startswith("k\t")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="grid_search")


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["intra_class_spread", "inter_class_separation"])
def test_config_names_a_non_finite_float(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        ExperimentConfig(**{name: value})


def test_every_float_field_is_checked():
    """kr_lambda's own range check rejects nan and inf first."""
    floats = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
    assert floats == ["intra_class_spread", "inter_class_separation", "kr_lambda"]
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^lambda must be in \\[0, 1\\], got {value}$"):
            ExperimentConfig(kr_lambda=value)


class TestRunner:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_seed_dataset_built_once(self, monkeypatch, mode):
        built = []

        def counting_make_dataset(cfg, seed):
            built.append(seed)
            return make_dataset(cfg, seed)

        monkeypatch.setattr(experiment, "make_dataset", counting_make_dataset)
        cfg = small_config(mode=mode, sigma_values=(0.1, 0.2), k_values=(2, 4),
                           train=toy_train_config(**dict(SMALL_TRAIN, epochs=2)))
        run_experiment(cfg)
        assert built == list(cfg.seeds)


@pytest.fixture
def schedule_draws(monkeypatch):
    """The rngs that drew a PK schedule, and the number of runs of each
    train() call.  train() draws each distinct schedule once, through
    sample_pk, with an rng of its own."""
    rngs, runs = [], []

    def counting_sample_pk(manifest, p, k, rng):
        if not any(seen is rng for seen in rngs):
            rngs.append(rng)
        return sample_pk(manifest, p, k, rng)

    def watching_train(features, manifest, cfg):
        runs.append(len(cfg))
        return train(features, manifest, cfg)

    monkeypatch.setattr(training, "sample_pk", counting_sample_pk)
    monkeypatch.setattr(experiment, "train", watching_train)
    return rngs, runs


class TestScheduleSharing:
    # one draw per (seed, rng state after init, k): the five ablation cells
    # start from two states, a sweep's cells from one per seed (and k); every
    # run of an experiment is trained by one train() call
    @pytest.mark.parametrize("mode,draws,trains", [("ablation", 2, 5), ("sigma_sweep", 2, 6),
                                                   ("k_sweep", 6, 12)])
    def test_draws_per_run(self, schedule_draws, mode, draws, trains):
        rngs, runs = schedule_draws
        seeds = (1,) if mode == "ablation" else (1, 2)
        run_experiment(small_config(mode=mode, seeds=seeds, sigma_values=(0.05, 0.1, 0.2),
                                    k_values=(2, 3, 4),
                                    train=toy_train_config(**dict(SMALL_TRAIN, epochs=2))))
        assert len(rngs) == draws
        assert runs == [trains]

    def test_nothing_outlives_a_run(self, schedule_draws):
        rngs, _ = schedule_draws
        cfg = small_config(seeds=(1,), train=toy_train_config(**dict(SMALL_TRAIN, epochs=2)))
        assert run_experiment(cfg) == run_experiment(cfg)
        assert len(rngs) == 4


class TestLockstep:
    @pytest.mark.parametrize("mode", ["sigma_sweep", "k_sweep"])
    def test_sweep_runs_equal_runs_alone(self, monkeypatch, mode):
        """Every run of a sweep's one train() call is the run trained alone,
        bit for bit: the sigma sweep stacks all its runs, the k sweep one
        stack per k."""
        calls = []

        def recording_train(features, manifest, cfg):
            results = train(features, manifest, cfg)
            calls.append((features, manifest, cfg, results))
            return results

        monkeypatch.setattr(experiment, "train", recording_train)
        run_experiment(small_config(mode=mode, sigma_values=(0.05, 0.2), k_values=(2, 4),
                                    train=toy_train_config(**dict(SMALL_TRAIN, epochs=3))))
        [(features, manifests, configs, results)] = calls
        # two sigmas, or two k values with two cells each, on two seeds
        assert len(configs) == len(results) == {"sigma_sweep": 4, "k_sweep": 8}[mode]
        for run in zip(features, manifests, configs, results, strict=True):
            alone = train(*run[:3])
            got = run[3]
            assert got.log == alone.log
            for mine, theirs in zip(got.model.parameters() + [got.classifier],
                                    alone.model.parameters() + [alone.classifier], strict=True):
                assert np.array_equal(mine, theirs)


# criterion 9's small experiment, as `sftlab experiment` arguments
SMALL_CLI_EXPERIMENT = ["--identities", "6", "--train-per-id", "4", "--query-per-id", "1",
                        "--gallery-per-id", "3", "--seeds", "1,2", "--epochs", "10", "--p", "3",
                        "--k", "4", "--hidden-dim", "16", "--embed-dim", "8", "--top-n", "4",
                        "--kr-k1", "4", "--kr-k2", "2"]


class TestDeterminism:
    def test_reports_identical_across_runs(self):
        cfg = small_config()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_blas_thread_count_leaves_artifacts_unchanged(self, tmp_path):
        """The stacked products of the lockstep trainer give the same bytes
        with BLAS on one thread and on two; only the children's
        environment is set."""
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "sftlab", "experiment", *SMALL_CLI_EXPERIMENT,
                            "--out-dir", str(out)], env=env, check=True, capture_output=True)
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("report.json", "table.tsv")])
        assert digests[0] == digests[1]
