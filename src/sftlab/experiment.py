"""Reproducible toy experiments: ablation grid and sensitivity sweeps.

Every run builds one synthetic dataset per seed, once; one lockstep
train() call trains each requested variant on every seed's train split,
and each is scored on the held-out query/gallery split.  Reported
numbers are medians across seeds.
Reports contain no timestamps or environment detail, so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import statistics
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    DatasetManifest,
    FeatureMatrix,
    SyntheticSpec,
    _check_finite,
    generate_synthetic,
    hold_out_eval_split,
    split_features,
    write_json,
)
from .graphcut import affinity_class_means
from .ranking import RankingList, evaluate, k_reciprocal_rerank, rank, refine_ranking
from .ranking import _check_kr, _check_top_n
from .training import METHODS, TrainConfig, train
from .transform import affinity

_SWEEP_CELL = "sft+ds_shared"  # the method both sweeps vary

MODES = ("ablation", "sigma_sweep", "k_sweep")


def toy_train_config(**overrides) -> TrainConfig:
    """Trainer defaults sized for the synthetic datasets used here.

    The toy profile departs from the full-scale defaults (smaller
    batches, longer schedule, slightly larger temperature) because 128
    training samples need many more passes than 100k images and the
    deep-supervision dynamics only separate from plain training once the
    transform mixes appreciably at the start of training.
    """
    base = dict(
        p=8,
        k=8,
        sigma=0.17,
        epochs=400,
        warmup_epochs=60,
        base_lr=0.05,
        decay_epochs=(240, 320),
        hidden_dim=64,
        embed_dim=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "ablation"
    topology: str = "intertwined_spirals"
    identities: int = 16
    train_per_id: int = 8
    query_per_id: int = 2
    gallery_per_id: int = 4
    dim: int = 32
    cameras: int = 2
    intra_class_spread: float = 0.05
    inter_class_separation: float = 1.0
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    sigma_values: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.5)
    k_values: tuple[int, ...] = (2, 4, 8)
    top_n: int = 50
    kr_k1: int = 20
    kr_k2: int = 6
    kr_lambda: float = 0.3
    train: TrainConfig = field(default_factory=toy_train_config)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.query_per_id < 1:  # every cell ranks the held-out queries
            raise ValueError(f"query_per_id must be >= 1, got {self.query_per_id}")
        swept = {"sigma_sweep": "sigma_values", "k_sweep": "k_values"}.get(self.mode)
        if swept and not getattr(self, swept):
            raise ValueError(f"need at least one of {swept} in {self.mode} mode")
        # each value meets the check of the code that uses it here, before any training
        for sigma in self.sigma_values:
            replace(self.train, sigma=sigma)
        for k in self.k_values:
            replace(self.train, k=k)
        _check_top_n(self.top_n, [])
        _check_kr(self.kr_k1, self.kr_k2, self.kr_lambda)
        _check_finite(self)


def make_dataset(cfg: ExperimentConfig, seed: int) -> tuple[FeatureMatrix, DatasetManifest]:
    """Synthetic dataset for one seed, with eval splits already assigned."""
    spec = SyntheticSpec(
        num_identities=cfg.identities,
        samples_per_identity=cfg.train_per_id + cfg.query_per_id + cfg.gallery_per_id,
        dim=cfg.dim,
        intra_class_spread=cfg.intra_class_spread,
        inter_class_separation=cfg.inter_class_separation,
        topology=cfg.topology,
        num_cameras=cfg.cameras,
        seed=seed,
    )
    features, manifest = generate_synthetic(spec)
    return features, hold_out_eval_split(manifest, cfg.query_per_id, cfg.gallery_per_id)


def _metrics(ranking: RankingList, manifest: DatasetManifest) -> dict:
    report = evaluate(ranking, manifest)
    return {
        "map": report.map_score,
        "cmc1": report.cmc[1],
        "cmc5": report.cmc[5],
        "cmc10": report.cmc[10],
    }


def _test_inter_affinity(emb: FeatureMatrix, manifest: DatasetManifest, sigma: float) -> tuple[float, float]:
    """(intra, inter) mean affinity of the held-out rows."""
    idx = manifest.indices("query") + manifest.indices("gallery")
    # class ids: each identity's rank among the held-out identities
    labels = np.unique([manifest.records[i].identity for i in idx], return_inverse=True)[1]
    return affinity_class_means(affinity(FeatureMatrix(emb.data[idx]), sigma), labels)


def _summary(per_seed: list[dict]) -> dict:
    """Per-seed rows and the median of each metric across them."""
    return {
        "per_seed": per_seed,
        "median": {
            key: float(statistics.median([row[key] for row in per_seed]))
            for key in ("map", "cmc1", "cmc5", "cmc10")
        },
    }


# one cell trained on one seed's dataset under run config cfg, then embedded,
# split into queries and gallery, ranked and scored
SeedRun = namedtuple("SeedRun", "cfg manifest emb queries gallery ranking metrics")


def _run_cells(datasets: list, cells: list[dict], cfg: ExperimentConfig) -> list[list[SeedRun]]:
    """Train every cell (``cfg.train`` with each dict of overrides) on every
    seed's dataset in one lockstep train() call, then embed all rows, split
    off query and gallery and rank; one list of runs per cell, in seed order.

    Each run is seeded by its own config alone and train() gives each the
    bits it has alone, so no result depends on which runs share the call.
    """
    configs = [replace(cfg.train, seed=seed, **overrides) for overrides in cells for seed in cfg.seeds]
    pairs = datasets * len(cells)  # cell-major, then seed, like configs
    results = train([features for features, _ in pairs], [manifest for _, manifest in pairs], configs)
    runs = []
    for run_cfg, result, (features, manifest) in zip(configs, results, pairs):
        emb = FeatureMatrix(result.model.embed(features.data))
        q = split_features(emb, manifest, "query")
        g = split_features(emb, manifest, "gallery")
        ranking = rank(q, g, manifest)
        runs.append(SeedRun(run_cfg, manifest, emb, q, g, ranking, _metrics(ranking, manifest)))
    seeds = len(cfg.seeds)
    return [runs[i:i + seeds] for i in range(0, len(runs), seeds)]


def run_ablation(cfg: ExperimentConfig, datasets: list) -> dict:
    cells: dict[str, dict] = {}
    inter_affinity: dict[str, float] = {}
    for name, runs in zip(METHODS, _run_cells(datasets, [dict(method=name) for name in METHODS], cfg)):
        rows = [{"seed": run.cfg.seed, **run.metrics} for run in runs]
        if name in ("baseline", "sft+ds_shared"):
            for row, run in zip(rows, runs):
                row["intra_affinity"], row["inter_affinity"] = _test_inter_affinity(
                    run.emb, run.manifest, run.cfg.sigma)
            inter_affinity[name] = float(statistics.median([row["inter_affinity"] for row in rows]))
        cells[name] = _summary(rows)
        if name == "sft+ds_shared":
            refined = [
                refine_ranking(run.queries, run.ranking, run.gallery, cfg.top_n, run.cfg.sigma)
                for run in runs
            ]
            reranked = [k_reciprocal_rerank(run.queries, run.gallery, run.manifest,
                                            cfg.kr_k1, cfg.kr_k2, cfg.kr_lambda) for run in runs]
            for cell, rankings in (("sft+ds_shared+post", refined), ("sft+ds_shared+kr", reranked)):
                cells[cell] = _summary([
                    {"seed": run.cfg.seed, **_metrics(ranking, run.manifest)}
                    for run, ranking in zip(runs, rankings)
                ])
    return {"mode": "ablation", "cells": cells, "inter_affinity_median": inter_affinity}


def run_sigma_sweep(cfg: ExperimentConfig, datasets: list) -> dict:
    cells = _run_cells(datasets, [dict(method=_SWEEP_CELL, sigma=sigma) for sigma in cfg.sigma_values], cfg)
    rows = [{"sigma": sigma, **_summary([run.metrics for run in runs])}
            for sigma, runs in zip(cfg.sigma_values, cells)]
    return {"mode": "sigma_sweep", "rows": rows}


def run_k_sweep(cfg: ExperimentConfig, datasets: list) -> dict:
    names = ("baseline", _SWEEP_CELL)
    cells = iter(_run_cells(datasets, [dict(method=name, k=k) for k in cfg.k_values for name in names], cfg))
    rows = []
    for k in cfg.k_values:
        row = {"k": k}
        for name in names:
            row[name] = _summary([run.metrics for run in next(cells)])
        rows.append(row)
    return {"mode": "k_sweep", "rows": rows}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Dispatch on mode; returns the full report as a plain dict."""
    run = {"ablation": run_ablation, "sigma_sweep": run_sigma_sweep, "k_sweep": run_k_sweep}[cfg.mode]
    report = run(cfg, [make_dataset(cfg, seed) for seed in cfg.seeds])
    report["config"] = asdict(cfg)
    return report


_FLAG_COLUMNS = ("sft", "ds_u", "ds_s", "post", "kr")
# table rows in order, with the flags of each method
_CELL_FLAGS = {
    "baseline": (),
    "sft": ("sft",),
    "sft+ds_unshared": ("sft", "ds_u"),
    "sft+ds_shared": ("sft", "ds_s"),
    "sft+ds_shared+post": ("sft", "ds_s", "post"),
    "sft+ds_shared+kr": ("sft", "ds_s", "kr"),
    "ncut": (),
}
def ablation_table(report: dict) -> str:
    """TSV with method flags and median mAP / Rank-1 / Rank-5 per cell."""
    lines = ["\t".join(("method",) + _FLAG_COLUMNS + ("mAP", "Rank-1", "Rank-5"))]
    for name, cell_flags in _CELL_FLAGS.items():
        med = report["cells"][name]["median"]
        flags = ["x" if col in cell_flags else "" for col in _FLAG_COLUMNS]
        lines.append("\t".join(
            [name, *flags, f"{med['map']:.4f}", f"{med['cmc1']:.4f}", f"{med['cmc5']:.4f}"]
        ))
    return "\n".join(lines) + "\n"


def sweep_table(report: dict) -> str:
    if report["mode"] == "sigma_sweep":
        lines = ["sigma\tmAP\tRank-1\tRank-5"]
        for row in report["rows"]:
            med = row["median"]
            lines.append(f"{row['sigma']:g}\t{med['map']:.4f}\t{med['cmc1']:.4f}\t{med['cmc5']:.4f}")
        return "\n".join(lines) + "\n"
    lines = ["k\tbaseline_mAP\tbaseline_Rank-1\tsft_mAP\tsft_Rank-1"]
    for row in report["rows"]:
        base = row["baseline"]["median"]
        sft = row["sft+ds_shared"]["median"]
        lines.append(
            f"{row['k']}\t{base['map']:.4f}\t{base['cmc1']:.4f}"
            f"\t{sft['map']:.4f}\t{sft['cmc1']:.4f}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir) -> None:
    """report.json plus the matching TSV table, byte-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report, out / "report.json")
    table = ablation_table(report) if report["mode"] == "ablation" else sweep_table(report)
    (out / "table.tsv").write_text(table, encoding="utf-8")
