"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``__init__`` (that is
set-up time), then ``run()`` makes one timed pass through sftlab's
public functions and returns the raw outputs, and ``check()`` validates
them outside the timed region.  A unit whose call raised or whose output
failed a check is counted as failed; checks never raise.

ablation   experiment.run_experiment, ablation mode, toy profile, one seed.
           Training is ~98% of the pass, retrieval under 1%: trainer
           changes show here and re-ranker changes do not.
retrieval  rank -> evaluate -> refine_ranking -> evaluate ->
           k_reciprocal_rerank -> evaluate on gaussian blobs, 240 queries x
           960 gallery (1,200 union rows).  k-reciprocal is ~89% of the
           pass and no trainer code runs.
graph      in-process ``sftlab transform`` then ``sftlab diagnose`` on one
           2,400-row feature file: the transform and graph-cut code on a
           single dense n x n graph, forward only and memory-bound, where
           the other workloads run it on many small graphs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sftlab import cli, data, experiment, ranking


@dataclass
class Outcome:
    """Result of checking one pass."""

    ops: int = 0
    failed: int = 0
    digest: str = ""
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        if len(self.problems) < 10:
            self.problems.append(problem)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True))


def _report_problem(report) -> str | None:
    """Why an evaluation report is invalid, or None if mAP, AP and CMC are
    finite and in [0, 1] and CMC is non-decreasing in rank."""
    values = [report.map_score, *report.per_query_ap]
    cmc = [report.cmc[r] for r in sorted(report.cmc)]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values + cmc):
        return "mAP/AP/CMC outside [0, 1]"
    if any(b < a for a, b in zip(cmc, cmc[1:])):
        return "CMC not monotone"
    return None


def _cell_problem(rows, seeds: int) -> str | None:
    """Why an ablation cell's per-seed rows are invalid, or None."""
    try:
        values = [[row[k] for k in ("map", "cmc1", "cmc5", "cmc10")] for row in rows]
    except (KeyError, TypeError):
        return "per-seed metrics missing"
    if len(values) != seeds:
        return f"{len(values)} per-seed rows for {seeds} seeds"
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for row in values for v in row):
        return "mAP/CMC outside [0, 1]"
    if any(not cmc1 <= cmc5 <= cmc10 for _, cmc1, cmc5, cmc10 in values):
        return "CMC not monotone"
    return None


class Ablation:
    """Default toy ablation grid for a single dataset seed."""

    name = "ablation"
    CELLS = 7  # five trained cells, plus refinement and k-reciprocal of one of them

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        cfg = experiment.ExperimentConfig(mode="ablation", seeds=(seed,))
        if tiny:
            cfg = replace(cfg, identities=8, top_n=10,
                          train=experiment.toy_train_config(epochs=3))
        self.cfg = cfg
        self.out_dir = work / "ablation"

    def run(self):
        try:
            report = experiment.run_experiment(self.cfg)
            experiment.write_report(report, self.out_dir)
        except Exception as exc:  # counted as failed units by check()
            return exc
        return report

    def check(self, report) -> Outcome:
        out = Outcome()
        if isinstance(report, Exception):
            out.ops = self.CELLS
            out.fail(out.ops, f"run_experiment raised {report!r}")
            return out
        out.digest = hashlib.sha256((self.out_dir / "report.json").read_bytes()).hexdigest()
        cells = report.get("cells", {})
        for name, cell in cells.items():
            out.ops += 1
            problem = _cell_problem(cell.get("per_seed"), len(self.cfg.seeds))
            if problem:
                out.fail(1, f"cell {name}: {problem}")
        if len(cells) < self.CELLS:
            out.ops += self.CELLS - len(cells)
            out.fail(self.CELLS - len(cells), f"report has {len(cells)} of {self.CELLS} cells")
        for key, cell in (("map", "sft+ds_shared"), ("map_post", "sft+ds_shared+post"),
                          ("map_kr", "sft+ds_shared+kr")):
            if cell in cells:
                out.quality[key] = cells[cell]["median"]["map"]
        return out


class Retrieval:
    """Plain, refined and k-reciprocal rankings of one blob dataset."""

    name = "retrieval"
    TOP_N, SIGMA = 50, 0.1
    K1, K2, LAMBDA = 20, 6, 0.3

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        spec = data.SyntheticSpec(
            num_identities=12 if tiny else 120, samples_per_identity=10, dim=32,
            intra_class_spread=0.15, topology="gaussian_blobs", seed=seed,
        )
        features, manifest = data.generate_synthetic(spec)
        self.manifest = data.hold_out_eval_split(manifest, 2, 8)
        self.queries = data.split_features(features, self.manifest, "query")
        self.gallery = data.split_features(features, self.manifest, "gallery")
        q_recs, g_recs = self.manifest.subset("query"), self.manifest.subset("gallery")
        self.q_ident = np.array([r.identity for r in q_recs])
        self.g_ident = np.array([r.identity for r in g_recs])
        g_cam = np.array([r.camera for r in g_recs])
        # the ranking of each query must hold exactly its non-junk gallery items
        self.valid = [
            np.flatnonzero(~((self.g_ident == r.identity) & (g_cam == r.camera))) for r in q_recs
        ]
        q_unit = _unit_rows(self.queries.data)
        self.cosine = q_unit @ _unit_rows(self.gallery.data).T

    def run(self):
        m, q, g = self.manifest, self.queries, self.gallery
        stages = {}
        try:
            stages["rank"] = ranking.rank(q, g, m)
            stages["rank_eval"] = ranking.evaluate(stages["rank"], m)
            stages["refine"] = ranking.refine_ranking(q, stages["rank"], g, self.TOP_N, self.SIGMA)
            stages["refine_eval"] = ranking.evaluate(stages["refine"], m)
            stages["kr"] = ranking.k_reciprocal_rerank(q, g, m, self.K1, self.K2, self.LAMBDA)
            stages["kr_eval"] = ranking.evaluate(stages["kr"], m)
        except Exception as exc:  # counted as failed units by check()
            stages["error"] = exc
        return stages

    def _map(self, stage) -> float:
        """mAP recomputed from the ranked identities, independently of evaluate()."""
        aps = []
        for pos, qr in enumerate(stage.queries):
            hit_ranks = np.flatnonzero(self.g_ident[qr.gallery_indices] == self.q_ident[pos]) + 1
            aps.append(np.mean(np.arange(1, hit_ranks.size + 1) / hit_ranks))
        return float(np.mean(aps))

    def _check_stage(self, stage, out: Outcome, what: str, sorted_scores: bool,
                     before=None, cosine=None) -> None:
        n_q = len(self.valid)
        out.ops += n_q
        if stage is None:
            out.fail(n_q, f"{what}: not produced")
            return
        if len(stage.queries) != n_q:
            out.fail(n_q, f"{what}: {len(stage.queries)} query lists for {n_q} queries")
            return
        for pos, qr in enumerate(stage.queries):
            idx, scores = qr.gallery_indices, qr.scores
            ok = (
                qr.query_index == pos
                and np.array_equal(np.sort(idx), self.valid[pos])
                and bool(np.all(np.isfinite(scores)))
            )
            if ok and sorted_scores:
                ok = bool(np.all(np.diff(scores) <= 0.0))
            if ok and cosine is not None:
                ok = bool(np.allclose(scores, cosine[pos, idx], rtol=0.0, atol=1e-12))
            if ok and before is not None and len(before.queries) == n_q:
                old = before.queries[pos]
                ok = (np.array_equal(idx[self.TOP_N:], old.gallery_indices[self.TOP_N:])
                      and np.array_equal(scores[self.TOP_N:], old.scores[self.TOP_N:]))
            if not ok:
                out.fail(1, f"{what}: query {pos} list, order or tail wrong")

    def check(self, stages) -> Outcome:
        out = Outcome()
        if "error" in stages:
            out.problems.append(f"stage raised {stages['error']!r}")
        self._check_stage(stages.get("rank"), out, "rank", sorted_scores=True,
                          cosine=self.cosine)
        self._check_stage(stages.get("refine"), out, "refine", sorted_scores=False,
                          before=stages.get("rank"))
        self._check_stage(stages.get("kr"), out, "k_reciprocal", sorted_scores=True)
        for key, stage in (("map", "rank"), ("map_post", "refine"), ("map_kr", "kr")):
            out.ops += 1
            report = stages.get(f"{stage}_eval")
            problem = "not produced" if report is None else _report_problem(report)
            if not problem and abs(report.map_score - self._map(stages[stage])) > 1e-12:
                problem = "mAP differs from the recomputed one"
            if problem:
                out.fail(1, f"{stage} evaluation: {problem}")
            else:
                out.quality[key] = report.map_score
        digest = hashlib.sha256()
        for stage in ("rank", "refine", "kr"):
            for qr in getattr(stages.get(stage), "queries", ()):
                digest.update(qr.gallery_indices.astype("<i8").tobytes())
        out.digest = digest.hexdigest()
        return out


_ESCAPE_LINE = re.compile(r"identity \d+: escape_probability=(\S+) ")
_RESIDUAL_LINE = re.compile(r"max_ncut_identity_residual=(\S+)$")
RESIDUAL_LIMIT = 1e-9
HEADER_BYTES = 22  # .sfte header: magic, u16 version, u64 rows, u64 columns


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class Graph:
    """``sftlab transform`` and ``sftlab diagnose`` on one dense graph."""

    name = "graph"
    SIGMA = "0.1"

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.identities = 4 if tiny else 24
        spec = data.SyntheticSpec(
            num_identities=self.identities, samples_per_identity=10 if tiny else 100,
            dim=32, intra_class_spread=0.3, topology="gaussian_blobs", seed=seed,
        )
        features, manifest = data.generate_synthetic(spec)
        self.x = features.data
        self.labels = np.array([r.identity for r in manifest.records])
        self._expected = None
        work.mkdir(parents=True, exist_ok=True)
        self.features = work / "graph.sfte"
        self.manifest = work / "graph.tsv"
        self.transformed = work / "graph_transformed.sfte"
        data.save_features(features, self.features)
        data.save_manifest(manifest, self.manifest)

    def expected(self) -> tuple[np.ndarray, np.ndarray]:
        """(escape probability per identity, transformed features), computed
        independently of sftlab in row chunks so that it never raises the
        process's peak memory above what the program itself needs."""
        if self._expected is None:
            sigma = float(self.SIGMA)
            unit = _unit_rows(self.x)
            same = self.labels[:, None] == np.arange(self.identities)[None, :]
            volume = np.zeros(self.identities)
            inside = np.zeros(self.identities)
            transformed = np.empty_like(self.x)
            for lo in range(0, len(unit), 256):
                rows = slice(lo, lo + 256)
                weights = np.exp(np.clip(unit[rows] @ unit.T, -1.0, 1.0) / sigma)
                degree = weights.sum(axis=1)
                mine = same[rows]
                volume += degree @ mine
                inside += np.einsum("ij,jc,ic->c", weights, same, mine)
                transformed[rows] = (weights / degree[:, None]) @ self.x
            self._expected = (1.0 - inside / volume, transformed)
        return self._expected

    def _call(self, argv: list[str]):
        text = io.StringIO()
        try:
            with contextlib.redirect_stdout(text):
                code = cli.main(argv)
        except Exception as exc:  # counted as a failed unit by check()
            code = exc
        return code, text.getvalue()

    def run(self):
        feats, sigma = str(self.features), self.SIGMA
        return (
            self._call(["transform", "--features", feats, "--sigma", sigma,
                        "--out", str(self.transformed)]),
            self._call(["diagnose", "--features", feats, "--manifest", str(self.manifest),
                        "--sigma", sigma]),
        )

    def check(self, calls) -> Outcome:
        out = Outcome(ops=2 + self.identities)
        (t_code, _), (d_code, text) = calls
        escapes = []
        residual = None
        for line in text.splitlines():
            if m := _ESCAPE_LINE.match(line):
                escapes.append(_number(m.group(1)))
            elif m := _RESIDUAL_LINE.match(line):
                residual = _number(m.group(1))
        if d_code != 0 or residual is None or not residual <= RESIDUAL_LIMIT:
            out.fail(1, f"diagnose exited with {d_code!r}, residual {residual}")
        want_escapes, want_transformed = self.expected()
        # printed with 6 decimals
        bad = sum(not (0.0 <= got <= 1.0 and abs(got - want) <= 1e-6)
                  for got, want in zip(escapes, want_escapes))
        bad += max(0, self.identities - len(escapes))
        if bad:
            out.fail(bad, f"{bad} escape probabilities missing, outside [0, 1] or wrong")
        digest = hashlib.sha256(text.encode())
        if t_code != 0:
            out.fail(1, f"transform exited with {t_code!r}")
        elif not self.transformed.exists():
            out.fail(1, "transform wrote no file")
        else:
            payload = self.transformed.read_bytes()
            self.transformed.unlink()  # so a later failed pass cannot hash a stale file
            digest.update(payload)
            got = np.frombuffer(payload, dtype="<f4", offset=HEADER_BYTES)
            if got.size != want_transformed.size or not np.allclose(
                got.reshape(want_transformed.shape), want_transformed, rtol=1e-5, atol=1e-6
            ):
                out.fail(1, "transformed features differ from the oracle")
        out.digest = digest.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (Ablation, Retrieval, Graph)}
