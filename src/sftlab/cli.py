"""Command-line entry points.

Subcommands: gen, train, transform, rank, eval, refine, diagnose,
experiment.  All randomness is controlled by explicit seeds, so every
command is reproducible: same flags, same bytes out.  Usage errors exit
with 2 (argparse), data and arithmetic errors with 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment as exp
from .data import (
    DatasetManifest,
    FeatureMatrix,
    ManifestError,
    FeatureFileError,
    Partition,
    SyntheticSpec,
    check_paired,
    generate_synthetic,
    hold_out_eval_split,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
    split_features,
)
from .graphcut import class_ncut_escape
from .ranking import QueryRanking, RankingList, evaluate, rank, refine_ranking
from .training import DEEP_SUPERVISION_MODES, OBJECTIVES, TrainConfig, load_train_config, train
from .transform import AffinityMatrix, _check_sigma, _clipped_products, _unit_rows, sft_transform

TOPOLOGY_ALIASES = {
    "blobs": "gaussian_blobs",
    "gaussian_blobs": "gaussian_blobs",
    "spirals": "intertwined_spirals",
    "intertwined_spirals": "intertwined_spirals",
}


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def save_ranking(ranking: RankingList, manifest: DatasetManifest, path) -> None:
    query_recs = manifest.subset("query")
    gallery_recs = manifest.subset("gallery")
    payload = {
        "queries": [
            {
                "query_index": qr.query_index,
                "sample_id": query_recs[qr.query_index].sample_id,
                "items": [
                    {
                        "gallery_index": int(g),
                        "sample_id": gallery_recs[int(g)].sample_id,
                        "score": float(s),
                    }
                    for g, s in zip(qr.gallery_indices, qr.scores)
                ],
            }
            for qr in ranking.queries
        ]
    }
    _write_json(payload, path)


def load_ranking(path) -> RankingList:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    queries = []
    for entry in payload["queries"]:
        items = entry["items"]
        queries.append(
            QueryRanking(
                int(entry["query_index"]),
                np.array([it["gallery_index"] for it in items], dtype=np.int64),
                np.array([it["score"] for it in items]),
            )
        )
    return RankingList(tuple(queries))


def _report_payload(report) -> dict:
    return {
        "mAP": report.map_score,
        "cmc": {str(r): v for r, v in report.cmc.items()},
        "per_query_ap": list(report.per_query_ap),
        "num_queries": report.num_queries,
        "config": report.config,
    }


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


# TrainConfig fields that `train` and `experiment` both override by flag
TRAIN_FLAGS = (("sigma", float), ("epochs", int), ("p", int), ("k", int),
               ("hidden_dim", int), ("embed_dim", int), ("base_lr", float))


def _add_train_flags(sub: argparse.ArgumentParser, config_help: str) -> None:
    sub.add_argument("--config", help=config_help)
    for name, kind in TRAIN_FLAGS:
        sub.add_argument("--" + name.replace("_", "-"), type=kind)


def _train_config(args: argparse.Namespace, base: TrainConfig, **extra) -> TrainConfig:
    """base, overridden by the --config file, then by each train flag and
    extra value that is not None."""
    if args.config:
        base = load_train_config(args.config, base)
    overrides = {name: getattr(args, name) for name, _ in TRAIN_FLAGS}
    overrides.update(extra)
    return replace(base, **{k: v for k, v in overrides.items() if v is not None})


def cmd_gen(args) -> int:
    spec = SyntheticSpec(
        num_identities=args.identities,
        samples_per_identity=args.per_id,
        dim=args.dim,
        intra_class_spread=args.spread,
        inter_class_separation=args.separation,
        topology=TOPOLOGY_ALIASES[args.spec],
        num_cameras=args.cameras,
        seed=args.seed,
    )
    features, manifest = generate_synthetic(spec)
    if args.query_per_id or args.gallery_per_id:
        manifest = hold_out_eval_split(manifest, args.query_per_id, args.gallery_per_id)
    save_features(features, args.out)
    save_manifest(manifest, args.manifest)
    print(f"wrote {features.n}x{features.d} features to {args.out}, manifest to {args.manifest}")
    return 0


def cmd_train(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    cfg = _train_config(
        args, TrainConfig(), deep_supervision=args.deep_supervision, objective=args.objective,
        use_sft=False if args.no_sft else None, seed=args.seed,
    )
    result = train(features, manifest, cfg)
    if args.log:
        Path(args.log).write_text("\n".join(result.log) + "\n", encoding="utf-8")
    if args.out_features:
        save_features(FeatureMatrix(result.model.embed(features.data)), args.out_features)
    if args.out_model:
        payload = {
            "weights": [w.tolist() for w in result.model.weights],
            "biases": [b.tolist() for b in result.model.biases],
            "normalize_output": result.model.normalize_output,
            "classifier_weight": result.classifier.weight.tolist(),
            "margin": result.classifier.margin,
            "scale": result.classifier.scale,
        }
        _write_json(payload, args.out_model)
    if result.log:
        print(result.log[-1])
    return 0


def cmd_transform(args) -> int:
    features = load_features(args.features)
    out = sft_transform(features, args.sigma)
    save_features(out, args.out)
    print(f"wrote transformed {out.n}x{out.d} features to {args.out}")
    return 0


def cmd_rank(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    check_paired(features, manifest)
    ranking = rank(
        split_features(features, manifest, "query"),
        split_features(features, manifest, "gallery"),
        manifest,
    )
    save_ranking(ranking, manifest, args.out)
    print(f"ranked {len(ranking)} queries to {args.out}")
    return 0


def cmd_eval(args) -> int:
    ranking = load_ranking(args.ranking)
    manifest = load_manifest(args.manifest)
    report = evaluate(ranking, manifest, config={"ranking": str(args.ranking)})
    payload = _report_payload(report)
    if args.out:
        _write_json(payload, args.out)
    print(f"mAP={report.map_score:.6f} cmc1={report.cmc[1]:.6f} "
          f"cmc5={report.cmc[5]:.6f} cmc10={report.cmc[10]:.6f}")
    return 0


def cmd_refine(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    check_paired(features, manifest)
    ranking = load_ranking(args.ranking)
    queries = split_features(features, manifest, "query")
    gallery = split_features(features, manifest, "gallery")
    refined = refine_ranking(queries, ranking, gallery, args.top_n, args.sigma)
    save_ranking(refined, manifest, args.out)
    print(f"refined top-{args.top_n} of {len(refined)} queries to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    check_paired(features, manifest)
    identities, classes = np.unique([rec.identity for rec in manifest.records], return_inverse=True)
    if identities.size < 2:
        raise ManifestError("diagnostics need at least 2 identities")
    part = Partition(classes)
    sigma = _check_sigma(args.sigma)
    # Every printed quantity is a ratio of edge sums, so the common factor
    # exp(-1/sigma) cancels; dropping it keeps exp(cos/sigma) from
    # overflowing at small sigma.
    unit = _unit_rows(features.data)[1]
    weights = _clipped_products(unit, unit)
    weights -= 1.0
    weights /= sigma
    np.exp(weights, out=weights)
    ncuts, escapes, escapes_rest = class_ncut_escape(AffinityMatrix(weights, sigma), part)
    for ident, value, escape in zip(identities, ncuts, escapes):
        print(f"identity {ident}: escape_probability={escape:.6f} ncut={value:.6f}")
    residual = float(np.abs(ncuts - (escapes + escapes_rest)).max())
    print(f"max_ncut_identity_residual={residual:.6e}")
    return 0


def cmd_experiment(args) -> int:
    cfg = exp.ExperimentConfig(
        mode=args.mode,
        topology=TOPOLOGY_ALIASES[args.spec],
        identities=args.identities,
        train_per_id=args.train_per_id,
        query_per_id=args.query_per_id,
        gallery_per_id=args.gallery_per_id,
        dim=args.dim,
        cameras=args.cameras,
        intra_class_spread=args.spread,
        inter_class_separation=args.separation,
        seeds=args.seeds,
        sigma_values=args.sigma_values,
        k_values=args.k_values,
        top_n=args.top_n,
        kr_k1=args.kr_k1,
        kr_k2=args.kr_k2,
        kr_lambda=args.kr_lambda,
        train=_train_config(args, exp.toy_train_config()),
    )
    report = exp.run_experiment(cfg)
    exp.write_report(report, args.out_dir)
    print(f"wrote report.json and table.tsv to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftlab",
        description="Spectral feature transformation toolkit: synthetic data, "
                    "training, ranking, evaluation and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic features and manifest")
    p.add_argument("--spec", choices=sorted(TOPOLOGY_ALIASES), default="spirals")
    p.add_argument("--identities", type=int, default=16)
    p.add_argument("--per-id", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--cameras", type=int, default=2)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--query-per-id", type=int, default=0)
    p.add_argument("--gallery-per-id", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the embedding model")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    _add_train_flags(p, "key = value file with TrainConfig fields")
    p.add_argument("--mode", dest="deep_supervision", choices=DEEP_SUPERVISION_MODES)
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--no-sft", action="store_true", help="replace the transform by identity")
    p.add_argument("--seed", type=int)
    p.add_argument("--log", help="write per-epoch training log (TSV)")
    p.add_argument("--out-features", help="write trained embeddings of all rows")
    p.add_argument("--out-model", help="write model parameters as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transform", help="apply the spectral transform to a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("rank", help="rank gallery against queries by cosine")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="score a ranking (mAP, CMC)")
    p.add_argument("--ranking", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("refine", help="re-rank the top-n list in transformed space")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--top-n", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("diagnose", help="per-identity escape probabilities and residuals")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sigma", type=float, default=0.1)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("experiment", help="run the ablation grid or a sweep")
    p.add_argument("--mode", choices=exp.MODES, default="ablation")
    p.add_argument("--spec", choices=sorted(TOPOLOGY_ALIASES), default="spirals")
    p.add_argument("--identities", type=int, default=16)
    p.add_argument("--train-per-id", type=int, default=8)
    p.add_argument("--query-per-id", type=int, default=2)
    p.add_argument("--gallery-per-id", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--cameras", type=int, default=2)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--seeds", type=_int_tuple, default=(1, 2, 3, 4, 5))
    p.add_argument("--sigma-values", type=_float_tuple, default=(0.02, 0.05, 0.1, 0.2, 0.5))
    p.add_argument("--k-values", type=_int_tuple, default=(2, 4, 8))
    p.add_argument("--top-n", type=int, default=50)
    p.add_argument("--kr-k1", type=int, default=20)
    p.add_argument("--kr-k2", type=int, default=6)
    p.add_argument("--kr-lambda", type=float, default=0.3)
    _add_train_flags(p, "key = value file overriding the toy trainer profile")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FeatureFileError, ManifestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. a float overflow at a tiny sigma
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
