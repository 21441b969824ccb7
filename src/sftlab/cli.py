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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import experiment as exp
from .data import (
    DatasetManifest,
    FeatureMatrix,
    ManifestError,
    SyntheticSpec,
    check_paired,
    generate_synthetic,
    hold_out_eval_split,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
    split_features,
    write_json,
)
from .graphcut import class_ncut_escape
from .ranking import RankingList, evaluate, rank, refine_ranking
from .training import MARGIN, METHODS, PARSERS, SCALE, TrainConfig, load_train_config, train
from .transform import affinity_tiles, sft_transform

TOPOLOGY_ALIASES = {
    "blobs": "gaussian_blobs",
    "gaussian_blobs": "gaussian_blobs",
    "spirals": "intertwined_spirals",
    "intertwined_spirals": "intertwined_spirals",
}


def save_ranking(ranking: RankingList, manifest: DatasetManifest, path) -> None:
    """Write ranking as ``write_json`` writes its payload, byte for byte,
    one query at a time, so no object per item is ever built."""
    query_ids = [json.dumps(r.sample_id) for r in manifest.subset("query")]
    gallery_ids = [json.dumps(r.sample_id) for r in manifest.subset("gallery")]
    with open(path, "w", encoding="utf-8") as out:
        out.write('{\n  "queries": [')
        bounds = ranking.offsets.tolist()
        for row, (query, lo, hi) in enumerate(zip(ranking.query_index.tolist(), bounds, bounds[1:])):
            items = ",".join(
                '\n        {\n          "gallery_index": %d,\n          "sample_id": %s,'
                '\n          "score": %r\n        }' % (g, gallery_ids[g], s)
                for g, s in zip(ranking.gallery[lo:hi].tolist(), ranking.scores[lo:hi].tolist())
            )
            out.write('%s\n    {\n      "items": [%s%s],\n      "query_index": %d,'
                      '\n      "sample_id": %s\n    }'
                      % ("," if row else "", items, "\n      " if items else "",
                         query, query_ids[query]))
        out.write("\n  ]\n}\n" if len(ranking) else "]\n}\n")


def _json_int(value) -> int:
    """A JSON integer index; a fraction, float or bool is rejected, not truncated."""
    if type(value) is not int:
        raise TypeError(f"index {value!r} is not an integer")
    return value


def load_ranking(path) -> RankingList:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        query_index, offsets, gallery, scores = [], [0], [], []
        for entry in payload["queries"]:
            query_index.append(_json_int(entry["query_index"]))
            items = entry["items"]
            gallery.extend([_json_int(it["gallery_index"]) for it in items])
            scores.extend([it["score"] for it in items])
            offsets.append(len(gallery))
        # scores become an array before the constructor's float64 one, so
        # that a null score is a TypeError, not NaN
        return RankingList(query_index, offsets, gallery, np.array(scores))
    # text that is not UTF-8, JSON that is invalid or nested too deeply, a
    # missing key, a wrong shape, or a value that is no index or score (an
    # OSError passes through with its own message)
    except (RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path} is not a ranking file ({type(exc).__name__}: {exc})") from exc


# TrainConfig fields that `train` and `experiment` both override by flag
TRAIN_FLAGS = ("sigma", "epochs", "p", "k", "hidden_dim", "embed_dim", "base_lr")
# ExperimentConfig fields that `experiment` sets by flag: all but the trainer's
EXPERIMENT_FLAGS = tuple(f.name for f in fields(exp.ExperimentConfig) if f.name != "train")
# SyntheticSpec fields that `gen` sets by flag, in --help order (the hold-out
# counts come before --seed), and the spec that gen's flags override
GEN_FLAGS = ("topology", "num_identities", "samples_per_identity", "dim", "num_cameras",
             "intra_class_spread", "inter_class_separation", "seed")
GEN_SPEC = SyntheticSpec(16, 8, 32, topology="intertwined_spirals")
# fields whose flag has another name, and fields whose flag takes fixed choices
FLAG_NAMES = {"topology": "spec", "intra_class_spread": "spread", "inter_class_separation": "separation",
              "num_identities": "identities", "samples_per_identity": "per_id", "num_cameras": "cameras"}
FLAG_CHOICES = {"mode": exp.MODES, "topology": sorted(TOPOLOGY_ALIASES)}


def _add_field_flags(sub: argparse.ArgumentParser, cls, names) -> None:
    """One flag per named field of dataclass cls, parsed by the field's
    type and None when not given, so the defaults live in cls alone."""
    kinds = {f.name: f.type for f in fields(cls)}
    for name in names:
        flag = FLAG_NAMES.get(name, name)
        choices = FLAG_CHOICES.get(name)
        # help shows the flag's name (SPREAD), not the field's (INTRA_CLASS_SPREAD)
        sub.add_argument("--" + flag.replace("_", "-"), dest=name, type=PARSERS[kinds[name]],
                         choices=choices, metavar=None if choices else flag.upper())


def _add_train_flags(sub: argparse.ArgumentParser, config_help: str) -> None:
    sub.add_argument("--config", help=config_help)
    _add_field_flags(sub, TrainConfig, TRAIN_FLAGS)


def _overridden(base, args: argparse.Namespace, names, **extra):
    """base with its named fields set from args, then from extra, where not None."""
    overrides = {name: getattr(args, name) for name in names}
    overrides.update(extra)
    return replace(base, **{k: v for k, v in overrides.items() if v is not None})


def _train_config(args: argparse.Namespace, base: TrainConfig, **extra) -> TrainConfig:
    """base, overridden by the --config file, then as by :func:`_overridden`."""
    if args.config:
        base = load_train_config(args.config, base)
    return _overridden(base, args, TRAIN_FLAGS, **extra)


def cmd_gen(args) -> int:
    spec = _overridden(GEN_SPEC, args, GEN_FLAGS, topology=TOPOLOGY_ALIASES.get(args.topology))
    features, manifest = generate_synthetic(spec)
    manifest = hold_out_eval_split(manifest, args.query_per_id, args.gallery_per_id)
    save_features(features, args.out)
    save_manifest(manifest, args.manifest)
    print(f"wrote {features.n}x{features.d} features to {args.out}, manifest to {args.manifest}")
    return 0


def cmd_train(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    cfg = _train_config(args, TrainConfig(), method=args.method, seed=args.seed)
    result = train(features, manifest, cfg)
    if args.log:
        Path(args.log).write_text("\n".join(result.log) + "\n", encoding="utf-8")
    if args.out_features:
        save_features(FeatureMatrix(result.model.embed(features.data)), args.out_features)
    if args.out_model:
        payload = {
            "weights": [w.tolist() for w in result.model.weights],
            "biases": [b.tolist() for b in result.model.biases],
            "normalize_output": True,
            "classifier_weight": result.classifier.tolist(),
            "margin": MARGIN,
            "scale": SCALE,
        }
        write_json(payload, args.out_model)
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
    report = evaluate(ranking, manifest)
    if args.out:
        payload = {
            "mAP": report.map_score,
            "cmc": {str(r): v for r, v in report.cmc.items()},
            "per_query_ap": list(report.per_query_ap),
            "num_queries": report.num_queries,
            "config": {"ranking": str(args.ranking)},
        }
        write_json(payload, args.out)
    print(f"mAP={report.map_score:.6f} cmc1={report.cmc[1]:.6f} "
          f"cmc5={report.cmc[5]:.6f} cmc10={report.cmc[10]:.6f}")
    return 0


def cmd_refine(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    queries = split_features(features, manifest, "query")
    gallery = split_features(features, manifest, "gallery")
    ranking = load_ranking(args.ranking)
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
    # nodes in class order, so that each identity's columns are one run of
    # every tile; every printed quantity is a ratio of edge sums at one sigma
    order = np.argsort(classes, kind="stable")
    features = FeatureMatrix(features.data[order])
    ncuts, escapes, escapes_rest = class_ncut_escape(affinity_tiles(features, args.sigma), classes[order])
    for ident, value, escape in zip(identities, ncuts, escapes):
        print(f"identity {ident}: escape_probability={escape:.6f} ncut={value:.6f}")
    residual = float(np.abs(ncuts - (escapes + escapes_rest)).max())
    print(f"max_ncut_identity_residual={residual:.6e}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _overridden(
        exp.ExperimentConfig(), args, EXPERIMENT_FLAGS,
        topology=TOPOLOGY_ALIASES.get(args.topology),
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
    _add_field_flags(p, SyntheticSpec, GEN_FLAGS[:-1])
    p.add_argument("--query-per-id", type=int, default=0)
    p.add_argument("--gallery-per-id", type=int, default=0)
    _add_field_flags(p, SyntheticSpec, GEN_FLAGS[-1:])
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the embedding model")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    _add_train_flags(p, "key = value file with TrainConfig fields")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--seed", type=int)
    p.add_argument("--log", help="write per-epoch training log (TSV)")
    p.add_argument("--out-features", help="write trained embeddings of all rows")
    p.add_argument("--out-model", help="write model parameters as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transform", help="apply the spectral transform to a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
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
    p.add_argument("--top-n", type=int, default=exp.ExperimentConfig.top_n)
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("diagnose", help="per-identity escape probabilities and residuals")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("experiment", help="run the ablation grid or a sweep")
    _add_field_flags(p, exp.ExperimentConfig, EXPERIMENT_FLAGS)
    _add_train_flags(p, "key = value file overriding the toy trainer profile")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # numpy's MemoryError names the size that it could not allocate; a bare
    # one (Python's own) has no message, so its type stands in
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. a float overflow at a tiny sigma
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
