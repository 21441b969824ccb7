"""Per-layer spans for the traced pass, recorded from outside sftlab.

Every public function of interest is wrapped where its caller looks it
up (``sftlab.training.sft_backward``, ``sftlab.cli.affinity``, ...), so
the package itself is never edited and the untraced passes run the
original functions.  A lookup site that no longer exists, because a later
refactor merged or renamed the function, is listed as absent instead of
failing the run; a span whose sites are all absent reports zero calls.
Likewise a count hook that no longer understands its span's arguments
marks the span as uncounted instead of raising into the program.

Each span records calls, busy seconds and self seconds (busy time minus
the time of traced spans it called).  Count hooks add exact work counts
at the same boundaries; flops and bytes are computed from input shapes,
not measured.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter

# span name -> lookup sites "<module>:<attribute path>" that resolve to it
SPANS = {
    "experiment.run_experiment": ("sftlab.experiment:run_experiment",),
    "experiment.make_dataset": ("sftlab.experiment:make_dataset",),
    "cli.main": ("sftlab.cli:main",),
    "training.train": ("sftlab.experiment:train", "sftlab.cli:train"),
    "training.sample_pk": ("sftlab.training:sample_pk",),
    "training.forward_backward": ("sftlab.training:forward_backward",),
    "training.embed_forward": ("sftlab.training:EmbedModel.forward",),
    "training.embed_backward": ("sftlab.training:EmbedModel.backward",),
    "training.am_softmax_loss": ("sftlab.training:am_softmax_loss",),
    "training.am_softmax_value": ("sftlab.training:am_softmax_value",),
    "graphcut.ncut_loss": ("sftlab.training:ncut_loss",),
    "graphcut.ncut_escape_identity_check": ("sftlab.cli:ncut_escape_identity_check",),
    "graphcut.escape_probability": ("sftlab.cli:escape_probability",),
    "transform.sft_transform": (
        "sftlab.training:sft_transform_array",
        "sftlab.ranking:sft_transform_array",
        "sftlab.cli:sft_transform",
    ),
    "transform.sft_backward": ("sftlab.training:sft_backward",),
    "transform.affinity": (
        "sftlab.experiment:affinity",
        "sftlab.training:affinity",
        "sftlab.cli:affinity",
    ),
    "ranking.rank": ("sftlab.experiment:rank", "sftlab.cli:rank", "sftlab.ranking:rank"),
    "ranking.refine_ranking": (
        "sftlab.experiment:refine_ranking",
        "sftlab.cli:refine_ranking",
        "sftlab.ranking:refine_ranking",
    ),
    "ranking.evaluate": (
        "sftlab.experiment:evaluate",
        "sftlab.cli:evaluate",
        "sftlab.ranking:evaluate",
    ),
    "ranking.k_reciprocal_rerank": (
        "sftlab.experiment:k_reciprocal_rerank",
        "sftlab.ranking:k_reciprocal_rerank",
    ),
    "data.load_features": ("sftlab.cli:load_features",),
    "data.save_features": ("sftlab.cli:save_features",),
    "data.load_manifest": ("sftlab.cli:load_manifest",),
}

# spans whose traced children make self time differ from busy time
SELF_TIME_SPANS = (
    "experiment.run_experiment",
    "cli.main",
    "training.train",
    "training.forward_backward",
    "ranking.refine_ranking",
)

RNG_SITE = "sftlab.rng:Xoshiro256StarStar.next_u64"

# counts that must repeat exactly between passes on the same inputs
EXACT_COUNTS = (
    "rng.words",
    "training.steps",
    "ranking.queries",
    "ranking.union_rows",
    "graph.rows",
    "transform.sft_transform.flops",
    "transform.sft_transform.dense_bytes",
    "ranking.k_reciprocal_rerank.dense_bytes",
)


def _rows_cols(x) -> tuple[int, int]:
    shape = getattr(x, "data", x).shape
    return int(shape[0]), int(shape[1])


def _count_transform(counts: Counter, args) -> None:
    n, d = _rows_cols(args[0])
    counts["graph.rows"] += n
    # cosine Gram matrix and transition @ features: two n x n x d products
    counts["transform.sft_transform.flops"] += 4 * n * n * d
    # one dense n x n float64 transition matrix
    counts["transform.sft_transform.dense_bytes"] += 8 * n * n


def _count_affinity(counts: Counter, args) -> None:
    counts["graph.rows"] += _rows_cols(args[0])[0]


def _count_queries(counts: Counter, args) -> None:
    counts["ranking.queries"] += _rows_cols(args[0])[0]


def _count_kr(counts: Counter, args) -> None:
    n = _rows_cols(args[0])[0] + _rows_cols(args[1])[0]
    counts["ranking.union_rows"] += n
    counts["ranking.k_reciprocal_rerank.dense_bytes"] += 8 * n * n


def _count_step(counts: Counter, args) -> None:
    counts["training.steps"] += 1


COUNT_HOOKS = {
    "transform.sft_transform": _count_transform,
    "transform.affinity": _count_affinity,
    "ranking.rank": _count_queries,
    "ranking.k_reciprocal_rerank": _count_kr,
    "training.forward_backward": _count_step,
}


def _resolve(site: str):
    """(owner, attribute name) for a lookup site, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers at every lookup site and removes them again."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.child: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._words = itertools.count()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every lookup site, with all counters back at zero."""
        for table in (self.calls, self.busy, self.child, self.counts):
            table.clear()
        self.absent.clear()
        # next() on an itertools.count is cheap enough for every rng word
        self._words = itertools.count()
        for span, sites in SPANS.items():
            for site in sites:
                self._patch(site, lambda fn, span=span: self._span_wrapper(span, fn))
        self._patch(RNG_SITE, self._word_counter)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, site: str, make_wrapper) -> None:
        found = _resolve(site)
        if found is None:
            self.absent.append(site)
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span_wrapper(self, span: str, fn):
        hook = COUNT_HOOKS.get(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.busy[span] += elapsed
                self.child[span] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if hook is not None:
                    try:
                        hook(self.counts, args)
                    except (IndexError, AttributeError):  # call convention changed
                        self.uncounted.add(span)

        return traced

    def _word_counter(self, fn):
        tick = self._words.__next__

        @functools.wraps(fn)
        def next_u64(rng):
            tick()
            return fn(rng)

        return next_u64

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since install()."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.busy[span]
            if span in SELF_TIME_SPANS:
                out[f"{span}.self_s"] = self.busy[span] - self.child[span]
        for name in EXACT_COUNTS:
            out[name] = self.counts[name]
        out["rng.words"] = next(self._words)  # the words drawn so far
        return out
