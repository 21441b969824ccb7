"""Domain types, file I/O and synthetic clustered data.

Embedding files are a small binary format: magic ``SFTE``, version u16,
then row and column counts as u64, all little-endian, followed by the
row-major float32 payload.  Internal arithmetic is float64 throughout;
only storage is float32.  Manifests are plain TSV.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import Xoshiro256StarStar

MAGIC = b"SFTE"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")

SPLITS = ("train", "query", "gallery")
TOPOLOGIES = ("gaussian_blobs", "intertwined_spirals")


class FeatureFileError(ValueError):
    """Base class for embedding-file format errors."""


class MalformedHeaderError(FeatureFileError):
    pass


class TruncatedPayloadError(FeatureFileError):
    pass


class NonFiniteValuesError(FeatureFileError):
    pass


class ManifestError(ValueError):
    pass


def freeze_array(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of arr; the caller's array stays writeable."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def write_json(payload, path) -> None:
    """The JSON artifact format: sorted keys, 2-space indent, final newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d matrix of embeddings, rows are samples. Immutable, float64."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature matrix must be at least 1x1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "data", freeze_array(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    identity: int
    camera: int
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    """Per-sample identity/camera/split metadata, validated on construction.

    Every query record must have at least one gallery record with the same
    identity seen by a different camera, otherwise the retrieval protocol
    (which discards same-identity same-camera items) would leave that query
    without a single correct answer.
    """

    records: tuple[SampleRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        if not records:
            raise ManifestError("manifest has no records")
        seen = set()
        for rec in records:
            if rec.sample_id in seen:
                raise ManifestError(f"duplicate sample_id {rec.sample_id!r}")
            seen.add(rec.sample_id)
            if rec.identity < 0 or rec.camera < 0:
                raise ManifestError(f"negative identity/camera in {rec.sample_id!r}")
            if rec.split not in SPLITS:
                raise ManifestError(f"unknown split {rec.split!r} in {rec.sample_id!r}")
        gallery_cams: dict[int, set[int]] = {}
        for rec in records:
            if rec.split == "gallery":
                gallery_cams.setdefault(rec.identity, set()).add(rec.camera)
        for rec in records:
            if rec.split != "query":
                continue
            cams = gallery_cams.get(rec.identity, set())
            if not (cams - {rec.camera}):
                raise ManifestError(
                    f"query {rec.sample_id!r} (identity {rec.identity}, camera "
                    f"{rec.camera}) has no cross-camera gallery match"
                )
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)

    def indices(self, split: str) -> list[int]:
        if split not in SPLITS:
            raise ManifestError(f"unknown split {split!r}")
        return [i for i, rec in enumerate(self.records) if rec.split == split]

    def subset(self, split: str) -> list[SampleRecord]:
        return [rec for rec in self.records if rec.split == split]

    @cached_property
    def train_groups(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(identity, its train row indices) per train identity, identities
        ascending and rows in manifest order; built once per manifest."""
        by_identity: dict[int, list[int]] = {}
        for i, rec in enumerate(self.records):
            if rec.split == "train":
                by_identity.setdefault(rec.identity, []).append(i)
        return tuple((ident, tuple(by_identity[ident])) for ident in sorted(by_identity))


def check_paired(features: FeatureMatrix, manifest: DatasetManifest) -> None:
    """Features and manifest must describe the same samples, row for row."""
    if features.n != len(manifest):
        raise ManifestError(
            f"manifest has {len(manifest)} records but features have "
            f"{features.n} rows"
        )


def split_features(features: FeatureMatrix, manifest: DatasetManifest, split: str) -> FeatureMatrix:
    """Rows of `features` whose manifest record belongs to `split`."""
    check_paired(features, manifest)
    idx = manifest.indices(split)
    if not idx:
        raise ManifestError(f"no records with split {split!r}")
    return FeatureMatrix(features.data[idx])


@dataclass(frozen=True)
class Partition:
    """Class labels over n samples; label values are 0..num_classes-1."""

    labels: np.ndarray
    num_classes: int = field(default=0)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("partition labels must be a non-empty 1-d vector")
        if labels.min() < 0:
            raise ValueError("partition labels must be non-negative")
        num_classes = self.num_classes or int(labels.max()) + 1
        if labels.max() >= num_classes:
            raise ValueError(
                f"label {int(labels.max())} out of range for {num_classes} classes"
            )
        object.__setattr__(self, "labels", freeze_array(labels))
        object.__setattr__(self, "num_classes", num_classes)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class SyntheticSpec:
    num_identities: int
    samples_per_identity: int
    dim: int
    intra_class_spread: float = 0.1
    inter_class_separation: float = 1.0
    topology: str = "gaussian_blobs"
    num_cameras: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("num_identities", "samples_per_identity", "dim", "num_cameras"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.intra_class_spread <= 0 or self.inter_class_separation <= 0:
            raise ValueError("spreads must be positive")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write the binary embedding format (float32 payload)."""
    payload = matrix.data.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise NonFiniteValuesError("values exceed float32 range, refusing to write")
    header = _HEADER.pack(MAGIC, VERSION, matrix.n, matrix.d)
    Path(path).write_bytes(header + payload.tobytes(order="C"))


def load_features(path) -> FeatureMatrix:
    """Read the binary embedding format back into a float64 matrix."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedHeaderError(f"file too short for header: {len(raw)} bytes")
    magic, version, n, d = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedHeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedHeaderError(f"unsupported version {version}")
    if n < 1 or d < 1:
        raise MalformedHeaderError(f"invalid dimensions n={n}, d={d}")
    expected = n * d * 4
    actual = len(raw) - _HEADER.size
    if actual != expected:
        raise TruncatedPayloadError(
            f"payload holds {actual} bytes, expected {expected} for {n}x{d}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValuesError("payload contains non-finite values")
    return FeatureMatrix(values.astype(np.float64).reshape(n, d))


MANIFEST_COLUMNS = ("sample_id", "identity", "camera", "split")


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = ["\t".join(MANIFEST_COLUMNS)]
    for rec in manifest.records:
        lines.append(f"{rec.sample_id}\t{rec.identity}\t{rec.camera}\t{rec.split}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split("\t")) != MANIFEST_COLUMNS:
        raise ManifestError(
            f"manifest must start with header {' '.join(MANIFEST_COLUMNS)!r}"
        )
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"line {lineno}: expected 4 columns, got {len(parts)}")
        sample_id, identity, camera, split = parts
        try:
            records.append(SampleRecord(sample_id, int(identity), int(camera), split))
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from exc
    return DatasetManifest(tuple(records))


# Spiral geometry: arms sweep SPIRAL_TURNS revolutions while the radius
# grows from SPIRAL_RADIUS to SPIRAL_RADIUS + SPIRAL_GROWTH, so every
# angle is crossed by several arms at different radii.  The sweep is kept
# gentle enough that an identity's own samples stay mutually closer than
# the neighboring arm; steeper sweeps make retrieval collapse to chance.
SPIRAL_TURNS = 0.2
SPIRAL_RADIUS = 1.0
SPIRAL_GROWTH = 2.0


def generate_synthetic(spec: SyntheticSpec) -> tuple[FeatureMatrix, DatasetManifest]:
    """Deterministic clustered data standing in for a real retrieval set.

    Output rows are grouped by identity; sample j of an identity gets
    camera ``j mod num_cameras`` so cross-camera matches always exist.
    All samples are emitted with split ``train``; use
    :func:`hold_out_eval_split` to carve out query/gallery rows.
    Values are rounded to float32 so files round-trip bit-exactly.

    gaussian_blobs: each identity is an isotropic cloud around a random
    direction scaled by ``inter_class_separation``.

    intertwined_spirals: identities are phase-shifted arms of one spiral
    occupying the first two dimensions; the remaining dimensions carry
    pure noise.  Arm positions are stratified (one sample per equal
    slice of the arm, jittered, slices assigned in shuffled order) so
    every subset of an identity's samples covers the whole arm.
    """
    rng = Xoshiro256StarStar(spec.seed)
    rows = []
    records = []
    for ident in range(spec.num_identities):
        if spec.topology == "gaussian_blobs":
            center = np.array(rng.normals(spec.dim))
            norm = math.sqrt(float(center @ center))
            if norm == 0.0:  # unreachable in practice, keeps division safe
                norm = 1.0
            center = center * (spec.inter_class_separation / norm)
        else:
            phase = 2.0 * math.pi * ident / spec.num_identities
            strata = list(range(spec.samples_per_identity))
            rng.shuffle(strata)
        for j in range(spec.samples_per_identity):
            if spec.topology == "gaussian_blobs":
                point = center.copy()
            else:
                t = (strata[j] + rng.random()) / spec.samples_per_identity
                radius = (SPIRAL_RADIUS + SPIRAL_GROWTH * t) * spec.inter_class_separation
                angle = phase + SPIRAL_TURNS * 2.0 * math.pi * t
                point = np.zeros(spec.dim)
                point[0] = radius * math.cos(angle)
                if spec.dim > 1:
                    point[1] = radius * math.sin(angle)
            point = point + spec.intra_class_spread * np.array(rng.normals(spec.dim))
            rows.append(point)
            camera = j % spec.num_cameras
            records.append(
                SampleRecord(f"{ident:04d}_c{camera}_{j:04d}", ident, camera, "train")
            )
    data = np.array(rows, dtype=np.float64)
    data = data.astype(np.float32).astype(np.float64)
    return FeatureMatrix(data), DatasetManifest(tuple(records))


def hold_out_eval_split(
    manifest: DatasetManifest, query_per_id: int, gallery_per_id: int
) -> DatasetManifest:
    """Reassign the tail samples of each identity to query/gallery splits.

    Per identity, in manifest order, the last ``query_per_id +
    gallery_per_id`` train records become the evaluation set: first the
    query rows, then the gallery rows.  Deterministic; camera coverage is
    re-checked by manifest validation.
    """
    if query_per_id < 0 or gallery_per_id < 0:
        raise ManifestError("hold-out counts must be non-negative")
    if query_per_id + gallery_per_id == 0:
        return manifest
    new_split = {}
    held = query_per_id + gallery_per_id
    for ident, idx in manifest.train_groups:
        if len(idx) < held:
            raise ManifestError(
                f"identity {ident} has {len(idx)} train samples, "
                f"cannot hold out {held}"
            )
        tail = idx[len(idx) - held :]
        for i in tail[:query_per_id]:
            new_split[i] = "query"
        for i in tail[query_per_id:]:
            new_split[i] = "gallery"
    records = tuple(
        SampleRecord(rec.sample_id, rec.identity, rec.camera, new_split.get(i, rec.split))
        for i, rec in enumerate(manifest.records)
    )
    return DatasetManifest(records)
