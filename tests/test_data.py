import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sftlab.data import (
    MAGIC,
    SPLITS,
    VERSION,
    DatasetManifest,
    FeatureFileError,
    FeatureMatrix,
    MalformedHeaderError,
    ManifestError,
    NonFiniteValuesError,
    SampleRecord,
    SyntheticSpec,
    TruncatedPayloadError,
    generate_synthetic,
    hold_out_eval_split,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
    split_features,
)


def make_file(path, magic=b"SFTE", version=1, n=2, d=3, payload=None):
    if payload is None:
        payload = np.arange(n * d, dtype="<f4")
    path.write_bytes(struct.pack("<4sHQQ", magic, version, n, d) + payload.tobytes())


class TestFeatureFile:
    def test_identity_payload_roundtrip(self, tmp_path):
        f = tmp_path / "m.sfte"
        make_file(f, n=2, d=3, payload=np.array([1, 0, 0, 0, 1, 0], dtype="<f4"))
        m = load_features(f)
        assert (m.n, m.d) == (2, 3)
        np.testing.assert_array_equal(m.data, [[1, 0, 0], [0, 1, 0]])

    def test_truncated_payload(self, tmp_path):
        f = tmp_path / "short.sfte"
        make_file(f, n=2, d=3, payload=np.zeros(5, dtype="<f4"))
        with pytest.raises(TruncatedPayloadError):
            load_features(f)

    def test_overlong_payload(self, tmp_path):
        f = tmp_path / "long.sfte"
        make_file(f, n=2, d=3, payload=np.zeros(7, dtype="<f4"))
        with pytest.raises(TruncatedPayloadError):
            load_features(f)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.sfte"
        make_file(f, magic=b"NOPE")
        with pytest.raises(MalformedHeaderError):
            load_features(f)

    def test_bad_version(self, tmp_path):
        f = tmp_path / "v9.sfte"
        make_file(f, version=9)
        with pytest.raises(MalformedHeaderError):
            load_features(f)

    def test_file_too_short_for_header(self, tmp_path):
        f = tmp_path / "stub.sfte"
        f.write_bytes(b"SFTE\x01")
        with pytest.raises(MalformedHeaderError):
            load_features(f)

    def test_zero_dimension_rejected(self, tmp_path):
        f = tmp_path / "zero.sfte"
        f.write_bytes(struct.pack("<4sHQQ", b"SFTE", 1, 0, 3))
        with pytest.raises(MalformedHeaderError):
            load_features(f)

    def test_non_finite_payload(self, tmp_path):
        f = tmp_path / "nan.sfte"
        make_file(f, n=1, d=2, payload=np.array([1.0, np.nan], dtype="<f4"))
        with pytest.raises(NonFiniteValuesError):
            load_features(f)

    def test_single_value_file_length(self, tmp_path):
        f = tmp_path / "one.sfte"
        save_features(FeatureMatrix(np.array([[0.5]])), f)
        # magic 4 + version 2 + two u64 16 + one f32 4
        assert f.stat().st_size == 26
        assert load_features(f).data[0, 0] == 0.5

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        f = tmp_path / "rt.sfte"
        save_features(FeatureMatrix(values), f)
        np.testing.assert_array_equal(load_features(f).data, values)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_roundtrip_is_identity_on_float32_values(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "m.sfte"
            matrix = FeatureMatrix(values.astype(np.float64))
            save_features(matrix, f)
            np.testing.assert_array_equal(load_features(f).data, matrix.data)


class TestFeatureMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[np.inf, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0


def records(*specs):
    return tuple(SampleRecord(*s) for s in specs)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = DatasetManifest(records(
            ("a", 0, 0, "train"), ("b", 0, 1, "query"), ("c", 0, 0, "gallery"),
            ("d", 0, 2, "gallery"),
        ))
        path = tmp_path / "m.tsv"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t0\t0\ttrain\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError):
            DatasetManifest(records(("a", 0, 0, "train"), ("a", 1, 0, "train")))

    def test_unknown_split_rejected(self):
        with pytest.raises(ManifestError):
            DatasetManifest(records(("a", 0, 0, "probe")))

    def test_query_needs_cross_camera_gallery(self):
        # gallery match exists but only on the query's own camera
        with pytest.raises(ManifestError, match="cross-camera"):
            DatasetManifest(records(("q", 3, 0, "query"), ("g", 3, 0, "gallery")))

    def test_query_with_cross_camera_match_accepted(self):
        DatasetManifest(records(("q", 3, 0, "query"), ("g", 3, 1, "gallery")))

    def test_pairing_mismatch(self):
        manifest = DatasetManifest(records(("a", 0, 0, "train"), ("b", 1, 0, "train")))
        with pytest.raises(ManifestError):
            split_features(FeatureMatrix(np.ones((3, 2))), manifest, "train")


# hostile-input fuzzing: the same examples on every run
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def load_or_none(load, raw: bytes, error):
    """load() of a file holding raw, or None where it raises error; any other
    exception propagates and fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz"
        path.write_bytes(raw)
        try:
            return load(path)
        except error:
            return None


@st.composite
def sfte_files(draw):
    """Valid magic, then a random version, n, d and tail; small shapes often
    get a tail of exactly n * d float32 values."""
    version = draw(st.one_of(st.just(VERSION), st.integers(0, 2**16 - 1)))
    n, d = (draw(st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1))) for _ in range(2))
    size = n * d * 4
    exact = st.binary(min_size=size, max_size=size) if size <= 64 else st.nothing()
    tail = draw(st.one_of(exact, st.binary(max_size=80)))
    return struct.pack("<4sHQQ", MAGIC, version, n, d) + tail


# manifest lines: often four plausible columns, else any number of random ones
MANIFEST_NUMBERS = st.one_of(st.sampled_from(["0", "1", "2", "-1"]), st.text(max_size=4))
MANIFEST_SPLITS = st.one_of(st.sampled_from(SPLITS), st.text(max_size=4))
MANIFEST_LINES = st.one_of(
    st.tuples(st.text(max_size=4), MANIFEST_NUMBERS, MANIFEST_NUMBERS, MANIFEST_SPLITS),
    st.lists(st.one_of(MANIFEST_NUMBERS, MANIFEST_SPLITS), max_size=5),
).map("\t".join)
MANIFEST_TEXTS = st.lists(MANIFEST_LINES, max_size=8).map(
    lambda lines: "\n".join(["sample_id\tidentity\tcamera\tsplit", *lines]))


class TestLoaderFuzz:
    @FUZZ
    @given(st.binary(max_size=96))
    def test_features_from_raw_bytes(self, raw):
        out = load_or_none(load_features, raw, FeatureFileError)
        assert out is None or isinstance(out, FeatureMatrix)

    @FUZZ
    @given(sfte_files())
    def test_features_from_valid_magic(self, raw):
        out = load_or_none(load_features, raw, FeatureFileError)
        if out is not None:
            assert isinstance(out, FeatureMatrix)
            assert (out.n, out.d) == struct.unpack_from("<4sHQQ", raw)[2:]

    @FUZZ
    @given(st.binary(max_size=96))
    def test_manifest_from_raw_bytes(self, raw):
        out = load_or_none(load_manifest, raw, ValueError)
        assert out is None or isinstance(out, DatasetManifest)

    @FUZZ
    @given(MANIFEST_TEXTS)
    def test_manifest_from_header_and_fields(self, text):
        out = load_or_none(load_manifest, text.encode("utf-8"), ValueError)
        assert out is None or isinstance(out, DatasetManifest)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(2, 3, 4, topology="gaussian_blobs", seed=7)
        f1, m1 = generate_synthetic(spec)
        f2, m2 = generate_synthetic(spec)
        np.testing.assert_array_equal(f1.data, f2.data)
        assert m1 == m2

    def test_counts_and_cameras(self):
        spec = SyntheticSpec(3, 5, 4, num_cameras=2, seed=1)
        feats, manifest = generate_synthetic(spec)
        assert feats.n == 15 and len(manifest) == 15
        for i, rec in enumerate(manifest.records):
            assert rec.identity == i // 5
            assert rec.camera == (i % 5) % 2
            assert rec.split == "train"

    def test_single_sample(self):
        feats, manifest = generate_synthetic(SyntheticSpec(1, 1, 3, seed=0))
        assert feats.n == 1 and len(manifest) == 1

    def test_separated_blobs_have_higher_intra_cosine(self):
        spec = SyntheticSpec(4, 10, 8, intra_class_spread=0.05,
                             inter_class_separation=5.0,
                             topology="gaussian_blobs", seed=3)
        feats, manifest = generate_synthetic(spec)
        unit = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        cos = unit @ unit.T
        ident = np.array([r.identity for r in manifest.records])
        same = ident[:, None] == ident[None, :]
        off_diag = ~np.eye(feats.n, dtype=bool)
        assert cos[same & off_diag].mean() > cos[~same].mean()

    def test_values_survive_float32_roundtrip(self, tmp_path):
        feats, _ = generate_synthetic(SyntheticSpec(2, 4, 6, seed=9))
        path = tmp_path / "f.sfte"
        save_features(feats, path)
        np.testing.assert_array_equal(load_features(path).data, feats.data)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 1, 1)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 1, intra_class_spread=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 1, topology="rings")


class TestHoldOut:
    def test_splits_tail_samples(self):
        _, manifest = generate_synthetic(SyntheticSpec(2, 6, 3, num_cameras=2, seed=5))
        out = hold_out_eval_split(manifest, 1, 2)
        for ident in (0, 1):
            splits = [r.split for r in out.records if r.identity == ident]
            assert splits == ["train", "train", "train", "query", "gallery", "gallery"]

    def test_too_few_samples(self):
        _, manifest = generate_synthetic(SyntheticSpec(2, 3, 3, seed=5))
        with pytest.raises(ManifestError):
            hold_out_eval_split(manifest, 2, 2)
        # of several identities with too few rows, the smallest is named
        rows = [(7, 0), (7, 1), (3, 0), (3, 1), (3, 0)]
        manifest = DatasetManifest(tuple(SampleRecord(f"s{i}", ident, cam, "train")
                                         for i, (ident, cam) in enumerate(rows)))
        with pytest.raises(ManifestError, match="^identity 3 has 3 train samples, cannot hold out 4$"):
            hold_out_eval_split(manifest, 2, 2)

    def test_noop_when_zero(self):
        _, manifest = generate_synthetic(SyntheticSpec(2, 3, 3, seed=5))
        assert hold_out_eval_split(manifest, 0, 0) == manifest
