import hashlib
import struct
import tempfile
import tracemalloc
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
from sftlab.experiment import ExperimentConfig, make_dataset
from sftlab.rng import Xoshiro256StarStar


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

    @pytest.mark.parametrize("text,lineno", [
        pytest.param("\ns0\t0\t0\n", 3, id="blank-then-short-row"),
        pytest.param("s0\t0\t0\ttrain\n\n\ns1\t0\t0\n", 5, id="blanks-between-rows"),
        pytest.param("\n\ns0\t0\tx\ttrain\n", 4, id="blanks-then-bad-camera")])
    def test_error_names_the_files_own_line(self, tmp_path, text, lineno):
        """Blank lines count: the error names the bad row's line in the file."""
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tidentity\tcamera\tsplit\n" + text)
        with pytest.raises(ManifestError, match=f"^line {lineno}: "):
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


# sha256 of generate_synthetic's float64 rows, then of one line per record.
# Every artifact depends on these bits, so a change to how deviates are
# drawn must not move them.  The sets: the benchmark's graph and retrieval
# sets, the default ablation set for seed 1 (splits assigned), spirals on
# one dimension, blobs on three cameras and the smallest spec
PINNED_SETS = {
    "graph": (SyntheticSpec(24, 100, 32, 0.3, seed=1),
              "d518cdff2dec3f44023de60fd96fb3f871065b8387d6b7a18899ed9672bdc66a"),
    "retrieval": (SyntheticSpec(120, 10, 32, 0.15, seed=1),
                  "0b26cb6be38ca8b45d4249f3974f49187f602d7f9e2928666720f7bbaed440c3"),
    "ablation": (None, "dfd18f6dea99c91d699c9f3465aaa1aa550677042151973433775517819b3a87"),
    "spirals_dim1": (SyntheticSpec(5, 6, 1, topology="intertwined_spirals", seed=4),
                     "7642b4b51fa2578f25b5ce5d29e988651f71c7f2c06ca2fc24831eab7bef44b7"),
    "blobs_3_cameras": (SyntheticSpec(40, 9, 5, 0.3, 2.5, num_cameras=3, seed=9),
                        "e47787954da5cabefa404f403d33abdee81e342e77e5bb793f018f55704b4418"),
    "one_sample": (SyntheticSpec(1, 1, 3),
                   "12442978acafc8a7c10df51bf37240a645ed9adc7aa4c736b8e23be667fcd9a1"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SETS))
def test_pinned_synthetic_sets(name):
    spec, want = PINNED_SETS[name]
    features, manifest = make_dataset(ExperimentConfig(), 1) if spec is None else generate_synthetic(spec)
    digest = hashlib.sha256(features.data.tobytes())
    for r in manifest.records:
        digest.update(f"{r.sample_id}\t{r.identity}\t{r.camera}\t{r.split}\n".encode())
    assert digest.hexdigest() == want


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

    def test_blob_memory_is_bounded(self, monkeypatch):
        """The deviates are dropped once they are in the rows, so the peak is
        the rows, their float32 round trip and the rounded rows (2.5 rows'
        worth), not the deviates too (3.6).  Constant deviates stand in for
        the generator's, whose draw is slow under tracemalloc."""
        monkeypatch.setattr(Xoshiro256StarStar, "normals", lambda self, count: np.full(count, 0.5))
        tracemalloc.start()
        try:
            features, _ = generate_synthetic(SyntheticSpec(200, 10, 320, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * features.data.nbytes, peak

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
