import contextlib
import functools
import hashlib
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftlab import cli
from sftlab import experiment as exp
from sftlab.cli import main
from sftlab.data import SyntheticSpec, generate_synthetic, load_features, load_manifest, save_features, save_manifest
from sftlab.training import METHODS, TrainConfig
from sftlab.transform import sft_transform

SRC = Path(__file__).resolve().parent.parent / "src"


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def dataset(tmp_path):
    feats = tmp_path / "feats.sfte"
    manifest = tmp_path / "m.tsv"
    code = run("gen", "--spec", "spirals", "--identities", 6, "--per-id", 8,
               "--dim", 16, "--seed", 1, "--query-per-id", 1, "--gallery-per-id", 3,
               "--out", feats, "--manifest", manifest)
    assert code == 0
    return feats, manifest


def gen_blobs(directory):
    """The 6-identity blob set, written to directory: 24 train rows, 4 per identity."""
    feats = directory / "blobs.sfte"
    manifest = directory / "blobs.tsv"
    assert run("gen", "--spec", "blobs", "--identities", 6, "--per-id", 7, "--dim", 10,
               "--spread", "0.1", "--seed", 5, "--query-per-id", 1, "--gallery-per-id", 2,
               "--out", feats, "--manifest", manifest) == 0
    return feats, manifest


@pytest.fixture()
def blobs(tmp_path):
    return gen_blobs(tmp_path)


@pytest.fixture()
def train_calls(monkeypatch):
    """Every train() call that `train` or `experiment` makes, in order."""
    calls = []
    for module in (cli, exp):
        real = module.train
        monkeypatch.setattr(module, "train", lambda *a, real=real: calls.append(a) or real(*a))
    return calls


class TestGen:
    def test_happy_path_example(self, tmp_path, capsys):
        feats = tmp_path / "feats.sfte"
        manifest = tmp_path / "m.tsv"
        code = run("gen", "--spec", "spirals", "--identities", 16, "--per-id", 8,
                   "--dim", 32, "--seed", 1, "--out", feats, "--manifest", manifest)
        assert code == 0
        loaded = load_features(feats)
        assert (loaded.n, loaded.d) == (128, 32)
        assert len(load_manifest(manifest)) == 128
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_outputs(self, tmp_path):
        args = ["gen", "--spec", "blobs", "--identities", 4, "--per-id", 4,
                "--dim", 8, "--seed", 5]
        run(*args, "--out", tmp_path / "a.sfte", "--manifest", tmp_path / "a.tsv")
        run(*args, "--out", tmp_path / "b.sfte", "--manifest", tmp_path / "b.tsv")
        assert (tmp_path / "a.sfte").read_bytes() == (tmp_path / "b.sfte").read_bytes()
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_flags_set_spec_fields_over_gen_defaults(self, monkeypatch, tmp_path):
        specs = []
        generate = cli.generate_synthetic
        monkeypatch.setattr(cli, "generate_synthetic", lambda spec: specs.append(spec) or generate(spec))
        out = ["--out", tmp_path / "f.sfte", "--manifest", tmp_path / "m.tsv"]
        assert run("gen", *out) == 0
        assert specs.pop() == SyntheticSpec(16, 8, 32, 0.1, 1.0, "intertwined_spirals", 2, 0)
        assert run("gen", "--spec", "blobs", "--identities", 3, "--per-id", 4, "--dim", 5,
                   "--cameras", 3, "--spread", "0.2", "--separation", "2", "--seed", 7, *out) == 0
        assert specs.pop() == SyntheticSpec(3, 4, 5, 0.2, 2.0, "gaussian_blobs", 3, 7)


class TestPipeline:
    def test_train_rank_eval_refine(self, dataset, tmp_path, capsys):
        feats, manifest = dataset
        trained = tmp_path / "trained.sfte"
        log = tmp_path / "train.log"
        model = tmp_path / "model.json"
        assert run("train", "--features", feats, "--manifest", manifest,
                   "--epochs", 8, "--p", 3, "--k", 4, "--sigma", "0.2",
                   "--hidden-dim", 16, "--embed-dim", 8, "--seed", 2,
                   "--log", log, "--out-features", trained, "--out-model", model) == 0
        assert len(log.read_text().strip().split("\n")) == 8
        assert load_features(trained).n == 48
        payload = json.loads(model.read_text())
        assert sorted(payload) == ["biases", "classifier_weight", "margin", "normalize_output",
                                   "scale", "weights"]
        assert payload["normalize_output"] is True
        # the classifier's fixed recipe
        assert (payload["margin"], payload["scale"]) == (0.3, 15.0)

        ranking = tmp_path / "ranking.json"
        assert run("rank", "--features", trained, "--manifest", manifest,
                   "--out", ranking) == 0
        report = tmp_path / "report.json"
        assert run("eval", "--ranking", ranking, "--manifest", manifest,
                   "--out", report) == 0
        scores = json.loads(report.read_text())
        assert 0.0 <= scores["mAP"] <= 1.0
        assert set(scores["cmc"]) == {"1", "5", "10"}
        assert "mAP=" in capsys.readouterr().out

        refined = tmp_path / "refined.json"
        assert run("refine", "--features", trained, "--manifest", manifest,
                   "--ranking", ranking, "--top-n", 4, "--sigma", "0.2",
                   "--out", refined) == 0
        refined_payload = json.loads(refined.read_text())
        assert len(refined_payload["queries"]) == 6

    def test_ncut_train_at_small_sigma_stays_finite(self, dataset, tmp_path):
        feats, manifest = dataset
        log = tmp_path / "train.log"
        # unshifted, exp(cos / 0.002) overflows the ncut loss's volume squared
        assert run("train", "--features", feats, "--manifest", manifest,
                   "--method", "ncut", "--sigma", "0.002", "--epochs", 2,
                   "--p", 3, "--k", 4, "--hidden-dim", 16, "--embed-dim", 8, "--log", log) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert all(math.isfinite(float(v)) for line in lines for v in line.split("\t"))

    def test_eval_perfect_top1(self, tmp_path, capsys):
        feats = tmp_path / "f.sfte"
        manifest = tmp_path / "m.tsv"
        # hugely separated blobs: raw features already rank perfectly
        run("gen", "--spec", "blobs", "--identities", 4, "--per-id", 6,
            "--dim", 8, "--seed", 3, "--spread", "0.01", "--separation", "50",
            "--query-per-id", 1, "--gallery-per-id", 3,
            "--out", feats, "--manifest", manifest)
        ranking = tmp_path / "r.json"
        run("rank", "--features", feats, "--manifest", manifest, "--out", ranking)
        assert run("eval", "--ranking", ranking, "--manifest", manifest) == 0
        out = capsys.readouterr().out
        assert "cmc1=1.000000" in out

    def test_refine_top_n_one_keeps_order(self, dataset, tmp_path):
        feats, manifest = dataset
        ranking = tmp_path / "r.json"
        run("rank", "--features", feats, "--manifest", manifest, "--out", ranking)
        refined = tmp_path / "r1.json"
        run("refine", "--features", feats, "--manifest", manifest,
            "--ranking", ranking, "--top-n", 1, "--sigma", "0.1", "--out", refined)
        before = json.loads(ranking.read_text())
        after = json.loads(refined.read_text())
        for b, a in zip(before["queries"], after["queries"]):
            assert [i["gallery_index"] for i in b["items"]] == \
                   [i["gallery_index"] for i in a["items"]]

    def test_transform_applies_spectral_mixing(self, dataset, tmp_path):
        feats, _ = dataset
        out = tmp_path / "mixed.sfte"
        assert run("transform", "--features", feats, "--sigma", "0.3", "--out", out) == 0
        original = load_features(feats)
        expected = sft_transform(original, 0.3)
        loaded = load_features(out)
        np.testing.assert_allclose(loaded.data, expected.data, rtol=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    def test_method_flag_sets_the_method(self, dataset, train_calls, method):
        feats, manifest = dataset
        assert run("train", "--features", feats, "--manifest", manifest, "--method", method,
                   "--epochs", 1, "--p", 3, "--k", 4, "--hidden-dim", 8, "--embed-dim", 4) == 0
        assert [cfg.method for _, _, cfg in train_calls] == [method]

    def test_config_file_override(self, dataset, tmp_path):
        feats, manifest = dataset
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 2\np = 3\nk = 2\nhidden_dim = 16\nembed_dim = 8\n")
        log = tmp_path / "log.tsv"
        assert run("train", "--features", feats, "--manifest", manifest,
                   "--config", cfg, "--log", log) == 0
        assert len(log.read_text().strip().split("\n")) == 2


class TestDiagnose:
    def test_prints_escape_and_residual(self, dataset, capsys):
        feats, manifest = dataset
        assert run("diagnose", "--features", feats, "--manifest", manifest,
                   "--sigma", "0.1") == 0
        out = capsys.readouterr().out
        assert out.count("escape_probability=") == 6
        match = re.search(r"max_ncut_identity_residual=([0-9.e+-]+)", out)
        assert match is not None
        assert float(match.group(1)) < 1e-12


    def test_small_sigma_stays_finite(self, dataset, capsys):
        feats, manifest = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on the way
            assert run("diagnose", "--features", feats, "--manifest", manifest,
                       "--sigma", "0.001") == 0
        out = capsys.readouterr().out
        escapes = [float(v) for v in re.findall(r"escape_probability=(\S+)", out)]
        assert len(escapes) == 6
        assert all(0.0 <= e <= 1.0 for e in escapes)
        match = re.search(r"max_ncut_identity_residual=([0-9.e+-]+)", out)
        assert float(match.group(1)) < 1e-12

    def test_nonpositive_sigma_rejected(self, dataset, capsys):
        feats, manifest = dataset
        assert run("diagnose", "--features", feats, "--manifest", manifest,
                   "--sigma", "0") == 1
        assert "sigma must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["transform", "diagnose"])
    def test_non_finite_sigma_rejected(self, dataset, tmp_path, capsys, command, sigma):
        feats, manifest = dataset
        out = tmp_path / "t.sfte"
        extra = ["--out", out] if command == "transform" else ["--manifest", manifest]
        assert run(command, "--features", feats, "--sigma", sigma, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sigma must be positive")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """A 1,200-row feature file and manifest: 40 identities x 30 samples."""
    path = tmp_path_factory.mktemp("graph")
    feats, manifest = path / "feats.sfte", path / "m.tsv"
    assert run("gen", "--spec", "blobs", "--identities", 40, "--per-id", 30, "--dim", 32,
               "--seed", 1, "--out", feats, "--manifest", manifest) == 0
    return feats, manifest


@pytest.mark.parametrize("command", ["diagnose", "transform"])
def test_graph_commands_hold_no_graph(graph_file, tmp_path, capsys, command):
    """diagnose and transform stream the graph in upper trapezoids of at
    most 2**18 cells, so each peaks below half of the 8 n^2 bytes that one
    n x n graph would take; the whole-graph code peaked at 1.37 (diagnose)
    and 1.09 (transform) graphs."""
    feats, manifest = graph_file
    n = load_features(feats).n
    assert n == 1200
    args = (["--manifest", manifest] if command == "diagnose"
            else ["--sigma", "0.1", "--out", tmp_path / "t.sfte"])
    tracemalloc.start()
    try:
        assert run(command, "--features", feats, *args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 0.5 * 8 * n * n, peak / (8 * n * n)


def test_diagnose_memory_is_one_tile_and_o_of_n_plus_classes(tmp_path, capsys):
    """diagnose at n = 4,000 with 200 identities traces under 10 MiB: one
    2 MiB tile, O(n) rows of features and per-row sums, and O(C)
    class sums.  Three n x C arrays of class sums took it to 24.7 MiB."""
    feats, manifest = tmp_path / "f.sfte", tmp_path / "m.tsv"
    assert run("gen", "--spec", "blobs", "--identities", 200, "--per-id", 20, "--dim", 32,
               "--seed", 1, "--out", feats, "--manifest", manifest) == 0
    tracemalloc.start()
    try:
        assert run("diagnose", "--features", feats, "--manifest", manifest, "--sigma", "0.1") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("escape_probability=") == 200
    assert peak < 10 * 2**20, peak / 2**20


@pytest.fixture(scope="module")
def workload_graph(tmp_path_factory):
    """The benchmark's 2,400-row graph set (whose bytes tests/test_data.py
    pins): 24 identities x 100 samples."""
    features, manifest = generate_synthetic(
        SyntheticSpec(24, 100, 32, intra_class_spread=0.3, topology="gaussian_blobs", seed=1))
    path = tmp_path_factory.mktemp("workload_graph")
    feats, records = path / "f.sfte", path / "m.tsv"
    save_features(features, feats)
    save_manifest(manifest, records)
    return feats, records


def test_graph_workload_bytes_are_pinned(workload_graph, tmp_path, capsys):
    """sha256 of `transform --sigma 0.1`'s file and of `diagnose --sigma
    0.1`'s stdout on the benchmark's 2,400-row graph set, as the
    whole-graph code wrote them: the tiles keep every bit where n is a
    multiple of 16, and the class run sums of the class-ordered nodes,
    which replaced the two n x n x C products, keep every printed digit.
    The diagnose digest was recorded again when the escape route took the
    cut into each class from column sums: its residual line moved from
    1.665335e-16 to 3.330669e-16, and no other line moved.  Building each
    pair once, in upper trapezoids, moved neither digest."""
    feats, records = workload_graph
    out = tmp_path / "t.sfte"
    assert run("transform", "--features", feats, "--sigma", "0.1", "--out", out) == 0
    capsys.readouterr()
    assert run("diagnose", "--features", feats, "--manifest", records, "--sigma", "0.1") == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b6767a9e2ee1f64872c3f827bb8ae9ebc6147192e85c33cb0dc10f87f0699cc7")
    assert hashlib.sha256(printed.encode()).hexdigest() == (
        "d3c7541f7425e6542f1ec0b5cf2b1e97204fc42288429780eee19a60ed6c16c1")


@pytest.fixture(scope="module")
def two_tile_graph(tmp_path_factory):
    """A 600-row feature file and manifest, 20 identities x 30 samples:
    a graph of two upper trapezoids."""
    path = tmp_path_factory.mktemp("two_tiles")
    feats, manifest = path / "feats.sfte", path / "m.tsv"
    assert run("gen", "--spec", "blobs", "--identities", 20, "--per-id", 30, "--dim", 32,
               "--seed", 2, "--out", feats, "--manifest", manifest) == 0
    return feats, manifest


@pytest.mark.parametrize("sigma, digest", [
    ("0.1", "6e62900fa980c75abbdb1b12fd83d0e5d0ac2945a70ada14c59f7aa522e39ab7"),
    ("0.5", "904b9f46fe2e3ae1f59dc862ae67813794f92c8d77119c611bd76078dbca5ff2"),
])
def test_two_tile_escape_and_ncut_lines_are_pinned(two_tile_graph, capsys, sigma, digest):
    """sha256 of diagnose's escape and ncut lines on a graph of two upper
    trapezoids, as written when the escape route divided every cell of a tile
    into transition rows before summing its class runs.  The residual line
    is left out: it compares two routes and may move in its last digits."""
    feats, manifest = two_tile_graph
    assert run("diagnose", "--features", feats, "--manifest", manifest, "--sigma", sigma) == 0
    *lines, residual = capsys.readouterr().out.splitlines()
    assert len(lines) == 20 and residual.startswith("max_ncut_identity_residual=")
    assert hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest() == digest


def test_graph_bytes_do_not_depend_on_blas_threads(workload_graph, tmp_path):
    """`transform` and `diagnose` on the benchmark's 2,400-row set write the
    same bytes on one and on two OpenBLAS threads: every product of a
    graph above 2**18 cells has multiple-of-16 shapes.  Each run is a child
    process, the only one whose environment sets the thread count."""
    feats, records = workload_graph
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = ("import sys; from sftlab.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"t{threads}.sfte"
        for argv in (["transform", "--features", feats, "--sigma", "0.1", "--out", out],
                     ["diagnose", "--features", feats, "--manifest", records, "--sigma", "0.1"]):
            done = subprocess.run([sys.executable, "-c", child, *map(str, argv)], capture_output=True,
                                  env=env, timeout=120, check=False)
            assert (done.returncode, done.stderr) == (0, b""), done.stderr
            payload = out.read_bytes() if argv[0] == "transform" else done.stdout
            digests[threads, argv[0]] = hashlib.sha256(payload).hexdigest()
    for command in ("transform", "diagnose"):
        assert digests["1", command] == digests["2", command], command


def test_whole_graphs_above_512_rows_do_not_depend_on_blas_threads():
    """`affinity` and the trainer's transition matrix at 601, 957 and 1,237
    rows x 32 dims, each one product of the zero-padded unit rows, keep
    their bytes on one and on two OpenBLAS threads.  Each run is a child
    process, the only one whose environment sets the thread count."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = ("import hashlib, numpy as np\n"
             "from sftlab.data import FeatureMatrix\n"
             "from sftlab.transform import _transition_from_features, affinity\n"
             "for n in (601, 957, 1237):\n"
             "    x = np.random.default_rng(n).normal(size=(n, 32))\n"
             "    for graph in (affinity(FeatureMatrix(x), 0.1), _transition_from_features(x, 0.1)[2]):\n"
             "        print(n, hashlib.sha256(graph.tobytes()).hexdigest())\n")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env,
                              timeout=120, check=False)
        assert (done.returncode, done.stderr) == (0, b""), done.stderr
        digests[threads] = done.stdout.decode().splitlines()
    assert len(digests["1"]) == 6 and digests["1"] == digests["2"]


@pytest.mark.parametrize("command", ["diagnose", "transform"])
def test_graph_command_memory_is_linear_in_rows(graph_file, workload_graph, tmp_path, capsys, command):
    """Doubling the rows from 1,200 to 2,400 at most doubles the traced peak
    of `diagnose` and `transform`, plus one 2**18-cell tile: only the
    O(n) rows and per-row sums grow with n, not an n x n array."""
    peaks = []
    for feats, manifest in (graph_file, workload_graph):
        args = (["--manifest", manifest] if command == "diagnose"
                else ["--out", tmp_path / "t.sfte"])
        tracemalloc.start()
        try:
            assert run(command, "--features", feats, "--sigma", "0.1", *args) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= 2 * peaks[0] + 8 * 2**18, peaks


def test_tiny_sigma_transform_writes_its_input_back(two_tile_graph, tmp_path):
    """At sigma 1e-300 every edge weight but a node's own underflows to 0,
    and its own is exp(0) = 1 as each self-cosine is exactly 1, so the
    transform writes its input back byte for byte, with no NaN row."""
    feats, _ = two_tile_graph
    out = tmp_path / "t.sfte"
    assert run("transform", "--features", feats, "--sigma=1e-300", "--out", out) == 0
    assert out.read_bytes() == Path(feats).read_bytes()


@pytest.mark.parametrize("sigma", ["5e-324", "1e-310", "1e-300", "1e300", "nan"])
@pytest.mark.parametrize("command", ["diagnose", "transform"])
def test_tiled_graph_edge_sigma_is_0_or_one_error_line(two_tile_graph, tmp_path, command, sigma):
    feats, manifest = two_tile_graph
    out = tmp_path / "t.sfte"
    extra = ["--manifest", manifest] if command == "diagnose" else ["--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = run(command, "--features", feats, f"--sigma={sigma}", *extra)
    err = stderr.getvalue().splitlines()
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, []) or (code == 1 and len(err) == 1 and err[0].startswith("error: ")), err


class TestErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("gen", "--bogus", 1, "--out", "x", "--manifest", "y")
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [["--mode", "shared"], ["--objective", "ncut"], ["--no-sft"]],
                             ids=["mode", "objective", "no_sft"])
    def test_method_is_the_only_variant_flag(self, flags):
        with pytest.raises(SystemExit) as err:
            run("train", "--features", "f.sfte", "--manifest", "m.tsv", *flags)
        assert err.value.code == 2

    @pytest.mark.parametrize("sigma,message", [
        ("nan", "sigma must be positive and finite, got nan"),
        ("0", "sigma must be positive and finite, got 0.0"),
        ("1e-309", "sigma 1e-309 too small: 2/sigma overflows float64"),
    ])
    def test_refine_bad_sigma_is_the_only_stderr_line(self, blobs, tmp_path, sigma, message):
        """refine names a bad sigma before --top-n's default 50 can warn that
        it clamps the 11-item lists.  The command runs in a child process, so
        stderr is what a user sees, logging's last-resort handler included."""
        (feats, manifest), ranking = blobs, tmp_path / "r.json"
        assert run("rank", "--features", feats, "--manifest", manifest, "--out", ranking) == 0
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-m", "sftlab", "refine", "--features", str(feats),
                               "--manifest", str(manifest), "--ranking", str(ranking),
                               "--sigma", sigma, "--out", str(tmp_path / "out.json")],
                              capture_output=True, text=True, env=env, check=False)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out.json").exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert run("rank", "--features", tmp_path / "none.sfte",
                   "--manifest", tmp_path / "none.tsv",
                   "--out", tmp_path / "r.json") == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_features_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.sfte"
        bad.write_bytes(b"not a feature file")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("sample_id\tidentity\tcamera\tsplit\na\t0\t0\ttrain\n")
        assert run("diagnose", "--features", bad, "--manifest", manifest) == 1
        assert "error:" in capsys.readouterr().err


    def test_arithmetic_error_exits_1(self, dataset, monkeypatch, tmp_path, capsys):
        feats, manifest = dataset
        ranking = tmp_path / "r.json"
        assert run("rank", "--features", feats, "--manifest", manifest, "--out", ranking) == 0

        def overflow(*_):  # e.g. a float overflow at a tiny sigma
            raise OverflowError("result too large")

        monkeypatch.setattr(cli, "evaluate", overflow)
        capsys.readouterr()
        assert run("eval", "--ranking", ranking, "--manifest", manifest) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError")
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["experiment", "train"])
    def test_tiny_sigma_affinities_are_finite(self, dataset, tmp_path, capsys, command):
        """At sigma 0.001, where exp(1/sigma) overflows float64, an ablation's
        held-out affinities and the diagnostics columns of a train log are
        finite means of exp((cos - 1) / sigma) <= 1, with no numpy warning."""
        feats, manifest = dataset
        out, log = tmp_path / "out", tmp_path / "train.log"
        if command == "experiment":
            args = ["--mode", "ablation", "--epochs", 2, "--seeds", 1, "--out-dir", out]
        else:
            config = tmp_path / "diagnostics.cfg"
            config.write_text("diagnostics = true\n")
            args = ["--features", feats, "--manifest", manifest, "--config", config,
                    "--epochs", 2, "--p", 3, "--k", 4, "--log", log]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--sigma", "0.001", *args) == 0
        assert capsys.readouterr().err == ""
        if command == "experiment":
            report = json.loads((out / "report.json").read_text())
            values = list(report["inter_affinity_median"].values()) + [
                row[key] for cell in ("baseline", "sft+ds_shared")
                for row in report["cells"][cell]["per_seed"] for key in ("intra_affinity", "inter_affinity")]
        else:
            values = [float(v) for line in log.read_text().splitlines() for v in line.split("\t")[4:6]]
        assert len(values) == (6 if command == "experiment" else 4)
        assert all(0.0 <= v <= 1.0 for v in values), values

    @pytest.mark.parametrize("command", ["transform", "diagnose", "train", "experiment"])
    def test_sigma_overflowing_two_over_sigma_named(self, dataset, tmp_path, capsys, train_calls,
                                                    command):
        """Below ~1.1e-308, 2 / sigma (the span of cos / sigma) overflows:
        every command that takes sigma names it in one line, with no numpy
        warning, no training and no output file."""
        feats, manifest = dataset
        log, trained, model = tmp_path / "log.tsv", tmp_path / "f.sfte", tmp_path / "model.json"
        outputs = {
            "transform": [tmp_path / "t.sfte"],
            "diagnose": [],
            "train": [log, trained, model],
            "experiment": [tmp_path / "out"],
        }[command]
        args = {
            "transform": ["--features", feats, "--out", tmp_path / "t.sfte"],
            "diagnose": ["--features", feats, "--manifest", manifest],
            "train": ["--features", feats, "--manifest", manifest, "--epochs", 1, "--p", 3,
                      "--k", 4, "--log", log, "--out-features", trained, "--out-model", model],
            "experiment": ["--mode", "ablation", "--epochs", 1, "--seeds", 1,
                           "--out-dir", tmp_path / "out"],
        }[command]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--sigma", "1e-309", *args) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: sigma 1e-309 too small: 2/sigma overflows float64"]
        assert captured.out == ""
        assert train_calls == []
        assert not any(path.exists() for path in outputs)

    def test_sigma_underflowing_the_ncut_volumes_named(self, tmp_path, capsys):
        """At sigma 1e-300 every shifted edge weight of some class, its
        diagonal too, underflows: the ncut loss names sigma in one line."""
        feats, manifest, log = tmp_path / "f.sfte", tmp_path / "m.tsv", tmp_path / "log.tsv"
        assert run("gen", "--spec", "blobs", "--identities", 6, "--per-id", 7, "--dim", 10,
                   "--seed", 5, "--query-per-id", 1, "--gallery-per-id", 2,
                   "--out", feats, "--manifest", manifest) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--features", feats, "--manifest", manifest, "--method", "ncut",
                       "--sigma", "1e-300", "--epochs", 1, "--p", 2, "--k", 2, "--log", log) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: sigma 1e-300 too small for the ncut loss: a class volume underflows float64"]
        assert captured.out == ""
        assert not log.exists()

    @pytest.mark.parametrize("args,message", [
        (["--mode", "sigma_sweep", "--sigma-values", "0.1,0"], "sigma must be positive and finite, got 0.0"),
        (["--mode", "k_sweep", "--k-values", "2,1"], "batches need p >= 2 identities and k >= 2 samples each"),
        (["--top-n", 0], "top_n must be >= 1, got 0"),
        (["--kr-k1", 3, "--kr-k2", 6], "need k1 > k2 >= 1, got k1=3, k2=6"),
        (["--kr-lambda", 2], "lambda must be in [0, 1], got 2.0"),
        (["--query-per-id", 0], "query_per_id must be >= 1, got 0"),
        (["--mode", "sigma_sweep", "--sigma-values", ""], "need at least one of sigma_values in sigma_sweep mode"),
        (["--mode", "k_sweep", "--k-values", ""], "need at least one of k_values in k_sweep mode"),
    ], ids=["sigma_values", "k_values", "top_n", "kr_k", "kr_lambda", "query_per_id",
            "empty_sigma_values", "empty_k_values"])
    def test_bad_experiment_value_rejected_before_training(self, tmp_path, capsys, train_calls,
                                                           args, message):
        """A value that the run would reject later fails when its config is
        built, with the message of the code that uses it."""
        out = tmp_path / "out"
        assert run("experiment", *args, "--epochs", 20, "--seeds", "1,2", "--out-dir", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert train_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("method = maybe", "unknown method 'maybe'"),
        ("p = 1", "batches need p >= 2 identities and k >= 2 samples each"),
    ])
    def test_config_value_failing_a_check_names_its_line(self, tmp_path, capsys, train_calls,
                                                          line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"epochs = 2\n{line}\n")
        out = tmp_path / "out"
        assert run("experiment", "--config", config, "--seeds", 1, "--out-dir", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config line 2: {message}"]
        assert train_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_negative_decay_epoch_is_one_error_line(self, blobs, tmp_path, capsys, train_calls, command):
        feats, manifest = blobs
        config = tmp_path / "decay.cfg"
        config.write_text("decay_epochs = -1\n")
        args = (["--features", feats, "--manifest", manifest] if command == "train"
                else ["--seeds", 1, "--out-dir", tmp_path / "out"])
        assert run(command, *args, "--config", config) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config line 1: counts must be non-negative"]
        assert train_calls == []

    def test_diverging_training_exits_1(self, dataset, tmp_path, capsys):
        feats, manifest = dataset
        log = tmp_path / "train.log"
        for method in ("sft+ds_shared", "ncut"):
            # the overflow on the way prints no warning: one error line only
            assert run("train", "--features", feats, "--manifest", manifest,
                       "--method", method, "--epochs", 3, "--p", 3, "--k", 4,
                       "--base-lr", "1e300", "--log", log) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: training diverged in epoch 1: [^\n]*\n", err), err
            assert not log.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_train_value_named(self, blobs, tmp_path, capsys, train_calls, value):
        """A non-finite float is a bad value, not a divergence: it is named
        before any training, by flag and by config line."""
        feats, manifest = blobs
        common = ["train", "--features", feats, "--manifest", manifest, "--p", 4, "--k", 2, "--epochs", 2]
        config = tmp_path / "train.cfg"
        config.write_text(f"deep_supervision_weight = {value}\n")
        shown = float(value)  # as the error prints it
        if value != "-inf":  # a negative base_lr is named by the positivity check
            assert run(*common, "--base-lr", value) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: base_lr must be finite, got {shown}"]
        assert run(*common, "--config", config) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config line 1: deep_supervision_weight must be finite, got {shown}"]
        assert train_calls == []

    @pytest.mark.parametrize("flag,field", [("--spread", "intra_class_spread"),
                                            ("--separation", "inter_class_separation")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_experiment_value_named(self, tmp_path, capsys, train_calls, flag, field, value):
        out = tmp_path / "out"
        assert run("experiment", flag, value, "--seeds", 1, "--out-dir", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {field} must be finite, got {float(value)}"]
        assert train_calls == []
        assert not out.exists()

    # RLIMIT_AS of the child: room for the interpreter, numpy and one BLAS
    # thread, far below any allocation sized by a hostile p, k, dimension or count
    CHILD_ADDRESS_SPACE = 512 << 20

    @pytest.mark.parametrize("argv,message", [
        (["train", "--p", "1000000000000", "--k", "2"],
         "error: need 1000000000000 train identities, manifest has 6"),
        (["train", "--p", "4", "--k", "1000000000"], "error: Unable to allocate "),
        (["train", "--p", "4", "--k", "2", "--hidden-dim", "100000000000"], "error: Unable to allocate "),
        (["gen", "--spec", "blobs", "--dim", "100000000000"], "error: Unable to allocate "),
        (["gen", "--spec", "blobs", "--identities", "1000000000000", "--per-id", "2", "--dim", "2"],
         "error: Unable to allocate "),
        (["gen", "--spec", "spirals", "--identities", "2", "--per-id", "1000000000000", "--dim", "2"],
         "error: Unable to allocate "),
        (["experiment", "--identities", "1000000000000", "--seeds", "1", "--epochs", "1"],
         "error: Unable to allocate "),
    ], ids=["huge_p", "huge_k", "huge_hidden_dim", "huge_gen_dim", "huge_gen_identities",
            "huge_gen_per_id", "huge_experiment_identities"])
    def test_huge_batch_is_one_error_line(self, blobs, tmp_path, argv, message):
        """A batch, model or dataset too large to allocate fails with one
        error line, in a child whose address space is capped, so the test
        touches little."""
        feats, manifest = blobs
        if argv[0] == "train":
            outputs = [tmp_path / "train.log"]
            argv = argv + ["--features", feats, "--manifest", manifest, "--epochs", 2, "--log", outputs[0]]
        elif argv[0] == "gen":
            outputs = [tmp_path / "gen.sfte", tmp_path / "gen.tsv"]
            argv = argv + ["--out", outputs[0], "--manifest", outputs[1]]
        else:
            outputs = [tmp_path / "report"]
            argv = argv + ["--out-dir", outputs[0]]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        child = ("import resource, sys; "
                 f"resource.setrlimit(resource.RLIMIT_AS, ({self.CHILD_ADDRESS_SPACE},) * 2); "
                 "from sftlab.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", child, *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60, check=False)
        assert (done.returncode, done.stdout) == (1, ""), done.stderr
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith(message), done.stderr
        assert not any(out.exists() for out in outputs)

    def test_bare_memory_error_is_named(self, monkeypatch, capsys):
        """Python's own MemoryError has no message; the line names its type."""
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_transform", out_of_memory)
        assert run("transform", "--features", "x.sfte", "--out", "y.sfte") == 1
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    @pytest.mark.parametrize("flag,field", [("--spread", "intra_class_spread"),
                                            ("--separation", "inter_class_separation")])
    @pytest.mark.parametrize("command,value", [("gen", "nan"), ("gen", "inf"), ("gen", "1e300"), ("gen", "1e308"),
                                               ("experiment", "1e300"), ("experiment", "1e308")])
    def test_bad_spread_is_one_error_line(self, tmp_path, capsys, train_calls, command, flag, field, value):
        """A non-finite spread or separation is named by field (for
        experiment, see test_non_finite_experiment_value_named); one that
        puts features beyond float32 range, or overflows float64 on the way,
        is named with the other, with no numpy warning."""
        out = tmp_path / "out"
        if command == "gen":
            args = ["--spec", "blobs", "--out", out, "--manifest", tmp_path / "m.tsv"]
        else:
            args = ["--seeds", 1, "--epochs", 2, "--out-dir", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, flag, value, *args) == 1
        err = capsys.readouterr().err.splitlines()
        if value.startswith("1e"):
            assert len(err) == 1 and re.fullmatch(
                r"error: intra_class_spread \S+ and inter_class_separation \S+ put features beyond float32 range",
                err[0]), err
            assert str(float(value)) in err[0]
        else:
            assert err == [f"error: {field} must be finite, got {float(value)}"]
        assert train_calls == []
        assert not out.exists() and not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("mode", exp.MODES)
    def test_diverging_experiment_exits_1(self, tmp_path, capsys, mode):
        """Every run of the lockstep call diverges; the error line is the
        first run's, as when the runs trained one at a time."""
        out = tmp_path / "out"
        assert run("experiment", "--mode", mode, "--identities", 6, "--train-per-id", 4,
                   "--query-per-id", 1, "--gallery-per-id", 3, "--seeds", "1,2", "--epochs", 3,
                   "--p", 3, "--k", 4, "--hidden-dim", 16, "--embed-dim", 8, "--top-n", 4,
                   "--kr-k1", 4, "--kr-k2", 2, "--sigma-values", "0.1,0.2", "--k-values", "2,4",
                   "--base-lr", "1e300", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged in epoch 1: [^\n]*\n", err), err
        assert not out.exists()


# edits that turn a `rank` output into a hostile ranking file (6 queries, 18 gallery rows)
def _set_first(key, value):
    def edit(payload):
        target = payload["queries"][0]
        if key != "query_index":
            target = target["items"][0]
        target[key] = value
        return payload
    return edit


def _drop_first_score(payload):
    del payload["queries"][0]["items"][0]["score"]
    return payload


def _repeat_first_gallery_index(payload):
    items = payload["queries"][0]["items"]
    items[1]["gallery_index"] = items[0]["gallery_index"]
    return payload


# edits that `load_ranking` rejects, naming the file
NOT_A_RANKING = {
    "gallery_index_1e30": _set_first("gallery_index", 10**30),
    "gallery_index_abc": _set_first("gallery_index", "abc"),
    "gallery_index_frac": lambda payload: _set_first(
        "gallery_index", payload["queries"][0]["items"][0]["gallery_index"] + 0.7)(payload),
    "gallery_index_true": _set_first("gallery_index", True),
    "query_index_frac": _set_first("query_index", 1.9),
    "missing_score": _drop_first_score,
    "null_score": _set_first("score", None),
    "nan_score": _set_first("score", math.nan),
    "infinite_score": _set_first("score", math.inf),
    "duplicate_gallery_index": _repeat_first_gallery_index,
    "query_index_1e30": _set_first("query_index", 10**30),
    "json_list": lambda payload: payload["queries"],
    "items_not_a_list": lambda payload: {"queries": [{"query_index": 0, "items": 3}]},
    # edits that return bytes replace the file's contents
    "invalid_json": lambda payload: b'{"queries": [}',
    "nested_100000_deep": lambda payload: b"[" * 100_000 + b"]" * 100_000,
    "not_utf8": lambda payload: json.dumps(payload).encode("utf-16"),
}
HOSTILE_RANKINGS = {
    **NOT_A_RANKING,
    "query_index_-1": _set_first("query_index", -1),
    "query_index_6": _set_first("query_index", 6),
    "gallery_index_-1": _set_first("gallery_index", -1),
    "gallery_index_1e6": _set_first("gallery_index", 10**6),
    "repeated_query": _set_first("query_index", 1),
    "missing_query": lambda payload: {"queries": payload["queries"][1:]},
}
# the whole error line of the edits whose message the package writes
HOSTILE_MESSAGES = {
    "nan_score": "{path} is not a ranking file (ValueError: ranking scores must be finite)",
    "infinite_score": "{path} is not a ranking file (ValueError: ranking scores must be finite)",
    "duplicate_gallery_index":
        "{path} is not a ranking file (ValueError: duplicate gallery index in ranking)",
    "query_index_-1": "query index -1 out of range for 6 queries",
    "query_index_6": "query index 6 out of range for 6 queries",
    "gallery_index_-1": "gallery index -1 out of range for 18 gallery rows",
    "gallery_index_1e6": "gallery index 1000000 out of range for 18 gallery rows",
    "repeated_query": "query index 1 listed twice",
    "missing_query": "ranking lists 5 of 6 queries",
}


class TestHostileRanking:
    @pytest.mark.parametrize("command", ["eval", "refine"])
    @pytest.mark.parametrize("edit", sorted(HOSTILE_RANKINGS))
    def test_exits_1_with_one_error_line(self, dataset, tmp_path, capsys, command, edit):
        feats, manifest = dataset
        ranking = tmp_path / "r.json"
        assert run("rank", "--features", feats, "--manifest", manifest, "--out", ranking) == 0
        edited = HOSTILE_RANKINGS[edit](json.loads(ranking.read_text()))
        ranking.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
        capsys.readouterr()
        out = tmp_path / "out.json"
        args = (["--features", feats, "--out", out] if command == "refine" else [])
        assert run(command, "--ranking", ranking, "--manifest", manifest, *args) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err)
        if edit in NOT_A_RANKING:
            assert err.startswith(f"error: {ranking} is not a ranking file (")
        if edit in HOSTILE_MESSAGES:
            assert err == f"error: {HOSTILE_MESSAGES[edit].format(path=ranking)}\n"
        assert not out.exists()


TRAIN_KINDS = {f.name: f.type for f in fields(TrainConfig)}


def flag_values(name):
    """(edge, in-range) strategies of a TrainConfig field's values, in its
    flag's type.  Edges are zero and negatives, and for a float field also
    nan, the infinities and the extremes of float64.  Sizes stay small
    (p*k <= 256, dims <= 64, epochs <= 3): huge ones are the capped child's
    cases."""
    if TRAIN_KINDS[name] == "float":
        return (st.sampled_from([0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf,
                                 5e-324, 1e-300, 1e300]), st.floats(1e-3, 10.0))
    low = 2 if name in ("p", "k") else 1
    return st.integers(-(1 << 63), low - 1), st.integers(low, {"p": 16, "k": 16, "epochs": 3}.get(name, 64))


FLAG_VALUES = {name: flag_values(name) for name in cli.TRAIN_FLAGS}


@st.composite
def train_flags(draw):
    """Trainer flags by field name: at most two at edge values, any others in range."""
    edged = draw(st.sets(st.sampled_from(cli.TRAIN_FLAGS), max_size=2))
    flags = draw(st.fixed_dictionaries({}, optional={
        name: values[1] for name, values in FLAG_VALUES.items() if name not in edged}))
    return flags | {name: draw(FLAG_VALUES[name][0]) for name in sorted(edged)}


# config lines for the TrainConfig fields that no flag sets: edge values and
# text that does not parse, by field type, and two lines together
CONFIG_EDGES = {"int": ["-1", "0", "100000000000000000000", "nan", "1e400", "3,,4", "maybe"],
                "tuple[int, ...]": ["-1", "100000000000000000000", "", "3,,4", "nan", "maybe"],
                "bool": ["maybe", "-1", "true", "FALSE"],
                "float": ["-1", "0", "1e20", "nan", "1e400", "3,,4"]}
CONFIG_ONLY = ("warmup_epochs", "decay_epochs", "grad_through_transition", "deep_supervision_weight",
               "diagnostics")
HOSTILE_CONFIGS = [f"{name} = {value}" for name in CONFIG_ONLY for value in CONFIG_EDGES[TRAIN_KINDS[name]]]
HOSTILE_CONFIGS += ["diagnostics = true\ndeep_supervision_weight = 1e20",
                    "warmup_epochs = 0\ndecay_epochs = 0,0"]


class TestHostileTrainFlags:
    """`train` on the 6-identity blob set and `experiment --seeds 1
    --epochs 2`, each with some trainer flags or config lines set to
    hostile values, exit 0 or exit 1 with one `error:` line, printing no
    warning."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("hostile_train")
        return out, gen_blobs(out)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    # one batch per epoch, so the last update, which no loss sees, overflows
    # the model: the embeddings were inf and nan, after two numpy warnings
    @example(command="train", flags={"base_lr": 1e300})
    @example(command="experiment", flags={"base_lr": 1e300, "p": 16, "k": 8})
    @given(command=st.sampled_from(["train", "experiment"]), flags=train_flags())
    def test_exit_0_or_one_error_line(self, files, command, flags):
        # "--flag=value", so that a value such as -inf is not read as a flag
        self.check(files, command, [f"--{name.replace('_', '-')}={value!r}" for name, value in flags.items()])

    def test_config_names_only_fields_without_a_flag(self):
        assert set(CONFIG_ONLY) == set(TRAIN_KINDS) - set(cli.TRAIN_FLAGS) - {"method", "seed"}

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("lines", HOSTILE_CONFIGS)
    def test_config_lines_exit_0_or_one_error_line(self, files, command, lines):
        config = files[0] / "hostile.cfg"
        config.write_text(lines + "\n")
        self.check(files, command, ["--config", config])

    @staticmethod
    def check(files, command, extra):
        out, (feats, manifest) = files
        if command == "train":
            argv = ["train", "--features", feats, "--manifest", manifest, "--p", 4, "--k", 4, "--epochs", 2,
                    "--log", out / "train.log", "--out-features", out / "emb.sfte", "--out-model", out / "model.json"]
        else:
            argv = ["experiment", "--seeds", 1, "--epochs", 2, "--out-dir", out / "report"]
        argv += extra
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = run(*argv)
        err = stderr.getvalue().splitlines()
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (0, []) or (code == 1 and len(err) == 1 and err[0].startswith("error: ")), err


# gen's size flags, and the edge and in-range values of its sizes, floats and seeds
GEN_SIZE_FLAGS = ("identities", "per-id", "dim", "cameras", "query-per-id", "gallery-per-id")
GEN_SIZES = st.sampled_from([-1, 0, 1, 2, 3, 5])
GEN_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 0.1, 1e300, 1e308])


class TestHostileGenFlags:
    """`gen` with hostile sizes, spreads, separations and seeds exits 0
    with finite features, or exits 1 with one `error:` line, printing no
    warning.  Sizes stay small: huge ones are the capped child's cases."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        return tmp_path_factory.mktemp("hostile_gen")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(spec="blobs", flags={"spread": 5e-324, "separation": 1e-300, "seed": 1 << 70})
    @example(spec="spirals", flags={"dim": 1, "separation": 1e308})
    @given(spec=st.sampled_from(["blobs", "spirals"]), flags=st.fixed_dictionaries({}, optional={
        **{name: GEN_SIZES for name in GEN_SIZE_FLAGS},
        "spread": GEN_FLOATS, "separation": GEN_FLOATS, "seed": st.sampled_from([-1, 0, 1 << 70])}))
    def test_exit_0_or_one_error_line(self, out, spec, flags):
        feats, manifest = out / "f.sfte", out / "m.tsv"
        feats.unlink(missing_ok=True)
        # "--flag=value", so that a value such as -inf is not read as a flag
        argv = ["gen", "--spec", spec, "--out", feats, "--manifest", manifest]
        argv += [f"--{name}={value!r}" for name, value in flags.items()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = run(*argv)
        err = stderr.getvalue().splitlines()
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert err == [] and np.isfinite(load_features(feats).data).all()
        else:
            assert code == 1 and len(err) == 1 and err[0].startswith("error: "), err
            assert not feats.exists()


# hostile values for the other subcommands: sigmas, top-n values, and
# JSON values past int64, float64 and Python's 4,300-digit int limit, or
# nested arrays, for a field of a ranking file
NESTED_JSON = ["[" * 64 + "]" * 64, "[" * 100_000 + "]" * 100_000]
JSON_INTS = ["-1", "-9223372036854775809", "9223372036854775807", "18446744073709551616",
             "1" + "0" * 400, "1" + "0" * 5000]
JSON_VALUES = {"queries": ["[]", "{}", "null"], "query_index": JSON_INTS, "gallery_index": JSON_INTS,
               "score": ["1e400", "-1e400", "1e-400", "NaN", "-Infinity", "1" + "0" * 400]}
# manifest edits by name, on the file's lines
MANIFEST_EDITS = {
    "huge_identity": lambda lines: [lines[0], lines[1].replace("\t0\t", "\t" + "9" * 30 + "\t", 1),
                                    *lines[2:]],
    "huge_camera": lambda lines: [lines[0], "\t".join(lines[1].split("\t")[:2] + ["9" * 30, "train"]),
                                  *lines[2:]],
    "blank_then_short_row": lambda lines: lines + ["", "extra\t0\t0"],
    "repeated_row": lambda lines: lines + lines[1:2],
    "header_only": lambda lines: lines[:1],
}


@st.composite
def ranking_edits(draw):
    """(field, value, how): a field's first value in a ranking file is
    replaced, or the field is repeated with the value before it (the
    file's value wins) or after it (the hostile one wins)."""
    field = draw(st.sampled_from(sorted(JSON_VALUES)))
    return field, draw(st.sampled_from(JSON_VALUES[field] + NESTED_JSON)), draw(
        st.sampled_from(["replace", "before", "after"]))


def edit_ranking(text, field, value, how):
    start = text.index(f'"{field}": ')
    end = re.compile(r'"[^"]*": [^,\n]*').match(text, start).end()
    duplicate = f'"{field}": {value}'
    return {"replace": text[:start] + duplicate + text[end:],
            "before": text[:start] + duplicate + ", " + text[start:],
            "after": text[:end] + ", " + duplicate + text[end:]}[how]


# each input's hostile values, and the value it takes when not hostile
# (None: the file as `rank` and `gen` wrote it)
SUBCOMMAND_INPUTS = {
    "sigma": (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300]), 0.1),
    "top_n": (st.sampled_from([-1, 0, 1, 10**12]), 5),
    "ranking": (ranking_edits(), None),
    "manifest": (st.sampled_from(sorted(MANIFEST_EDITS)), None),
}


@st.composite
def subcommand_inputs(draw):
    """Inputs by name: at most two hostile, the others as not."""
    hostile = draw(st.sets(st.sampled_from(sorted(SUBCOMMAND_INPUTS)), max_size=2))
    return {name: draw(values) if name in hostile else plain
            for name, (values, plain) in SUBCOMMAND_INPUTS.items()}


class TestHostileSubcommands:
    """`transform`, `diagnose`, `rank`, `eval` and `refine` on the
    6-identity blob set, with hostile sigmas, top-n values, ranking files
    and manifests, exit 0 or exit 1 with one `error:` line, print no
    warning and trace under 100 MB.  `refine` logs its one clamping line
    where top-n passes a list's length, as designed."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("hostile_subcommands")
        feats, manifest = gen_blobs(out)
        assert run("rank", "--features", feats, "--manifest", manifest, "--out", out / "rank.json") == 0
        # one parser for every case: built under tracemalloc, it took longer than the cases
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
            yield out, feats, manifest.read_text().splitlines(), (out / "rank.json").read_text()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @example(command="refine", inputs={"sigma": 1e-300, "top_n": 10**12, "ranking": None, "manifest": None})
    @example(command="refine", inputs={"sigma": 1e300, "top_n": 1, "ranking": None,
                                       "manifest": "huge_camera"})
    @example(command="eval", inputs={"sigma": 0.1, "top_n": 5, "ranking": ("score", "1e400", "after"),
                                     "manifest": "huge_identity"})
    @given(command=st.sampled_from(["transform", "diagnose", "rank", "eval", "refine"]),
           inputs=subcommand_inputs())
    def test_exit_0_or_one_error_line(self, files, command, inputs):
        out, feats, manifest_lines, ranking_text = files
        manifest, ranking, target = out / "m.tsv", out / "r.json", out / "out"
        if inputs["manifest"] is not None:
            manifest_lines = MANIFEST_EDITS[inputs["manifest"]](manifest_lines)
        manifest.write_text("\n".join(manifest_lines) + "\n")
        if inputs["ranking"] is not None:
            ranking_text = edit_ranking(ranking_text, *inputs["ranking"])
        ranking.write_text(ranking_text)
        target.unlink(missing_ok=True)
        # "--flag=value", so that a value such as -inf is not read as a flag
        values = {"features": feats, "manifest": manifest, "ranking": ranking,
                  "sigma": repr(inputs["sigma"]), "top-n": inputs["top_n"], "out": target}
        flags = {"transform": ("features", "sigma", "out"), "diagnose": ("features", "manifest", "sigma"),
                 "rank": ("features", "manifest", "out"), "eval": ("ranking", "manifest", "out"),
                 "refine": ("features", "manifest", "ranking", "top-n", "sigma", "out")}[command]
        logged = []
        handler = logging.Handler()
        handler.emit = logged.append
        logging.getLogger("sftlab").addHandler(handler)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                code = run(command, *[f"--{flag}={values[flag]}" for flag in flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            logging.getLogger("sftlab").removeHandler(handler)
        err = stderr.getvalue().splitlines()
        assert [str(w.message) for w in caught] == []
        assert peak < 100e6, peak
        if code == 0:
            assert err == [] and len(logged) <= 1
            assert all(command == "refine" and "clamping" in r.getMessage() for r in logged)
        else:
            assert code == 1 and len(err) == 1 and err[0].startswith("error: "), err
            assert logged == [] and not target.exists()


class TestExperimentCommand:
    def test_byte_identical_reports(self, tmp_path):
        args = ["experiment", "--identities", 6, "--train-per-id", 4,
                "--query-per-id", 1, "--gallery-per-id", 3,
                "--seeds", "1,2", "--epochs", 10, "--p", 3, "--k", 4,
                "--hidden-dim", 16, "--embed-dim", 8,
                "--top-n", 4, "--kr-k1", 4, "--kr-k2", 2]
        assert run(*args, "--out-dir", tmp_path / "run1") == 0
        assert run(*args, "--out-dir", tmp_path / "run2") == 0
        for name in ("report.json", "table.tsv"):
            assert (tmp_path / "run1" / name).read_bytes() == \
                   (tmp_path / "run2" / name).read_bytes()

    def test_sigma_sweep_mode(self, tmp_path):
        assert run("experiment", "--mode", "sigma_sweep",
                   "--identities", 6, "--train-per-id", 4,
                   "--query-per-id", 1, "--gallery-per-id", 3,
                   "--seeds", "1", "--epochs", 6, "--p", 3, "--k", 4,
                   "--hidden-dim", 16, "--embed-dim", 8,
                   "--sigma-values", "0.1,0.5",
                   "--out-dir", tmp_path / "sweep") == 0
        table = (tmp_path / "sweep" / "table.tsv").read_text()
        assert table.startswith("sigma\t")
        report = json.loads((tmp_path / "sweep" / "report.json").read_text())
        assert all(math.isfinite(r["median"]["map"]) for r in report["rows"])


EXPERIMENT_HELP = """\
usage: sftlab experiment [-h] [--mode {ablation,sigma_sweep,k_sweep}]
                         [--spec {blobs,gaussian_blobs,intertwined_spirals,spirals}]
                         [--identities IDENTITIES]
                         [--train-per-id TRAIN_PER_ID]
                         [--query-per-id QUERY_PER_ID]
                         [--gallery-per-id GALLERY_PER_ID] [--dim DIM]
                         [--cameras CAMERAS] [--spread SPREAD]
                         [--separation SEPARATION] [--seeds SEEDS]
                         [--sigma-values SIGMA_VALUES] [--k-values K_VALUES]
                         [--top-n TOP_N] [--kr-k1 KR_K1] [--kr-k2 KR_K2]
                         [--kr-lambda KR_LAMBDA] [--config CONFIG]
                         [--sigma SIGMA] [--epochs EPOCHS] [--p P] [--k K]
                         [--hidden-dim HIDDEN_DIM] [--embed-dim EMBED_DIM]
                         [--base-lr BASE_LR] --out-dir OUT_DIR

options:
  -h, --help            show this help message and exit
  --mode {ablation,sigma_sweep,k_sweep}
  --spec {blobs,gaussian_blobs,intertwined_spirals,spirals}
  --identities IDENTITIES
  --train-per-id TRAIN_PER_ID
  --query-per-id QUERY_PER_ID
  --gallery-per-id GALLERY_PER_ID
  --dim DIM
  --cameras CAMERAS
  --spread SPREAD
  --separation SEPARATION
  --seeds SEEDS
  --sigma-values SIGMA_VALUES
  --k-values K_VALUES
  --top-n TOP_N
  --kr-k1 KR_K1
  --kr-k2 KR_K2
  --kr-lambda KR_LAMBDA
  --config CONFIG       key = value file overriding the toy trainer profile
  --sigma SIGMA
  --epochs EPOCHS
  --p P
  --k K
  --hidden-dim HIDDEN_DIM
  --embed-dim EMBED_DIM
  --base-lr BASE_LR
  --out-dir OUT_DIR
"""

TRAIN_HELP = """\
usage: sftlab train [-h] --features FEATURES --manifest MANIFEST
                    [--config CONFIG] [--sigma SIGMA] [--epochs EPOCHS]
                    [--p P] [--k K] [--hidden-dim HIDDEN_DIM]
                    [--embed-dim EMBED_DIM] [--base-lr BASE_LR]
                    [--method {baseline,ncut,sft,sft+ds_shared,sft+ds_unshared}]
                    [--seed SEED] [--log LOG] [--out-features OUT_FEATURES]
                    [--out-model OUT_MODEL]

options:
  -h, --help            show this help message and exit
  --features FEATURES
  --manifest MANIFEST
  --config CONFIG       key = value file with TrainConfig fields
  --sigma SIGMA
  --epochs EPOCHS
  --p P
  --k K
  --hidden-dim HIDDEN_DIM
  --embed-dim EMBED_DIM
  --base-lr BASE_LR
  --method {baseline,ncut,sft,sft+ds_shared,sft+ds_unshared}
  --seed SEED
  --log LOG             write per-epoch training log (TSV)
  --out-features OUT_FEATURES
                        write trained embeddings of all rows
  --out-model OUT_MODEL
                        write model parameters as JSON
"""

GEN_HELP = """\
usage: sftlab gen [-h]
                  [--spec {blobs,gaussian_blobs,intertwined_spirals,spirals}]
                  [--identities IDENTITIES] [--per-id PER_ID] [--dim DIM]
                  [--cameras CAMERAS] [--spread SPREAD]
                  [--separation SEPARATION] [--query-per-id QUERY_PER_ID]
                  [--gallery-per-id GALLERY_PER_ID] [--seed SEED] --out OUT
                  --manifest MANIFEST

options:
  -h, --help            show this help message and exit
  --spec {blobs,gaussian_blobs,intertwined_spirals,spirals}
  --identities IDENTITIES
  --per-id PER_ID
  --dim DIM
  --cameras CAMERAS
  --spread SPREAD
  --separation SEPARATION
  --query-per-id QUERY_PER_ID
  --gallery-per-id GALLERY_PER_ID
  --seed SEED
  --out OUT
  --manifest MANIFEST
"""

TRANSFORM_HELP = """\
usage: sftlab transform [-h] --features FEATURES [--sigma SIGMA] --out OUT

options:
  -h, --help           show this help message and exit
  --features FEATURES
  --sigma SIGMA
  --out OUT
"""

RANK_HELP = """\
usage: sftlab rank [-h] --features FEATURES --manifest MANIFEST --out OUT

options:
  -h, --help           show this help message and exit
  --features FEATURES
  --manifest MANIFEST
  --out OUT
"""

EVAL_HELP = """\
usage: sftlab eval [-h] --ranking RANKING --manifest MANIFEST [--out OUT]

options:
  -h, --help           show this help message and exit
  --ranking RANKING
  --manifest MANIFEST
  --out OUT
"""

REFINE_HELP = """\
usage: sftlab refine [-h] --features FEATURES --manifest MANIFEST --ranking
                     RANKING [--top-n TOP_N] [--sigma SIGMA] --out OUT

options:
  -h, --help           show this help message and exit
  --features FEATURES
  --manifest MANIFEST
  --ranking RANKING
  --top-n TOP_N
  --sigma SIGMA
  --out OUT
"""

DIAGNOSE_HELP = """\
usage: sftlab diagnose [-h] --features FEATURES --manifest MANIFEST
                       [--sigma SIGMA]

options:
  -h, --help           show this help message and exit
  --features FEATURES
  --manifest MANIFEST
  --sigma SIGMA
"""

# one non-default value per ExperimentConfig field, and the flag that sets it
EXPERIMENT_FLAG_VALUES = {
    "mode": ("--mode", "k_sweep", "k_sweep"),
    "topology": ("--spec", "blobs", "gaussian_blobs"),
    "identities": ("--identities", "7", 7),
    "train_per_id": ("--train-per-id", "9", 9),
    "query_per_id": ("--query-per-id", "3", 3),
    "gallery_per_id": ("--gallery-per-id", "5", 5),
    "dim": ("--dim", "12", 12),
    "cameras": ("--cameras", "3", 3),
    "intra_class_spread": ("--spread", "0.25", 0.25),
    "inter_class_separation": ("--separation", "2.5", 2.5),
    "seeds": ("--seeds", "7,8", (7, 8)),
    "sigma_values": ("--sigma-values", "0.3,0.4", (0.3, 0.4)),
    "k_values": ("--k-values", "3,5", (3, 5)),
    "top_n": ("--top-n", "9", 9),
    "kr_k1": ("--kr-k1", "11", 11),
    "kr_k2": ("--kr-k2", "4", 4),
    "kr_lambda": ("--kr-lambda", "0.6", 0.6),
}


class TestExperimentFlags:
    @pytest.fixture()
    def built(self, monkeypatch, tmp_path):
        """Runs `sftlab experiment` with the given flags and returns the
        ExperimentConfig it builds, without running the experiment."""
        configs = []
        monkeypatch.setattr(exp, "run_experiment", lambda cfg: configs.append(cfg) or {})
        monkeypatch.setattr(exp, "write_report", lambda report, out_dir: None)

        def build(*flags):
            assert run("experiment", *flags, "--out-dir", tmp_path) == 0
            return configs.pop()
        return build

    def test_no_flags_give_the_dataclass_defaults(self, built):
        assert built() == exp.ExperimentConfig(train=exp.toy_train_config())

    def test_every_field_has_its_own_flag(self, built):
        names = {f.name for f in fields(exp.ExperimentConfig)} - {"train"}
        assert set(EXPERIMENT_FLAG_VALUES) == names
        base = exp.ExperimentConfig()
        for name, (flag, text, value) in EXPERIMENT_FLAG_VALUES.items():
            assert getattr(base, name) != value
            assert built(flag, text) == replace(base, **{name: value})

    def test_train_flags_override_the_toy_profile(self, built):
        cfg = built("--epochs", "3", "--base-lr", "0.5")
        assert cfg.train == exp.toy_train_config(epochs=3, base_lr=0.5)

    @pytest.mark.parametrize("command,text", [("experiment", EXPERIMENT_HELP),
                                              ("train", TRAIN_HELP),
                                              ("gen", GEN_HELP),
                                              ("transform", TRANSFORM_HELP),
                                              ("rank", RANK_HELP),
                                              ("eval", EVAL_HELP),
                                              ("refine", REFINE_HELP),
                                              ("diagnose", DIAGNOSE_HELP)])
    def test_help_text(self, monkeypatch, capsys, command, text):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            run(command, "--help")
        assert exit_.value.code == 0
        assert capsys.readouterr().out == text


def readme_cli_examples() -> list[str]:
    """Every `sftlab ...` command of the README's CLI section, with its
    backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("sftlab ")]


def test_readme_cli_examples_parse():
    """The examples use no stale flag, and each subcommand has one."""
    commands = set()
    for line in readme_cli_examples():
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"gen", "train", "transform", "rank", "eval", "refine", "diagnose", "experiment"}
