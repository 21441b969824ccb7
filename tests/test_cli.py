import json
import math
import re
import warnings

import numpy as np
import pytest

from sftlab.cli import main
from sftlab.data import load_features, load_manifest
from sftlab.transform import sft_transform


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
        assert payload["normalize_output"] is True

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


class TestErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("gen", "--bogus", 1, "--out", "x", "--manifest", "y")
        assert err.value.code == 2

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


    def test_arithmetic_error_exits_1(self, dataset, capsys):
        feats, manifest = dataset
        # exp(cos / 0.002) overflows the ncut loss's volume squared
        assert run("train", "--features", feats, "--manifest", manifest,
                   "--objective", "ncut", "--sigma", "0.002", "--epochs", 1,
                   "--p", 3, "--k", 4, "--hidden-dim", 16, "--embed-dim", 8) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


    def test_diverging_training_exits_1(self, dataset, tmp_path, capsys):
        feats, manifest = dataset
        log = tmp_path / "train.log"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way
            assert run("train", "--features", feats, "--manifest", manifest,
                       "--epochs", 3, "--p", 3, "--k", 4, "--base-lr", "1e300",
                       "--log", log) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged in epoch")
        assert "Traceback" not in err
        assert not log.exists()


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
