import json
import re

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import cli


MIX_CONFIG = {
    "schema_version": 1,
    "model": {"K": 3, "n": 10, "loss": {"kind": "square_regression"}},
    "controls": {"restarts": 5, "seed": 0},
}


@pytest.fixture()
def mix_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MIX_CONFIG))
    data = tmp_path / "mix.csv"
    assert cli.main(["synth", "mixture_linreg", "--seed", "0",
                     "--out", str(data), "--quiet"]) == 0
    return cfg, data


class TestCanonicalJson:
    def test_round_trip_byte_identical(self):
        payload = {"b": [1.5, 2], "a": {"z": "text", "y": None}}
        once = cli.canonical_json(payload)
        again = cli.canonical_json(json.loads(once))
        assert once == again

    def test_numpy_values_serialize(self):
        out = cli.canonical_json({"v": np.float64(1.5), "n": np.int64(2),
                                  "arr": np.arange(3)})
        parsed = json.loads(out)
        assert parsed == {"v": 1.5, "n": 2, "arr": [0, 1, 2]}


class TestArgumentParsing:
    def test_jobs_defaults_to_one(self):
        # a process pool costs more than most fits; it is opt-in
        parser = cli._build_parser()
        fit_args = parser.parse_args(["fit", "--config", "c.json", "--data", "d.csv",
                                      "--out", "o.json"])
        repro_args = parser.parse_args(["repro", "mixture_linreg", "--out-dir", "out"])
        assert fit_args.jobs == 1
        assert repro_args.jobs == 1


class TestConfigParsing:
    def test_minimal(self):
        spec, _, opts = cli.parse_config(json.dumps(MIX_CONFIG))
        assert spec.K == 3 and spec.n == 10
        assert spec.controls.restarts == 5
        assert opts["ordered"] is False

    def test_unknown_top_key(self):
        bad = dict(MIX_CONFIG, extra=1)
        with pytest.raises(cli.CliInputError, match="config.extra"):
            cli.parse_config(json.dumps(bad))

    def test_unknown_model_key(self):
        bad = json.loads(json.dumps(MIX_CONFIG))
        bad["model"]["shape"] = 3
        with pytest.raises(cli.CliInputError, match="config.model.shape"):
            cli.parse_config(json.dumps(bad))

    def test_wrong_schema_version(self):
        bad = dict(MIX_CONFIG, schema_version=2)
        with pytest.raises(cli.CliInputError, match="schema_version"):
            cli.parse_config(json.dumps(bad))

    def test_missing_loss(self):
        bad = {"schema_version": 1, "model": {"K": 1, "n": 2}}
        with pytest.raises(cli.CliInputError, match="loss"):
            cli.parse_config(json.dumps(bad))

    def test_per_factor_losses(self):
        cfg = {
            "schema_version": 1,
            "model": {
                "K": 2, "n": 2,
                "losses": [{"kind": "huber", "delta": 0.5},
                           {"kind": "square_regression"}],
                "constraints_per_factor": [[{"kind": "nonneg"}], []],
            },
        }
        spec, _, _ = cli.parse_config(json.dumps(cfg))
        assert spec.loss_per_factor[0].delta == 0.5
        assert spec.constraints_per_factor[0][0].kind == "nonneg"
        assert spec.constraints_per_factor[1] == ()

    def test_regularizers_parsed(self):
        cfg = {
            "schema_version": 1,
            "model": {"K": 2, "n": 2, "loss": {"kind": "binary_logit"},
                      "p_regularizers": [{"kind": "group_l2", "weight": 0.5}],
                      "f_regularizers": [{"kind": "kl_chain", "weight": 1.0}]},
            "data": {"ordered": True},
        }
        spec, _, opts = cli.parse_config(json.dumps(cfg))
        assert spec.p_regularizers[0].weight == 0.5
        assert spec.f_regularizers[0].kind == "kl_chain"
        assert opts["ordered"] is True

    @pytest.mark.parametrize("edit, path", [
        (lambda c: c["model"].update(p_regularizers=[{"kind": "l1", "weight": "x"}]),
         "config.model.p_regularizers[0].weight"),
        (lambda c: c["model"].update(p_regularizers=[{"kind": "l1", "weight": None}]),
         "config.model.p_regularizers[0].weight"),
        (lambda c: c["model"].update(constraints=[{"kind": "box", "lo": "a", "hi": 1.0}]),
         "config.model.constraints[0].lo"),
        (lambda c: c["model"].update(constraints=[{"kind": "polyhedron", "A": [[1.0, 2.0], [3.0]],
                                                   "b": [1.0, 1.0]}]),
         "config.model.constraints[0].A"),
        (lambda c: c["model"].update(loss={"kind": "huber", "delta": "x"}),
         "config.model.loss.delta"),
        (lambda c: (c["model"].pop("loss"), c["model"].update(losses=5)),
         "config.model.losses"),
        (lambda c: c["controls"].update(max_iter="ten"),
         "config.controls.max_iter"),
        (lambda c: c["model"].update(p_regularizers=[{"kind": ["l1"], "weight": 1.0}]),
         "config.model.p_regularizers[0].kind"),
        # keys that another atom kind takes
        (lambda c: c["model"].update(constraints=[{"kind": "nonneg", "radius": 3}]),
         "config.model.constraints[0].radius"),
        (lambda c: c["model"].update(loss={"kind": "huber", "delta": 1, "order": 3}),
         "config.model.loss.order"),
        (lambda c: c["model"].update(constraints=[{"kind": "box", "lo": 0.0, "hi": 1.0,
                                                   "A": [[1.0] * 10]}]),
         "config.model.constraints[0].A"),
        (lambda c: c["model"].update(constraints=[{"kind": "norm_ball2"}]),
         "config.model.constraints[0].radius"),
    ], ids=["weight_str", "weight_null", "box_lo_str", "ragged_A", "delta_str", "losses_int",
            "max_iter_str", "kind_list", "nonneg_radius", "huber_order", "box_A",
            "ball_no_radius"])
    def test_mistyped_value_exits_2_names_path(self, tmp_path, capsys, edit, path):
        cfg = json.loads(json.dumps(MIX_CONFIG))
        edit(cfg)
        with pytest.raises(cli.CliInputError, match=re.escape(path)):
            cli.parse_config(json.dumps(cfg))
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["fit", "--config", str(cfg_path), "--data", str(tmp_path / "unread.csv"),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert path in capsys.readouterr().err

    def test_invalid_json_flagged(self):
        with pytest.raises(cli.CliInputError, match="valid JSON"):
            cli.parse_config("{nope")


class TestCsvRoundTrip:
    def test_vector_features(self, tmp_path):
        rng = np.random.default_rng(0)
        data = dk.dataset(rng.normal(size=(7, 3)), rng.normal(size=7))
        path = tmp_path / "d.csv"
        cli.write_csv_dataset(str(path), data)
        back = cli.load_csv_dataset(str(path), ordered=False)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.observations, data.observations)

    def test_matrix_features(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(5, 3, 4))
        obs = np.zeros((5, 3))
        obs[np.arange(5), rng.integers(0, 3, 5)] = 1.0
        data = dk.dataset(feats, obs, ordered=True)
        path = tmp_path / "d.csv"
        cli.write_csv_dataset(str(path), data)
        back = cli.load_csv_dataset(str(path), ordered=True)
        assert np.array_equal(back.features, feats)
        assert np.array_equal(back.observations, obs)
        assert back.ordered

    def test_rejects_mixed_feature_headers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x0_1,y\n1,2,3\n")
        with pytest.raises(cli.CliInputError, match="mix"):
            cli.load_csv_dataset(str(path), ordered=False)

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x2,y\n1,2,3\n")
        with pytest.raises(cli.CliInputError, match="missing"):
            cli.load_csv_dataset(str(path), ordered=False)

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,weight,y\n1,2,3\n")
        with pytest.raises(cli.CliInputError, match="unrecognized"):
            cli.load_csv_dataset(str(path), ordered=False)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\noops,3\n")
        with pytest.raises(cli.CliInputError, match="non-numeric"):
            cli.load_csv_dataset(str(path), ordered=False)


class TestSynth:
    def test_writes_truth_sidecars(self, tmp_path, mix_files):
        _, data = mix_files
        truth = data.with_name("mix.truth.csv")
        thetas = data.with_name("mix.thetas.csv")
        assert truth.exists() and thetas.exists()
        labels = np.loadtxt(truth, skiprows=1, dtype=int)
        assert labels.shape == (500,)
        assert set(np.unique(labels)) <= {1, 2, 3}

    def test_header_shape(self, mix_files):
        _, data = mix_files
        header = data.read_text().splitlines()[0]
        assert header == ",".join([f"x{i}" for i in range(10)] + ["y"])

    def test_reruns_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["synth", "io_hmm", "--seed", "4", "--out", str(a), "--quiet"])
        cli.main(["synth", "io_hmm", "--seed", "4", "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def test_end_to_end(self, tmp_path, mix_files, capsys):
        cfg, data = mix_files
        out = tmp_path / "run.json"
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--jobs", "1"])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["status"] == dk.GAP_CONVERGED
        assert len(rec["result"]["thetas"]) == 3
        assert len(rec["result"]["labels"]) == 500
        assert rec["dataset"]["fingerprint"]
        assert rec["timing"]["fit_s"] > 0

    def test_rerun_identical_result(self, tmp_path, mix_files):
        cfg, data = mix_files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli.main(["fit", "--config", str(cfg), "--data", str(data),
                  "--out", str(out1), "--jobs", "1", "--quiet"])
        cli.main(["fit", "--config", str(cfg), "--data", str(data),
                  "--out", str(out2), "--jobs", "1", "--quiet"])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["result"] == b["result"]

    def test_flag_overrides_config(self, tmp_path, mix_files):
        cfg, data = mix_files
        out = tmp_path / "run.json"
        cli.main(["fit", "--config", str(cfg), "--data", str(data),
                  "--out", str(out), "--restarts", "2", "--seed", "9",
                  "--jobs", "1", "--quiet"])
        rec = json.loads(out.read_text())
        assert rec["result"]["restart_index_of_best"] < 2
        assert rec["result"]["seed_used"] == dk.splitmix64(9, rec["result"]["restart_index_of_best"])

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["fit", "--config", str(tmp_path / "absent.json"),
                         "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_invalid_delta_exits_2_names_field(self, tmp_path, mix_files, capsys):
        _, data = mix_files
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "model": {"K": 3, "n": 10, "loss": {"kind": "huber", "delta": -1.0}},
        }))
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "delta" in err

    @pytest.mark.parametrize("column, cell, path", [
        ("x0", "nan", "data.features"),
        ("y", "inf", "data.observations"),
    ])
    def test_non_finite_cell_exits_2_names_field(self, tmp_path, mix_files, capsys,
                                                 column, cell, path):
        cfg, data = mix_files
        lines = data.read_text().splitlines()
        j = lines[0].split(",").index(column)
        row = lines[1].split(",")
        row[j] = cell
        lines[1] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["fit", "--config", str(cfg), "--data", str(bad),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert path in capsys.readouterr().err

    def test_bad_inner_control_exits_2_names_field(self, tmp_path, mix_files, capsys):
        _, data = mix_files
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(MIX_CONFIG, controls={"p_max_iter": 0})))
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "controls.p_max_iter" in capsys.readouterr().err

    def test_nan_literal_in_config_exits_2_names_field(self, tmp_path, mix_files, capsys):
        _, data = mix_files
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "model": {"K": 3, "n": 10, "loss": {"kind": "square_regression"},
                      "constraints": [{"kind": "box", "lo": float("nan"), "hi": 1.0}]},
        }))
        assert "NaN" in cfg.read_text()
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "constraints_per_factor[0][0].lo" in capsys.readouterr().err

    def test_unknown_key_exits_2_names_path(self, tmp_path, mix_files, capsys):
        _, data = mix_files
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "model": {"K": 1, "n": 10, "loss": {"kind": "square_regression"},
                      "mystery": True},
        }))
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "config.model.mystery" in capsys.readouterr().err


class TestReproCommand:
    def test_kmeans_artifacts(self, tmp_path):
        out = tmp_path / "km"
        code = cli.main(["repro", "constrained_kmeans", "--seed", "0",
                         "--out-dir", str(out), "--jobs", "1", "--quiet"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert max(metrics["margins_constrained"]) <= 1e-6
        assert min(metrics["margins_unconstrained"]) > 1e-3
        assert (out / "points.csv").exists()
        assert (out / "centers_constrained.csv").exists()

    def test_unknown_name_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["repro", "nope", "--out-dir", str(tmp_path)])
