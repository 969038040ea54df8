import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import cli, engine, experiments as ex


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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2_names_flag(self, tmp_path, mix_files, capsys, jobs):
        # rejected before any work: no record is written, no study is run
        cfg, data = mix_files
        out = tmp_path / "o.json"
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--jobs", jobs, "--quiet"])
        assert code == 2 and not out.exists()
        assert "--jobs" in capsys.readouterr().err
        out_dir = tmp_path / "study"
        code = cli.main(["repro", "io_hmm", "--out-dir", str(out_dir), "--jobs", jobs, "--quiet"])
        assert code == 2 and not out_dir.exists()
        assert "--jobs" in capsys.readouterr().err


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

    @pytest.mark.parametrize("rows, message", [
        ([[{"kind": "bogus"}]], "constraints_per_factor: need exactly K=3 lists"),
        ({"kind": "nonneg"}, "constraints_per_factor: must be a list"),
        ([[], {"kind": "nonneg"}, []], r"constraints_per_factor\[1\]: must be a list"),
    ], ids=["count_before_atoms", "not_a_list", "row_not_a_list"])
    def test_per_factor_constraints_first_error(self, rows, message):
        cfg = json.loads(json.dumps(MIX_CONFIG))
        cfg["model"]["constraints_per_factor"] = rows
        with pytest.raises(cli.CliInputError, match=message):
            cli.parse_config(json.dumps(cfg))

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

    def test_readme_config_fits(self, tmp_path, mix_files):
        # the README's config example, verbatim: l1 over nonneg factors and
        # a KL chain, which needs the data declared ordered
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"### Config schema \(version 1\)\n\n```json\n(.*?)```", readme, re.S).group(1)
        cfg, out = tmp_path / "readme.json", tmp_path / "run.json"
        cfg.write_text(block)
        _, data = mix_files
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out),
                         "--restarts", "1", "--max-iter", "5", "--jobs", "1", "--quiet"])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["config"] == json.loads(block) | {"controls": rec["config"]["controls"]}
        assert len(rec["result"]["thetas"]) == 3
        assert min(min(theta) for theta in rec["result"]["thetas"]) >= 0.0

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

    def test_matrix_features_with_kl_chain(self, tmp_path):
        # the forgetting study as a config: x{r}_{c} and y{r} columns, a KL
        # chain over the ordered rows, monotone per-factor constraints
        data = tmp_path / "forget.csv"
        assert cli.main(["synth", "forgetting_q", "--seed", "0", "--out", str(data), "--quiet"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "model": {
                "K": 2, "n": 5, "loss": {"kind": "multinomial_logit"},
                "constraints_per_factor": [
                    [{"kind": "nonneg"}, {"kind": "monotone_nonincreasing"}],
                    [{"kind": "nonpos"}, {"kind": "monotone_nondecreasing"}],
                ],
                "f_regularizers": [{"kind": "kl_chain", "weight": 1.0}],
            },
            "controls": {"restarts": 2, "seed": 0},
            "data": {"ordered": True},
        }))
        out = tmp_path / "run.json"
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--quiet"])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["status"] in (dk.GAP_CONVERGED, dk.OBJECTIVE_STALLED, dk.MAX_ITER)
        assert len(result["labels"]) == 200 and set(result["labels"]) <= {1, 2}
        assert np.allclose(np.sum(result["Z"], axis=1), 1.0)
        falling, rising = (np.array(t) for t in result["thetas"])
        assert falling.shape == rising.shape == (5,)
        assert falling.min() >= -1e-9 and np.diff(falling).max() <= 1e-9
        assert rising.max() <= 1e-9 and np.diff(rising).min() >= -1e-9
        finals = [v for _, after_p, after_f in result["objective_trace"] for v in (after_p, after_f)]
        assert all(b <= a + 1e-8 * max(1.0, abs(a)) for a, b in zip(finals, finals[1:]))

    def test_every_restart_failing_exits_3(self, tmp_path, mix_files, capsys, monkeypatch):
        def breaks_down(spec, data, restart):
            raise dk.SubsolverFailure(0, "empty feasible set")

        monkeypatch.setattr(engine, "_run_restart", breaks_down)
        cfg, data = mix_files
        out = tmp_path / "run.json"
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out),
                         "--restarts", "2", "--jobs", "1", "--quiet"])
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert err.startswith("error: solver failure: all 2 restarts failed: restart 0: SubsolverFailure")
        assert "restart 1: SubsolverFailure: factor 0: empty feasible set" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("bounds, field, name", [
        ('"lo": 0, "hi": Infinity', "hi", "Infinity"),
        ('"lo": -Infinity, "hi": 0', "lo", "-Infinity"),
        ('"lo": 0, "hi": 1e999', "hi", "Infinity"),
    ])
    def test_infinite_literal_in_config_exits_2_before_the_fit(self, tmp_path, mix_files, capsys,
                                                                monkeypatch, bounds, field, name):
        # a valid box whose bound the run record could not echo as JSON
        _, data = mix_files
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"schema_version": 1, "model": {"K": 3, "n": 10, '
                       '"loss": {"kind": "square_regression"}, '
                       '"constraints": [{"kind": "box", %s}]}}' % bounds)
        monkeypatch.setattr(cli.engine, "fit", lambda *args, **kw: pytest.fail("the fit ran"))
        out = tmp_path / "o.json"
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config.model.constraints[0].{field}: {name} is not a finite number" in err
        assert not out.exists()

    def test_box_empty_at_infinity_exits_2_names_atom(self, tmp_path, mix_files, capsys):
        _, data = mix_files
        lo, hi = [0.0] * 10, [1.0] * 10
        lo[3] = hi[3] = float("-inf")
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(MIX_CONFIG, model=dict(
            MIX_CONFIG["model"], constraints=[{"kind": "box", "lo": lo, "hi": hi}]))))
        code = cli.main(["fit", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "constraints_per_factor[0][0]" in capsys.readouterr().err

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

    @pytest.fixture()
    def one_restart(self, monkeypatch):
        # the study drivers at one restart each; the artifacts keep their shapes
        for driver in ("run_mixture_linreg", "run_forgetting_q", "run_io_hmm"):
            monkeypatch.setattr(cli.experiments, driver,
                                functools.partial(getattr(ex, driver), restarts=1))

    @pytest.mark.parametrize("name, files, keys", [
        ("mixture_linreg",
         {"labels.csv": ("t,truth,pred_fit", 500),
          "thetas_recovered.csv": ("factor," + ",".join(f"theta{c}" for c in range(10)), 3),
          "thetas_true.csv": ("factor," + ",".join(f"theta{c}" for c in range(10)), 3)},
         {"accuracy", "rmse_per_factor", "objective", "status", "iterations"}),
        ("forgetting_q",
         {"labels.csv": ("t,truth,pred_lam0,pred_lam1", 200),
          "thetas_recovered.csv": ("factor," + ",".join(f"theta{c}" for c in range(5)), 2),
          "thetas_true.csv": ("factor," + ",".join(f"theta{c}" for c in range(5)), 2)},
         {"runs"}),
        ("io_hmm",
         {"labels.csv": ("t,truth,pred_fit", 500),
          "thetas_recovered.csv": ("factor,theta0,theta1", 3),
          "transition.csv": ("to1,to2,to3", 3)},
         {"accuracy", "transition", "max_deviation", "objective", "status", "iterations"}),
    ])
    def test_study_artifacts(self, tmp_path, one_restart, name, files, keys):
        out = tmp_path / name
        code = cli.main(["repro", name, "--seed", "13", "--out-dir", str(out), "--quiet"])
        assert code == 0
        assert {p.name for p in out.iterdir()} == {*files, "metrics.json"}
        for filename, (header, rows) in files.items():
            lines = (out / filename).read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + rows
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"experiment", "seed", "tool", "wall_s", *keys}
        assert metrics["experiment"] == name and metrics["seed"] == 13
        if name == "forgetting_q":
            assert [run["lam"] for run in metrics["runs"]] == [0.0, 1.0]
            for run in metrics["runs"]:
                assert set(run) == {"lam", "accuracy", "objective", "status", "iterations"}
