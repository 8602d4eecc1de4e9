"""Command-line interface tests on small configurations."""

import json
import math

import pytest

from ckaf.cli import default_config_path, main
from ckaf.experiment import load_config_file

TINY_CONFIG = {
    "name": "smoke",
    "signal": {"rho": 0.5, "n_samples": 40},
    "channel": {"noise_stddev": 0.05},
    "embedding": {"filter_length": 2, "delay": 1},
    "algorithms": [
        {"algorithm": "cklms", "mu": 0.25, "sigma": 2.0, "delta1": 0.05, "delta2": 0.0},
        {"algorithm": "nclms", "mu": 0.1},
    ],
    "mc_runs": 2,
    "master_seed": 5,
}


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


class TestParser:
    def test_help_exits_zero(self, capsys):
        """--help prints usage and exits 0."""
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "equalize" in capsys.readouterr().out

    def test_missing_subcommand_exits_nonzero(self):
        """A subcommand is required."""
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_subcommand_help(self, capsys):
        """Each subcommand provides its own usage text."""
        for command in ("equalize", "verify-wirtinger", "verify-kernel"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert command in capsys.readouterr().out


class TestEqualize:
    def test_missing_config_file_names_path(self, capsys, tmp_path):
        """A nonexistent config path fails with a message naming it."""
        missing = tmp_path / "nope.json"
        assert main(["equalize", "--config", str(missing)]) != 0
        assert str(missing) in capsys.readouterr().err

    def test_malformed_config_names_field(self, capsys, tmp_path):
        """Config validation failures name the offending field."""
        bad = tmp_path / "bad.json"
        doc = dict(TINY_CONFIG, mc_runs=0)
        bad.write_text(json.dumps(doc))
        assert main(["equalize", "--config", str(bad)]) == 2
        assert "mc_runs" in capsys.readouterr().err

    def test_bad_algorithm_setting_fails_before_any_run(self, capsys, tmp_path):
        """A bad setting in a later experiment exits 2 before anything is written."""
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["name"] = "bad"
        bad["algorithms"][0]["sigma"] = 0
        config = tmp_path / "two.json"
        config.write_text(json.dumps({"experiments": [TINY_CONFIG, bad]}))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "experiments[1].algorithms[0]: sigma must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, field, message",
        [
            ("signal", "amplitude", "experiment.signal: amplitude must be finite, got nan"),
            (
                "channel",
                "noise_stddev",
                "experiment.channel: noise_stddev must be nonnegative and finite, got nan",
            ),
            (
                0,
                "delta1",
                "experiment.algorithms[0]: delta1 must be nonnegative and finite, got nan",
            ),
            (
                0,
                "delta2",
                "experiment.algorithms[0]: delta2 must be nonnegative and finite, got nan",
            ),
            (1, "epsilon", "experiment.algorithms[1]: epsilon must be nonnegative and finite, got nan"),
            ("signal", "amplitude", "experiment.signal: amplitude must be finite, got inf"),
            (
                "channel",
                "noise_stddev",
                "experiment.channel: noise_stddev must be nonnegative and finite, got inf",
            ),
            (0, "sigma", "experiment.algorithms[0]: sigma must be positive and finite, got inf"),
            (
                0,
                "delta1",
                "experiment.algorithms[0]: delta1 must be nonnegative and finite, got inf",
            ),
            (
                0,
                "delta2",
                "experiment.algorithms[0]: delta2 must be nonnegative and finite, got inf",
            ),
            (1, "epsilon", "experiment.algorithms[1]: epsilon must be nonnegative and finite, got inf"),
        ],
    )
    def test_nan_setting_exits_2_naming_its_path(self, capsys, tmp_path, section, field, message):
        """A NaN or infinite setting (JSON accepts the literals NaN and Infinity) is refused
        at load, before any run."""
        value = float(message[-3:])  # every message ends in the value: nan or inf
        doc = json.loads(json.dumps(TINY_CONFIG))
        target = doc["algorithms"][section] if isinstance(section, int) else doc[section]
        target[field] = value
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(doc))
        assert ("NaN" if math.isnan(value) else "Infinity") in config.read_text()
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("name", "../escaped", "experiment: name must be a plain file name"),
            ("label", "a,b", "experiment.algorithms[0]: label must be non-empty, with no comma"),
        ],
    )
    def test_name_or_label_that_breaks_the_output_exits_2(
        self, capsys, tmp_path, key, value, message
    ):
        """A name that leaves --out or a label that splits a CSV column is refused at load."""
        doc = json.loads(json.dumps(TINY_CONFIG))
        (doc if key == "name" else doc["algorithms"][0])[key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "escaped.csv").exists()

    def test_writes_csv_per_experiment(self, capsys, tiny_config_file, tmp_path):
        """A successful run writes <name>.csv into --out."""
        out = tmp_path / "results"
        code = main(["equalize", "--config", str(tiny_config_file), "--out", str(out)])
        assert code == 0
        written = out / "smoke.csv"
        assert written.is_file()
        header = written.read_text().splitlines()[0]
        assert header == "iteration,cklms_mse_db,nclms_mse_db"
        stdout = capsys.readouterr().out
        assert "steady-state MSE" in stdout

    def test_json_format(self, tiny_config_file, tmp_path):
        """--format json emits the JSON document instead."""
        out = tmp_path / "results"
        code = main(
            ["equalize", "--config", str(tiny_config_file), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads((out / "smoke.json").read_text())
        assert sorted(doc) == ["config", "curves", "metadata"]

    def test_out_dir_environment_override(self, tiny_config_file, tmp_path, monkeypatch):
        """Without --out, the output directory comes from the environment."""
        target = tmp_path / "from_env"
        monkeypatch.setenv("CKAF_OUT_DIR", str(target))
        assert main(["equalize", "--config", str(tiny_config_file)]) == 0
        assert (target / "smoke.csv").is_file()


class TestVerificationCommands:
    def test_verify_wirtinger_passes(self, capsys):
        """The gradient battery passes and prints one line per check."""
        assert main(["verify-wirtinger"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_verify_wirtinger_seed_flag(self, capsys):
        """A custom seed still passes."""
        assert main(["verify-wirtinger", "--seed", "123"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_kernel_passes(self, capsys):
        """Kernel checks pass at the default width."""
        assert main(["verify-kernel"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_verify_kernel_flags(self, capsys):
        """Point count and width are configurable."""
        assert main(["verify-kernel", "--n-points", "10", "--sigma", "1.0"]) == 0
        assert "PASS Gram positive semidefinite" in capsys.readouterr().out

    def test_verify_kernel_rejects_bad_flags(self, capsys):
        """Nonsensical verification parameters exit nonzero."""
        assert main(["verify-kernel", "--n-points", "1"]) == 2
        capsys.readouterr()
        for sigma in ("0", "nan", "inf", "-1"):
            assert main(["verify-kernel", "--sigma", sigma]) == 2
            message = f"error: --sigma: sigma must be positive and finite, got {float(sigma)}"
            assert message in capsys.readouterr().err


class TestBundledConfig:
    def test_bundled_config_is_installed(self):
        """The packaged benchmark config resolves to a real file."""
        assert default_config_path().is_file()

    def test_bundled_config_parameters(self):
        """The packaged benchmark pins the documented experiment parameters."""
        configs = load_config_file(default_config_path())
        assert [c.name for c in configs] == ["circular", "non_circular"]
        circular, non_circular = configs
        assert circular.signal.rho == pytest.approx(2.0**0.5 / 2.0)
        assert non_circular.signal.rho == 0.1
        for cfg in configs:
            assert cfg.signal.n_samples == 5000
            assert cfg.signal.amplitude == 0.7
            assert cfg.channel.noise_stddev == 0.14
            assert cfg.channel.linear_taps == (-0.9 + 0.8j, 0.6 - 0.7j)
            assert cfg.channel.poly_coeffs == (0.1 + 0.15j, 0.06 + 0.05j)
            assert cfg.embedding.filter_length == 5
            assert cfg.embedding.delay == 2
            assert cfg.mc_runs == 100
            algorithms = {a.algorithm: a for a in cfg.algorithms}
            assert set(algorithms) == {"cklms", "nclms", "wl_nclms"}
            assert algorithms["cklms"].mu == 1.0
            assert algorithms["cklms"].sigma == 5.0
            assert algorithms["cklms"].delta1 == 0.1
            assert algorithms["cklms"].delta2 == 0.2
            assert algorithms["nclms"].mu == 0.0625
            assert algorithms["wl_nclms"].mu == 0.0625
