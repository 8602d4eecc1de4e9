"""Command-line interface tests on small configurations."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import ckaf.cli
import ckaf.wirtinger
from ckaf.cli import _RATIO_TOLERANCE, _first_order_ratio, default_config_path, main
from ckaf.experiment import load_config_file
from ckaf.kernels import real_gaussian
from ckaf.wirtinger import standard_battery

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


_numeric_gradient = ckaf.wirtinger.numeric_wirtinger_gradient


def _conj_off_by_ten_percent(func, z):
    """numeric_wirtinger_gradient with its conjugate R-derivative 10% too large."""
    g = _numeric_gradient(func, z)
    return g._replace(conj_r_derivative=1.1 * g.conj_r_derivative)


def _first_order_draws(seed):
    """The (func, z, h) triples that verify-wirtinger's first-order check takes at ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(25):  # the inner-product check draws its w and probe first
        rng.standard_normal(4 * int(rng.integers(1, 9)))
    return [
        (
            case.func,
            0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            1e-4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        )
        for case in standard_battery(4, rng=rng)
    ]


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
        ids=[
            "signal.amplitude=nan", "channel.noise_stddev=nan", "algorithms[0].delta1=nan",
            "algorithms[0].delta2=nan", "algorithms[1].epsilon=nan", "signal.amplitude=inf",
            "channel.noise_stddev=inf", "algorithms[0].sigma=inf", "algorithms[0].delta1=inf",
            "algorithms[0].delta2=inf", "algorithms[1].epsilon=inf",
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["linear_taps", "poly_coeffs"])
    def test_non_finite_channel_coefficient_exits_2_naming_its_field(
        self, capsys, tmp_path, field, value
    ):
        """A NaN or infinite channel coefficient, which would make every received sample
        non-finite, is refused at load with the entry's index, before any run."""
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["channel"][field] = [[0.5, -0.25], [0.0, value]]
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        message = f"experiment.channel: {field}[1] must be finite, got [0.0, {value}]"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_width_whose_square_is_not_a_normal_double_exits_2(self, capsys, tmp_path, sigma):
        """A width whose square overflows or is subnormal is refused at load, where it failed
        the first step with exit 1 (OverflowError, or float division by zero)."""
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["algorithms"][0]["sigma"] = sigma
        config = tmp_path / "wide.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        message = f"experiment.algorithms[0]: sigma must be at least 2**-511 and below 2**512, got {sigma}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "index, setting, message",
        [
            (1, {"kernel": "laplacian"}, "unknown kernel family 'laplacian'; expected one of "),
            (1, {"sigma": -1}, "sigma must be positive and finite, got -1"),
            (1, {"delta1": math.nan}, "delta1 must be nonnegative and finite, got nan"),
            (0, {"epsilon": -5}, "epsilon must be nonnegative and finite, got -5"),
        ],
        ids=["nclms-kernel", "nclms-sigma", "nclms-delta1", "cklms-epsilon"],
    )
    def test_setting_the_algorithm_does_not_use_exits_2(
        self, capsys, tmp_path, index, setting, message
    ):
        """Every setting of an entry is checked by the type that owns it, whatever the entry's
        algorithm: a kernel setting of an nclms entry and the epsilon of a cklms entry too."""
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["algorithms"][index].update(setting)
        config = tmp_path / "unused.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 2
        assert f"experiment.algorithms[{index}]: {message}" in capsys.readouterr().err
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

    def test_real_gaussian_cklms_runs_on_complex_data(self, tmp_path):
        """The complexified CKLMS, the real Gaussian on (Re z, Im z), runs over the default
        complex channel and writes its column."""
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["algorithms"].append(
            {"algorithm": "cklms", "mu": 0.5, "kernel": "real-gaussian", "label": "complexified"}
        )
        config = tmp_path / "complexified.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["equalize", "--config", str(config), "--out", str(out)]) == 0
        header, *rows = (out / "smoke.csv").read_text().splitlines()
        assert header == "iteration,cklms_mse_db,nclms_mse_db,complexified_mse_db"
        assert rows and all(math.isfinite(float(row.split(",")[3])) for row in rows)

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

    @pytest.mark.parametrize("seed", ["3", "115", "126", "129", "190"])
    def test_verify_wirtinger_passes_correct_gradients_at_large_residuals(self, capsys, seed):
        """At these seeds the first-order residual of correct gradients on the squared-error
        loss exceeds 1e-6 (1.329e-06 at seed 3), an absolute bound that failed them; the
        residual is second order, so halving h quarters it."""
        assert main(["verify-wirtinger", "--seed", seed]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_wirtinger_fails_a_conjugate_gradient_off_by_ten_percent(
        self, capsys, monkeypatch
    ):
        """A conjugate R-derivative 10% too large leaves a first-order residual, which halving
        h only halves: the first-order line fails and the command exits 1."""
        monkeypatch.setattr(ckaf.wirtinger, "numeric_wirtinger_gradient", _conj_off_by_ten_percent)
        assert main(["verify-wirtinger"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("FAIL first-order expansion: max residual ratio 0.50")
        assert "first-order expansion" in lines[-1]

    def test_first_order_ratio_separates_correct_from_wrong_gradients(self, monkeypatch):
        """On the first-order draws of every seed from 0 to 199, correct gradients read at most
        0.2501, and a conjugate R-derivative 10% off reads above the tolerance at each seed."""
        def worst(seed):
            return max(_first_order_ratio(*draw) for draw in _first_order_draws(seed))

        assert max(worst(seed) for seed in range(200)) <= 0.2501
        monkeypatch.setattr(ckaf.wirtinger, "numeric_wirtinger_gradient", _conj_off_by_ten_percent)
        assert min(worst(seed) for seed in range(200)) > _RATIO_TOLERANCE

    def test_readme_verify_examples_pass(self, capsys):
        """Every ``ckaf verify-*`` line of the README's "Benchmark harness" block exits 0."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Benchmark harness", 1)[1].split("```sh\n", 1)[1].split("```")[0]
        examples = [line for line in block.splitlines() if line.startswith("ckaf verify-")]
        assert examples
        for line in examples:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
            assert "FAIL" not in capsys.readouterr().out, line

    def test_verify_wirtinger_rejects_a_negative_seed(self, capsys):
        """A seed the random generator cannot take is a usage error, not a traceback."""
        assert main(["verify-wirtinger", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be nonnegative\n" and captured.out == ""

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

    def test_verify_kernel_fails_on_non_finite_values(self, capsys):
        """A width at which the complex Gaussian overflows on complex points (the Gram matrix
        holds inf) fails the checks it breaks, through the summary line and exit status 1,
        without a traceback or a NaN read as a pass. The real-input restriction, on real
        points whose kernel values only underflow, alike in both kernels, still passes."""
        failed = ["Hermitian symmetry", "Gram positive semidefinite", "distance symmetry"]
        assert main(["verify-kernel", "--sigma", "0.05"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail_lines = [line.split(":")[0] for line in lines if line.startswith("FAIL ")]
        assert fail_lines == [f"FAIL {name}" for name in failed]
        assert lines[-1] == f"{len(failed)} check(s) failed: {', '.join(failed)}"

    @pytest.mark.parametrize("sigma", ["0.2", "0.7", "3"])
    def test_verify_kernel_restriction_passes_where_the_kernels_agree(self, capsys, sigma):
        """The two kernels agree at every width: entries that underflow to 0.0 in both (at
        0.2) count as equal, not as 0/0, and the gap of exp(-a), which carries the rounding
        of a and so grows like a * eps (about 3e-14 relative at 0.7), is taken per unit of
        max(1, a)."""
        assert main(["verify-kernel", "--sigma", sigma]) == 0
        out = capsys.readouterr().out
        assert "PASS real-input restriction" in out and "FAIL" not in out

    @pytest.mark.parametrize("sigma", ["0.2", "5"])
    def test_verify_kernel_restriction_fails_on_a_perturbed_width(
        self, capsys, monkeypatch, sigma
    ):
        """A real kernel whose width is off by a relative 1e-9 fails the restriction check,
        and only it, with exit status 1."""
        monkeypatch.setattr(
            ckaf.cli, "real_gaussian", lambda width: real_gaussian(width * (1 + 1e-9))
        )
        assert main(["verify-kernel", "--sigma", sigma]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail_lines = [line.split(":")[0] for line in lines if line.startswith("FAIL ")]
        assert fail_lines == ["FAIL real-input restriction"]
        assert lines[-1] == "1 check(s) failed: real-input restriction"

    def test_verify_kernel_rejects_bad_flags(self, capsys):
        """Nonsensical verification parameters exit nonzero."""
        assert main(["verify-kernel", "--n-points", "1"]) == 2
        capsys.readouterr()
        for sigma in ("0", "nan", "inf", "-1"):
            assert main(["verify-kernel", "--sigma", sigma]) == 2
            message = f"error: --sigma: sigma must be positive and finite, got {float(sigma)}"
            assert message in capsys.readouterr().err
        for sigma in ("1e200", "1e-200"):  # OverflowError and ZeroDivisionError tracebacks before
            assert main(["verify-kernel", "--sigma", sigma]) == 2
            message = f"error: --sigma: sigma must be at least 2**-511 and below 2**512, got {float(sigma)}"
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
