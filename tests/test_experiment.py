"""Monte-Carlo runner, config parsing, and result emission tests."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ckaf.cli import default_config_path
from ckaf.experiment import (
    RUN_BLOCK,
    AlgorithmConfig,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    LearningCurve,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_file,
    run_experiment,
)
from ckaf.channel import (
    ChannelConfig,
    EmbeddingConfig,
    SignalConfig,
    apply_channel,
    build_dataset,
    generate_input,
)
from ckaf.filters import (
    CklmsConfig,
    CklmsState,
    LinearLmsConfig,
    NoveltyConfig,
    cklms_step,
    nclms_step,
    new_linear_state,
    restore_state,
    run_filter,
    snapshot_state,
)
from ckaf.kernels import KernelSpec

CIRCULAR_RHO = 0.7071067811865476
SHIPPED_CONFIGS = [default_config_path()] + sorted(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "configs").glob("*.json")
)


def tiny_doc(**overrides):
    doc = {
        "name": "tiny",
        "signal": {"rho": 0.5, "n_samples": 60},
        "channel": {"noise_stddev": 0.1},
        "embedding": {"filter_length": 3, "delay": 1},
        "algorithms": [
            {"algorithm": "nclms", "mu": 0.1},
            {"algorithm": "cklms", "mu": 0.25, "sigma": 2.0, "delta1": 0.05},
        ],
        "mc_runs": 2,
        "master_seed": 99,
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    @pytest.mark.parametrize(
        "source", ["tiny", *SHIPPED_CONFIGS], ids=lambda s: getattr(s, "name", s)
    )
    def test_round_trip_through_dict(self, source):
        """config_to_dict and config_from_dict are inverse, also through JSON text."""
        configs = [config_from_dict(tiny_doc())] if source == "tiny" else load_config_file(source)
        for cfg in configs:
            assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_omitted_sections_take_dataclass_defaults(self):
        """channel and embedding are optional; signal is required."""
        doc = tiny_doc()
        del doc["channel"], doc["embedding"]
        cfg = config_from_dict(doc)
        assert cfg.channel == ChannelConfig()
        assert cfg.embedding == EmbeddingConfig()
        del doc["signal"]
        with pytest.raises(ConfigError, match=r"^experiment\.signal: missing required field$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", ["signal", "channel", "embedding"])
    @pytest.mark.parametrize("value", [3, [5], "abc"], ids=["number", "list", "string"])
    def test_non_object_section_rejected(self, section, value):
        """A section that is not a JSON object is a config error naming the section."""
        with pytest.raises(ConfigError, match=rf"^experiment\.{section}: must be an object$"):
            config_from_dict(tiny_doc(**{section: value}))

    def test_missing_field_names_path(self):
        """A missing required field is reported with its dotted path."""
        doc = tiny_doc()
        del doc["signal"]["rho"]
        with pytest.raises(ConfigError, match=r"experiment\.signal\.rho"):
            config_from_dict(doc)

    def test_bad_type_names_path(self):
        """A wrongly typed field is reported with its dotted path."""
        with pytest.raises(ConfigError, match=r"mc_runs"):
            config_from_dict(tiny_doc(mc_runs="many"))

    def test_unknown_field_rejected(self):
        """Unrecognized keys are reported rather than ignored."""
        with pytest.raises(ConfigError, match=r"experiment\.typo"):
            config_from_dict(tiny_doc(typo=1))
        for retired in ("n_workers", "moving_average"):
            with pytest.raises(ConfigError, match=rf"^experiment\.{retired}: unknown field$"):
                config_from_dict(tiny_doc(**{retired: 1}))
        doc = tiny_doc()
        doc["signal"]["sigma"] = 1.0
        with pytest.raises(ConfigError, match=r"experiment\.signal\.sigma"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value", [("mc_runs", True), ("mc_runs", 2.5), ("master_seed", 1.5)]
    )
    def test_non_integer_run_settings_refused_by_name(self, field, value):
        """``mc_runs=True`` would run one realization and ``2.5`` or ``master_seed=1.5`` fail
        only inside the run; the config refuses them, naming the field."""
        cfg = config_from_dict(tiny_doc())
        with pytest.raises(TypeError, match=rf"^{field} must be an int, got {value!r}$"):
            replace(cfg, **{field: value})
        assert getattr(replace(cfg, **{field: np.int64(3)}), field) == 3  # numpy ints are ints

    def test_domain_validation_names_path(self):
        """Value-range violations surface as config errors with the path."""
        doc = tiny_doc()
        doc["signal"]["rho"] = 1.5
        with pytest.raises(ConfigError, match=r"experiment\.signal"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="mc_runs"):
            config_from_dict(tiny_doc(mc_runs=0))
        with pytest.raises(ConfigError, match=r"^experiment: master_seed must be nonnegative$"):
            config_from_dict(tiny_doc(master_seed=-1))
        # the name becomes a file name under --out
        for name in ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"]:
            with pytest.raises(ConfigError, match=r"^experiment: name must be a plain file name"):
                config_from_dict(tiny_doc(name=name))
        # per-algorithm ranges fail when the config is built, not in run 0
        for index, setting, message in [
            (1, {"sigma": 0}, "sigma must be positive"),
            (1, {"kernel": "laplacian"}, "unknown kernel family"),
            (1, {"delta1": -0.1}, "delta1 must be nonnegative and finite, got -0.1"),
            (1, {"delta2": -0.1}, "delta2 must be nonnegative and finite, got -0.1"),
            (1, {"mu": 0}, "mu must be positive"),
            (0, {"mu": -1}, "mu must be positive"),
            (0, {"mu": math.inf}, "mu must be positive and finite, got inf"),
            (1, {"mu": math.inf}, "mu must be positive and finite, got inf"),
            (0, {"epsilon": -1e-6}, "epsilon must be nonnegative"),
            # a label heads a CSV column
            *[(0, {"label": label}, "label must be") for label in ["", "a,b", 'a"b', "a\nb", "a\rb"]],
        ]:
            doc = tiny_doc()
            doc["algorithms"][index].update(setting)
            with pytest.raises(ConfigError, match=rf"^experiment\.algorithms\[{index}\]: {message}"):
                config_from_dict(doc)
        doc = tiny_doc(name="run .. 1")
        doc["algorithms"][0]["label"] = "nclms mu=0.1 (a)"
        config_from_dict(doc)  # dots, spaces and other punctuation are fine

    def test_malformed_complex_pair_rejected(self):
        """Channel taps must be [real, imag] pairs."""
        doc = tiny_doc()
        doc["channel"]["linear_taps"] = [[1.0, 0.0], [0.5]]
        with pytest.raises(ConfigError, match=r"linear_taps\[1\]"):
            config_from_dict(doc)

    def test_algorithm_validation(self):
        """Unknown algorithm ids and duplicate labels are rejected."""
        doc = tiny_doc()
        doc["algorithms"][0]["algorithm"] = "rls"
        with pytest.raises(ConfigError, match=r"algorithms\[0\]"):
            config_from_dict(doc)
        doc = tiny_doc()
        doc["algorithms"] = [
            {"algorithm": "nclms", "mu": 0.1},
            {"algorithm": "nclms", "mu": 0.2},
        ]
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict(doc)

    def test_config_file_with_experiment_list(self, tmp_path):
        """A file may hold one experiment or an experiments list."""
        single = tmp_path / "one.json"
        single.write_text(json.dumps(tiny_doc()))
        assert [c.name for c in load_config_file(single)] == ["tiny"]
        multi = tmp_path / "two.json"
        multi.write_text(json.dumps({"experiments": [tiny_doc(), tiny_doc(name="other")]}))
        assert [c.name for c in load_config_file(multi)] == ["tiny", "other"]

    def test_duplicate_experiment_names_rejected(self, tmp_path):
        """Experiment names drive output filenames, so they must be unique."""
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"experiments": [tiny_doc(), tiny_doc()]}))
        with pytest.raises(ConfigError, match="unique"):
            load_config_file(path)

    def test_keys_beside_experiment_list_rejected(self, tmp_path):
        """A key next to "experiments" is refused, not silently ignored."""
        path = tmp_path / "stray.json"
        path.write_text(
            json.dumps({"experiments": [tiny_doc(mc_runs=1)], "mc_runs": 50, "typo": 1})
        )
        with pytest.raises(ConfigError, match=r"^mc_runs: unknown field$"):
            load_config_file(path)

    def test_invalid_json_rejected(self, tmp_path):
        """A file that is not JSON is a config error naming the file."""
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config_file(path)


class TestRunExperiment:
    def test_curve_length_matches_dataset(self):
        """10 samples at L = 5, D = 2 yield curves over 5 valid pairs."""
        cfg = ExperimentConfig(
            name="shape",
            signal=SignalConfig(rho=0.5, n_samples=10, seed=0),
            channel=ChannelConfig(noise_stddev=0.0, seed=0),
            embedding=EmbeddingConfig(filter_length=5, delay=2),
            algorithms=(AlgorithmConfig(algorithm="nclms", mu=0.1),),
            mc_runs=1,
            master_seed=7,
        )
        result = run_experiment(cfg)
        assert result.curves["nclms"].mse.shape == (5,)
        assert result.metadata["curve_length"] == 5

    def test_bitwise_determinism(self):
        """The same master seed reproduces every curve exactly."""
        cfg = config_from_dict(tiny_doc())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for label in a.curves:
            assert np.array_equal(a.curves[label].mse, b.curves[label].mse)

    def test_kernel_filter_converges_on_low_amplitude_noise_free_channel(self):
        """Sparsification off, no noise: final-segment MSE drops by >= 10 dB.

        The source amplitude is kept at 0.25 so the self-kernel stays near 1
        and the unit step size remains inside the kernel filter's stable
        range; see the README stability note.
        """
        cfg = ExperimentConfig(
            name="convergence",
            signal=SignalConfig(rho=CIRCULAR_RHO, n_samples=2000, seed=0, amplitude=0.25),
            channel=ChannelConfig(noise_stddev=0.0, seed=0),
            embedding=EmbeddingConfig(filter_length=5, delay=2),
            algorithms=(
                AlgorithmConfig(algorithm="cklms", mu=1.0, sigma=5.0, delta1=0.0, delta2=0.0),
            ),
            mc_runs=1,
            master_seed=424242,
        )
        curve = run_experiment(cfg).curves["cklms"]
        head = 10.0 * np.log10(np.mean(curve.mse[:200]))
        tail = 10.0 * np.log10(np.mean(curve.mse[-200:]))
        assert head - tail >= 10.0, f"improvement {head - tail:.2f} dB below 10 dB"

    def test_snr_metadata(self):
        """Measured SNR is reported for noisy runs and null without noise."""
        noisy = config_from_dict(
            tiny_doc(
                signal={"rho": CIRCULAR_RHO, "n_samples": 800},
                channel={"noise_stddev": 0.14},
                mc_runs=2,
            )
        )
        snr = run_experiment(noisy).metadata["measured_snr_db"]
        assert 14.0 < snr < 16.0, f"measured SNR {snr} dB out of expected band"
        clean = config_from_dict(tiny_doc(channel={"noise_stddev": 0.0}))
        assert run_experiment(clean).metadata["measured_snr_db"] is None

    def test_snr_is_the_one_of_a_noisy_and_a_noiseless_channel_call(self):
        """The measured SNR is the one of ``apply_channel`` with and without noise, summed
        over the runs in run order, to the last bit."""
        cfg = config_from_dict(tiny_doc(channel={"noise_stddev": 0.2}, mc_runs=3))
        signal_power = noise_power = 0.0
        for r in range(cfg.mc_runs):
            signal_seed, noise_seed = np.random.SeedSequence((cfg.master_seed, r)).generate_state(2)
            s = generate_input(replace(cfg.signal, seed=int(signal_seed)))
            channel = replace(cfg.channel, seed=int(noise_seed))
            received = apply_channel(s, channel)
            clean = apply_channel(s, replace(channel, noise_stddev=0.0))
            signal_power += float(np.mean(np.abs(clean) ** 2))
            noise_power += float(np.mean(np.abs(received - clean) ** 2))
        expected = float(10.0 * np.log10(signal_power / noise_power))
        assert run_experiment(cfg).metadata["measured_snr_db"] == expected

    def test_curves_average_independently_seeded_runs(self):
        """Each curve is the run-order mean of runs seeded from (master_seed, r).

        ``RUN_BLOCK + 1`` runs span two blocks, the second holding one run.
        """
        algorithms = tiny_doc()["algorithms"] + [{"algorithm": "wl_nclms", "mu": 0.1}]
        cfg = config_from_dict(
            tiny_doc(
                mc_runs=RUN_BLOCK + 1,
                signal={"rho": 0.5, "n_samples": 30},
                algorithms=algorithms,
            )
        )
        result = run_experiment(cfg)
        sums = {}
        for r in range(cfg.mc_runs):
            signal_seed, noise_seed = np.random.SeedSequence((cfg.master_seed, r)).generate_state(2)
            s = generate_input(replace(cfg.signal, seed=int(signal_seed)))
            received = apply_channel(s, replace(cfg.channel, seed=int(noise_seed)))
            dataset = build_dataset(received, s, cfg.embedding)
            samples = list(zip(dataset.inputs, dataset.targets))
            for alg in cfg.algorithms:
                run = run_filter(samples, alg.algorithm, alg.filter_config())
                sums[alg.label] = sums.get(alg.label, 0.0) + run.squared_errors()
        for label, total in sums.items():
            assert np.array_equal(result.curves[label].mse, total / cfg.mc_runs)

    def test_steady_state_db_is_acceptance_statistic(self):
        """steady_state_db is 10 log10 of the mean MSE over the last 500 iterations."""
        curve = LearningCurve("x", mse=np.linspace(1.0, 3.0, 1200) ** 2)
        assert curve.steady_state_db == 10.0 * np.log10(np.mean(curve.mse[-500:]))
        short = LearningCurve("x", mse=np.array([0.5, 2.0]))
        assert short.steady_state_db == pytest.approx(10.0 * np.log10(1.25), rel=1e-15)
        assert LearningCurve("x", mse=np.zeros(600)).steady_state_db == -120.0

    def test_run_errors_carry_run_index(self):
        """Failures inside a Monte-Carlo run name the run."""
        cfg = ExperimentConfig(
            name="short",
            signal=SignalConfig(rho=0.5, n_samples=6, seed=0),
            channel=ChannelConfig(noise_stddev=0.0, seed=0),
            embedding=EmbeddingConfig(filter_length=5, delay=2),
            algorithms=(AlgorithmConfig(algorithm="nclms", mu=0.1),),
            mc_runs=1,
            master_seed=1,
        )
        with pytest.raises(RuntimeError, match="run 0"):
            run_experiment(cfg)

    def test_overflowing_realization_names_the_first_algorithm_in_config_order(self):
        """Every algorithm runs over the block in config order; the first one reports the fault."""
        doc = tiny_doc(mc_runs=1)
        doc["signal"]["amplitude"] = 1e120  # the channel's polynomial overflows to inf
        with pytest.raises(RuntimeError, match=r"^run 0, algorithm nclms: step \d+: input vector"):
            run_experiment(config_from_dict(doc))

    def test_dictionary_metadata_collected(self):
        """Kernel-filter curves carry per-iteration and final dictionary sizes."""
        result = run_experiment(config_from_dict(tiny_doc()))
        curve = result.curves["cklms"]
        assert curve.final_dict_sizes.shape == (2,)
        assert np.all(np.diff(curve.dict_size_curve) >= 0)
        assert result.curves["nclms"].final_dict_sizes is None


class TestEmitResults:
    @pytest.fixture()
    def result(self):
        return run_experiment(config_from_dict(tiny_doc(mc_runs=1)))

    def test_csv_layout(self, result, tmp_path):
        """Header plus one row per iteration, one dB column per algorithm."""
        path = tmp_path / "out.csv"
        emit_results(result, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,nclms_mse_db,cklms_mse_db"
        assert len(lines) == 1 + result.metadata["curve_length"]
        assert lines[1].startswith("1,")

    def test_three_iterations_make_four_lines(self, tmp_path):
        """One algorithm over three samples emits a 4-line CSV."""
        cfg = ExperimentConfig(
            name="mini",
            signal=SignalConfig(rho=0.5, n_samples=3, seed=0),
            channel=ChannelConfig(noise_stddev=0.0, seed=0),
            embedding=EmbeddingConfig(filter_length=0, delay=0),
            algorithms=(AlgorithmConfig(algorithm="nclms", mu=0.1),),
            mc_runs=1,
            master_seed=3,
        )
        path = tmp_path / "mini.csv"
        emit_results(run_experiment(cfg), "csv", path)
        assert len(path.read_text().splitlines()) == 4

    def test_csv_values_parse_back(self, result, tmp_path):
        """CSV values match in-memory dB curves to 12 significant digits."""
        path = tmp_path / "out.csv"
        emit_results(result, "csv", path)
        lines = path.read_text().splitlines()
        labels = lines[0].split(",")[1:]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i + 1
            for label, cell in zip(labels, cells[1:]):
                expected = result.curves[label.removesuffix("_mse_db")].mse_db[i]
                assert float(cell) == pytest.approx(expected, rel=1e-12)

    def test_json_document_layout_and_round_trip(self, result, tmp_path):
        """JSON has the three documented top-level keys and re-emits identically."""
        path = tmp_path / "out.json"
        emit_results(result, "json", path)
        text = path.read_text()
        doc = json.loads(text)
        assert sorted(doc) == ["config", "curves", "metadata"]
        assert doc["config"]["name"] == "tiny"
        assert set(doc["curves"]) == {"nclms", "cklms"}
        assert "final_dict_sizes" in doc["curves"]["cklms"]
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text

    def test_renderings_equal_row_by_row_csv_and_json_dumps(self, tmp_path):
        """Both files equal, byte for byte, the CSV written one value at a time from the
        numpy curves and ``json.dumps`` of the document of Python floats and ints, with
        non-finite values, a negative zero, the smallest subnormal and a non-ASCII label."""
        doc = tiny_doc(mc_runs=3)
        doc["algorithms"][1]["label"] = "cklms σ=2"
        cfg = config_from_dict(doc)
        odd = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0, 1e300, 0.1])
        curves = {
            "nclms": LearningCurve("nclms", mse=np.abs(odd[::-1])),
            "cklms σ=2": LearningCurve(
                "cklms σ=2",
                mse=odd,
                dict_size_curve=odd[::-1].copy(),
                final_dict_sizes=np.array([5, 0, 4995], dtype=np.int64),
            ),
        }
        metadata = {"mc_runs": 3, "curve_length": 8, "measured_snr_db": None, "wall_clock_seconds": 0.25}
        result = ExperimentResult(config=cfg, curves=curves, metadata=metadata)

        emit_results(result, "csv", tmp_path / "out.csv")
        columns = [curve.mse_db for curve in curves.values()]
        lines = ["iteration," + ",".join(f"{label}_mse_db" for label in curves)]
        for i in range(len(odd)):
            lines.append(f"{i + 1}," + ",".join("%.12e" % column[i] for column in columns))
        assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

        emit_results(result, "json", tmp_path / "out.json")
        curves_doc = {}
        for label, curve in curves.items():
            entry = {"mse": [float(v) for v in curve.mse], "mse_db": [float(v) for v in curve.mse_db]}
            if curve.dict_size_curve is not None:
                entry["dict_size_curve"] = [float(v) for v in curve.dict_size_curve]
                entry["final_dict_sizes"] = [int(v) for v in curve.final_dict_sizes]
            curves_doc[label] = entry
        expected = {"config": config_to_dict(cfg), "curves": curves_doc, "metadata": metadata}
        text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "5e-324" in text
        assert (tmp_path / "out.json").read_bytes() == text.encode()

    def test_unknown_format_rejected(self, result, tmp_path):
        """Only csv and json are valid emission formats."""
        with pytest.raises(ValueError, match="format"):
            emit_results(result, "xml", tmp_path / "out.xml")

    def test_unwritable_path_raises_io_error(self, result, tmp_path):
        """Emitting into a missing directory raises an I/O error."""
        with pytest.raises(OSError):
            emit_results(result, "csv", tmp_path / "missing" / "out.csv")


ALGORITHM_CHOICES = ("cklms", "nclms", "wl_nclms")


@pytest.mark.parametrize(
    "refuse, prefix, name, value, choices",
    [
        (lambda path: KernelSpec("gaussian", 1.0), "", "kernel family", "gaussian",
         ("complex-gaussian", "real-gaussian", "linear")),
        (lambda path: AlgorithmConfig("klms", 0.1), "", "algorithm", "klms", ALGORITHM_CHOICES),
        (lambda path: run_filter([(np.array([0j]), 0j)], "klms", LinearLmsConfig(0.1)), "",
         "algorithm", "klms", ALGORITHM_CHOICES),
        (lambda path: emit_results(None, "xml", path), "", "output format", "xml", ("csv", "json")),
        (lambda path: restore_state({"algorithm": "klms"}), "snapshot.algorithm: ", "algorithm",
         "klms", ALGORITHM_CHOICES),
    ],
    ids=["KernelSpec", "AlgorithmConfig", "run_filter", "emit_results", "restore_state"],
)
def test_named_choices_are_refused_in_one_wording(refuse, prefix, name, value, choices, tmp_path):
    """Every refusal of a named choice names the setting, the value and the choices."""
    message = f"{prefix}unknown {name} {value!r}; expected one of {choices}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refuse(tmp_path / "out")
    assert not (tmp_path / "out").exists()


# settings as numpy scalars of several widths; their twins are the Python numbers they hold
NUMPY_SETTINGS = {
    "rho": np.float32(0.6), "n_samples": np.int32(90), "amplitude": np.float32(0.7),
    "noise_stddev": np.float32(0.05), "filter_length": np.int16(3), "delay": np.uint8(1),
    "mu": np.float32(0.3), "sigma": np.float32(2.0), "delta1": np.float32(0.05),
    "delta2": np.float16(0.01), "epsilon": np.float32(1e-3), "mc_runs": np.int64(2),
    "master_seed": np.uint32(7), "iteration": np.int64(4),
}


def test_numpy_scalar_settings_are_held_as_python_numbers(tmp_path):
    """Settings given as numpy scalars are held as the Python numbers they hold, so a config and
    a state built from them write the same CSV, JSON and snapshot bytes as their twins."""
    outputs = {}
    python_settings = {key: value.item() for key, value in NUMPY_SETTINGS.items()}
    for twin, v in (("numpy", NUMPY_SETTINGS), ("python", python_settings)):
        cfg = ExperimentConfig(
            name="twin",
            signal=SignalConfig(rho=v["rho"], n_samples=v["n_samples"], amplitude=v["amplitude"]),
            channel=ChannelConfig(noise_stddev=v["noise_stddev"]),
            embedding=EmbeddingConfig(filter_length=v["filter_length"], delay=v["delay"]),
            algorithms=(
                AlgorithmConfig(
                    "cklms", v["mu"], sigma=v["sigma"], delta1=v["delta1"], delta2=v["delta2"]
                ),
                AlgorithmConfig("wl_nclms", v["mu"], epsilon=v["epsilon"]),
            ),
            mc_runs=v["mc_runs"],
            master_seed=v["master_seed"],
        )
        result = run_experiment(cfg)
        emit_results(result, "csv", tmp_path / f"{twin}.csv")
        emit_results(result, "json", tmp_path / f"{twin}.json")
        text = (tmp_path / f"{twin}.json").read_text()
        novelty = NoveltyConfig(v["delta1"], v["delta2"])
        cklms_config = CklmsConfig(KernelSpec("complex-gaussian", v["sigma"]), v["mu"], novelty)
        cklms = CklmsState(cklms_config, iteration=v["iteration"])
        linear = new_linear_state(4, LinearLmsConfig(v["mu"], v["epsilon"]), widely_linear=True)
        data = np.random.default_rng(3)
        for z in 0.5 * (data.standard_normal((30, 4)) + 1j * data.standard_normal((30, 4))):
            cklms_step(cklms, z, complex(z[0] * z[1]))
            nclms_step(linear, z, complex(z[0] * z[1]))
        outputs[twin] = (
            (tmp_path / f"{twin}.csv").read_bytes(),
            re.sub(r'"wall_clock_seconds": [^\n]*', "", text),
            json.dumps(snapshot_state(cklms)),
            json.dumps(snapshot_state(linear)),
        )
        held = [cfg, cfg.signal, cfg.channel, cfg.embedding, *cfg.algorithms, cklms]
        held += [cklms_config, cklms_config.kernel, novelty, linear.config]
        for settings in held:
            values = [getattr(settings, name) for name in settings.__dataclass_fields__]
            assert not any(isinstance(value, np.generic) for value in values)
    assert outputs["numpy"] == outputs["python"]
    assert result.metadata["mc_runs"] == 2 and type(result.metadata["mc_runs"]) is int


def test_import_leaves_process_pools_unloaded():
    """``import ckaf`` stays lean: no concurrent.futures, no multiprocessing."""
    probe = (
        "import sys, ckaf; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_public_names_resolve_once():
    """Every name in ckaf.__all__ is defined on the package and listed once."""
    import ckaf

    assert len(ckaf.__all__) == len(set(ckaf.__all__))
    missing = [name for name in ckaf.__all__ if not hasattr(ckaf, name)]
    assert missing == []
