"""End-to-end acceptance suite.

Each test covers one release criterion at its pinned tolerance and prints a
single ``ACCEPTANCE <n> <name>: PASS/FAIL (detail)`` line with the measured
values. The equalization criteria run the full bundled benchmark (100
Monte-Carlo runs of 5000 samples), so this module takes a few minutes.

Known state: criteria 5 and 6 fail. With the bundled benchmark parameters
(unit step size, kernel width 5, source amplitude 0.70) the kernel filter's
unnormalized update is unstable, because the complex Gaussian self-kernel
kappa(z, z) >= 1 amplifies the effective step on every sample with
significant imaginary parts. The learning curves diverge instead of beating
the linear baselines; the measured values are printed by the tests and the
stability analysis is documented in the README. The tests implement the
criteria as stated rather than masking the behavior.
"""

import time

import numpy as np
import pytest

from ckaf.cli import default_config_path
from ckaf.experiment import emit_results, load_config_file, run_experiment
from ckaf.filters import CklmsConfig, run_filter
from ckaf.kernels import (
    complex_gaussian,
    eval_complex_gaussian,
    eval_real_gaussian,
    gram,
    is_positive_semidefinite,
    linear_kernel,
    real_gaussian,
)
from ckaf.wirtinger import (
    analytic_squared_error_gradients,
    check_inner_product_gradients,
    check_steepest_ascent,
    check_taylor_first_order,
    numeric_wirtinger_gradient,
    squared_error_loss,
    standard_battery,
)
from ckaf.channel import apply_channel, build_dataset, generate_input
from dataclasses import replace


def report(number: int, name: str, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def steady_state_db(curve) -> float:
    return float(10.0 * np.log10(np.mean(curve.mse[-500:])))


@pytest.fixture(scope="module")
def bundled_configs():
    return load_config_file(default_config_path())


@pytest.fixture(scope="module")
def circular_result(bundled_configs):
    return run_experiment(bundled_configs[0])


@pytest.fixture(scope="module")
def non_circular_result(bundled_configs):
    return run_experiment(bundled_configs[1])


def test_criterion_1_loss_gradient():
    """Numeric conjugate gradient of the squared-error loss matches -conj(e) phi."""
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        _, _, conj_expected = analytic_squared_error_gradients(phi, d, w)
        numeric = numeric_wirtinger_gradient(squared_error_loss(phi, d), w)
        rel = float(
            np.linalg.norm(numeric.conj_r_derivative - conj_expected)
            / np.linalg.norm(conj_expected)
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-6 and elapsed < 5.0
    line = report(
        1, "loss-gradient", passed,
        f"max relative deviation {worst:.3e} over 100 instances, {elapsed:.2f} s",
    )
    assert passed, line


def test_criterion_2_gradient_battery():
    """Inner-product gradients, first-order expansions, and steepest ascent."""
    started = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_inner = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        worst_inner = max(worst_inner, check_inner_product_gradients(w, probe))
    worst_taylor = 0.0
    for case in standard_battery(4, rng=rng):
        for _ in range(5):
            z = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            h = 1e-4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            worst_taylor = max(worst_taylor, check_taylor_first_order(case.func, z, h))
    ascent_successes = 0
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if check_steepest_ascent(squared_error_loss(phi, d), w, rng=rng):
            ascent_successes += 1
    elapsed = time.perf_counter() - started
    passed = (
        worst_inner <= 1e-6 and worst_taylor <= 1e-6 and ascent_successes == 50
        and elapsed < 10.0
    )
    line = report(
        2, "gradient-battery", passed,
        f"inner-product {worst_inner:.3e}, first-order {worst_taylor:.3e}, "
        f"ascent {ascent_successes}/50, {elapsed:.2f} s",
    )
    assert passed, line


def test_criterion_3_kernel_validity():
    """Gram matrices are Hermitian PSD; real restriction matches to 1e-14."""
    started = time.perf_counter()
    rng = np.random.default_rng(30)
    worst_eig_margin = np.inf
    for sigma in (1.0, 5.0):
        spec = complex_gaussian(sigma)
        points = 0.5 * (rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6)))
        matrix = gram(points, spec)
        assert np.allclose(matrix, matrix.conj().T, rtol=0, atol=1e-12)
        if not is_positive_semidefinite(matrix, tol=1e-10):
            worst_eig_margin = -np.inf
        min_eig = float(np.min(np.linalg.eigvalsh(matrix)))
        bound = -1e-10 * (1.0 + abs(float(np.trace(matrix).real)))
        worst_eig_margin = min(worst_eig_margin, min_eig - bound)
    real_points = rng.standard_normal((50, 6))
    spec5, rspec5 = complex_gaussian(5.0), real_gaussian(5.0)
    worst_restriction = 0.0
    for i in range(50):
        for j in range(50):
            complex_val = eval_complex_gaussian(real_points[i], real_points[j], spec5)
            real_val = eval_real_gaussian(real_points[i], real_points[j], rspec5)
            worst_restriction = max(worst_restriction, abs(complex_val - real_val) / real_val)
    elapsed = time.perf_counter() - started
    passed = worst_eig_margin >= 0.0 and worst_restriction <= 1e-14 and elapsed < 5.0
    line = report(
        3, "kernel-validity", passed,
        f"eigenvalue margin {worst_eig_margin:.3e}, restriction gap "
        f"{worst_restriction:.3e}, {elapsed:.2f} s",
    )
    assert passed, line


def test_criterion_4_linear_kernel_equivalence():
    """Kernel-trick predictions reproduce explicit-weight complex LMS."""
    started = time.perf_counter()
    rng = np.random.default_rng(40)
    dim, mu = 4, 0.2
    z = 0.5 * (rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim)))
    d = 0.5 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    samples = list(zip(z, d))
    w = np.zeros(dim, dtype=np.complex128)
    reference = []
    for zi, di in samples:
        pred = np.vdot(w, zi)
        err = di - pred
        w = w + mu * np.conj(err) * zi
        reference.append(pred)
    run = run_filter(samples, "cklms", CklmsConfig(kernel=linear_kernel(), mu=mu))
    worst = 0.0
    for record, expected in zip(run.records, reference):
        scale = max(abs(expected), 1.0)
        worst = max(worst, abs(record.prediction - expected) / scale)
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-10 and elapsed < 5.0
    line = report(
        4, "linear-kernel-equivalence", passed,
        f"max relative prediction gap {worst:.3e} over 200 samples, {elapsed:.2f} s",
    )
    assert passed, line


@pytest.mark.slow
def test_criterion_5_circular_benchmark(circular_result):
    """Kernel filter beats both linear baselines by >= 2 dB on circular input."""
    curves = circular_result.curves
    cklms = steady_state_db(curves["cklms"])
    nclms = steady_state_db(curves["nclms"])
    wl = steady_state_db(curves["wl_nclms"])
    margin_nclms = nclms - cklms
    margin_wl = wl - cklms
    wall = circular_result.metadata["wall_clock_seconds"]
    passed = margin_nclms >= 2.0 and margin_wl >= 2.0
    line = report(
        5, "circular-benchmark", passed,
        f"steady-state dB cklms {cklms:+.2f}, nclms {nclms:+.2f}, wl_nclms {wl:+.2f}; "
        f"margins {margin_nclms:+.2f}/{margin_wl:+.2f} dB (need >= 2), {wall:.0f} s",
    )
    assert passed, line


@pytest.mark.slow
def test_criterion_6_non_circular_benchmark(non_circular_result):
    """Same ordering on non-circular input, and wl_nclms <= nclms."""
    curves = non_circular_result.curves
    cklms = steady_state_db(curves["cklms"])
    nclms = steady_state_db(curves["nclms"])
    wl = steady_state_db(curves["wl_nclms"])
    margin_nclms = nclms - cklms
    margin_wl = wl - cklms
    widely_linear_wins = wl <= nclms
    wall = non_circular_result.metadata["wall_clock_seconds"]
    passed = margin_nclms >= 2.0 and margin_wl >= 2.0 and widely_linear_wins
    line = report(
        6, "non-circular-benchmark", passed,
        f"steady-state dB cklms {cklms:+.2f}, nclms {nclms:+.2f}, wl_nclms {wl:+.2f}; "
        f"margins {margin_nclms:+.2f}/{margin_wl:+.2f} dB (need >= 2), "
        f"wl<=nclms {widely_linear_wins}, {wall:.0f} s",
    )
    assert passed, line


@pytest.mark.slow
def test_criterion_7_sparsification(circular_result, bundled_configs):
    """Dictionaries stay below 5000 entries in every run and grow monotonically."""
    curve = circular_result.curves["cklms"]
    finals = curve.final_dict_sizes
    all_below = bool(np.all(finals < 5000))
    mean_monotone = bool(np.all(np.diff(curve.dict_size_curve) >= 0))

    # replay run 0 to check per-iteration monotonicity on an actual realization
    cfg = bundled_configs[0]
    seeds = np.random.SeedSequence((cfg.master_seed, 0)).generate_state(2)
    s = generate_input(replace(cfg.signal, seed=int(seeds[0])))
    r = apply_channel(s, replace(cfg.channel, seed=int(seeds[1])))
    dataset = build_dataset(r, s, cfg.embedding)
    alg = next(a for a in cfg.algorithms if a.algorithm == "cklms")
    run = run_filter(list(zip(dataset.inputs, dataset.targets)), "cklms", alg.filter_config())
    sizes = run.dict_sizes()
    run_monotone = bool(np.all(np.diff(sizes) >= 0) and np.all(np.diff(sizes) <= 1))
    replay_consistent = int(sizes[-1]) == int(finals[0])

    passed = all_below and mean_monotone and run_monotone and replay_consistent
    line = report(
        7, "sparsification", passed,
        f"final sizes {int(np.min(finals))}..{int(np.max(finals))} of 5000 over "
        f"{finals.shape[0]} runs, monotone {mean_monotone and run_monotone}",
    )
    assert passed, line


@pytest.mark.slow
def test_criterion_8_determinism(circular_result, bundled_configs, tmp_path):
    """Repeating the circular benchmark yields byte-identical CSV output."""
    repeat = run_experiment(bundled_configs[0])
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    emit_results(circular_result, "csv", first)
    emit_results(repeat, "csv", second)
    a, b = first.read_bytes(), second.read_bytes()
    passed = a == b
    line = report(
        8, "determinism", passed,
        f"two emissions of {len(a)} bytes {'match' if passed else 'differ'}",
    )
    assert passed, line
