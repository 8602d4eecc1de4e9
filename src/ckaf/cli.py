"""Command-line interface: equalization benchmarks and verification suites.

Three subcommands:

``ckaf equalize [--config FILE] [--out DIR] [--format csv|json]``
    Run every experiment in the config file and write one output file per
    experiment, named ``<experiment name>.<format>``. Without ``--config``
    the bundled benchmark configuration is used. The output directory is
    resolved as ``--out``, then the ``CKAF_OUT_DIR`` environment variable,
    then the current directory.

``ckaf verify-wirtinger [--seed N]``
    Numeric gradient verification: inner-product gradient identities,
    first-order expansions, steepest-ascent direction, and the squared-error
    loss gradient, each printed as a PASS/FAIL line. The first-order check
    takes the expansion's residual at h and at h/2: correct gradients leave a
    second-order residual, which halving h quarters, so it fails when the
    ratio exceeds 0.3 (a gradient error leaves a first-order residual, ratio
    0.5). A negative seed exits with status 2.

``ckaf verify-kernel [--n-points N] [--sigma S]``
    Kernel validity checks on random point sets: Hermitian symmetry, Gram
    positive semidefiniteness, agreement with the real Gaussian kernel on
    real inputs, and distance symmetry.

Exit status is 0 when everything passed and nonzero otherwise.
"""

from __future__ import annotations

import argparse
import importlib.resources
import os
import sys
from pathlib import Path

import numpy as np

from ckaf.experiment import ConfigError, emit_results, load_config_file, run_experiment
from ckaf.kernels import (
    complex_gaussian,
    gram,
    is_positive_semidefinite,
    kernel_matrix,
    real_gaussian,
    rkhs_distance_sq,
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

OUT_DIR_ENV = "CKAF_OUT_DIR"
GRADIENT_TOLERANCE = 1e-6
_RATIO_TOLERANCE = 0.3
RESTRICTION_TOLERANCE = 1e-14


def default_config_path() -> Path:
    """Location of the bundled benchmark configuration file."""
    return Path(str(importlib.resources.files("ckaf").joinpath("data/equalization_default.json")))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckaf",
        description="Complex kernel adaptive filtering benchmarks and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser(
        "equalize",
        help="run Monte-Carlo equalization experiments from a config file",
        description="Run each configured experiment and write its learning curves.",
    )
    eq.add_argument("--config", default=None, help="config file (default: bundled benchmark)")
    eq.add_argument("--out", default=None, help=f"output directory (overrides ${OUT_DIR_ENV})")
    eq.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    eq.set_defaults(handler=_cmd_equalize)

    vw = sub.add_parser(
        "verify-wirtinger",
        help="check numeric complex gradients against closed forms",
        description="Run the gradient verification battery and print PASS/FAIL lines.",
    )
    vw.add_argument("--seed", type=int, default=0, help="random seed for the checks")
    vw.set_defaults(handler=_cmd_verify_wirtinger)

    vk = sub.add_parser(
        "verify-kernel",
        help="check kernel symmetry, positivity, and the real-input restriction",
        description="Run kernel validity checks on random point sets.",
    )
    vk.add_argument("--n-points", type=int, default=40, help="points per Gram matrix")
    vk.add_argument("--sigma", type=float, default=5.0, help="kernel width to test")
    vk.set_defaults(handler=_cmd_verify_kernel)
    return parser


def _resolve_out_dir(args) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif os.environ.get(OUT_DIR_ENV):
        out = Path(os.environ[OUT_DIR_ENV])
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_equalize(args) -> int:
    config_path = Path(args.config) if args.config else default_config_path()
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    configs = load_config_file(config_path)
    out_dir = _resolve_out_dir(args)
    for cfg in configs:
        print(f"[{cfg.name}] {cfg.mc_runs} runs x {cfg.signal.n_samples} samples ...", flush=True)
        result = run_experiment(cfg)
        destination = out_dir / f"{cfg.name}.{args.format}"
        emit_results(result, args.format, destination)
        snr = result.metadata["measured_snr_db"]
        snr_text = "noise-free" if snr is None else f"SNR {snr:.2f} dB"
        print(f"[{cfg.name}] {snr_text}; wrote {destination}")
        for label, curve in result.curves.items():
            line = f"[{cfg.name}]   {label}: steady-state MSE {curve.steady_state_db:.2f} dB"
            if curve.final_dict_sizes is not None:
                line += f", dictionary size {int(np.max(curve.final_dict_sizes))} max"
            print(line)
    return 0


def _random_pairs(rng) -> tuple:
    """200 pairs (z, w) in C^6 as two (200, 6) arrays, drawn z re, z im, w re, w im per pair."""
    parts = 0.5 * rng.standard_normal((200, 4, 6))
    return parts[:, 0] + 1j * parts[:, 1], parts[:, 2] + 1j * parts[:, 3]


def _check(name: str, passed: bool, detail: str, failures: list) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    if not passed:
        failures.append(name)


def _summary(failures: list, kind: str) -> int:
    """Print the closing line of a verify command and return its exit status."""
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print(f"all {kind} checks passed")
    return 0


def _first_order_ratio(func, z, h) -> float:
    """The first-order residual at h/2 over the residual at h, floored at 1e-12 (1 + |T(z)|).

    With correct gradients the residual of ``check_taylor_first_order`` is second order in h,
    so halving h quarters it and the ratio reads 0.25; an error in either gradient leaves a
    first-order term, which halving h only halves. The floor keeps a residual that is all
    rounding, as a functional linear in z and conj(z) leaves, from reading as a large ratio.
    """
    floor = 1e-12 * (1.0 + abs(func(z)))
    return check_taylor_first_order(func, z, h / 2) / max(check_taylor_first_order(func, z, h), floor)


def _cmd_verify_wirtinger(args) -> int:
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    failures = []

    worst_inner = 0.0
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        worst_inner = max(worst_inner, check_inner_product_gradients(w, probe))
    _check(
        "inner-product gradients", worst_inner <= GRADIENT_TOLERANCE,
        f"max deviation {worst_inner:.3e} (tolerance {GRADIENT_TOLERANCE:.0e})", failures,
    )

    worst_ratio = 0.0
    for case in standard_battery(4, rng=rng):
        z = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        h = 1e-4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        worst_ratio = max(worst_ratio, _first_order_ratio(case.func, z, h))
    _check(
        "first-order expansion", worst_ratio <= _RATIO_TOLERANCE,
        f"max residual ratio {worst_ratio:.4f} on halving h (tolerance {_RATIO_TOLERANCE})", failures,
    )

    ascent_ok = 0
    trials = 20
    for _ in range(trials):
        dim = int(rng.integers(1, 6))
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if check_steepest_ascent(squared_error_loss(phi, d), w, rng=rng):
            ascent_ok += 1
    _check(
        "steepest ascent", ascent_ok == trials,
        f"conjugate gradient beat random directions in {ascent_ok}/{trials} trials", failures,
    )

    worst_loss = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        _, _, conj_grad = analytic_squared_error_gradients(phi, d, w)
        numeric = numeric_wirtinger_gradient(squared_error_loss(phi, d), w)
        scale = max(float(np.max(np.abs(conj_grad))), 1.0)
        worst_loss = max(
            worst_loss, float(np.max(np.abs(numeric.conj_r_derivative - conj_grad))) / scale
        )
    _check(
        "squared-error loss gradient", worst_loss <= GRADIENT_TOLERANCE,
        f"max relative deviation {worst_loss:.3e} (tolerance {GRADIENT_TOLERANCE:.0e})", failures,
    )

    return _summary(failures, "gradient")


# a non-finite kernel value fails its check, which prints it: every check reduces with np.max,
# which keeps a NaN, and no comparison with NaN holds
@np.errstate(all="ignore")
def _cmd_verify_kernel(args) -> int:
    if args.n_points < 2:
        print("error: --n-points must be at least 2", file=sys.stderr)
        return 2
    try:
        spec = complex_gaussian(args.sigma)
    except ValueError as exc:
        print(f"error: --sigma: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(7)
    n = args.n_points
    failures = []

    points = 0.5 * (rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6)))
    Z, W = _random_pairs(rng)
    deviation = kernel_matrix(Z, W, spec) - np.conj(kernel_matrix(W, Z, spec).T)
    worst_sym = float(np.max(np.abs(deviation)))
    _check(
        "Hermitian symmetry", worst_sym <= 1e-12,
        f"max |k(z,w) - conj(k(w,z))| = {worst_sym:.3e}", failures,
    )

    matrix = gram(points, spec)
    try:
        psd = is_positive_semidefinite(matrix)
        detail = f"min eigenvalue {float(np.min(np.linalg.eigvalsh(matrix))):.3e}"
    except ValueError as exc:
        psd, detail = False, str(exc)
    _check(
        "Gram positive semidefinite", psd,
        f"{detail} over {n} points at sigma {args.sigma}", failures,
    )

    # on real points x: exp(-a) carries the rounding of its exponent a, a relative error that
    # grows like a * eps, so the gap is measured relative to max(1, a); the floor at the smallest
    # normal value makes entries that underflow alike (to 0.0 or a subnormal) agree, not 0/0
    x = rng.standard_normal((n, 6))
    real_val = kernel_matrix(x, x, real_gaussian(args.sigma))
    exponent = np.add.reduce((x[:, None] - x) ** 2, axis=-1) / args.sigma**2
    scale = np.maximum(np.abs(real_val), np.finfo(float).tiny) * np.maximum(exponent, 1.0)
    worst_restriction = float(np.max(np.abs(kernel_matrix(x, x, spec) - real_val) / scale))
    _check(
        "real-input restriction", worst_restriction <= RESTRICTION_TOLERANCE,
        f"max relative gap per unit exponent {worst_restriction:.3e} to the real kernel", failures,
    )

    gaps = [
        rkhs_distance_sq(z, w, spec) - rkhs_distance_sq(w, z, spec)
        for z, w in zip(*_random_pairs(rng))
    ]
    worst_dist = float(np.max(np.abs(gaps)))
    _check("distance symmetry", worst_dist == 0.0, f"max asymmetry {worst_dist:.3e}", failures)

    return _summary(failures, "kernel")


if __name__ == "__main__":
    sys.exit(main())
