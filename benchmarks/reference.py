"""Output checks: a frozen reference implementation and the comparisons against it.

The reference is a transcription of the arithmetic of ckaf 0.1.0: per-run seeding, source,
channel and delay embedding, NCLMS, WL-NCLMS, and complex-Gaussian CKLMS with novelty gating,
in the same operation order. It imports nothing from ``ckaf``, so the checks keep their
meaning when the package's internals are rewritten, and it works for any workload seed.
``test_benchmark.py`` pins it to digests recorded from ckaf 0.1.0 (``refs/recorded.json``).

Check policy, stated once here:

* linear filters (nclms, wl_nclms): the written curve text is byte-identical to the reference
  and every value is finite;
* cklms: every final dictionary size is within ``DICT_TOLERANCE`` (relative, at least
  ``DICT_SLACK`` centers) of the reference. The bundled regime diverges chaotically, so its
  curve is checked for length only; converged curves (``curve_db_tolerance`` set) must match
  the reference segment means within that many dB;
* the stream: final dictionary size as above and summed squared error within ``SSE_TOLERANCE``
  (relative);
* every curve has the full length of the dataset, so skipped work fails the check.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

MSE_FLOOR = 1e-12
DICT_TOLERANCE = 0.02
DICT_SLACK = 2
SSE_TOLERANCE = 0.02
CURVE_SEGMENTS = 10
LINEAR = ("nclms", "wl_nclms")

_SUMMARY_LINE = re.compile(r"\]\s+(\S+): steady-state MSE .*dictionary size (\d+) max")


# --- reference implementation -------------------------------------------------------------

def run_seeds(master_seed: int, run_index: int) -> tuple:
    """Signal and noise seeds of Monte-Carlo run ``run_index``."""
    seeds = np.random.SeedSequence((master_seed, run_index)).generate_state(2)
    return int(seeds[0]), int(seeds[1])


def realization(doc: dict, signal_seed: int, channel_seed: int) -> tuple:
    """Regression inputs (N, L+1) and targets (N,) of one realization of ``doc``."""
    sig, ch, emb = doc["signal"], doc["channel"], doc["embedding"]
    n = sig["n_samples"]
    rng = np.random.default_rng(signal_seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    rho = sig["rho"]
    s = sig["amplitude"] * (np.sqrt(1.0 - rho**2) * x + 1j * rho * y)
    taps = np.asarray([complex(re_, im) for re_, im in ch["linear_taps"]], dtype=np.complex128)
    t = np.convolve(s, taps)[:n]
    q = t.copy()
    power = t
    for re_, im in ch["poly_coeffs"]:
        power = power * t
        q += complex(re_, im) * power
    r = q
    if ch["noise_stddev"] != 0:
        rng = np.random.default_rng(channel_seed)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = q + ch["noise_stddev"] * noise
    length, delay = emb["filter_length"], emb["delay"]
    index = np.arange(max(0, length - delay), n - delay)
    return r[index[:, None] + delay - np.arange(length + 1)[None, :]], s[index]


def linear_errors(inputs, targets, alg: dict) -> np.ndarray:
    """Squared errors of nclms or wl_nclms over one realization."""
    mu, eps = alg["mu"], alg["epsilon"]
    widely = alg["algorithm"] == "wl_nclms"
    w = np.zeros(inputs.shape[1], dtype=np.complex128)
    g = np.zeros(inputs.shape[1], dtype=np.complex128)
    out = np.empty(len(targets))
    for i in range(len(targets)):
        z = inputs[i]
        d = np.complex128(targets[i])
        if widely:
            zc = np.conj(z)
            e = d - (np.sum(z * np.conj(w)) + np.sum(zc * np.conj(g)))
            norm_sq = float(np.sum(z.real**2 + z.imag**2))
            gain = mu / (eps + 2.0 * norm_sq)
            w += gain * np.conj(e) * z
            g += gain * np.conj(e) * zc
        else:
            e = d - np.sum(z * np.conj(w))
            norm_sq = float(np.sum(z.real**2 + z.imag**2))
            w += (mu / (eps + norm_sq)) * np.conj(e) * z
        out[i] = float(e.real * e.real + e.imag * e.imag)
    return out


def cklms_errors(inputs, targets, alg: dict) -> tuple:
    """Squared errors and final dictionary size of complex-Gaussian cklms."""
    if alg["kernel"] != "complex-gaussian":
        raise ValueError("the reference implements the complex-gaussian kernel only")
    mu, delta1, delta2 = alg["mu"], alg["delta1"], alg["delta2"]
    n, dim = inputs.shape
    centers = np.empty((n, dim), dtype=np.complex128)
    coefficients = np.empty(n, dtype=np.complex128)
    self_kernels = np.empty(n)
    m = 0
    out = np.empty(n)
    for i in range(n):
        z = inputs[i]
        d = np.complex128(targets[i])
        kzz = float(np.exp(4.0 * np.sum(z.imag**2) / alg["sigma"] ** 2))
        if m == 0:
            e = d
            admitted = True
        else:
            diff = z[None, :] - np.conj(centers[:m])
            kvec = np.exp(-np.sum(diff * diff, axis=1) / alg["sigma"] ** 2)
            e = d - np.dot(coefficients[:m], kvec)
            dis = np.sqrt(max(float((kzz + self_kernels[:m] - 2.0 * kvec.real).min()), 0.0))
            admitted = not dis < delta1 and not np.abs(e) < delta2
        if admitted:
            centers[m] = z
            coefficients[m] = mu * e
            self_kernels[m] = kzz
            m += 1
        out[i] = float(e.real * e.real + e.imag * e.imag)
    return out, m


def label_of(alg: dict) -> str:
    return alg.get("label", alg["algorithm"])


def mc_reference(doc: dict, fmt: str) -> dict:
    """Summary (see ``summarize_curves``) of the curves ``ckaf equalize`` should write."""
    sums, finals = {}, {}
    for run in range(doc["mc_runs"]):
        inputs, targets = realization(doc, *run_seeds(doc["master_seed"], run))
        for alg in doc["algorithms"]:
            label = label_of(alg)
            if alg["algorithm"] == "cklms":
                squared, size = cklms_errors(inputs, targets, alg)
                finals.setdefault(label, []).append(size)
            else:
                squared = linear_errors(inputs, targets, alg)
            sums.setdefault(label, np.zeros_like(squared))
            sums[label] += squared
    curves = {}
    for alg in doc["algorithms"]:
        label = label_of(alg)
        mse = sums[label] / doc["mc_runs"]
        curves[label] = {
            "algorithm": alg["algorithm"],
            "mse": mse,
            "mse_db": 10.0 * np.log10(np.maximum(mse, MSE_FLOOR)),
            "final_dict_sizes": finals.get(label),
        }
    return summarize_curves(curves, fmt)


def stream_reference(doc: dict, run: int = 0) -> dict:
    """Final dictionary size, summed squared error and length of a cklms pass over run ``run``."""
    inputs, targets = realization(doc, *run_seeds(doc["master_seed"], run))
    squared, size = cklms_errors(inputs, targets, doc["algorithms"][0])
    return {"steps": len(squared), "dict_size": size, "sse": float(np.sum(squared))}


# --- summaries of written output ----------------------------------------------------------

def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _segment_means(mse_db) -> list:
    return [float(np.mean(part)) for part in np.array_split(np.asarray(mse_db), CURVE_SEGMENTS)]


def summarize_curves(curves: dict, fmt: str) -> dict:
    """Comparable summary of per-label curves.

    ``curves[label]`` holds ``algorithm`` and ``mse_db``; for JSON output also ``mse``; and for
    cklms ``final_dict_sizes``, or only ``max_dict_size`` where the output carries no more (CSV).
    The digest covers the exact text the format writes for the curve values.
    """
    out = {}
    for label, curve in curves.items():
        if fmt == "csv":
            texts = [v if isinstance(v, str) else "%.12e" % v for v in curve["mse_db"]]
            db = [float(v) for v in texts]
        else:
            texts = [repr(float(v)) for v in curve["mse"]] + [repr(float(v)) for v in curve["mse_db"]]
            db = [float(v) for v in curve["mse_db"]]
        sizes = curve.get("final_dict_sizes")
        largest = curve.get("max_dict_size", None if sizes is None else max(int(v) for v in sizes))
        out[label] = {
            "algorithm": curve["algorithm"],
            "length": len(db),
            "finite": bool(np.all(np.isfinite(db))),
            "digest": _digest(texts),
            "segment_db": _segment_means(db),
            "final_dict_sizes": None if sizes is None else [int(v) for v in sizes],
            "max_dict_size": largest,
        }
    return out


def read_csv_output(path, stdout: str, algorithms: dict) -> dict:
    """Summary of a CSV written by ``ckaf equalize`` plus its printed dictionary sizes."""
    lines = open(path).read().splitlines()
    labels = [h[: -len("_mse_db")] for h in lines[0].split(",")[1:]]
    columns = {label: [] for label in labels}
    for line in lines[1:]:
        for label, value in zip(labels, line.split(",")[1:]):
            columns[label].append(value)
    printed = {m.group(1): int(m.group(2)) for m in _SUMMARY_LINE.finditer(stdout)}
    curves = {}
    for label in labels:
        curves[label] = {"algorithm": algorithms.get(label, "?"), "mse_db": columns[label]}
        if label in printed:
            curves[label]["max_dict_size"] = printed[label]
    return summarize_curves(curves, "csv")


def read_json_output(path) -> dict:
    """Summary of a JSON document written by ``ckaf equalize``."""
    with open(path) as fh:
        doc = json.load(fh)
    algorithms = {a["label"]: a["algorithm"] for a in doc["config"]["algorithms"]}
    curves = {
        label: {"algorithm": algorithms.get(label, "?"), **entry}
        for label, entry in doc["curves"].items()
    }
    return summarize_curves(curves, "json")


# --- comparisons --------------------------------------------------------------------------

def _dict_size_ok(got: int, want: int) -> bool:
    return abs(got - want) <= max(DICT_SLACK, DICT_TOLERANCE * want)


def compare_mc(got: dict, want: dict, curve_db_tolerance) -> list:
    """Failed checks (empty when the output passes) of one equalize output against the reference.

    ``curve_db_tolerance`` is None for a diverged cklms regime, whose curve is chaotic.
    """
    failures = []
    if sorted(got) != sorted(want):
        return [f"labels {sorted(got)} != reference {sorted(want)}"]
    for label, ref in want.items():
        out = got[label]
        if out["length"] != ref["length"]:
            failures.append(f"{label}: curve length {out['length']} != {ref['length']}")
            continue
        if ref["algorithm"] in LINEAR:
            if not out["finite"]:
                failures.append(f"{label}: non-finite values in a linear curve")
            if out["digest"] != ref["digest"]:
                failures.append(f"{label}: linear curve differs from the reference bytes")
            continue
        if out["final_dict_sizes"] is not None:
            pairs = zip(out["final_dict_sizes"], ref["final_dict_sizes"])
            if len(out["final_dict_sizes"]) != len(ref["final_dict_sizes"]) or not all(
                _dict_size_ok(g, w) for g, w in pairs
            ):
                failures.append(
                    f"{label}: final dictionary sizes {out['final_dict_sizes']} vs "
                    f"reference {ref['final_dict_sizes']}"
                )
        elif out["max_dict_size"] is None or not _dict_size_ok(
            out["max_dict_size"], ref["max_dict_size"]
        ):
            failures.append(
                f"{label}: largest dictionary {out['max_dict_size']} vs "
                f"reference {ref['max_dict_size']}"
            )
        if curve_db_tolerance is not None:
            worst = max(abs(g - w) for g, w in zip(out["segment_db"], ref["segment_db"]))
            if not worst <= curve_db_tolerance:
                failures.append(
                    f"{label}: segment mean MSE off by {worst:.3g} dB "
                    f"(tolerance {curve_db_tolerance} dB)"
                )
    return failures


def compare_stream(got: dict, want: dict) -> list:
    """Failed checks of one stream pass against the reference."""
    failures = []
    if got["steps"] != want["steps"]:
        failures.append(f"stream processed {got['steps']} of {want['steps']} samples")
    if not _dict_size_ok(got["dict_size"], want["dict_size"]):
        failures.append(f"final dictionary size {got['dict_size']} vs reference {want['dict_size']}")
    if not abs(got["sse"] - want["sse"]) <= SSE_TOLERANCE * abs(want["sse"]):
        failures.append(f"summed squared error {got['sse']:.6g} vs reference {want['sse']:.6g}")
    return failures
