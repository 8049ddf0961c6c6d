"""Correctness gate for one op: parse the output file the op wrote and
compare it with the reference values the acceptance criteria use.

`check(argv, rc, text)` returns `(ok, reason, fingerprint)`. The
fingerprint is a short tuple of result numbers (phases, overlaps,
efficiencies, readout errors, fidelities, ...) that a later change can
compare to show its results are unchanged. References are computed here
from closed forms, never from the program's own helpers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import GEOPHASE_IM_TARGET, MODESWITCH_END

NOISY_ERROR_SANITY = 0.25  # |dE| bound for 1e5-shot solves; ~10x the worst seen


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _body(text: str) -> str:
    header, _, body = text.partition("\n")
    if not header.startswith("# config_hash="):
        raise ValueError("missing provenance header")
    return body


def _csv(text: str) -> np.ndarray:
    lines = _body(text).splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _hamiltonian(k1: float, k2: float) -> np.ndarray:
    return np.array([[3 + 2 * k1, 1 - k2, 0], [1 + k2, 0, 1 - k2], [0, 1 + k2, 3 - 2 * k1]])


def _geophase(argv, text):
    doc = json.loads(_body(text))
    idx = int(_flags(argv).get("--eigenindex", 1))
    re, im = doc["geometric"]
    err = abs(im - GEOPHASE_IM_TARGET[idx])
    ok = err <= 0.01 and abs(re) < 0.02
    return ok, f"Im gamma off target by {err:.3g}, Re gamma {re:.3g}", (re, im, *doc["total"])


def _modeswitch(argv, text):
    doc = json.loads(_body(text))
    f = _flags(argv)
    key = (f.get("--preset", "through_k2"), int(f.get("--start", 1)), f.get("--direction", "ccw"))
    want = MODESWITCH_END[key]
    ok = doc["end_index"] == want and doc["overlap"] > 0.99 and doc["efficiency"] > 0.6
    reason = (f"end {doc['end_index']} (want {want}), overlap {doc['overlap']:.4f}, "
              f"efficiency {doc['efficiency']:.3f}")
    return ok, reason, (doc["end_index"], doc["overlap"], doc["efficiency"])


def _dilate(argv, text):
    rows = _csv(text)  # t, postselect_prob, infidelity, joint_norm
    infid = rows[:, 2].max()
    drift = np.abs(rows[:, 3] - 1.0).max()
    ok = rows.shape[0] > 1 and infid < 1e-10 and drift < 1e-9
    return ok, f"infidelity {infid:.3g}, norm drift {drift:.3g}", (rows[-1, 1], rows[:, 1].mean())


def _pulses(argv, text):
    lines = _body(text).splitlines()[1:]
    want = 6 * int(_flags(argv).get("--samples", 201))
    amps = np.array([float(line.split(",")[4]) for line in lines])
    ok = len(lines) == want and bool(np.isfinite(amps).all())
    return ok, f"{len(lines)} waveform rows, want {want}", (np.abs(amps).sum(), np.abs(amps).max())


def _eigensolve(argv, text):
    doc = json.loads(_body(text))
    f = _flags(argv)
    ref = np.sort(np.linalg.eigvals(_hamiltonian(float(f["--k1"]), float(f["--k2"]))).real)[::-1]
    got = np.array(doc["recovered"])
    truth_err = np.abs(np.array(doc["truth"]) - ref).max()
    err = doc["max_abs_error"]
    limit = 1e-6 if int(f.get("--shots", 0)) == 0 else NOISY_ERROR_SANITY
    ok = (truth_err < 1e-8 and bool(np.isfinite(got).all())
          and abs(got.sum() - 6.0) < 1e-9 and err < limit)
    return ok, f"max |dE| {err:.3g} (limit {limit:g}), truth off by {truth_err:.3g}", (err, *got)


def _tomography(argv, text):
    doc = json.loads(_body(text))
    fid = doc["fidelity_vs_pure_theory"]
    return fid > 0.99, f"fidelity {fid:.5f}", (fid,)


def _line_spectrum(axis: str, v: np.ndarray) -> np.ndarray:
    """Descending closed-form eigenvalues on k2=1 (axis k1) or k1=0 (axis k2)."""
    if axis == "k1":
        a = np.abs(v)
        return np.column_stack([3 + 2 * a, 3 - 2 * a, np.zeros_like(v)])
    g = np.sqrt(17.0 - 8.0 * v**2)
    return -np.sort(-np.column_stack([np.full_like(v, 3.0), (3 + g) / 2, (3 - g) / 2]), axis=1)


def _spectrum(argv, text):
    f = _flags(argv)
    axis = "k1" if "--k1-range" in f else "k2"
    lo, hi, step = (float(x) for x in f[f"--{axis}-range"].split(":"))
    rows = _csv(text)  # axis, E1_re, E1_im, E2_re, E2_im, E3_re, E3_im
    want_rows = round((hi - lo) / step) + 1
    if rows.shape[0] != want_rows:
        return False, f"{rows.shape[0]} rows, want {want_rows}", ()
    got = -np.sort(-rows[:, 1::2], axis=1)
    dev = np.abs(got - _line_spectrum(axis, rows[:, 0])).max()
    imag = np.abs(rows[:, 2::2]).max()
    ok = dev < 1e-9 and imag < 1e-9
    return ok, f"max dev from closed form {dev:.3g}, max imag {imag:.3g}", (
        rows[:, 1].sum(), rows[:, 3].sum())


def _atlas(argv, text):
    recs = json.loads(_body(text))
    locs = sorted((tuple(r["location"]) for r in recs), key=lambda p: p[1])
    kinds = [r["kind"] for r in recs]
    ok = (len(recs) == 2 and all(k == "dirac" for k in kinds)
          and math.dist(locs[0], (0.0, -1.0)) < 1e-6 and math.dist(locs[1], (0.0, 1.0)) < 1e-6)
    fp = tuple(r["dispersion_exponent"] for r in recs)
    return ok, f"points {locs}, kinds {kinds}", fp


def _cone(argv, text):
    rows = _csv(text)  # theta, slope_plus, slope_minus, slope_plus_fd, slope_minus_fd
    want_rows = int(_flags(argv).get("--angles", 16))
    s, c = np.sin(rows[:, 0]), np.cos(rows[:, 0])
    root = np.sqrt(s * s + 9 * c * c)
    closed = np.column_stack([2 * (-s + root) / 3, 2 * (-s - root) / 3])
    scale = np.maximum(np.abs(closed), 1e-3)
    fd_rel = (np.abs(rows[:, 3:5] - closed) / scale).max()
    col_dev = np.abs(rows[:, 1:3] - closed).max()
    ok = rows.shape[0] == want_rows and fd_rel < 0.01 and col_dev < 1e-9
    return ok, f"fd slope rel err {fd_rel:.3g}, closed-form column dev {col_dev:.3g}", (
        rows[:, 3].sum(), rows[:, 4].sum())


_CHECKS = {
    "geophase": _geophase,
    "modeswitch": _modeswitch,
    "dilate": _dilate,
    "pulses": _pulses,
    "eigensolve": _eigensolve,
    "tomography": _tomography,
    "spectrum": _spectrum,
    "atlas": _atlas,
    "cone": _cone,
}


def check(argv: list[str], rc, text: str | None) -> tuple[bool, str, tuple]:
    """Gate one op. `rc` is the exit code, or an exception text if the op raised."""
    if rc != 0:
        return False, f"exit {rc}", ()
    if text is None:
        return False, "no output file", ()
    try:
        ok, reason, fp = _CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unparseable output: {exc!r}", ()
    return bool(ok), reason, tuple(float(v) for v in fp)
