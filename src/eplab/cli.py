"""Command-line entry point.

A subcommand's config comes from three sources, each overriding the one
before: the flag defaults, an optional JSON `--config` file, and the
flags given explicitly. A file value must have the JSON type of its
flag's default: a string for a string flag, a number for a float flag,
an integral number for an int flag. `spectrum` takes one of
`--k1-range` or `--k2-range`, not both.

Every subcommand writes machine-readable CSV/JSON with a provenance
header line `# config_hash=... version=...`, and is byte-deterministic
for a fixed config and seed. Exit codes: 0 success, 1 domain error, 2
usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__
from .numerics import NumericsError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _csv_rows(table) -> str:
    """CSV text of a 2-D table of reals, one line per row, each value as
    `f"{float(x):.12g}"` writes it (also -0, nan and inf), through one
    "%.12g,...\n" row template repeated once per row and applied to all the
    values at once."""
    table = np.asarray(table, dtype=float)
    template = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return (template * len(table)) % tuple(table.ravel().tolist())


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header(cfg: dict) -> str:
    return f"# config_hash={_config_hash(cfg)} version={__version__}\n"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_file_value(key: str, value, default) -> None:
    """Raise ValueError unless a config file value has the JSON type of
    its flag's default: a string for a string flag, a number for a float
    flag and an integral number for an int flag (a bool is no number)."""
    if isinstance(default, str):
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and isinstance(default, int):
            ok = isinstance(value, int) or value.is_integer()
    if not ok:
        kind = {str: "a string", int: "an integer", float: "a number"}[type(default)]
        raise ValueError(f"config key {key!r} needs {kind}, got {json.dumps(value)}")


def _config(flags: tuple[_Flag, ...], path: str | None, given: dict) -> dict:
    """The flags' defaults, overridden by the JSON file at `path` (if
    any), overridden by the `given` flags. The file must hold a JSON
    object of known keys with values as `_check_file_value` takes them;
    else ValueError."""
    cfg = {f.name: f.default for f in flags}
    if path:
        with open(path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file must hold a JSON object, not {type(file_cfg).__name__}")
        for k, v in file_cfg.items():
            if k not in cfg:
                raise ValueError(f"unknown config key {k!r}")
            _check_file_value(k, v, cfg[k])
            cfg[k] = v
    return {**cfg, **given}


# most points a --k1-range/--k2-range sweep or a cone's --angles may have;
# either holds a few complex 3x3 matrices per point, about 800 bytes
# (80 MB here)
MAX_RANGE_POINTS = 10**5


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except Exception as exc:
        raise ValueError(f"range must be lo:hi:step, got {text!r}") from exc
    if not all(np.isfinite((lo, hi, step))):
        raise ValueError("range must be finite lo:hi:step")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    steps = (hi - lo) / step
    if not steps <= MAX_RANGE_POINTS - 1:
        raise ValueError(
            f"range {text!r} has {steps + 1:.6g} points, more than the {MAX_RANGE_POINTS} allowed"
        )
    n = int(round(steps))
    return lo + step * np.arange(n + 1)


class _Parser(argparse.ArgumentParser):
    """Takes no flag prefixes: --dur would name --duration only until a
    second flag starts with it.

    A value with a leading minus that reads as a number or a range
    (-1e-3, -.5, -inf, -1:1:0.05) is a value, not an unknown option:
    Python 3.11's argparse takes only -1 and -1.5 for negative numbers.
    Subparsers are built from this class, so every subcommand shares it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _cmd_spectrum(cfg: dict) -> str:
    from .model import ModelParams, sweep_tracked_eigenvalues

    if cfg["k1_range"] and cfg["k2_range"]:
        raise ValueError("spectrum takes one of --k1-range or --k2-range")
    if cfg["k1_range"]:
        sweep_vals = _parse_range(cfg["k1_range"])
        path = ModelParams(sweep_vals, float(cfg["k2"]))
        axis = "k1"
    elif cfg["k2_range"]:
        sweep_vals = _parse_range(cfg["k2_range"])
        path = ModelParams(float(cfg["k1"]), sweep_vals)
        axis = "k2"
    else:
        raise ValueError("spectrum needs --k1-range or --k2-range")
    vals = sweep_tracked_eigenvalues(path)
    parts = np.stack([vals.real, vals.imag], axis=-1).reshape(len(vals), 6)  # E1_re, E1_im, ...
    table = np.column_stack([sweep_vals, parts])
    return f"{axis},E1_re,E1_im,E2_re,E2_im,E3_re,E3_im\n" + _csv_rows(table)


def _cmd_atlas(cfg: dict) -> list:
    from .ep_atlas import classify_ep, locate_conical_points

    points = locate_conical_points(
        (cfg["k1_min"], cfg["k1_max"]), (cfg["k2_min"], cfg["k2_max"]),
        resolution=int(cfg["resolution"]),
    )
    records = []
    for loc in points:
        rec = classify_ep(loc)
        records.append(
            {
                "location": [float(loc[0]), float(loc[1])],
                "kind": rec.kind,
                "dispersion_exponent": rec.dispersion_exponent,
                "coalescence": rec.coalescence,
                "spectrum_real_radius": rec.spectrum_real_radius,
            }
        )
    return records


def _cone_sheets(c) -> np.ndarray:
    """Real parts of the spectrum at (0, 1) + dk (cos theta, sin theta),
    one descending row per direction of `c`."""
    from .model import ModelParams, eigenvalues

    return -np.sort(-eigenvalues(ModelParams(c.dk1, 1.0 + c.dk2)).real)


def _cmd_cone(cfg: dict) -> str:
    from .model import ConeDirection, cone_expansion

    angles = int(cfg["angles"])
    if angles < 1:
        raise ValueError("angles must be >= 1")
    if angles > MAX_RANGE_POINTS:
        raise ValueError(f"angles {angles} exceed the {MAX_RANGE_POINTS} allowed")
    thetas = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    c = ConeDirection(thetas, float(cfg["dk"]))
    sp, sm = cone_expansion(c)
    vals = _cone_sheets(c)
    fd_p = (vals[:, 0] - 3.0) / c.dk
    fd_m = (vals[:, 1] - 3.0) / c.dk
    return ("theta,slope_plus,slope_minus,slope_plus_fd,slope_minus_fd\n"
            + _csv_rows(np.column_stack([thetas, sp, sm, fd_p, fd_m])))


def _direct_infidelity(h, psi0, times, post_states) -> np.ndarray:
    """1 - |<direct|post>|^2 per row, direct = exp(-i t h) psi0 normalized."""
    from .numerics import expm

    direct = expm(-1j * times[:, None, None] * h) @ psi0
    direct /= np.linalg.norm(direct, axis=-1, keepdims=True)
    return 1.0 - np.abs(np.sum(direct.conj() * post_states, axis=-1)) ** 2


def _cmd_dilate(cfg: dict) -> str:
    from .dilation import dilated_evolve
    from .model import ModelParams, build_hamiltonian

    h = build_hamiltonian(ModelParams(cfg["k1"], cfg["k2"])).astype(complex)
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    joint, post, probs = dilated_evolve(
        psi0, h, float(cfg["time"]), steps=int(cfg["steps"]),
        m0_scale=float(cfg["m0_scale"]),
    )
    rows = slice(None, None, max(len(joint.times) // 400, 1))
    infid = np.maximum(_direct_infidelity(h, psi0, joint.times[rows], post.states[rows]), 0.0)
    table = np.column_stack([joint.times[rows], probs[rows], infid, joint.norms[rows]])
    return "t,postselect_prob,infidelity,joint_norm\n" + _csv_rows(table)


def _cmd_pulses(cfg: dict) -> str:
    from .pulse_synth import (
        emit_waveforms,
        model_htot_path,
        nv_levels,
        synthesize_pulses,
        verify_rwa_roundtrip,
    )

    levels = nv_levels()
    times, htot = model_htot_path(
        float(cfg["k1"]), float(cfg["k2"]), t_model_span=float(cfg["span"]),
        n_samples=int(cfg["samples"]), m0_scale=float(cfg["m0_scale"]),
        s=float(cfg["scale"]),
    )
    channels, d_sched = synthesize_pulses(htot, times, levels)
    dev = verify_rwa_roundtrip(channels, d_sched, levels, times, htot)
    rel = dev / max(np.abs(htot).max(), 1e-300)
    if rel > 1e-9:
        raise NumericsError(f"round-trip deviation {rel:.3e} exceeds 1e-9")
    return emit_waveforms(channels)


def _cmd_eigensolve(cfg: dict) -> dict:
    from .model import ModelParams, discriminant, spectrum
    from .readout import DEFAULT_SETTINGS, K_MAX, simulate_counts, solve_eigenvalues

    k1, k2, shots = float(cfg["k1"]), float(cfg["k2"]), int(cfg["shots"])
    # on the signed plane distinct points fit the same ratios, so the
    # solver reads out only the quadrant window
    if not (0.0 <= k1 <= K_MAX and 0.0 <= k2 <= K_MAX):
        raise ValueError(
            f"eigensolve needs 0 <= k1, k2 <= {K_MAX}, the window the readout "
            f"solver searches; got k1={cfg['k1']}, k2={cfg['k2']}"
        )
    # below zero the spectrum holds a complex pair, whose real parts are
    # not the energies the populations encode; zero (an EP) still reads
    disc = float(discriminant(k1, k2))
    if disc < 0.0:
        raise ValueError(
            f"eigensolve needs a real spectrum, but k1={cfg['k1']}, k2={cfg['k2']} is "
            f"PT-broken (discriminant {disc:.6g} < 0)"
        )
    sp = spectrum(ModelParams(k1, k2))
    truth = sp.eigenvalues.real
    # shots=0 gives the exact populations, so both modes share one path
    rng = np.random.default_rng(int(cfg["seed"]))
    ps = [
        simulate_counts(v, s, shots, rng=rng).populations
        for v, s in zip(sp.right_vectors.T, DEFAULT_SETTINGS)
    ]
    for i, pop in enumerate(ps):
        if pop[2] == 0.0:
            raise ValueError(
                f"setting {i + 1} recorded no level-3 counts in "
                f"{shots} shots, so its ratio P2/P3 is undefined"
            )
    ratios = np.array([pop[1] / pop[2] for pop in ps])
    tol = 1e-6 if shots == 0 else 1e6
    recovered = solve_eigenvalues(ratios, residual_tol=tol)
    return {
        "truth": [float(v) for v in truth],
        "recovered": [float(v) for v in recovered],
        "max_abs_error": float(np.abs(recovered - truth).max()),
        "shots": int(cfg["shots"]),
    }


def _cmd_tomography(cfg: dict) -> dict:
    from .model import ModelParams, spectrum
    from .readout import (
        TOMOGRAPHY_SETTINGS,
        fidelity,
        mle_reconstruct,
        simulate_counts,
    )

    index = int(cfg["eigenindex"]) - 1
    if index not in (0, 1, 2):
        raise ValueError("eigenindex must be 1, 2 or 3")
    sp = spectrum(ModelParams(float(cfg["k1"]), float(cfg["k2"])))
    psi = sp.right_vectors[:, index]
    rng = np.random.default_rng(int(cfg["seed"]))
    records = [
        simulate_counts(psi, s, int(cfg["shots"]), rng=rng)
        for s in TOMOGRAPHY_SETTINGS
    ]
    rho = mle_reconstruct(records)
    return {
        "density": [[[float(v.real), float(v.imag)] for v in row] for row in rho],
        "fidelity_vs_pure_theory": fidelity(rho, np.outer(psi, psi.conj())),
        "eigenvalue": [float(sp.eigenvalues[index].real), float(sp.eigenvalues[index].imag)],
        "shots": int(cfg["shots"]),
    }


def _cmd_geophase(cfg: dict) -> dict:
    from .experiments import LoopSpec, geometric_phase

    rep = geometric_phase(
        LoopSpec(R=float(cfg["radius"]), T=float(cfg["duration"])),
        int(cfg["eigenindex"]), dt=float(cfg["dt"]),
    )
    return {
        "total": [rep.total.real, rep.total.imag],
        "dynamical": [rep.dynamical.real, rep.dynamical.imag],
        "geometric": [rep.geometric.real, rep.geometric.imag],
        "eigenindex": rep.eigenindex,
    }


def _cmd_modeswitch(cfg: dict) -> dict:
    from .experiments import LoopSpec, mode_switch

    rep = mode_switch(
        LoopSpec(kind=cfg["preset"], T=float(cfg["duration"]), direction=cfg["direction"]),
        int(cfg["start"]), dt=float(cfg["dt"]),
    )
    return {
        "start_index": rep.start_index,
        "end_index": rep.end_index,
        "overlap": rep.overlap,
        "overlaps": list(rep.overlaps),
        "efficiency": rep.efficiency,
        "direction": rep.direction,
    }


def _cmd_verify(cfg: dict) -> tuple[str, bool]:
    suite = cfg["suite"]
    checks = []
    if suite in ("line_spectra", "all"):
        from .model import ModelParams, eigenvalues, line_spectrum

        k1s = np.linspace(-1, 1, 41)
        got = -np.sort(-eigenvalues(ModelParams(k1s, 1.0)).real)
        want = -np.sort(-np.array([line_spectrum(ModelParams(float(k1), 1.0)) for k1 in k1s]))
        worst = float(np.abs(got - want).max())
        checks.append(("line_spectra", worst < 1e-9, f"max dev {worst:.3e}"))
    if suite in ("cone", "all"):
        from .model import ConeDirection, cone_expansion

        c = ConeDirection(np.linspace(0, 2 * np.pi, 16, endpoint=False), 1e-4)
        sp, sm = cone_expansion(c)
        vals = _cone_sheets(c)
        worst = float(max(
            (abs((vals[:, 0] - 3) / c.dk - sp) / np.maximum(abs(sp), 1e-3)).max(),
            (abs((vals[:, 1] - 3) / c.dk - sm) / np.maximum(abs(sm), 1e-3)).max(),
        ))
        checks.append(("cone", worst < 0.01, f"max rel dev {worst:.3e}"))
    if suite in ("dilation", "all"):
        from .dilation import dilated_evolve
        from .model import ModelParams, build_hamiltonian

        worst = 0.0
        for k1, k2 in ((0.0, 1.0), (0.3, 1.0), (0.0, 0.8)):
            h = build_hamiltonian(ModelParams(k1, k2)).astype(complex)
            psi0 = np.array([0, 1, 0], dtype=complex)
            joint, post, _ = dilated_evolve(psi0, h, 2.0, steps=1000, m0_scale=12.0)
            rows = slice(None, None, 100)
            infid = _direct_infidelity(h, psi0, joint.times[rows], post.states[rows])
            worst = max(worst, float(infid.max()))
        checks.append(("dilation", worst < 1e-10, f"max infidelity {worst:.3e}"))
    if suite in ("pulses", "all"):
        from .pulse_synth import (
            model_htot_path,
            nv_levels,
            synthesize_pulses,
            verify_rwa_roundtrip,
        )

        levels = nv_levels()
        worst = 0.0
        for k1, k2, m0 in ((0.0, 1.0, 1.3), (0.0, 1.3, 1.5)):
            times, htot = model_htot_path(k1, k2, t_model_span=0.05, n_samples=101, m0_scale=m0)
            ch, d = synthesize_pulses(htot, times, levels)
            worst = max(
                worst, verify_rwa_roundtrip(ch, d, levels, times, htot) / np.abs(htot).max()
            )
        checks.append(("pulses", worst < 1e-9, f"max rel dev {worst:.3e}"))
    if not checks:
        raise ValueError(f"unknown verify suite {suite!r}")
    report = "".join(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})\n"
                     for name, passed, detail in checks)
    return report, all(passed for _, passed, _ in checks)


class _Flag(NamedTuple):
    """A `--name` flag; its values have the type of its default."""

    name: str
    default: float | int | str
    help: str | None = None
    choices: tuple[str, ...] | None = None


class _Command(NamedTuple):
    """A subcommand: `run(cfg)` returns the body written under the header,
    CSV text or a JSON document, or for `verify` (text, all checks passed)."""

    help: str
    run: Callable[[dict], str | dict | list | tuple[str, bool]]
    flags: tuple[_Flag, ...]


# every subcommand, declared once: `build_parser` adds its flags and
# `_config` takes their defaults
_COMMANDS = {
    "spectrum": _Command("tracked eigenvalue sweep", _cmd_spectrum, (
        _Flag("k1", 0.0), _Flag("k2", 1.0),
        _Flag("k1_range", "", "lo:hi:step sweep of k1"),
        _Flag("k2_range", "", "lo:hi:step sweep of k2"),
    )),
    "atlas": _Command("locate and classify conical degeneracies", _cmd_atlas, (
        _Flag("k1_min", -1.0), _Flag("k1_max", 1.0), _Flag("k2_min", -2.0), _Flag("k2_max", 2.0),
        _Flag("resolution", 41),
    )),
    "cone": _Command("conical dispersion slopes vs angle", _cmd_cone, (
        _Flag("angles", 16), _Flag("dk", 1e-4),
    )),
    "dilate": _Command("dilated vs direct evolution", _cmd_dilate, (
        _Flag("k1", 0.0), _Flag("k2", 1.0), _Flag("time", 2.0), _Flag("steps", 2000),
        _Flag("m0_scale", 12.0),
    )),
    "pulses": _Command("waveform synthesis for the dilated Hamiltonian", _cmd_pulses, (
        _Flag("k1", 0.0), _Flag("k2", 1.0), _Flag("span", 0.08, "model-time span"),
        _Flag("samples", 201), _Flag("m0_scale", 1.3),
        _Flag("scale", 5.0e4, "dilation rate in Hz"),
    )),
    "eigensolve": _Command("eigenvalues from population ratios", _cmd_eigensolve, (
        _Flag("k1", 0.3), _Flag("k2", 1.0), _Flag("shots", 0), _Flag("seed", 0),
    )),
    "tomography": _Command("simulated MLE state tomography", _cmd_tomography, (
        _Flag("k1", 0.0), _Flag("k2", 1.0), _Flag("eigenindex", 3), _Flag("shots", 0),
        _Flag("seed", 0),
    )),
    "geophase": _Command("complex geometric phase on a loop", _cmd_geophase, (
        _Flag("radius", 0.2), _Flag("duration", 5000.0), _Flag("eigenindex", 1), _Flag("dt", 0.2),
    )),
    "modeswitch": _Command("chiral/non-chiral mode switching", _cmd_modeswitch, (
        _Flag("preset", "through_k2", choices=("through_k2", "through_k1")),
        _Flag("start", 1),
        _Flag("direction", "ccw", choices=("ccw", "cw")),
        _Flag("duration", 5.0e4), _Flag("dt", 0.4),
    )),
    "verify": _Command("run a property suite", _cmd_verify, (
        _Flag("suite", "all", choices=("line_spectra", "cone", "dilation", "pulses", "all")),
    )),
}


def build_parser() -> _Parser:
    """The `eplab` parser. A subcommand's namespace holds only the flags
    given, so `main` can tell them from the defaults and the file."""
    p = _Parser(prog="eplab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        s = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        s.add_argument("--config", help="JSON config file; flags override")
        s.add_argument("--output", "-o", help="output path, - for stdout")
        for f in command.flags:
            s.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           help=f.help, choices=f.choices)
    return p


_PARSER: _Parser | None = None


def _parser() -> _Parser:
    """The parser, built once per process: building it costs about 25x a
    parse. Each parse returns a fresh namespace."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    """Run one `eplab` command line and return its exit code."""
    try:
        given = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    command = _COMMANDS[given.pop("command")]
    output = given.pop("output", "-")
    try:
        cfg = _config(command.flags, given.pop("config", None), given)
        body, passed = command.run(cfg), True
        if isinstance(body, tuple):
            body, passed = body
        if not isinstance(body, str):
            body = json.dumps(body, indent=2, sort_keys=True) + "\n"
        _write(output, _header(cfg) + body)
    except (ValueError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK if passed else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
