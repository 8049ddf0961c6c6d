"""Command-line entry point.

Every subcommand reads an optional JSON config (flags override file
values), writes machine-readable CSV/JSON with a provenance header line
`# config_hash=... version=...`, and is byte-deterministic for a fixed
config and seed. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys

import numpy as np

from . import __version__
from .numerics import NumericsError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _csv_rows(table) -> str:
    """CSV text of a 2-D table of reals, one line per row, each value as
    `f"{float(x):.12g}"` writes it (also -0, nan and inf), through one
    "%.12g,..." template over the rows of `.tolist()`."""
    table = np.asarray(table, dtype=float)
    template = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return "".join([template % tuple(row) for row in table.tolist()])


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header(cfg: dict) -> str:
    return f"# config_hash={_config_hash(cfg)} version={__version__}\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
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


def _effective_config(args, keys) -> dict:
    """Defaults from argparse, overridden by --config file, overridden by
    explicitly passed flags. The file must hold a JSON object of known
    keys with values as `_check_file_value` takes them; else ValueError."""
    cfg = {k: getattr(args, k) for k in keys}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file must hold a JSON object, not {type(file_cfg).__name__}")
        for k, v in file_cfg.items():
            if k not in cfg:
                raise ValueError(f"unknown config key {k!r}")
            _check_file_value(k, v, cfg[k])
            cfg[k] = v
        # explicit CLI flags win over the file
        for k in keys:
            if k in getattr(args, "_explicit", set()):
                cfg[k] = getattr(args, k)
    return cfg


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


class _TrackingParser(argparse.ArgumentParser):
    """Records which optional flags were given explicitly.

    A value with a leading minus that reads as a number or a range
    (-1e-3, -.5, -inf, -1:1:0.05) is a value, not an unknown option:
    Python 3.11's argparse takes only -1 and -1.5 for negative numbers.
    Subparsers are built from this class, so every subcommand shares it.
    """

    def __init__(self, *args, **kwargs):
        # no prefixes: `_explicit` is read off the raw tokens, so an
        # abbreviated flag would set its value but lose to --config
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def parse_args(self, argv=None, namespace=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        ns = super().parse_args(argv, namespace)
        explicit = set()
        for token in argv:
            if token.startswith("--"):
                explicit.add(token[2:].split("=")[0].replace("-", "_"))
        ns._explicit = explicit
        return ns


def _cmd_spectrum(args) -> int:
    from .model import ModelParams, sweep_tracked_eigenvalues

    cfg = _effective_config(args, ("k1", "k2", "k1_range", "k2_range"))
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
    _write(args.output, _header(cfg) + f"{axis},E1_re,E1_im,E2_re,E2_im,E3_re,E3_im\n"
           + _csv_rows(table))
    return EXIT_OK


def _cmd_atlas(args) -> int:
    from .ep_atlas import classify_ep, locate_conical_points

    cfg = _effective_config(args, ("k1_min", "k1_max", "k2_min", "k2_max", "resolution"))
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
    _write(args.output, _header(cfg) + json.dumps(records, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cone_sheets(c) -> np.ndarray:
    """Real parts of the spectrum at (0, 1) + dk (cos theta, sin theta),
    one descending row per direction of `c`."""
    from .model import ModelParams, eigenvalues

    return -np.sort(-eigenvalues(ModelParams(c.dk1, 1.0 + c.dk2)).real)


def _cmd_cone(args) -> int:
    from .model import ConeDirection, cone_expansion

    cfg = _effective_config(args, ("angles", "dk"))
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
    _write(args.output, _header(cfg) + "theta,slope_plus,slope_minus,slope_plus_fd,slope_minus_fd\n"
           + _csv_rows(np.column_stack([thetas, sp, sm, fd_p, fd_m])))
    return EXIT_OK


def _direct_infidelity(h, psi0, times, post_states) -> np.ndarray:
    """1 - |<direct|post>|^2 per row, direct = exp(-i t h) psi0 normalized."""
    from .numerics import expm

    direct = expm(-1j * times[:, None, None] * h) @ psi0
    direct /= np.linalg.norm(direct, axis=-1, keepdims=True)
    return 1.0 - np.abs(np.sum(direct.conj() * post_states, axis=-1)) ** 2


def _cmd_dilate(args) -> int:
    from .dilation import dilated_evolve
    from .model import ModelParams, build_hamiltonian

    cfg = _effective_config(args, ("k1", "k2", "time", "steps", "m0_scale"))
    h = build_hamiltonian(ModelParams(cfg["k1"], cfg["k2"])).astype(complex)
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    joint, post, probs = dilated_evolve(
        psi0, h, float(cfg["time"]), steps=int(cfg["steps"]),
        m0_scale=float(cfg["m0_scale"]),
    )
    rows = slice(None, None, max(len(joint.times) // 400, 1))
    infid = np.maximum(_direct_infidelity(h, psi0, joint.times[rows], post.states[rows]), 0.0)
    table = np.column_stack([joint.times[rows], probs[rows], infid, joint.norms[rows]])
    _write(args.output, _header(cfg) + "t,postselect_prob,infidelity,joint_norm\n" + _csv_rows(table))
    return EXIT_OK


def _cmd_pulses(args) -> int:
    from .pulse_synth import (
        emit_waveforms,
        model_htot_path,
        nv_levels,
        synthesize_pulses,
        verify_rwa_roundtrip,
    )

    cfg = _effective_config(
        args, ("k1", "k2", "span", "samples", "m0_scale", "scale")
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
    _write(args.output, _header(cfg) + emit_waveforms(channels))
    return EXIT_OK


def _cmd_eigensolve(args) -> int:
    from .model import ModelParams, discriminant, spectrum
    from .readout import DEFAULT_SETTINGS, K_MAX, simulate_counts, solve_eigenvalues

    cfg = _effective_config(args, ("k1", "k2", "shots", "seed"))
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
    doc = {
        "truth": [float(v) for v in truth],
        "recovered": [float(v) for v in recovered],
        "max_abs_error": float(np.abs(recovered - truth).max()),
        "shots": int(cfg["shots"]),
    }
    _write(args.output, _header(cfg) + json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_tomography(args) -> int:
    from .model import ModelParams, spectrum
    from .readout import (
        TOMOGRAPHY_SETTINGS,
        fidelity,
        mle_reconstruct,
        simulate_counts,
    )

    cfg = _effective_config(args, ("k1", "k2", "eigenindex", "shots", "seed"))
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
    doc = {
        "density": [[[float(v.real), float(v.imag)] for v in row] for row in rho],
        "fidelity_vs_pure_theory": fidelity(rho, np.outer(psi, psi.conj())),
        "eigenvalue": [float(sp.eigenvalues[index].real), float(sp.eigenvalues[index].imag)],
        "shots": int(cfg["shots"]),
    }
    _write(args.output, _header(cfg) + json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_geophase(args) -> int:
    from .experiments import LoopSpec, geometric_phase

    cfg = _effective_config(args, ("radius", "duration", "eigenindex", "dt"))
    rep = geometric_phase(
        LoopSpec(R=float(cfg["radius"]), T=float(cfg["duration"])),
        int(cfg["eigenindex"]), dt=float(cfg["dt"]),
    )
    doc = {
        "total": [rep.total.real, rep.total.imag],
        "dynamical": [rep.dynamical.real, rep.dynamical.imag],
        "geometric": [rep.geometric.real, rep.geometric.imag],
        "eigenindex": rep.eigenindex,
    }
    _write(args.output, _header(cfg) + json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_modeswitch(args) -> int:
    from .experiments import LoopSpec, mode_switch

    cfg = _effective_config(args, ("preset", "start", "direction", "duration", "dt"))
    rep = mode_switch(
        LoopSpec(kind=cfg["preset"], T=float(cfg["duration"]), direction=cfg["direction"]),
        int(cfg["start"]), dt=float(cfg["dt"]),
    )
    doc = {
        "start_index": rep.start_index,
        "end_index": rep.end_index,
        "overlap": rep.overlap,
        "overlaps": list(rep.overlaps),
        "efficiency": rep.efficiency,
        "direction": rep.direction,
    }
    _write(args.output, _header(cfg) + json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _effective_config(args, ("suite",))
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
    lines = [_header(cfg)]
    ok = True
    for name, passed, detail in checks:
        ok = ok and passed
        lines.append(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})\n")
    _write(args.output, "".join(lines))
    return EXIT_OK if ok else EXIT_DOMAIN


def build_parser() -> _TrackingParser:
    p = _TrackingParser(prog="eplab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--output", "-o", default="-", help="output path, - for stdout")

    s = sub.add_parser("spectrum", help="tracked eigenvalue sweep")
    common(s)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--k1-range", default="", help="lo:hi:step sweep of k1")
    s.add_argument("--k2-range", default="", help="lo:hi:step sweep of k2")
    s.set_defaults(func=_cmd_spectrum)

    s = sub.add_parser("atlas", help="locate and classify conical degeneracies")
    common(s)
    s.add_argument("--k1-min", type=float, default=-1.0)
    s.add_argument("--k1-max", type=float, default=1.0)
    s.add_argument("--k2-min", type=float, default=-2.0)
    s.add_argument("--k2-max", type=float, default=2.0)
    s.add_argument("--resolution", type=int, default=41)
    s.set_defaults(func=_cmd_atlas)

    s = sub.add_parser("cone", help="conical dispersion slopes vs angle")
    common(s)
    s.add_argument("--angles", type=int, default=16)
    s.add_argument("--dk", type=float, default=1e-4)
    s.set_defaults(func=_cmd_cone)

    s = sub.add_parser("dilate", help="dilated vs direct evolution")
    common(s)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--time", type=float, default=2.0)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--m0-scale", type=float, default=12.0)
    s.set_defaults(func=_cmd_dilate)

    s = sub.add_parser("pulses", help="waveform synthesis for the dilated Hamiltonian")
    common(s)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--span", type=float, default=0.08, help="model-time span")
    s.add_argument("--samples", type=int, default=201)
    s.add_argument("--m0-scale", type=float, default=1.3)
    s.add_argument("--scale", type=float, default=5.0e4, help="dilation rate in Hz")
    s.set_defaults(func=_cmd_pulses)

    s = sub.add_parser("eigensolve", help="eigenvalues from population ratios")
    common(s)
    s.add_argument("--k1", type=float, default=0.3)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--shots", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_eigensolve)

    s = sub.add_parser("tomography", help="simulated MLE state tomography")
    common(s)
    s.add_argument("--k1", type=float, default=0.0)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--eigenindex", type=int, default=3)
    s.add_argument("--shots", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_tomography)

    s = sub.add_parser("geophase", help="complex geometric phase on a loop")
    common(s)
    s.add_argument("--radius", type=float, default=0.2)
    s.add_argument("--duration", type=float, default=5000.0)
    s.add_argument("--eigenindex", type=int, default=1)
    s.add_argument("--dt", type=float, default=0.2)
    s.set_defaults(func=_cmd_geophase)

    s = sub.add_parser("modeswitch", help="chiral/non-chiral mode switching")
    common(s)
    s.add_argument("--preset", choices=("through_k2", "through_k1"), default="through_k2")
    s.add_argument("--start", type=int, default=1)
    s.add_argument("--direction", choices=("ccw", "cw"), default="ccw")
    s.add_argument("--duration", type=float, default=5.0e4)
    s.add_argument("--dt", type=float, default=0.4)
    s.set_defaults(func=_cmd_modeswitch)

    s = sub.add_parser("verify", help="run a property suite")
    common(s)
    s.add_argument(
        "--suite",
        default="all",
        choices=("line_spectra", "cone", "dilation", "pulses", "all"),
    )
    s.set_defaults(func=_cmd_verify)
    return p


_PARSER: _TrackingParser | None = None


def _parser() -> _TrackingParser:
    """The parser, built once per process: building it costs about 25x a
    parse. Each parse returns a fresh namespace with its own `_explicit`."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
