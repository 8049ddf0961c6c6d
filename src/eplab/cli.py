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
import sys

import numpy as np

from . import __version__
from .numerics import NumericsError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    return f"{float(x):.12g}"


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


def _effective_config(args, keys) -> dict:
    """Defaults from argparse, overridden by --config file, overridden by
    explicitly passed flags."""
    cfg = {k: getattr(args, k) for k in keys}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        for k, v in file_cfg.items():
            if k in cfg:
                cfg[k] = v
            else:
                raise ValueError(f"unknown config key {k!r}")
        # explicit CLI flags win over the file
        for k in keys:
            if k in getattr(args, "_explicit", set()):
                cfg[k] = getattr(args, k)
    return cfg


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except Exception as exc:
        raise ValueError(f"range must be lo:hi:step, got {text!r}") from exc
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


class _TrackingParser(argparse.ArgumentParser):
    """Records which optional flags were given explicitly."""

    def parse_args(self, argv=None, namespace=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        # merge "--flag -1:1:0.05" into "--flag=-1:1:0.05" so range values
        # with a leading minus survive argparse's option heuristic
        merged = []
        skip = False
        for i, tok in enumerate(argv):
            if skip:
                skip = False
                continue
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            if (
                tok.startswith("--")
                and "=" not in tok
                and nxt is not None
                and nxt.startswith("-")
                and ":" in nxt
            ):
                merged.append(f"{tok}={nxt}")
                skip = True
            else:
                merged.append(tok)
        argv = merged
        ns = super().parse_args(argv, namespace)
        explicit = set()
        for token in argv:
            if token.startswith("--"):
                explicit.add(token[2:].split("=")[0].replace("-", "_"))
        ns._explicit = explicit
        return ns


def _cmd_spectrum(args) -> int:
    from .model import ModelParams, sweep_tracked_spectra

    cfg = _effective_config(args, ("k1", "k2", "k1_range", "k2_range"))
    if cfg["k1_range"]:
        sweep_vals = _parse_range(cfg["k1_range"])
        path = [ModelParams(float(v), float(cfg["k2"])) for v in sweep_vals]
        axis = "k1"
    elif cfg["k2_range"]:
        sweep_vals = _parse_range(cfg["k2_range"])
        path = [ModelParams(float(cfg["k1"]), float(v)) for v in sweep_vals]
        axis = "k2"
    else:
        raise ValueError("spectrum needs --k1-range or --k2-range")
    spectra = sweep_tracked_spectra(path)
    lines = [_header(cfg)]
    lines.append(f"{axis},E1_re,E1_im,E2_re,E2_im,E3_re,E3_im\n")
    for v, sp in zip(sweep_vals, spectra):
        row = [_fmt(v)]
        for e in sp.eigenvalues:
            row += [_fmt(e.real), _fmt(e.imag)]
        lines.append(",".join(row) + "\n")
    _write(args.output, "".join(lines))
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


def _cmd_cone(args) -> int:
    from .model import ConeDirection, ModelParams, cone_expansion, spectrum

    cfg = _effective_config(args, ("angles", "dk"))
    thetas = np.linspace(0.0, 2.0 * np.pi, int(cfg["angles"]), endpoint=False)
    lines = [_header(cfg), "theta,slope_plus,slope_minus,slope_plus_fd,slope_minus_fd\n"]
    for th in thetas:
        c = ConeDirection(float(th), float(cfg["dk"]))
        sp, sm = cone_expansion(c)
        vals = np.sort(
            spectrum(ModelParams(c.dk1, 1.0 + c.dk2)).eigenvalues.real
        )[::-1]
        fd_p = (vals[0] - 3.0) / c.dk
        fd_m = (vals[1] - 3.0) / c.dk
        lines.append(
            ",".join(_fmt(v) for v in (th, sp, sm, fd_p, fd_m)) + "\n"
        )
    _write(args.output, "".join(lines))
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
    lines = [_header(cfg), "t,postselect_prob,infidelity,joint_norm\n"]
    for row in zip(joint.times[rows], probs[rows], infid, joint.norms[rows]):
        lines.append(",".join(_fmt(v) for v in row) + "\n")
    _write(args.output, "".join(lines))
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
    import io

    buf = io.StringIO()
    emit_waveforms(channels, buf)
    _write(args.output, _header(cfg) + buf.getvalue())
    return EXIT_OK


def _cmd_eigensolve(args) -> int:
    from .model import ModelParams, analytic_eigenstate, spectrum
    from .readout import (
        DEFAULT_SETTINGS,
        ratios_from_energies,
        simulate_counts,
        solve_eigenvalues,
    )

    cfg = _effective_config(args, ("k1", "k2", "shots", "seed"))
    sp = spectrum(ModelParams(float(cfg["k1"]), float(cfg["k2"])))
    truth = sp.eigenvalues.real
    if int(cfg["shots"]) == 0:
        ratios = ratios_from_energies(truth)
        tol = 1e-6
    else:
        rng = np.random.default_rng(int(cfg["seed"]))
        states = [
            analytic_eigenstate(ModelParams(float(cfg["k1"]), float(cfg["k2"])), e)
            for e in truth
        ]
        ps = [
            simulate_counts(st, s, int(cfg["shots"]), rng=rng).populations
            for st, s in zip(states, DEFAULT_SETTINGS)
        ]
        ratios = np.array([p[1] / p[2] for p in ps])
        tol = 1e6
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
        density_to_json,
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
    psi = psi / np.linalg.norm(psi)
    rng = np.random.default_rng(int(cfg["seed"]))
    records = [
        simulate_counts(psi, s, int(cfg["shots"]), rng=rng)
        for s in TOMOGRAPHY_SETTINGS
    ]
    rho = mle_reconstruct(records)
    doc = {
        "density": json.loads(density_to_json(rho)),
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
        from .model import ModelParams, line_spectrum, spectrum

        worst = 0.0
        for k1 in np.linspace(-1, 1, 41):
            p = ModelParams(float(k1), 1.0)
            got = np.sort(spectrum(p).eigenvalues.real)[::-1]
            want = np.sort(line_spectrum(p))[::-1]
            worst = max(worst, float(np.abs(got - want).max()))
        checks.append(("line_spectra", worst < 1e-9, f"max dev {worst:.3e}"))
    if suite in ("cone", "all"):
        from .model import ConeDirection, ModelParams, cone_expansion, spectrum

        worst = 0.0
        for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            c = ConeDirection(float(th), 1e-4)
            sp, sm = cone_expansion(c)
            vals = np.sort(spectrum(ModelParams(c.dk1, 1 + c.dk2)).eigenvalues.real)[::-1]
            worst = max(
                worst,
                abs((vals[0] - 3) / c.dk - sp) / max(abs(sp), 1e-3),
                abs((vals[1] - 3) / c.dk - sm) / max(abs(sm), 1e-3),
            )
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
    s.add_argument("--dt", type=float, default=0.025)
    s.set_defaults(func=_cmd_geophase)

    s = sub.add_parser("modeswitch", help="chiral/non-chiral mode switching")
    common(s)
    s.add_argument("--preset", choices=("through_k2", "through_k1"), default="through_k2")
    s.add_argument("--start", type=int, default=1)
    s.add_argument("--direction", choices=("ccw", "cw"), default="ccw")
    s.add_argument("--duration", type=float, default=5.0e4)
    s.add_argument("--dt", type=float, default=0.1)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
