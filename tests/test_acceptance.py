"""End-to-end acceptance suite: one test (one pass/fail line under
pytest -v) per headline claim, at the stated tolerances."""

import subprocess
import sys
import time

import numpy as np
import pytest

from eplab.dilation import dilated_evolve, build_frame
from eplab.ep_atlas import (
    classify_ep,
    locate_conical_points,
    locate_line_degeneracies,
    overlap_scaling,
    trace_exceptional_line,
)
from eplab.experiments import LoopSpec, geometric_phase, mode_switch
from eplab.model import (
    ConeDirection,
    ModelParams,
    build_hamiltonian,
    build_tb_block,
    cone_expansion,
    discriminant,
    line_spectrum,
    spectrum,
)
from eplab.numerics import expm
from eplab.pulse_synth import (
    model_htot_path,
    nv_levels,
    synthesize_pulses,
    verify_rwa_roundtrip,
)
from eplab.readout import (
    DEFAULT_SETTINGS,
    TOMOGRAPHY_SETTINGS,
    fidelity,
    mle_reconstruct,
    ratios_from_energies,
    simulate_counts,
    solve_eigenvalues,
)
from eplab.model import _eigenvectors


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_line_spectra():
    t0 = time.time()
    worst = 0.0
    worst_im = 0.0
    for k1 in np.arange(-1.0, 1.0 + 1e-12, 0.02):
        p = ModelParams(float(k1), 1.0)
        got = spectrum(p).eigenvalues
        want = np.sort(line_spectrum(p))[::-1]
        worst = max(worst, float(np.abs(np.sort(got.real)[::-1] - want).max()))
        worst_im = max(worst_im, float(np.abs(got.imag).max()))
    for k2 in np.arange(0.3, 1.4 + 1e-12, 0.02):
        p = ModelParams(0.0, float(k2))
        got = spectrum(p).eigenvalues
        want = np.sort(line_spectrum(p))[::-1]
        worst = max(worst, float(np.abs(np.sort(got.real)[::-1] - want).max()))
        worst_im = max(worst_im, float(np.abs(got.imag).max()))
    elapsed = time.time() - t0
    _report(
        1,
        worst < 1e-9 and worst_im < 1e-9 and elapsed < 5.0,
        f"max dev {worst:.2e}, max imag {worst_im:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_conical_point_location():
    points = locate_conical_points()
    errs = []
    for target in ((0.0, 1.0), (0.0, -1.0)):
        best = min(points, key=lambda p: np.hypot(p[0] - target[0], p[1] - target[1]))
        errs.append(np.hypot(best[0] - target[0], best[1] - target[1]))
        assert abs(float(discriminant(*best))) < 1e-12
    _report(2, max(errs) < 1e-6, f"location errors {errs[0]:.2e}, {errs[1]:.2e}")


def test_criterion_03_classification():
    rec = classify_ep((0.0, 1.0))
    trace = trace_exceptional_line((0.05, 1.44), 0.01)
    typical = tuple(trace.vertices[len(trace.vertices) // 2])
    rec_t = classify_ep(typical)
    ok = (
        rec.kind == "dirac"
        and abs(rec.dispersion_exponent - 1.0) <= 0.02
        and rec.coalescence > 0.999
        and rec_t.kind == "typical"
        and abs(rec_t.dispersion_exponent - 0.5) <= 0.05
    )
    _report(
        3,
        ok,
        f"dirac exp {rec.dispersion_exponent:.3f} coal {rec.coalescence:.5f}; "
        f"typical at {typical} exp {rec_t.dispersion_exponent:.3f}",
    )


def test_criterion_04_cone_slopes():
    worst = 0.0
    for th in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        c = ConeDirection(float(th), 1e-4)
        sp, sm = cone_expansion(c)
        vals = np.sort(spectrum(ModelParams(c.dk1, 1.0 + c.dk2)).eigenvalues.real)[::-1]
        worst = max(
            worst,
            abs((vals[0] - 3.0) / c.dk - sp) / max(abs(sp), 1e-3),
            abs((vals[1] - 3.0) / c.dk - sm) / max(abs(sm), 1e-3),
        )
    _report(4, worst < 0.01, f"max relative slope error {worst:.2e}")


def test_criterion_05_overlap_scaling():
    offsets = np.geomspace(1e-3, 1e-1, 9)
    exps = []
    for direction in ((1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        slope, _ = overlap_scaling(offsets, center=(0.0, 1.0), direction=direction)
        exps.append(slope)
    ok = all(abs(e - 2.0) <= 0.1 for e in exps)
    _report(5, ok, "exponents " + ", ".join(f"{e:.3f}" for e in exps))


def test_criterion_06_next_nearest_degeneracies():
    fam = lambda k1: build_tb_block(ModelParams(k1, 1.0), reach=2)
    points = locate_line_degeneracies(fam, (-1.0, 1.0))
    errs = [min(abs(p - 0.5) for p in points), min(abs(p + 0.5) for p in points)]
    _report(6, max(errs) < 1e-3, f"errors at +-0.5: {errs[0]:.2e}, {errs[1]:.2e}")


def test_criterion_07_dilation_equivalence():
    t0 = time.time()
    worst_inf = 0.0
    worst_norm = 0.0
    worst_herm = 0.0
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    for k1, k2 in ((0.0, 1.0), (0.3, 1.0), (0.0, 0.8)):
        h = build_hamiltonian(ModelParams(k1, k2)).astype(complex)
        joint, post, _ = dilated_evolve(psi0, h, 2.0, steps=2000, m0_scale=12.0)
        for i in range(0, 2001, 50):
            t = joint.times[i]
            direct = expm(-1j * t * h) @ psi0
            direct /= np.linalg.norm(direct)
            worst_inf = max(worst_inf, 1.0 - abs(np.vdot(direct, post.states[i])) ** 2)
        worst_norm = max(worst_norm, float(np.abs(joint.norms - 1.0).max()))
        frame = build_frame(h, 1.0, m0_scale=12.0)
        worst_herm = max(
            worst_herm,
            np.abs(frame.Gamma - frame.Gamma.conj().T).max(),
            np.abs(frame.Lambda - frame.Lambda.conj().T).max(),
        )
    elapsed = time.time() - t0
    ok = worst_inf < 1e-10 and worst_norm < 1e-9 and worst_herm < 1e-9 and elapsed < 30.0
    _report(
        7,
        ok,
        f"infid {worst_inf:.2e}, norm drift {worst_norm:.2e}, "
        f"herm {worst_herm:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_pulse_round_trip():
    levels = nv_levels()
    worst = 0.0
    cases = (
        (0.0, 1.0, 0.08, 1.3),  # waveform preset at the conical point
        (0.0, 1.3, 0.05, 1.5),  # time-dependent preset
        (0.3, 0.5, 0.3, 2.0),  # generic constant-parameter case
    )
    for k1, k2, span, m0 in cases:
        times, htot = model_htot_path(
            k1, k2, t_model_span=span, n_samples=151, m0_scale=m0
        )
        ch, d = synthesize_pulses(htot, times, levels)
        dev = verify_rwa_roundtrip(ch, d, levels, times, htot)
        worst = max(worst, dev / np.abs(htot).max())
    _report(8, worst < 1e-9, f"max relative round-trip deviation {worst:.2e}")


def test_criterion_09_geometric_phases():
    targets = {1: -0.14, 2: 0.10, 3: 0.04}
    devs = {}
    stability = {}
    for idx, tgt in targets.items():
        rep = geometric_phase(LoopSpec(T=5000.0), idx)
        devs[idx] = (abs(rep.geometric.imag - tgt), abs(rep.geometric.real))
        rep2 = geometric_phase(LoopSpec(T=10000.0), idx)
        stability[idx] = abs(rep2.geometric - rep.geometric)
    ok = all(d[0] <= 0.01 and d[1] < 0.02 for d in devs.values()) and all(
        s <= 0.01 for s in stability.values()
    )
    _report(
        9,
        ok,
        "imag devs "
        + ", ".join(f"{devs[i][0]:.4f}" for i in (1, 2, 3))
        + "; T-doubling shifts "
        + ", ".join(f"{stability[i]:.4f}" for i in (1, 2, 3)),
    )


def test_criterion_10_mode_switch_table():
    expected = {
        ("through_k2", 1, "ccw"): 1,
        ("through_k2", 2, "ccw"): 1,
        ("through_k2", 1, "cw"): 2,
        ("through_k2", 2, "cw"): 2,
        ("through_k1", 1, "ccw"): 1,
        ("through_k1", 2, "ccw"): 1,
        ("through_k1", 1, "cw"): 1,
        ("through_k1", 2, "cw"): 1,
    }
    rows = []
    ok = True
    for (kind, start, direction), end in expected.items():
        rep = mode_switch(LoopSpec(kind=kind, T=5.0e4, direction=direction), start)
        good = rep.end_index == end and rep.overlap > 0.99 and rep.efficiency > 0.60
        ok = ok and good
        rows.append(
            f"{kind} {start} {direction} -> {rep.end_index} "
            f"(ovl {rep.overlap:.3f}, eff {rep.efficiency:.2f})"
        )
    _report(10, ok, "; ".join(rows))


def test_criterion_11_ep_fidelities():
    from eplab.readout import GFunction, steady_state_eigenstate

    p = ModelParams(0.0, 1.0)
    # the coalesced pair, reached from two independent initial states
    psi1 = steady_state_eigenstate(p, GFunction("i_h")).state
    psi2 = steady_state_eigenstate(
        p, GFunction("i_h"), psi_init=np.array([1.0, 0.5j, -0.2])
    ).state
    psi3 = steady_state_eigenstate(p, GFunction("inverse_shifted", -0.1)).state
    rho1 = np.outer(psi1, psi1.conj())
    rho2 = np.outer(psi2, psi2.conj())
    rho3 = np.outer(psi3, psi3.conj())
    f12 = fidelity(rho1, rho2)
    f13 = fidelity(rho1, rho3)
    f23 = fidelity(rho2, rho3)
    ok = f12 > 0.999 and abs(f13 - 4.0 / 13.0) <= 0.005 and abs(f23 - 4.0 / 13.0) <= 0.005
    _report(11, ok, f"F12 {f12:.4f}, F13 {f13:.4f}, F23 {f23:.4f}")


def test_criterion_12_readout_inversion():
    worst = 0.0
    for k1 in np.linspace(0.05, 0.45, 5):
        for k2 in np.linspace(0.3, 0.7, 5):
            vals = spectrum(ModelParams(float(k1), float(k2))).eigenvalues.real
            out = solve_eigenvalues(ratios_from_energies(vals))
            worst = max(worst, float(np.abs(out - vals).max()))
    p = ModelParams(0.0, 0.8)
    vals = spectrum(p).eigenvalues.real
    states = list(_eigenvectors(vals, p.k1, p.k2).T)
    rng = np.random.default_rng(7)
    errs = []
    for _ in range(100):
        ratios = []
        for st, s in zip(states, DEFAULT_SETTINGS):
            pops = simulate_counts(st, s, 100_000, rng=rng).populations
            ratios.append(pops[1] / pops[2])
        out = solve_eigenvalues(np.array(ratios), residual_tol=1e6)
        errs.append(float(np.abs(out - vals).max()))
    med = float(np.median(errs))
    ok = worst < 1e-6 and med < 0.1
    _report(12, ok, f"noiseless worst {worst:.2e}, noisy median |dE| {med:.3f}")


def test_criterion_13_mle_quality():
    psi12 = np.array([0.0, 0.0, 1.0], dtype=complex)
    psi3 = _eigenvectors(np.array([0.0]), 0.0, 1.0)[:, 0]
    ok = True
    details = []
    rng = np.random.default_rng(42)
    for psi in (psi12, psi3):
        truth = np.outer(psi, psi.conj())
        recs0 = [simulate_counts(psi, s, 0) for s in TOMOGRAPHY_SETTINGS]
        rho0 = mle_reconstruct(recs0)
        recs = [simulate_counts(psi, s, 100_000, rng=rng) for s in TOMOGRAPHY_SETTINGS]
        rho = mle_reconstruct(recs)
        for r in (rho0, rho):
            ok = ok and np.linalg.eigvalsh(r).min() > -1e-10
            ok = ok and abs(np.trace(r).real - 1.0) < 1e-10
        f0, fn = fidelity(rho0, truth), fidelity(rho, truth)
        ok = ok and f0 > 0.9999 and fn > 0.99
        details.append(f"noiseless {f0:.5f}, 1e5-shot {fn:.4f}")
    _report(13, ok, "; ".join(details))


@pytest.mark.parametrize(
    "argv",
    [
        ["eigensolve", "--shots", "100000", "--seed", "5"],
        ["tomography", "--shots", "100000", "--seed", "9"],
        ["spectrum", "--k2", "1", "--k1-range", "-1:1:0.05"],
    ],
)
def test_criterion_14_determinism(argv, tmp_path):
    outs = []
    for name in ("a.out", "b.out"):
        path = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "eplab.cli"] + argv + ["-o", str(path)],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr.decode()
        outs.append(path.read_bytes())
    _report(14, outs[0] == outs[1], f"{argv[0]}: {len(outs[0])} bytes identical")
