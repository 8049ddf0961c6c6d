import numpy as np
import pytest

from eplab.numerics import NumericsError
from eplab.pulse_synth import (
    NV_A,
    PulseChannel,
    emit_waveforms,
    model_htot_path,
    nv_levels,
    synthesize_pulses,
    verify_rwa_roundtrip,
)


def _random_block_htot(rng, n):
    """Hermitian (n, 6, 6) samples with support only on the driven pairs."""
    htot = np.zeros((n, 6, 6), dtype=complex)
    for i in range(6):
        htot[:, i, i] = rng.normal(size=n)
    for i, j in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        htot[:, i, j] = z
        htot[:, j, i] = np.conj(z)
    return htot * 1e5


def test_level_energies_reference_points():
    lv = nv_levels()
    # |mS=0, mI=0> is the energy zero of the spin Hamiltonian
    assert lv.energies[4] == 0.0
    # nuclear-spin flip leaves the electron splittings shifted by exactly A
    assert abs(lv.omega_ij["12"] - lv.omega_ij["45"]) == pytest.approx(
        abs(NV_A), rel=1e-12
    )
    assert abs(lv.omega_ij["23"] - lv.omega_ij["56"]) == pytest.approx(
        abs(NV_A), rel=1e-12
    )


def test_double_quantum_frequency_identity():
    lv = nv_levels()
    e = lv.energies
    # signed differences: (E1-E3) = (E1-E2) + (E2-E3)
    assert (e[0] - e[2]) == pytest.approx((e[0] - e[1]) + (e[1] - e[2]))
    assert lv.omega_ij["13"] == pytest.approx(abs(e[0] - e[2]), rel=1e-12)


def test_roundtrip_constant_target():
    rng = np.random.default_rng(5)
    htot = np.broadcast_to(_random_block_htot(rng, 1), (8, 6, 6)).copy()
    times = np.arange(8) * 1e-8
    lv = nv_levels()
    channels, d = synthesize_pulses(htot, times, lv)
    assert verify_rwa_roundtrip(channels, d, lv, times, htot) < 1e-9 * np.abs(htot).max()


def test_roundtrip_time_dependent_target():
    rng = np.random.default_rng(6)
    htot = _random_block_htot(rng, 64)
    times = np.arange(64) * 2e-9
    lv = nv_levels()
    channels, d = synthesize_pulses(htot, times, lv)
    err = verify_rwa_roundtrip(channels, d, lv, times, htot)
    assert err < 1e-8 * np.abs(htot).max()


def test_amplitude_scaling_is_linear():
    rng = np.random.default_rng(7)
    htot = _random_block_htot(rng, 16)
    times = np.arange(16) * 1e-9
    lv = nv_levels()
    ch1, _ = synthesize_pulses(htot, times, lv)
    ch3, _ = synthesize_pulses(3.0 * htot, times, lv)
    for a, b in zip(ch1, ch3):
        assert np.allclose(3.0 * a.amplitude_samples, b.amplitude_samples, rtol=1e-12)


def test_unreachable_coupling_raises():
    rng = np.random.default_rng(8)
    htot = _random_block_htot(rng, 4)
    htot[:, 0, 3] = 1e3  # cross-block element: no drive connects levels 1 and 4
    htot[:, 3, 0] = 1e3
    times = np.arange(4) * 1e-9
    with pytest.raises(NumericsError, match="unreachable"):
        synthesize_pulses(htot, times, nv_levels())


def test_input_validation():
    lv = nv_levels()
    with pytest.raises(ValueError, match="shape"):
        synthesize_pulses(np.zeros((4, 3, 3)), np.arange(4.0), lv)
    with pytest.raises(ValueError, match="grid"):
        synthesize_pulses(np.zeros((4, 6, 6)), np.array([0.0, 1.0, 1.0, 3.0]), lv)
    bad = np.zeros((2, 6, 6), dtype=complex)
    bad[:, 0, 1] = 1.0  # missing the conjugate partner
    with pytest.raises(ValueError, match="Hermitian"):
        synthesize_pulses(bad, np.array([0.0, 1e-9]), lv)


def test_phase_continuity_across_sign_flip():
    # an entry crossing zero through a sign change must unwrap smoothly
    n = 101
    times = np.arange(n) * 1e-9
    htot = np.zeros((n, 6, 6), dtype=complex)
    x = np.linspace(-1.0, 1.0, n)
    htot[:, 0, 1] = 1e5 * x  # real, changes sign at the midpoint
    htot[:, 1, 0] = 1e5 * x
    channels, d = synthesize_pulses(htot, times, nv_levels())
    mw2 = next(ch for ch in channels if ch.label == "MW2")
    assert np.abs(np.diff(mw2.phase_samples)).max() < np.pi + 1e-9
    err = verify_rwa_roundtrip(channels, d, nv_levels(), times, htot)
    assert err < 1e-9 * 1e5


def test_phase_held_through_zero_amplitude_runs():
    # leading zeros take the first live phase, later zeros the last live one
    times = np.arange(8) * 1e-9
    htot = np.zeros((8, 6, 6), dtype=complex)
    htot[:, 0, 1] = 1e5 * np.array([0, 0, 1j, 1j, 0, 0, -1, 0])
    htot[:, 1, 0] = htot[:, 0, 1].conj()
    channels, _ = synthesize_pulses(htot, times, nv_levels())
    mw2 = next(ch for ch in channels if ch.label == "MW2")
    held = np.pi * np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
    assert np.allclose(mw2.phase_samples, -held, atol=1e-12)


def test_carrier_mismatch_detected():
    rng = np.random.default_rng(9)
    htot = _random_block_htot(rng, 4)
    times = np.arange(4) * 1e-9
    lv = nv_levels()
    channels, d = synthesize_pulses(htot, times, lv)
    detuned = [
        PulseChannel(
            ch.label, ch.omega * 1.001, ch.amplitude_samples, ch.phase_samples, ch.grid_dt
        )
        for ch in channels
    ]
    with pytest.raises(ValueError, match="carrier"):
        verify_rwa_roundtrip(detuned, d, lv, times, htot)


def test_waveform_csv_roundtrip():
    # 12 significant digits carry every sample to 1e-11 relative
    rng = np.random.default_rng(10)
    htot = _random_block_htot(rng, 32)
    times = np.arange(32) * 1e-9
    channels, _ = synthesize_pulses(htot, times, nv_levels())
    header, *rows = emit_waveforms(channels).splitlines()
    assert header == "channel,label,omega_hz,t_s,amplitude_hz,phase_rad"
    fields = [row.split(",") for row in rows]
    assert len(fields) == 6 * 32
    for idx, ch in enumerate(channels):
        mine = [f for f in fields if f[0] == str(idx)]
        assert {f[1] for f in mine} == {ch.label}
        t_s, amp, phase = np.array([f[3:] for f in mine], dtype=float).T
        assert float(mine[0][2]) == pytest.approx(ch.omega, rel=1e-11)
        assert np.allclose(t_s, np.arange(32) * ch.grid_dt, rtol=1e-11, atol=0.0)
        assert np.allclose(amp, ch.amplitude_samples, rtol=1e-11)
        assert np.allclose(phase, ch.phase_samples, rtol=1e-11, atol=1e-11)


def test_waveform_csv_bytes_match_per_sample_formatting():
    # the text equals that of formatting each sample on its own, also for
    # -0, nan, inf and a "%" in a label
    rng = np.random.default_rng(11)
    channels, _ = synthesize_pulses(_random_block_htot(rng, 40), np.arange(40) * 1e-9, nv_levels())
    amps, phases = np.array([0.0, np.nan, 1e300, 5e-324]), np.array([-0.0, np.inf, -np.inf, 0.3])
    channels.append(PulseChannel("EF%1", 2.5e6, amps, phases, 1.0 / 3.0))
    want = ["channel,label,omega_hz,t_s,amplitude_hz,phase_rad\n"]
    for idx, ch in enumerate(channels):
        for k in range(ch.amplitude_samples.size):
            want.append(
                f"{idx},{ch.label},{ch.omega:.12g},{k * ch.grid_dt:.12g},"
                f"{ch.amplitude_samples[k]:.12g},{ch.phase_samples[k]:.12g}\n"
            )
    assert emit_waveforms(channels) == "".join(want)


def test_waveform_empty_channel_list():
    assert emit_waveforms([]) == "channel,label,omega_hz,t_s,amplitude_hz,phase_rad\n"


def test_model_path_synthesis_end_to_end():
    times, htot = model_htot_path(0.0, 1.0, t_model_span=0.05, n_samples=51)
    lv = nv_levels()
    channels, d = synthesize_pulses(htot, times, lv)
    err = verify_rwa_roundtrip(channels, d, lv, times, htot)
    assert err < 1e-8 * np.abs(htot).max()
    # physical grid maps back to the requested model span
    assert times[-1] * 2.0 * np.pi * 5.0e4 == pytest.approx(0.05)
