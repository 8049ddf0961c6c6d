import io

import numpy as np
import pytest

from eplab.numerics import NumericsError
from eplab.pulse_synth import (
    NVConstants,
    PulseChannel,
    emit_waveforms,
    level_structure_json,
    model_htot_path,
    nv_levels,
    read_waveforms,
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
        abs(NVConstants().A), rel=1e-12
    )
    assert abs(lv.omega_ij["23"] - lv.omega_ij["56"]) == pytest.approx(
        abs(NVConstants().A), rel=1e-12
    )


def test_double_quantum_frequency_identity():
    lv = nv_levels()
    e = lv.energies
    # signed differences: (E1-E3) = (E1-E2) + (E2-E3)
    assert (e[0] - e[2]) == pytest.approx((e[0] - e[1]) + (e[1] - e[2]))
    assert lv.omega_ij["13"] == pytest.approx(abs(e[0] - e[2]), rel=1e-12)


def test_constants_validation():
    with pytest.raises(ValueError):
        NVConstants(B=-10.0)
    with pytest.raises(ValueError):
        NVConstants(D=np.inf)


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


def test_waveform_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    htot = _random_block_htot(rng, 32)
    times = np.arange(32) * 1e-9
    channels, _ = synthesize_pulses(htot, times, nv_levels())
    path = tmp_path / "wave.csv"
    emit_waveforms(channels, str(path))
    back = read_waveforms(str(path))
    assert len(back) == 6
    for a, b in zip(channels, back):
        assert a.label == b.label
        assert np.allclose(a.amplitude_samples, b.amplitude_samples, rtol=1e-11)
        assert np.allclose(a.phase_samples, b.phase_samples, rtol=1e-11, atol=1e-11)
        assert b.grid_dt == pytest.approx(a.grid_dt, rel=1e-9)


def test_waveform_reader_skips_comment_lines(tmp_path):
    path = tmp_path / "wave.csv"
    buf = io.StringIO()
    ch = PulseChannel("MW1", 1e9, np.array([1.0, 2.0]), np.array([0.0, 0.1]), 1e-9)
    emit_waveforms([ch], buf)
    path.write_text("# config_hash=deadbeef version=0\n" + buf.getvalue())
    back = read_waveforms(str(path))
    assert len(back) == 1 and back[0].label == "MW1"
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        read_waveforms(str(bad))


def test_waveform_empty_channel_list(tmp_path):
    path = tmp_path / "empty.csv"
    emit_waveforms([], str(path))
    assert read_waveforms(str(path)) == []


def test_level_structure_json_fields():
    import json

    doc = json.loads(level_structure_json(nv_levels()))
    assert len(doc["energies_hz"]) == 6
    assert set(doc["omega_ij_hz"]) == {"12", "23", "13", "45", "56", "46"}
    assert all(v > 0 for v in doc["omega_ij_hz"].values())


def test_model_path_synthesis_end_to_end():
    times, htot = model_htot_path(0.0, 1.0, t_model_span=0.05, n_samples=51)
    lv = nv_levels()
    channels, d = synthesize_pulses(htot, times, lv)
    err = verify_rwa_roundtrip(channels, d, lv, times, htot)
    assert err < 1e-8 * np.abs(htot).max()
    # physical grid maps back to the requested model span
    assert times[-1] * 2.0 * np.pi * 5.0e4 == pytest.approx(0.05)
