"""Six-channel NV-center pulse synthesis for the dilated Hamiltonian.

The 6x6 block-diagonal Htot(t) is realized by two microwave tones and one
electric-field tone per ancilla block. In the interaction picture that
removes H_NV minus the diagonal schedule d_1..d_6(t), the rotating-wave
Hamiltonian has the entries

    H_rot[i,j] = pi * Omega_z(t) * exp(sgn_z * i * [phi_z(t) + Int_z(t)])

for the six driven pairs (12, 23, 13) and (45, 56, 46), where Int_z is
the accumulated d-shift integral of the pair. Carriers are fixed at the
bare transition frequencies; all time dependence lives in Omega and phi.
Matching these entries to the target Htot samples is a per-element
inversion, so the round trip (synthesize -> reconstruct) is exact up to
floating-point rounding.

Internally angular frequencies (rad/s) are used throughout; amplitudes
and carriers cross the API boundary in Hz. The NV ground-state constants
are module constants (NV_D, NV_Q, NV_A, NV_B, NV_GAMMA_E, NV_GAMMA_N),
and `emit_waveforms` renders the channels as CSV text; the package reads
no waveform file back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError

__all__ = [
    "LevelStructure",
    "PulseChannel",
    "nv_levels",
    "synthesize_pulses",
    "verify_rwa_roundtrip",
    "emit_waveforms",
    "model_htot_path",
]

# most samples `model_htot_path` takes: a pulse run holds the dilation
# frames, channels and waveform text of every sample at once, about 2 KB
# a sample (200 MB here)
MAX_PULSE_SAMPLES = 10**5


# ground-state NV constants (Hz, gauss)
NV_D = 2.87e9  # zero-field splitting
NV_Q = -4.95e6  # quadrupolar splitting of the 14N nucleus
NV_A = -2.16e6  # hyperfine coupling
NV_B = 501.0  # static field along the NV axis
NV_GAMMA_E = 2.8025e6  # electron gyromagnetic ratio, Hz/gauss
NV_GAMMA_N = 307.7  # 14N nuclear gyromagnetic ratio, Hz/gauss


@dataclass(frozen=True)
class LevelStructure:
    """Diagonal energies (Hz) of the six working levels and the driven
    transition frequencies. Levels 1..6 are |mS=1,0,-1> x |mI=1> then
    |mS=1,0,-1> x |mI=0>."""

    energies: np.ndarray  # shape (6,), Hz
    omega_ij: dict  # keys "12","23","13","45","56","46" -> Hz > 0


@dataclass(frozen=True)
class PulseChannel:
    label: str  # MW1..MW4, EF1, EF2
    omega: float  # carrier, Hz
    amplitude_samples: np.ndarray  # Omega(t), Hz, >= 0
    phase_samples: np.ndarray  # phi(t), radians, unwrapped
    grid_dt: float  # seconds

    def __post_init__(self):
        if self.amplitude_samples.shape != self.phase_samples.shape:
            raise ValueError("amplitude and phase grids differ in length")
        if np.any(self.amplitude_samples < 0):
            raise ValueError("amplitudes must be nonnegative (sign lives in phi)")


# label, (i, j) zero-based level pair, pair key, matching-equation sign.
# sgn = -1 for the A/C-type entries (phase enters as e^{-i...}), +1 for
# the B-type entries; the d-shift integrand is -sgn*(d_i - d_j).
_CHANNELS = (
    ("MW2", 0, 1, "12", -1),
    ("MW1", 1, 2, "23", +1),
    ("EF1", 0, 2, "13", -1),
    ("MW4", 3, 4, "45", -1),
    ("MW3", 4, 5, "56", +1),
    ("EF2", 3, 5, "46", -1),
)


def nv_levels() -> LevelStructure:
    """Diagonal of H_NV = D Sz^2 + we Sz + Q Iz^2 + wn Iz + A Sz Iz (Hz).

    we = gamma_e * B, wn = gamma_n * B. Transition frequencies are the
    (positive) energy differences of the six driven pairs.
    """
    we = NV_GAMMA_E * NV_B
    wn = NV_GAMMA_N * NV_B

    def energy(ms: int, mi: int) -> float:
        return NV_D * ms**2 + we * ms + NV_Q * mi**2 + wn * mi + NV_A * ms * mi

    energies = np.array(
        [energy(ms, mi) for mi in (1, 0) for ms in (1, 0, -1)]
    )
    omega_ij = {}
    for _, i, j, key, _ in _CHANNELS:
        omega_ij[key] = float(abs(energies[i] - energies[j]))
    return LevelStructure(energies=energies, omega_ij=omega_ij)


def _dshift_integrals(d_schedule: np.ndarray, times: np.ndarray) -> dict:
    """Cumulative trapezoid of the per-channel d-shift integrand (rad)."""
    out = {}
    for label, i, j, _, sgn in _CHANNELS:
        integrand = -sgn * (d_schedule[:, i] - d_schedule[:, j])
        steps = np.diff(times) * (integrand[1:] + integrand[:-1]) / 2.0
        out[label] = np.concatenate([[0.0], np.cumsum(steps)])
    return out


# largest coupling, relative to max(|Htot|, 1), that `synthesize_pulses`
# lets stand between levels no control channel drives
COUPLING_TOL = 1e-9


def synthesize_pulses(
    htot_samples: np.ndarray, times: np.ndarray, levels: LevelStructure
) -> tuple[list[PulseChannel], np.ndarray]:
    """Invert the rotating-wave matching equations sample by sample.

    `htot_samples` has shape (N, 6, 6) in rad/s on the uniform grid
    `times` (seconds). Returns the six channels plus the diagonal
    schedule d_1..d_6(t) in rad/s. Any coupling outside the six driven
    pairs (i.e. between the two ancilla blocks) cannot be produced by
    the control fields and raises.
    """
    htot = np.asarray(htot_samples, dtype=complex)
    times = np.asarray(times, dtype=float)
    if htot.ndim != 3 or htot.shape[1:] != (6, 6):
        raise ValueError("expected htot samples of shape (N, 6, 6)")
    if times.ndim != 1 or times.size != htot.shape[0]:
        raise ValueError("time grid does not match the sample count")
    dts = np.diff(times)
    if times.size > 1 and (dts.min() <= 0 or np.ptp(dts) > 1e-9 * dts.max()):
        raise ValueError("time grid must be uniform and increasing")
    herm = np.abs(htot - htot.conj().transpose(0, 2, 1)).max()
    if herm > 1e-9 * max(np.abs(htot).max(), 1.0):
        raise ValueError(f"htot samples not Hermitian (defect {herm:.3e})")

    scale = max(np.abs(htot).max(), 1.0)
    driven = {(i, j) for _, i, j, _, _ in _CHANNELS}
    for i in range(6):
        for j in range(i + 1, 6):
            if (i, j) in driven:
                continue
            stray = np.abs(htot[:, i, j]).max()
            if stray > COUPLING_TOL * scale:
                raise NumericsError(
                    f"unreachable coupling: element ({i + 1},{j + 1}) of "
                    f"magnitude {stray:.3e} has no control channel"
                )

    d_schedule = np.real(np.einsum("nii->ni", htot)).copy()
    integrals = _dshift_integrals(d_schedule, times)
    dt = float(dts[0]) if times.size > 1 else 0.0

    channels = []
    for label, i, j, key, sgn in _CHANNELS:
        target = htot[:, i, j]
        amp = np.abs(target) / np.pi  # Hz
        raw_arg = np.angle(target)
        # hold the phase through zero-amplitude samples before unwrapping
        live = amp > 1e-300
        if live.any():
            held = np.where(live, np.arange(amp.size), np.argmax(live))
            raw_arg = raw_arg[np.maximum.accumulate(held)]
        phi = sgn * np.unwrap(raw_arg) - integrals[label]
        channels.append(
            PulseChannel(
                label=label,
                omega=levels.omega_ij[key],
                amplitude_samples=amp,
                phase_samples=phi,
                grid_dt=dt,
            )
        )
    return channels, d_schedule


def verify_rwa_roundtrip(
    channels: list[PulseChannel],
    d_schedule: np.ndarray,
    levels: LevelStructure,
    times: np.ndarray,
    htot_samples: np.ndarray,
) -> float:
    """Rebuild H_rot from the matching equations and compare to the target.

    The reconstruction is symbolic (no lab-frame simulation): each driven
    entry is pi*Omega*exp(sgn*i*(phi + Int)) with the same d-shift
    integral quadrature used by the synthesizer. Returns the maximum
    entrywise deviation (rad/s).
    """
    times = np.asarray(times, dtype=float)
    d_schedule = np.asarray(d_schedule, dtype=float)
    n = times.size
    hrot = np.zeros((n, 6, 6), dtype=complex)
    hrot[:, range(6), range(6)] = d_schedule
    integrals = _dshift_integrals(d_schedule, times)
    by_label = {ch.label: ch for ch in channels}
    for label, i, j, key, sgn in _CHANNELS:
        ch = by_label[label]
        if abs(ch.omega - levels.omega_ij[key]) > 1e-6 * max(ch.omega, 1.0):
            raise ValueError(
                f"channel {label} carrier {ch.omega} Hz is off the bare "
                f"transition {levels.omega_ij[key]} Hz"
            )
        entry = (
            np.pi
            * ch.amplitude_samples
            * np.exp(sgn * 1j * (ch.phase_samples + integrals[label]))
        )
        hrot[:, i, j] = entry
        hrot[:, j, i] = np.conj(entry)
    return float(np.abs(hrot - np.asarray(htot_samples, dtype=complex)).max())


def emit_waveforms(channels: list[PulseChannel]) -> str:
    """The channels as CSV text, one row per (channel, sample).

    Columns: channel,label,omega_hz,t_s,amplitude_hz,phase_rad; decimal
    text with 12 significant digits.
    """
    lines = ["channel,label,omega_hz,t_s,amplitude_hz,phase_rad\n"]
    for idx, ch in enumerate(channels):
        lead = f"{idx},{ch.label},{ch.omega:.12g},".replace("%", "%%")
        template = lead + "%.12g,%.12g,%.12g\n"
        t_s = np.arange(ch.amplitude_samples.size) * ch.grid_dt
        samples = np.column_stack([t_s, ch.amplitude_samples, ch.phase_samples])
        lines.append((template * len(samples)) % tuple(samples.ravel().tolist()))
    return "".join(lines)


def model_htot_path(
    k1: float,
    k2: float,
    *,
    t_model_span: float = 0.08,
    n_samples: int = 201,
    m0_scale: float = 1.3,
    s: float = 5.0e4,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled dilated-Hamiltonian waveform target for a model point.

    Physical seconds map to model time via tau = 2 pi s t; the returned
    Htot samples are in rad/s (model Htot times 2 pi s), ready for
    synthesize_pulses. The default span stays inside the M0=1.3
    positivity window of the conical-point Hamiltonians.
    """
    from .dilation import build_frame
    from .model import ModelParams, build_hamiltonian

    if not (0.0 < s < np.inf and 0.0 < t_model_span < np.inf and n_samples >= 1):
        raise ValueError(
            "pulse path needs a finite, positive rate and span and at least one sample"
        )
    if n_samples > MAX_PULSE_SAMPLES:
        raise ValueError(f"pulse samples {n_samples} exceed the {MAX_PULSE_SAMPLES} allowed")
    h = build_hamiltonian(ModelParams(k1, k2)).astype(complex)
    taus = np.linspace(0.0, t_model_span, n_samples)
    htot = build_frame(h, taus, m0_scale=m0_scale).Htot
    rate = 2.0 * np.pi * s
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        times, htot = taus / rate, rate * htot
    if not (np.isfinite(times).all() and np.isfinite(htot).all()):
        raise ValueError(
            f"dilation rate s = {s!r} Hz gives sample times or rad/s entries that are not finite"
        )
    return times, htot
