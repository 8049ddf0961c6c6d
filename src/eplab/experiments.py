"""Dynamical studies on closed parameter loops: complex geometric phases
around the conical degeneracy and chiral and non-chiral mode switching.

Loops are closed curves (k1(t), k2(t)); the state is propagated by
`numerics.propagate_ordered` with fourth-order commutator-free ("cf4")
steps, which walks the time grid in slices and carries the state from one
slice to the next, so the working set is bounded by the slice length
whatever the loop duration; only the time grid itself, 8 bytes a step,
grows with it. Each study here does its loop-specific work slice by slice
as the engine yields them.

The dynamical phase int_0^T E dt comes from the Fourier series of the
eigenvalue E on the closed loop: E is smooth and periodic there, so its
coefficients from M equally spaced samples (the periodic trapezoid rule)
converge exponentially (Trefethen and Weideman, SIAM Rev. 56, 385, 2014),
and the phase is the constant term times T. A few hundred cubic roots
replace two per step. The series is certified by its tail; one that does
not fall geometrically marks a kink in E, a loop through a degeneracy,
and is refused. The total phase is accumulated as i * sum(log of per-step
overlap ratios): each ratio is taken times exp(i phi_j), phi_j the step
length times E at its midpoint, interpolated from the certified samples,
which keeps its logarithm near zero, on the principal branch also for
steps with |E dt| > pi and over arbitrarily long loops, and sum(phi_j) is
added back. On the principal branch i log(r exp(i phi)) + phi = i log r,
so the total does not depend on the phi_j. The logs stay one per step:
one per slice came out 2 pi off on a loop of radius 0.002 about the
conical point, with no slice's phase above 0.92 rad to warn of it. The
geometric phase is total - dynamical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_ABS_K,
    ModelParams,
    build_hamiltonian,
    discriminant,
    eigenvalues,
    spectrum,
)
from . import numerics
from .numerics import NumericsError, gauss_nodes, propagate_ordered
# re-exported: bench/tests/test_harness.py calls experiments.step_propagators
from .numerics import step_propagators  # noqa: F401

__all__ = [
    "LoopSpec",
    "PhaseReport",
    "SwitchReport",
    "geometric_phase",
    "mode_switch",
]

# largest leakage 1 - |<psi0|psi(T)>| `geometric_phase` accepts at the end
# of the loop
LEAKAGE_TOL = 0.05

# most steps a loop's time grid may have: the grid is the one array that
# grows with the step count, 8 bytes a step (80 MB here), and a loop this
# long already takes tens of seconds
MAX_LOOP_STEPS = 10**7

# loop points at which `_time_grid` takes the largest eigenvalue splitting
# for its step-resonance check, about 0.5 ms of cubic roots
RESONANCE_POINTS = 1025

# the dynamical phase's Fourier series (`_dynamical_phase`): loop samples
# it starts from and the most it doubles to, whatever the step count, and
# the largest tail it accepts, absolute and as a share of the band below
# (about 3e-5 on the default loop, 1/4 at a kink)
PHASE_SAMPLES = 256
PHASE_MAX_SAMPLES = 1 << 16
PHASE_TAIL_TOL = 1e-10
PHASE_TAIL_DROP = 1e-3
PHASE_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class LoopSpec:
    """A closed curve in the (k1, k2) plane traversed over model time T.

    kind "circle" is k1 = R cos(wt), k2 = center_k2 - R sin(wt) around
    `center`; "through_k2" and "through_k1" are the two slow-passage
    presets crossing the conical point from the k2 and k1 directions.
    Direction "cw" runs the same curve time-reversed.
    """

    kind: str = "circle"
    center: tuple = (0.0, 1.0)
    R: float = 0.2
    T: float = 5000.0
    direction: str = "ccw"

    def __post_init__(self):
        if self.kind not in ("circle", "through_k2", "through_k1"):
            raise ValueError(f"unknown loop kind {self.kind!r}")
        if self.direction not in ("ccw", "cw"):
            raise ValueError("direction must be 'ccw' or 'cw'")
        if not np.all(np.isfinite([self.T, self.R, *self.center])):
            raise ValueError("loop duration, radius and center must be finite")
        if self.R < 0:
            raise ValueError("loop radius must be nonnegative")
        if self.T <= 0:
            raise ValueError("loop duration must be positive")
        if self.kind == "circle" and max(map(abs, self.center)) + self.R > MAX_ABS_K:
            raise ValueError(f"circle loop must lie within +-{MAX_ABS_K:g} in k1 and k2")

    def params(self, t):
        """(k1, k2) at model time t (scalar or array)."""
        u = np.asarray(t, dtype=float) / self.T
        if self.direction == "cw":
            u = 1.0 - u
        w = 2.0 * np.pi * u
        if self.kind == "circle":
            return (
                self.center[0] + self.R * np.cos(w),
                self.center[1] - self.R * np.sin(w),
            )
        if self.kind == "through_k2":
            return 0.4 * np.sin(w), 0.6 - 0.4 * np.cos(w)
        return -0.2 - 0.2 * np.cos(w), 1.0 + 0.2 * np.sin(w)

    def hamiltonian(self, t):
        """Model Hamiltonian at the loop point of model time t; an array
        of times gives a stack (..., 3, 3)."""
        return build_hamiltonian(ModelParams(*self.params(t)))


@dataclass(frozen=True)
class PhaseReport:
    total: complex
    dynamical: complex
    geometric: complex
    eigenindex: int

    def __post_init__(self):
        if abs(self.geometric - (self.total - self.dynamical)) > 1e-12:
            raise ValueError("geometric must equal total - dynamical")


@dataclass(frozen=True)
class SwitchReport:
    start_index: int
    end_index: int
    overlap: float  # |<end eigenstate | psi(T)>| on normalized vectors
    efficiency: float  # ||psi(T)||^2 / ||psi(0)||^2, no renormalization
    direction: str
    overlaps: tuple = ()  # against all three final eigenstates


def _start_eigenstate(loop: LoopSpec, eigenindex: int) -> np.ndarray:
    if eigenindex not in (1, 2, 3):
        raise ValueError("eigenindex must be 1, 2 or 3")
    k1, k2 = loop.params(0.0)
    return spectrum(ModelParams(float(k1), float(k2))).right_vectors[:, eigenindex - 1]


def _time_grid(loop: LoopSpec, dt: float) -> np.ndarray:
    """Uniform grid over [0, T] with steps of about dt (at least 8 and at
    most MAX_LOOP_STEPS), rejected if its step reaches the step resonance:
    step x max |E_i - E_j| over the loop at or past 2 pi. There a step's
    eigenphases alias and the phase comes out wrong without any sign (at
    dt 2.0 the default geophase loop read Re gamma 0.0140 against 0.0100).
    The splitting is taken at RESONANCE_POINTS evenly spaced loop points."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    steps = loop.T / dt
    if not steps <= MAX_LOOP_STEPS:
        raise ValueError(
            f"dt {dt!r} gives {steps:.3g} steps over the loop, "
            f"more than the {MAX_LOOP_STEPS} allowed"
        )
    n = max(int(round(steps)), 8)
    times = np.linspace(0.0, loop.T, n + 1)
    energies = eigenvalues(ModelParams(*loop.params(np.linspace(0.0, loop.T, RESONANCE_POINTS))))
    width = np.abs(energies[:, :, None] - energies[:, None, :]).max()
    if not (step := times[1] - times[0]) * width < 2.0 * np.pi:
        raise ValueError(
            f"loop step {step:.6g} times the largest eigenvalue splitting {width:.6g} "
            f"is {step * width:.3g}, at or past the 2 pi step resonance; lower dt"
        )
    return times


def _require_real_spectrum(loop: LoopSpec, times: np.ndarray) -> None:
    """Raise, before anything is propagated, unless the discriminant is
    nonnegative at every node of the grid and at both Gauss nodes of every
    step, where the engine's CF4 steps sample H: a broken-PT stretch would
    otherwise make the state overflow. The grid is checked a slice of
    CHUNK_STEPS steps at a time."""
    for start in range(0, times.size - 1, numerics.CHUNK_STEPS):
        t = times[start : start + numerics.CHUNK_STEPS + 1]
        low = min(discriminant(*loop.params(s)).min() for s in (t, gauss_nodes(t)))
        if low < 0.0:
            raise NumericsError(
                f"loop spectrum is not all-real: discriminant reaches {low:.3e} on the path"
            )


def _dynamical_phase(loop: LoopSpec, eigenindex: int, steps: int) -> tuple[np.ndarray, float]:
    """(samples, mean) of E = E_eigenindex on the closed loop: E at M
    evenly spaced loop times jT/M, certified by its Fourier series, and
    its mean over the loop, the series' constant term. The dynamical
    phase int_0^T E dt is mean * T.

    E is sampled at M evenly spaced loop points, PHASE_SAMPLES to begin
    with. The series is accepted when its tail, the largest |c_k| for
    k >= M/4, is at most PHASE_TAIL_TOL and has fallen to PHASE_TAIL_DROP
    of the band M/8 <= k < M/4 or to PHASE_ROUNDING (all relative to
    max(1, max |E|)). A smooth E's coefficients fall geometrically; a
    kink's fall as k^-2 leaves a quarter of the band at every M, however
    small the tail, so the drop tells them apart. Otherwise M doubles,
    sampling only the new midpoints, while it stays within
    max(PHASE_SAMPLES, 2 * steps), the cubics of a Gauss-node sum over
    the steps (a finer E than that the steps would not resolve either),
    and within PHASE_MAX_SAMPLES. Past that NumericsError: E has a kink,
    where the loop passes through a degeneracy and the sorted eigenindex
    changes sheet, or a feature as sharp, next to one.
    """

    def energies(t):
        return eigenvalues(ModelParams(*loop.params(t)))[..., eigenindex - 1].real

    m = PHASE_SAMPLES
    energy = energies(loop.T * np.arange(m) / m)
    while True:
        coeffs = np.fft.rfft(energy) / m
        mags = np.abs(coeffs)
        tail, band = mags[m // 4 :].max(), mags[m // 8 : m // 4].max()
        scale = max(1.0, np.abs(energy).max())
        smooth = tail <= PHASE_TAIL_DROP * band + PHASE_ROUNDING * scale
        if smooth and tail <= PHASE_TAIL_TOL * scale:
            break
        if 2 * m > min(max(PHASE_SAMPLES, 2 * steps), PHASE_MAX_SAMPLES):
            raise NumericsError(
                f"eigenvalue E{eigenindex} is not smooth on the loop (Fourier tail {tail:.3e} "
                f"against {band:.3e} below it, {m} samples): the loop passes through a degeneracy"
            )
        finer = np.empty(2 * m)
        finer[::2] = energy
        finer[1::2] = energies(loop.T * np.arange(1, 2 * m, 2) / (2 * m))
        energy, m = finer, 2 * m
    return energy, coeffs[0].real


def geometric_phase(
    loop: LoopSpec,
    eigenindex: int,
    *,
    dt: float = 0.2,
) -> PhaseReport:
    """Total, dynamical and geometric phase of one eigenstate around a loop.

    Requires an all-real spectrum along the path (discriminant > 0),
    checked before propagating, and adiabatic transport; a leakage out of
    the tracked eigenstate above LEAKAGE_TOL raises with the advice to
    slow the loop down. NumericsError also when the eigenvalue's Fourier
    series does not certify (`_dynamical_phase`): the loop passes through
    a degeneracy, where the eigenindex, counted from the top of the
    spectrum, changes sheet.
    """
    times = _time_grid(loop, dt)
    _require_real_spectrum(loop, times)
    psi0 = _start_eigenstate(loop, eigenindex)
    energy, mean = _dynamical_phase(loop, eigenindex, times.size - 1)
    sample_times = loop.T * np.arange(energy.size) / energy.size
    logs = turned = 0.0
    for _, t, states in propagate_ordered(loop.hamiltonian, psi0, times, rule="cf4"):
        overlaps = states @ psi0.conj()
        if np.abs(overlaps).min() < 1e-12:
            raise NumericsError("state lost all overlap with the initial eigenstate")
        h = np.diff(t)
        phi = h * np.interp(t[:-1] + h / 2.0, sample_times, energy, period=loop.T)
        logs += np.sum(np.log(overlaps[1:] / overlaps[:-1] * np.exp(1j * phi)))
        turned += np.sum(phi)
    total, dynamical = complex(1j * logs + turned), complex(mean * loop.T)

    # leakage check against the (identical) start-point eigenbasis at t=T
    final = states[-1] / np.linalg.norm(states[-1])
    leak = 1.0 - abs(np.vdot(psi0, final))
    if leak > LEAKAGE_TOL:
        raise NumericsError(
            f"non-adiabatic leakage {leak:.3e} exceeds {LEAKAGE_TOL}; "
            "increase the loop duration T"
        )
    return PhaseReport(
        total=total,
        dynamical=dynamical,
        geometric=total - dynamical,
        eigenindex=eigenindex,
    )


def mode_switch(loop: LoopSpec, start_index: int, *, dt: float = 0.4) -> SwitchReport:
    """Propagate a start eigenstate around a slow loop through the
    conical point, in the loop's direction, and report which eigenstate
    it lands on.

    The norm is never renormalized during the loop; the efficiency is
    the bare norm-squared ratio. The end labels come from the instant
    eigenbasis at t = T (the start point, since the loop is closed),
    ordered by descending eigenvalue.
    """
    times = _time_grid(loop, dt)
    psi0 = _start_eigenstate(loop, start_index)
    slices = propagate_ordered(loop.hamiltonian, psi0, times, trajectory=False, rule="cf4")
    for _, _, states in slices:
        psi = states[-1]
    efficiency = float(np.linalg.norm(psi) ** 2)  # psi0 is normalized
    psi_hat = psi / np.linalg.norm(psi)

    k1e, k2e = loop.params(loop.T)
    sp = spectrum(ModelParams(float(k1e), float(k2e)))
    ovl = [abs(np.vdot(sp.right_vectors[:, j], psi_hat)) for j in range(3)]
    end_index = int(np.argmax(ovl)) + 1
    return SwitchReport(
        start_index=start_index,
        end_index=end_index,
        overlap=float(ovl[end_index - 1]),
        efficiency=efficiency,
        direction=loop.direction,
        overlaps=tuple(float(v) for v in ovl),
    )

