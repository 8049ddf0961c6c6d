"""Dynamical studies on closed parameter loops: complex geometric phases
around the conical degeneracy, chiral and non-chiral mode switching, and
an adiabaticity monitor.

Loops are closed curves (k1(t), k2(t)); the state is propagated with
midpoint-sampled time-ordered products by one chunked engine,
`_propagate`. It walks the time grid in slices of at most CHUNK_STEPS
steps, builds each slice's step propagators in one batch and carries the
state vector from one slice to the next, so the working set is bounded
by the slice length (a few tens of MB) whatever the loop duration; only
the time grid itself, 8 bytes a step, grows with it. The total
phase is accumulated incrementally as i * sum(log of per-step overlap
ratios), which keeps the complex logarithm on a continuous branch over
arbitrarily long loops; the dynamical phase is the quadrature of the
instantaneous eigenvalue at the step midpoints, taken in closed form from
the characteristic cubic, and the geometric phase is their difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cubic import solve_real_cubics
from .model import ModelParams, char_poly, discriminant, spectrum, sweep_tracked_spectra
from .numerics import (
    NumericsError,
    ordered_product,
    prefix_states,
    step_propagators,
)

__all__ = [
    "LoopSpec",
    "PhaseReport",
    "SwitchReport",
    "geometric_phase",
    "mode_switch",
    "adiabaticity_check",
]

# slow-passage duration (model time) reproducing the adiabatic switching
DEFAULT_SWITCH_TIME = 5.0e4

# steps per slice of the propagation engine: long enough to amortize the
# per-call cost of the batched kernels, short enough that a slice's
# propagators and their temporaries stay at a few tens of MB
CHUNK_STEPS = 1 << 15


@dataclass(frozen=True)
class LoopSpec:
    """A closed curve in the (k1, k2) plane traversed over model time T.

    kind "circle" is k1 = R cos(wt), k2 = center_k2 - R sin(wt) around
    `center`; "through_k2" and "through_k1" are the two slow-passage
    presets crossing the conical point from the k2 and k1 directions;
    "custom" takes two callables of the loop phase u = t/T in [0, 1].
    Direction "cw" runs the same curve time-reversed.
    """

    kind: str = "circle"
    center: tuple = (0.0, 1.0)
    R: float = 0.2
    T: float = 5000.0
    direction: str = "ccw"
    k1_of: object = field(default=None, compare=False)
    k2_of: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("circle", "through_k2", "through_k1", "custom"):
            raise ValueError(f"unknown loop kind {self.kind!r}")
        if self.direction not in ("ccw", "cw"):
            raise ValueError("direction must be 'ccw' or 'cw'")
        if self.R < 0:
            raise ValueError("loop radius must be nonnegative")
        if self.T <= 0:
            raise ValueError("loop duration must be positive")
        if self.kind == "custom" and (self.k1_of is None or self.k2_of is None):
            raise ValueError("custom loops need k1_of and k2_of callables")
        k10, k20 = self.params(0.0)
        k1t, k2t = self.params(self.T)
        if abs(k10 - k1t) > 1e-9 or abs(k20 - k2t) > 1e-9:
            raise ValueError("loop is not closed: k(0) != k(T)")

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
        if self.kind == "through_k1":
            return -0.2 - 0.2 * np.cos(w), 1.0 + 0.2 * np.sin(w)
        return np.asarray(self.k1_of(u)), np.asarray(self.k2_of(u))


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


def _hamiltonian_batch(k1, k2) -> np.ndarray:
    """Vectorized 3x3 Hamiltonians for parameter arrays."""
    k1 = np.atleast_1d(np.asarray(k1, dtype=float))
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    n = k1.size
    h = np.zeros((n, 3, 3), dtype=complex)
    h[:, 0, 0] = 3.0 + 2.0 * k1
    h[:, 2, 2] = 3.0 - 2.0 * k1
    h[:, 0, 1] = 1.0 - k2
    h[:, 1, 2] = 1.0 - k2
    h[:, 1, 0] = 1.0 + k2
    h[:, 2, 1] = 1.0 + k2
    return h


def _start_eigenstate(loop: LoopSpec, eigenindex: int) -> tuple[np.ndarray, np.ndarray]:
    if eigenindex not in (1, 2, 3):
        raise ValueError("eigenindex must be 1, 2 or 3")
    k1, k2 = loop.params(0.0)
    sp = spectrum(ModelParams(float(k1), float(k2)))
    psi = sp.right_vectors[:, eigenindex - 1]
    return psi / np.linalg.norm(psi), sp.eigenvalues


def _time_grid(loop: LoopSpec, dt: float) -> np.ndarray:
    """Uniform grid over [0, T] with steps of about dt (at least 8)."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    n = max(int(round(loop.T / dt)), 8)
    return np.linspace(0.0, loop.T, n + 1)


class _Slice(NamedTuple):
    start: int  # grid index of times[0]
    times: np.ndarray  # grid nodes of the slice, both ends included
    k1: np.ndarray  # loop parameters at the step midpoints
    k2: np.ndarray
    states: np.ndarray  # state at each node of `times`, or at the last only


def _propagate(loop: LoopSpec, psi0: np.ndarray, times: np.ndarray, *, trajectory: bool = True):
    """Propagate psi0 around `loop` on `times`, one slice at a time.

    Yields a _Slice per CHUNK_STEPS steps; the state at the end of one
    slice starts the next. With trajectory=False each slice is reduced by
    `ordered_product` and carries only its end state.
    """
    psi = psi0
    for lo in range(0, times.size - 1, CHUNK_STEPS):
        t = times[lo : lo + CHUNK_STEPS + 1]
        k1, k2 = loop.params((t[:-1] + t[1:]) / 2.0)
        props = step_propagators(_hamiltonian_batch(k1, k2), np.diff(t))
        if trajectory:
            states = prefix_states(props, psi)
        else:
            states = (ordered_product(props) @ psi)[np.newaxis]
        psi = states[-1]
        yield _Slice(lo, t, k1, k2, states)


def _require_real_spectrum(k1, k2) -> None:
    disc = discriminant(k1, k2)
    if disc.min() < 0.0:
        raise NumericsError(
            f"loop spectrum is not all-real: discriminant reaches "
            f"{disc.min():.3e} on the path"
        )


def geometric_phase(
    loop: LoopSpec,
    eigenindex: int,
    *,
    dt: float = 0.025,
    leakage_tol: float = 0.05,
) -> PhaseReport:
    """Total, dynamical and geometric phase of one eigenstate around a loop.

    Requires an all-real spectrum along the path (discriminant > 0) and
    adiabatic transport; excessive leakage out of the tracked eigenstate
    raises with the advice to slow the loop down.
    """
    times = _time_grid(loop, dt)
    psi0, _ = _start_eigenstate(loop, eigenindex)
    total = dynamical = 0.0
    for piece in _propagate(loop, psi0, times):
        # nodes and midpoints: the eigenvalues are taken at the midpoints
        _require_real_spectrum(*loop.params(piece.times))
        _require_real_spectrum(piece.k1, piece.k2)
        overlaps = piece.states @ psi0.conj()
        if np.abs(overlaps).min() < 1e-12:
            raise NumericsError("state lost all overlap with the initial eigenstate")
        total += np.sum(np.log(overlaps[1:] / overlaps[:-1]))
        cp = char_poly(ModelParams(piece.k1, piece.k2))
        e_mid = solve_real_cubics(cp.f3, cp.f2, cp.f1, cp.f0)[:, eigenindex - 1]
        dynamical += np.sum(e_mid * np.diff(piece.times))
    total, dynamical = complex(1j * total), complex(dynamical)

    # leakage check against the (identical) start-point eigenbasis at t=T
    final = piece.states[-1] / np.linalg.norm(piece.states[-1])
    leak = 1.0 - abs(np.vdot(psi0, final))
    if leak > leakage_tol:
        raise NumericsError(
            f"non-adiabatic leakage {leak:.3e} exceeds {leakage_tol}; "
            "increase the loop duration T"
        )
    return PhaseReport(
        total=total,
        dynamical=dynamical,
        geometric=total - dynamical,
        eigenindex=eigenindex,
    )


def mode_switch(
    loop: LoopSpec,
    start_index: int,
    direction: str | None = None,
    *,
    dt: float = 0.1,
) -> SwitchReport:
    """Propagate a start eigenstate around a slow loop through the
    conical point and report which eigenstate it lands on.

    The norm is never renormalized during the loop; the efficiency is
    the bare norm-squared ratio. The end labels come from the instant
    eigenbasis at t = T (the start point, since the loop is closed),
    ordered by descending eigenvalue.
    """
    if direction is not None and direction != loop.direction:
        loop = LoopSpec(
            kind=loop.kind, center=loop.center, R=loop.R, T=loop.T,
            direction=direction, k1_of=loop.k1_of, k2_of=loop.k2_of,
        )
    times = _time_grid(loop, dt)
    psi0, _ = _start_eigenstate(loop, start_index)
    for piece in _propagate(loop, psi0, times, trajectory=False):
        psi = piece.states[-1]
    efficiency = float(np.linalg.norm(psi) ** 2)  # psi0 is normalized
    psi_hat = psi / np.linalg.norm(psi)

    k1e, k2e = loop.params(loop.T)
    sp = spectrum(ModelParams(float(k1e), float(k2e)))
    ovl = []
    for j in range(3):
        v = sp.right_vectors[:, j]
        ovl.append(abs(np.vdot(v / np.linalg.norm(v), psi_hat)))
    end_index = int(np.argmax(ovl)) + 1
    return SwitchReport(
        start_index=start_index,
        end_index=end_index,
        overlap=float(ovl[end_index - 1]),
        efficiency=efficiency,
        direction=loop.direction,
        overlaps=tuple(float(v) for v in ovl),
    )


def adiabaticity_check(
    loop: LoopSpec,
    eigenindex: int,
    *,
    dt: float = 0.025,
    checkpoints: int = 200,
) -> float:
    """Maximum instantaneous leakage out of the tracked eigenstate.

    Returns max over checkpoint times of 1 - |<phi_i(t)|psi(t)/||psi||>|
    with the eigenbasis continuity-tracked along the loop.
    """
    times = _time_grid(loop, dt)
    psi0, _ = _start_eigenstate(loop, eigenindex)
    idx = np.unique(np.linspace(0, times.size - 1, checkpoints + 1).round().astype(int))
    states = np.empty((idx.size, psi0.size), dtype=complex)
    for piece in _propagate(loop, psi0, times):
        rel = idx - piece.start
        inside = (rel >= 0) & (rel < piece.states.shape[0])
        states[inside] = piece.states[rel[inside]]

    k1c, k2c = loop.params(times[idx])
    path = [
        ModelParams(float(a), float(b))
        for a, b in zip(np.atleast_1d(k1c), np.atleast_1d(k2c))
    ]
    worst = 0.0
    for state, sp in zip(states, sweep_tracked_spectra(path)):
        v = sp.right_vectors[:, eigenindex - 1]
        v = v / np.linalg.norm(v)
        s = state / np.linalg.norm(state)
        worst = max(worst, 1.0 - abs(np.vdot(v, s)))
    return worst
