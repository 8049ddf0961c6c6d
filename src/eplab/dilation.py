"""Hermitian six-level dilation of the non-Hermitian three-level dynamics.

The non-unitary evolution generated by H is embedded into a unitary one
on system (x) ancilla via the metric M(t) and the operator eta(t):

    M(t)   = exp(-i H^dag t) M(0) exp(i H t) = m0 E^dag E,  E = exp(i H t)
    eta(t) = [M(t) - I]^(1/2)          (gauge U(t) = I)

The joint Hamiltonian is block-diagonal in the ancilla basis,
Htot = Gamma (x) |1><1| + Lambda (x) |0><0|, with Gamma and Lambda built
from H, eta and d(eta)/dt. Hermiticity of both blocks is the correctness
certificate of the construction and is checked on every frame. Frames
broadcast over t: an array of times gives stacks (*t.shape, n, n).

`build_frame` is the one route from (H, t) to these objects. It makes
one batched eigendecomposition of the symmetrised M - I = V diag(lambda)
V^dag per stack and copies V once into stack-last memory, so that every
3x3 product of the frame (the broadcast `numerics._matmul`) runs along
the stack; the metric's exp(i H t) comes from the closed-form `expm` in
that memory already. V gives the window check (every lambda at least
POSITIVITY_MARGIN), eta = V diag(sqrt(lambda)) V^dag, d(eta)/dt by the
Sylvester solve in the basis V, and M^-1 = V diag(1 / (1 + lambda)) V^dag.

`dilated_evolve` hands the engine Gamma and Lambda as two independent
3x3 blocks, with the joint state split into its two halves, so every
exponential of the dilation is a 3x3 one, in closed form. The 6x6
`DilationFrame.Htot` is assembled only on request, for pulse synthesis.

Ancilla convention (used consistently by preparation, post-selection and
pulse synthesis): levels 1-3 carry ancilla |1>, levels 4-6 carry |0>,
and |+->= (|0> +- i |1>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericsError,
    Trajectory,
    _dag,
    _matmul,
    expm,
    propagate_ordered,
)

__all__ = [
    "DilationFrame",
    "DEFAULT_M0_SCALE",
    "metric_M",
    "assemble_htot",
    "build_frame",
    "prepare_initial",
    "postselect",
    "dilated_evolve",
]

DEFAULT_M0_SCALE = 1.3

# smallest eigenvalue of M - I inside the dilation window; it keeps eta
# positive definite, so the Sylvester solve for d(eta)/dt is well posed
POSITIVITY_MARGIN = 1e-8

# most steps `dilated_evolve` takes: the joint and post-selected
# trajectories, probabilities and norms it returns take 176 bytes a step
# (176 MB here), and one slice of 3x3 frames, blocks and propagators adds
# about 10 MB while it runs (`tracemalloc` peaks: 211 bytes a step at 2e5
# steps, 177 at 1e6)
MAX_DILATION_STEPS = 10**6


@dataclass(frozen=True)
class DilationFrame:
    M: np.ndarray
    eta: np.ndarray
    deta: np.ndarray  # d(eta)/dt
    Gamma: np.ndarray
    Lambda: np.ndarray

    @property
    def Htot(self) -> np.ndarray:
        """Gamma (x) |1><1| + Lambda (x) |0><0|, assembled on request."""
        return assemble_htot(self.Gamma, self.Lambda)


def metric_M(h: np.ndarray, t: float | np.ndarray, m0_scale: float = DEFAULT_M0_SCALE) -> np.ndarray:
    """M(t) = m0_scale E^dag E with E = exp(i H t), since exp(-i H^dag t) = E^dag.

    Raises NumericsError naming the earliest model time whose M is not
    finite: E^dag E overflows where H has a gain and t is long."""
    m, over = _metric(h, t, m0_scale)
    if over is not None:
        raise _metric_overflow(t, m, over)
    return m


def _metric(h, t, m0_scale) -> tuple[np.ndarray, int | None]:
    """The symmetrised M(t) of `metric_M` and the flat index of its
    earliest non-finite frame (None if every frame is finite)."""
    _check_m0_scale(m0_scale)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the callers
        e = expm(1j * t[..., None, None] * np.asarray(h, dtype=complex))
        m = m0_scale * _matmul(_dag(e), e)
        bad = np.flatnonzero(~np.isfinite(m).all(axis=(-2, -1)))
        return (m + _dag(m)) / 2.0, (int(bad[0]) if bad.size else None)


def _metric_overflow(t, m: np.ndarray, frame: int) -> NumericsError:
    """The overflow error of `metric_M`, naming the model time of `frame`."""
    when = np.broadcast_to(np.asarray(t, dtype=float), m.shape[:-2]).flat[frame]
    return NumericsError(f"dilation metric overflows at model time {when:.6g}: M(t) is not finite")


def _check_m0_scale(m0_scale: float) -> None:
    if not 1.0 < m0_scale < np.inf:
        raise ValueError("m0_scale must be finite and exceed 1 so that M(0) - I is positive")


def _shifted_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues lambda and eigenvectors V of the symmetrised
    M - I, frame by frame: one batched LAPACK call per stack."""
    shifted = m - np.eye(m.shape[-1])
    return np.linalg.eigh((shifted + _dag(shifted)) / 2.0)


def _stack_last(a: np.ndarray) -> np.ndarray:
    """A copy of the stack (..., n, n) in memory with the stack axes
    innermost, so that the broadcast `_matmul` runs along the stack."""
    return np.moveaxis(np.moveaxis(a, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))


def _eta_rate(h: np.ndarray, m: np.ndarray, roots: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """d(eta)/dt from eta X + X eta = dM/dt = i (M H - H^dag M), solved in
    the eigenbasis V of eta, whose eigenvalues are `roots`."""
    dm = 1j * (_matmul(m, h) - _matmul(_dag(h), m))
    x = _matmul(_matmul(_dag(vecs), dm), vecs) / (roots[..., :, None] + roots[..., None, :])
    return _matmul(_matmul(vecs, x), _dag(vecs))


def _blocks(
    h: np.ndarray, eta: np.ndarray, deta: np.ndarray, minv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two Hermitian blocks of the dilated Hamiltonian,

      Gamma = Lhat + Ghat, Lambda = Lhat - Ghat with
      Lhat = {H + [i deta + eta H] eta} M^-1
      Ghat = i [H eta - eta H - i deta] M^-1,

    from H, eta, deta = d(eta)/dt and M^-1. Hermiticity within 1e-9 is
    enforced frame by frame; it fails only if the inputs are inconsistent.
    """
    eta_h = _matmul(eta, h)
    lhat = _matmul(h + _matmul(1j * deta + eta_h, eta), minv)
    ghat = 1j * _matmul(_matmul(h, eta) - eta_h - 1j * deta, minv)
    blocks = np.stack([lhat + ghat, lhat - ghat])  # Gamma, Lambda
    scale = np.maximum(np.abs(blocks).max(axis=(0, -2, -1)), 1.0)
    defect = np.abs(blocks - _dag(blocks)).max(axis=(0, -2, -1))
    bad = np.flatnonzero(defect > 1e-9 * scale)
    if bad.size:
        raise NumericsError(
            f"dilation blocks lost Hermiticity in frame {bad[0]} (defect {defect.flat[bad[0]]:.3e})"
        )
    gamma, lam = (blocks + _dag(blocks)) / 2.0
    return gamma, lam


def assemble_htot(gamma: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Gamma (x) |1><1| + Lambda (x) |0><0|, levels 1-3 then 4-6."""
    n = gamma.shape[-1]
    htot = np.zeros((*gamma.shape[:-2], 2 * n, 2 * n), dtype=complex)
    htot[..., :n, :n] = gamma
    htot[..., n:, n:] = lam
    return htot


def build_frame(
    h: np.ndarray, t: float | np.ndarray, *, m0_scale: float = DEFAULT_M0_SCALE
) -> DilationFrame:
    """All time-local dilation objects for a constant H at model time(s) t.

    One batched eigendecomposition M - I = V diag(lambda) V^dag per stack
    gives everything past the metric. The window rule: the earliest model
    time with lambda below POSITIVITY_MARGIN raises, checked up to the
    first overflowing metric, so the earlier failure is raised. Then eta =
    V diag(sqrt(lambda)) V^dag, d(eta)/dt by the Sylvester solve in the
    basis V, and M^-1 = V diag(1 / (1 + lambda)) V^dag.
    """
    h = np.asarray(h, dtype=complex)
    m, over = _metric(h, t, m0_scale)
    vals, vecs = _shifted_eigh(m if over is None else m.reshape(-1, *m.shape[-2:])[:over])
    lost = np.flatnonzero(vals[..., 0] < POSITIVITY_MARGIN)
    if lost.size:
        raise NumericsError(
            f"dilation window exceeded at model time {np.ravel(t)[lost[0]]:.6g}: "
            "M - I lost positivity"
        )
    if over is not None:
        raise _metric_overflow(t, m, over)
    vecs = _stack_last(vecs)
    roots = np.sqrt(vals)
    eta = _matmul(vecs * roots[..., None, :], _dag(vecs))
    eta = (eta + _dag(eta)) / 2.0
    deta = _eta_rate(h, m, roots, vecs)
    minv = _matmul(vecs / (1.0 + vals)[..., None, :], _dag(vecs))
    gamma, lam = _blocks(h, eta, deta, minv)
    return DilationFrame(M=m, eta=eta, deta=deta, Gamma=gamma, Lambda=lam)


def _ancilla_minus_plus() -> tuple[np.ndarray, np.ndarray]:
    """Post-selection vector |-> and the eta-carrier vector.

    Components are ordered (|1>_n, |0>_n). |-> = (|1> - i|0>)/sqrt(2) is
    a sigma_y eigenstate in this ordering; the eta component rides on
    -i |+> = (-i|1> + |0>)/sqrt(2). The relative -i phase is fixed by
    requiring that the published Gamma/Lambda construction reproduces
    the non-Hermitian dynamics in the |-> subspace (the equivalence
    check in the tests certifies it).
    """
    minus = np.array([1.0, -1j]) / np.sqrt(2.0)
    carrier = np.array([-1j, 1.0]) / np.sqrt(2.0)
    return minus, carrier


def prepare_initial(psi0: np.ndarray, eta0: float) -> np.ndarray:
    """The 6 amplitudes (levels 1..6) of the normalized joint state
    ~ psi0 (x) |-> + eta0 psi0 (x) |+>."""
    if not 0.0 < eta0 < np.inf:
        raise ValueError("eta0 must be finite and positive")
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    minus, plus = _ancilla_minus_plus()
    joint = np.concatenate(
        [
            psi0 * (minus[0] + eta0 * plus[0]),
            psi0 * (minus[1] + eta0 * plus[1]),
        ]
    )
    return joint / np.linalg.norm(joint)


def postselect(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each joint state of a stack onto the |-> ancilla subspace.

    Returns the renormalized 3-level states and the success probabilities.
    """
    joint = np.asarray(joint, dtype=complex)
    n = joint.shape[-1] // 2
    minus, _ = _ancilla_minus_plus()
    # <-|Psi> with Psi = block1 (x) |1> + block0 (x) |0>
    proj = np.conj(minus[0]) * joint[..., :n] + np.conj(minus[1]) * joint[..., n:]
    norm = np.linalg.norm(proj, axis=-1)
    bad = np.flatnonzero(norm < 1e-300)
    if bad.size:
        raise NumericsError(f"post-selection failed in frame {bad[0]}: no |-> component")
    prob = norm**2 / np.maximum(np.linalg.norm(joint, axis=-1) ** 2, 1e-300)
    return proj / norm[..., None], prob


def dilated_evolve(
    psi0: np.ndarray,
    h: np.ndarray,
    total_time: float,
    *,
    m0_scale: float = DEFAULT_M0_SCALE,
    steps: int = 4000,
) -> tuple[Trajectory, Trajectory, np.ndarray]:
    """Joint unitary evolution under Htot(t) for a constant model H.

    Returns (joint trajectory, post-selected renormalized trajectory,
    post-selection probabilities). The joint state starts with eta0 =
    sqrt(m0_scale - 1), the eta(0) of the metric. The window rule of
    `build_frame` holds at every frame; the earliest failing time is
    reported.
    """
    if steps < 1 or not 0.0 < total_time < np.inf:
        raise ValueError("dilation needs steps >= 1 and a finite, positive total time")
    if steps > MAX_DILATION_STEPS:
        raise ValueError(f"dilation steps {steps} exceed the {MAX_DILATION_STEPS} allowed")
    _check_m0_scale(m0_scale)
    h = np.asarray(h, dtype=complex)
    times = np.linspace(0.0, total_time, steps + 1)

    def blocks(t):
        frame = build_frame(h, t, m0_scale=m0_scale)
        return np.stack([frame.Gamma, frame.Lambda], axis=-3)

    # the engine evolves the Gamma and Lambda halves of the joint state as
    # two independent 3x3 blocks
    joint0 = prepare_initial(psi0, np.sqrt(m0_scale - 1.0)).reshape(2, -1)
    # each slice is post-selected as the engine yields it, so no temporary
    # spans the run; its first row repeats the last slice's end state exactly
    states = np.empty((len(times), joint0.size), dtype=complex)
    post = np.empty((len(times), joint0.shape[1]), dtype=complex)
    probs = np.empty(len(times))
    for start, _, piece in propagate_ordered(blocks, joint0, times):
        rows = slice(start, start + len(piece))
        states[rows] = piece.reshape(len(piece), -1)
        post[rows], probs[rows] = postselect(states[rows])
    return Trajectory(times=times, states=states), Trajectory(times=times, states=post), probs
