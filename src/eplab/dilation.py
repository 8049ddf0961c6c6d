"""Hermitian six-level dilation of the non-Hermitian three-level dynamics.

The non-unitary evolution generated by H is embedded into a unitary one
on system (x) ancilla via the metric M(t) and the operator eta(t):

    M(t)   = exp(-i H^dag t) M(0) exp(i H t) = m0 E^dag E,  E = exp(i H t)
    eta(t) = [M(t) - I]^(1/2)          (gauge U(t) = I)

The joint Hamiltonian is block-diagonal in the ancilla basis,
Htot = Gamma (x) |1><1| + Lambda (x) |0><0|, with Gamma and Lambda built
from H, eta and d(eta)/dt. Hermiticity of both blocks is the correctness
certificate of the construction and is checked on every frame. Frames
broadcast over t: an array of times gives stacks (*t.shape, 3, 3).

`build_frame` is the one route from (H, t) to these objects, with no
LAPACK call. The metric's exp(i H t) comes from the closed-form `expm` in
stack-last memory, and `numerics._eigh3_closed_form` diagonalises
M - I = V diag(lambda) V^dag in that memory too, so that every 3x3
product of the frame (the broadcast `numerics._matmul`) runs along the
stack. lambda gives the window check (every lambda at least
POSITIVITY_MARGIN). In the basis V, eta = diag(sqrt(lambda)) and
M^-1 = diag(1 / (1 + lambda)) are diagonal, so the Sylvester solve for
d(eta)/dt and the blocks are elementwise there. Eight stack products
take H and M H into the basis and Gamma and Lambda back out; the
Sylvester right-hand side is built from M H, not from lambda, so the
Hermiticity check also certifies that V and lambda diagonalise M. eta and
d(eta)/dt are not kept: only Gamma and Lambda are read downstream.

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
    _eigh3_closed_form,
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
    """The dilation objects at one model time or a stack of them."""

    M: np.ndarray
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
        return m / 2.0 + _dag(m) / 2.0, (int(bad[0]) if bad.size else None)


def _metric_overflow(
    t, m: np.ndarray, frame: int, what: str = "M(t) is not finite"
) -> NumericsError:
    """The overflow error of `metric_M`, naming the model time of `frame`."""
    when = np.broadcast_to(np.asarray(t, dtype=float), m.shape[:-2]).flat[frame]
    return NumericsError(f"dilation metric overflows at model time {when:.6g}: {what}")


def _check_m0_scale(m0_scale: float) -> None:
    if not 1.0 < m0_scale < np.inf:
        raise ValueError("m0_scale must be finite and exceed 1 so that M(0) - I is positive")


def _from_basis(vecs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """V a V^dag over stacks (..., 3, 3)."""
    return _matmul(_matmul(vecs, a), _dag(vecs))


def _blocks(hv: np.ndarray, roots: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two Hermitian blocks of the dilated Hamiltonian in the eigenbasis
    V of M - I, Gamma_v = Lhat_v + Ghat_v and Lambda_v = Lhat_v - Ghat_v,

      Lhat = {H + [i deta + eta H] eta} M^-1
      Ghat = i [H eta - eta H - i deta] M^-1,

    from H_v = V^dag H V, the roots r = sqrt(lambda) of the eigenvalues
    lambda of M - I and rate = V^dag d(eta)/dt V. In that basis eta =
    diag(r) and M^-1 = diag(1 / mu), mu = 1 + r^2, so both are elementwise:

      Lhat_v,ij = (H_v,ij + (i rate_ij + r_i H_v,ij) r_j) / mu_j
      Ghat_v,ij = (i H_v,ij (r_j - r_i) + rate_ij) / mu_j.

    With z = 1 + i r, so that mu = z conj(z), the sum and the difference
    factor as Gamma_v,ij = (conj(z_i) H_v,ij + rate_ij) / conj(z_j) and
    Lambda_v,ij = (z_i H_v,ij - rate_ij) / z_j. Hermiticity within 1e-9 is
    enforced frame by frame. Both blocks are Hermitian when rate is the
    Sylvester solution for the metric diag(mu) in this basis; the rate of
    `_eigenbasis` is built from M itself, so a V or r that does not
    diagonalise M leaves a defect.
    """
    z = 1.0 + 1j * roots
    gamma = (z.conj()[..., :, None] * hv + rate) * (1.0 / z.conj())[..., None, :]
    lam = (z[..., :, None] * hv - rate) * (1.0 / z)[..., None, :]
    size = np.maximum(np.abs(gamma).max(axis=(-2, -1)), np.abs(lam).max(axis=(-2, -1)))
    defect = np.maximum(
        np.abs(gamma - _dag(gamma)).max(axis=(-2, -1)), np.abs(lam - _dag(lam)).max(axis=(-2, -1))
    )
    bad = np.flatnonzero(defect > 1e-9 * np.maximum(size, 1.0))
    if bad.size:
        raise NumericsError(
            f"dilation blocks lost Hermiticity in frame {bad[0]} (defect {defect.flat[bad[0]]:.3e})"
        )
    return gamma, lam


def assemble_htot(gamma: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Gamma (x) |1><1| + Lambda (x) |0><0|, levels 1-3 then 4-6."""
    n = gamma.shape[-1]
    htot = np.zeros((*gamma.shape[:-2], 2 * n, 2 * n), dtype=complex)
    htot[..., :n, :n] = gamma
    htot[..., n:, n:] = lam
    return htot


def _eigenbasis(
    h: np.ndarray, t: float | np.ndarray, m0_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M(t) and the frame in the eigenbasis V of M - I = V diag(lambda) V^dag:
    (M, V, r, H_v, rate) with r = sqrt(lambda), H_v = V^dag H V and rate =
    V^dag d(eta)/dt V, where eta = V diag(r) V^dag.

    The window rule: the earliest model time with lambda below
    POSITIVITY_MARGIN raises, checked up to the first overflowing metric,
    so the earlier failure is raised. A finite M whose eigenvalues or M H
    overflow (m0_scale near the largest double) raises the overflow error
    at its frame, by the same earlier-failure rule. The Sylvester solve of
    eta X + X eta = dM/dt = i (M H - H^dag M) for d(eta)/dt is elementwise
    in the basis V,

      rate_ij = i (P_ij - conj(P_ji)) / (r_i + r_j),  P = V^dag M H V,

    and P takes M itself, not its eigenvalues, so that an eigenbasis which
    does not diagonalise M fails the Hermiticity check of `_blocks`. If V
    does, P = diag(mu) H_v with mu = 1 + lambda.
    """
    h = np.asarray(h, dtype=complex)
    m, over = _metric(h, t, m0_scale)
    flat = m.reshape(-1, 3, 3)[:over]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        vals, vecs = _eigh3_closed_form(np.moveaxis(flat - np.eye(3), 0, -1))
        roots = np.sqrt(vals.T)
        vecs = np.moveaxis(vecs, -1, 0)
        vecs_dag = _dag(vecs)
        h_vecs = _matmul(h, vecs)
        hv = _matmul(vecs_dag, h_vecs)
        p = _matmul(vecs_dag, _matmul(flat, h_vecs))
        rate = (p - _dag(p)) * (1j / (roots[:, :, None] + roots[:, None, :]))
    lost = np.flatnonzero(vals[0] < POSITIVITY_MARGIN)
    # a finite M can still overflow its eigenvalues or M H
    big = np.flatnonzero(~(np.isfinite(roots).all(axis=1) & np.isfinite(rate).all(axis=(1, 2))))
    if lost.size and not (big.size and big[0] < lost[0]):
        raise NumericsError(
            f"dilation window exceeded at model time {np.ravel(t)[lost[0]]:.6g}: "
            "M - I lost positivity"
        )
    if big.size:
        raise _metric_overflow(t, m, big[0], "M(t) is finite, but its frame overflows")
    if over is not None:
        raise _metric_overflow(t, m, over)
    shape = m.shape
    return m, vecs.reshape(shape), roots.reshape(shape[:-1]), hv.reshape(shape), rate.reshape(shape)


def build_frame(
    h: np.ndarray, t: float | np.ndarray, *, m0_scale: float = DEFAULT_M0_SCALE
) -> DilationFrame:
    """All time-local dilation objects for a constant 3x3 H at model time(s) t.

    The closed-form eigendecomposition of M - I gives everything past the
    metric (`_eigenbasis`, which holds the window rule). The blocks are
    formed elementwise in that basis (`_blocks`), taken back to the model
    basis and symmetrised.
    """
    m, vecs, roots, hv, rate = _eigenbasis(h, t, m0_scale)
    gamma, lam = (_from_basis(vecs, block) for block in _blocks(hv, roots, rate))
    return DilationFrame(M=m, Gamma=(gamma + _dag(gamma)) / 2.0, Lambda=(lam + _dag(lam)) / 2.0)


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
