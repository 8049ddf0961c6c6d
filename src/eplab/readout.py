"""Measurement pipeline: eigenstate filtering, eigenvalue recovery from
population ratios, shot-noise simulation, maximum-likelihood tomography
and the Uhlmann fidelity.

Eigenstates are obtained dynamically: evolving under g(H) amplifies the
component with the largest imaginary eigenvalue of g(H), so different
choices of g select different eigenstates. Eigenvalues are recovered by
inverting the closed-form population-ratio model over the model
parameters (k1, k2) on the box 0 <= k1, k2 <= K_MAX, from four starts
in one round: each point's spectrum is the root triple of the
characteristic cubic and its eigenstates are the closed-form eigenvector
polynomial at the signed (k1, k2), so the recovered triple sums to 6 to
rounding rather than exactly. `ratios_from_energies` takes a triple
instead and recovers (k1, k2) from it through 12 k1^2 = 27 - 3*sigma2 +
sigma3 and 6 k2^2 = sigma3 + 6 (nonnegative branches).

There is one forward model, `_ratio_map`, vectorized over stacks of
triples and their (k1, k2), with the three setting unitaries built once
per call of `ratios_from_energies` (its one-triple wrapper) or
`solve_eigenvalues`.
The solver runs its Gauss-Newton starts in lockstep, one map call per
iteration: it evaluates every live start's line-search candidates
together with their finite-difference Jacobian probes, so the accepted
candidate's rows are the residual and Jacobian of the next iteration.
A round lasts as long as its slowest start, so a start that creeps (its
step lowers the residual norm by less than `_CREEP_DROP` of the new
norm) stops once its norm is above that of a start already stopped. This
stop is off while a stopped start fits exactly: the map aliases, so two
points can fit the same noiseless ratios, and a start still creeping
toward the true point must be left to reach it.

Tomography maximizes the multinomial likelihood over rho = T^dag T /
tr(T^dag T), T a full 3x3 complex matrix, by a damped Newton
(Levenberg-Marquardt) solver in this module with the exact gradient and
Hessian of the NLL in the 18 real parameters of T, from the maximally
mixed state. It needs no SciPy, so `eigensolve` and `tomography` import
none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _eigenvector_polynomial, build_hamiltonian, eigenvalues
from .numerics import NumericsError, expm, psd_sqrt

__all__ = [
    "GFunction",
    "MeasurementSetting",
    "TomographyRecord",
    "SteadyStateResult",
    "DEFAULT_SETTINGS",
    "TOMOGRAPHY_SETTINGS",
    "K_MAX",
    "rotation_u",
    "rotation_v",
    "setting_unitary",
    "steady_state_eigenstate",
    "population_ratios",
    "ratios_from_energies",
    "solve_eigenvalues",
    "simulate_counts",
    "mle_reconstruct",
    "fidelity",
]


@dataclass(frozen=True)
class GFunction:
    """Spectral filter g(H): one of i*H, -i*H or i*(H - c*I)^(-1).

    i*H amplifies the largest real eigenvalue, -i*H the smallest, and
    the shifted inverse the eigenvalue closest above the real shift c.
    """

    form: str  # i_h | minus_i_h | inverse_shifted
    c: complex = 0.0

    def __post_init__(self):
        if self.form not in ("i_h", "minus_i_h", "inverse_shifted"):
            raise ValueError(f"unknown g(H) form {self.form!r}")

    def apply(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=complex)
        if self.form == "i_h":
            return 1j * h
        if self.form == "minus_i_h":
            return -1j * h
        evals = np.linalg.eigvals(h)
        if np.abs(evals - self.c).min() < 1e-8:
            raise ValueError(
                f"shift c={self.c} is within 1e-8 of an eigenvalue of H"
            )
        return 1j * np.linalg.inv(h - self.c * np.eye(h.shape[0]))


@dataclass(frozen=True)
class MeasurementSetting:
    """Rotation angles: (a, b) act on levels 1-2, (c, d) on levels 2-3."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise ValueError("measurement angles must be finite")


@dataclass(frozen=True)
class TomographyRecord:
    setting: MeasurementSetting
    shots: int  # 0 = noiseless
    populations: np.ndarray  # 3 nonnegative reals summing to 1

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        p = np.asarray(self.populations, dtype=float)
        if p.shape != (3,) or not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError("populations must be 3 nonnegative reals summing to 1")


@dataclass(frozen=True)
class SteadyStateResult:
    state: np.ndarray
    eigenvalue: complex
    residual: float
    converged: bool
    message: str = ""


# default eigenvalue-readout settings. Setting 2, V(pi/4, 0) on levels 2-3,
# gives P2/P3 = 1 for every real eigenvector, so only two of the three
# ratios carry information
DEFAULT_SETTINGS = (
    MeasurementSetting(np.pi / 4, 0.0, 0.0, 0.0),
    MeasurementSetting(0.0, 0.0, np.pi / 4, 0.0),
    MeasurementSetting(np.pi / 4, np.pi / 2, np.pi / 4, 0.0),
)

# informationally complete 9-setting grid for state tomography
TOMOGRAPHY_SETTINGS = tuple(
    MeasurementSetting(a, b, c, d)
    for (a, b) in ((0.0, 0.0), (np.pi / 4, 0.0), (np.pi / 4, np.pi / 2))
    for (c, d) in ((0.0, 0.0), (np.pi / 4, 0.0), (np.pi / 4, np.pi / 2))
)


def rotation_u(a: float, b: float) -> np.ndarray:
    """Two-level rotation on levels 1-2."""
    return np.array(
        [
            [np.cos(a), -1j * np.sin(a) * np.exp(-1j * b), 0.0],
            [-1j * np.sin(a) * np.exp(1j * b), np.cos(a), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def rotation_v(c: float, d: float) -> np.ndarray:
    """Two-level rotation on levels 2-3."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(c), -1j * np.sin(c) * np.exp(-1j * d)],
            [0.0, -1j * np.sin(c) * np.exp(1j * d), np.cos(c)],
        ]
    )


def setting_unitary(s: MeasurementSetting) -> np.ndarray:
    """U2 = U(a, b) V(c, d)."""
    return rotation_u(s.a, s.b) @ rotation_v(s.c, s.d)


# most steps `steady_state_eigenstate` takes: each is a few 3-vector
# operations in Python, about 14 us, so a call stays under about 15 s
MAX_STEADY_STATE_STEPS = 10**6

# `steady_state_eigenstate` has converged once the phase-aligned state
# change per unit model time drops below this
STEADY_CHANGE_TOL = 1e-10


def steady_state_eigenstate(
    p: ModelParams,
    g: GFunction,
    psi_init: np.ndarray | None = None,
    horizon: float = 200.0,
    *,
    dt: float = 0.1,
) -> SteadyStateResult:
    """Filter an eigenstate of H by long evolution under g(H).

    The state is renormalized every step; convergence means the
    phase-aligned state change per unit model time drops below
    STEADY_CHANGE_TOL. If the horizon is exhausted first, the best
    iterate is returned with converged=False and an "unresolved within
    horizon" message (this happens e.g. for the defective pair at an EP,
    where the approach is algebraic rather than exponential). dt and the
    horizon must be finite and positive, with at most
    MAX_STEADY_STATE_STEPS steps of dt in the horizon, and `psi_init`
    must have a finite, nonzero norm.
    """
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise ValueError("steady state needs a finite, positive dt and horizon")
    steps = np.ceil(horizon / dt)
    if steps > MAX_STEADY_STATE_STEPS:
        raise ValueError(
            f"steady state steps {steps:.6g} exceed the {MAX_STEADY_STATE_STEPS} allowed"
        )
    h = build_hamiltonian(p).astype(complex)
    gh = g.apply(h)
    if psi_init is None:
        rng = np.random.default_rng(20230501)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    else:
        psi = np.asarray(psi_init, dtype=complex)
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"psi_init needs a finite, nonzero norm, got {norm}")
    psi = psi / norm
    prop = expm(-1j * dt * gh)
    converged = False
    for _ in range(int(steps)):
        nxt = prop @ psi
        nxt = nxt / np.linalg.norm(nxt)
        ov = np.vdot(psi, nxt)
        aligned = nxt * (np.conj(ov) / abs(ov)) if abs(ov) > 0 else nxt
        change = np.linalg.norm(aligned - psi) / dt
        psi = aligned
        if change < STEADY_CHANGE_TOL:
            converged = True
            break
    eigval = complex(np.vdot(psi, h @ psi))
    residual = float(np.linalg.norm(h @ psi - eigval * psi))
    msg = ""
    if not converged:
        msg = (
            f"unresolved within horizon {horizon}: state change stayed above "
            f"{STEADY_CHANGE_TOL:.1e}/unit time (eigen-residual {residual:.3e})"
        )
    elif residual > 1e-6:
        converged = False
        msg = f"converged iterate has eigen-residual {residual:.3e} > 1e-6"
    return SteadyStateResult(
        state=psi, eigenvalue=eigval, residual=residual, converged=converged,
        message=msg,
    )


def population_ratios(state: np.ndarray, setting: MeasurementSetting) -> float:
    """P2 / P3 after the rotation U2 = U(a,b) V(c,d).

    Levels 1, 2, 3 are the |1>, |0>, |-1> components; the ratio is
    invariant under global phase and normalization of `state`.
    """
    psi = np.asarray(state, dtype=complex)
    rotated = setting_unitary(setting) @ (psi / np.linalg.norm(psi))
    p2 = abs(rotated[1]) ** 2
    p3 = abs(rotated[2]) ** 2
    if p3 <= 1e-12:
        raise ValueError(
            "level-3 population underflow after rotation; pick a setting "
            "that mixes weight into the third level"
        )
    return float(p2 / p3)


def _vieta_k(e1: complex, e2: complex, e3: complex) -> tuple[complex, complex]:
    """Model parameters (nonnegative branches) from an eigenvalue triple.

    Uses 12 k1^2 = 27 - 3 sigma2 + sigma3 and 6 k2^2 = sigma3 + 6 from
    the symmetric-function form of the characteristic cubic; complex
    intermediates are allowed so root finding can cross the branch.
    """
    sigma2 = e1 * e2 + e2 * e3 + e1 * e3
    sigma3 = e1 * e2 * e3
    k1 = np.sqrt((27.0 - 3.0 * sigma2 + sigma3) / 12.0 + 0j)
    k2 = np.sqrt((sigma3 + 6.0) / 6.0 + 0j)
    return k1, k2


def _setting_unitaries(settings) -> np.ndarray:
    """The (3, 3, 3) stack of readout unitaries, one per eigenstate."""
    us = [setting_unitary(s) for s in settings]
    if len(us) != 3:
        raise ValueError(f"eigenvalue readout needs 3 settings, got {len(us)}")
    return np.stack(us)


def _ratio_map(
    es: np.ndarray, k1: np.ndarray, k2: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The forward model on an (N, 3) stack of triples `es` with their
    (N,) model parameters k1, k2: F^(i) = P2/P3 of eigenstate i rotated by
    us[i]. Returns the (N, 3) ratios and the (N, 3) mask of entries whose
    level-3 weight is at most 1e-300 (ratio set to inf)."""
    # P2/P3 is scale-free, and on the window the last entry (1 + k2)^2 >= 1
    vec = _eigenvector_polynomial(
        es, k1[:, None], np.broadcast_to(k2[:, None], es.shape)
    )  # (component, N, setting)
    rows = us[:, 1:, :].transpose(2, 1, 0)[:, :, None, :]  # (component, level, 1, setting)
    p2, p3 = np.abs((rows * vec[:, None]).sum(axis=0)) ** 2
    dead = p3 <= 1e-300
    return np.divide(p2, p3, out=np.full_like(p2, np.inf), where=~dead), dead


def ratios_from_energies(
    energies: np.ndarray, settings=DEFAULT_SETTINGS
) -> np.ndarray:
    """Forward model: the three measured ratios F^(i) for a triple with
    sum 6, eigenstate i read out through setting i."""
    e1, e2, e3 = energies
    if abs((e1 + e2 + e3) - 6.0) > 1e-9:
        raise ValueError("eigenvalue triple must sum to 6")
    k1, k2 = _vieta_k(e1, e2, e3)
    out, dead = _ratio_map(
        np.array([[e1, e2, e3]]), np.array([k1]), np.array([k2]),
        _setting_unitaries(settings),
    )
    if dead.any():
        raise ValueError(f"setting {int(dead[0].argmax()) + 1} puts no weight on level 3")
    return out[0]


def _spectra(k: np.ndarray) -> np.ndarray:
    """The (N, 3) complex spectra of an (N, 2) stack of (k1, k2), by one
    batched cubic in the `spectrum` order."""
    return eigenvalues(ModelParams(k[:, 0], k[:, 1]))


def _ratio_residuals(k: np.ndarray, ratios: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Residuals F(k1, k2) - ratios for an (N, 2) stack of (k1, k2). A
    dead row gets 1e6 in every entry: one outside the box
    0 <= k1, k2 <= K_MAX, one whose spectrum is not real, or one the
    forward model rejects (a level-3 weight at most 1e-300). Each row's
    bits depend on that row alone, which `_descend` relies on."""
    inside = ((k >= 0.0) & (k <= K_MAX)).all(axis=1)
    k = np.where(inside[:, None], k, 0.0)  # keeps the cubic finite on dead rows
    es = _spectra(k)
    f, dead = _ratio_map(es, k[:, 0], k[:, 1], us)
    r = f - ratios
    r[~inside | (es.imag != 0.0).any(axis=1) | dead.any(axis=1)] = 1e6
    return r


# largest k1, k2 of the solver's operating window 0 <= k1, k2 <= K_MAX
K_MAX = 1.5

# the (k1, k2) starts of the search: the Dirac EP, one in the lower half
# of the window and two below the PT-broken edge at k2 > 1, which
# descents from further away run into and stop on
_K_STARTS = ((0.0, 1.0), (0.4, 0.4), (0.4, 1.1), (0.1, 1.3))

# a start stops once its residual norm is at most this times
# max(||ratios||, 1): below it a step only trades rounding errors
_ROUNDING_STOP = 64 * np.finfo(float).eps

# line-search step fractions 1, 1/2, ..., 2^-19: every halving above 1e-6
_LAMBDAS = 0.5 ** np.arange(20)

# a start creeps when its accepted step lowers its residual norm by less
# than this fraction of the new norm; `_descend` stops a creeping start
# whose norm is above that of a start already stopped above `stop`
_CREEP_DROP = 1e-3


def _descend(
    starts, ratios: np.ndarray, us: np.ndarray, stop: float
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton from every (k1, k2) row of `starts` in lockstep.

    Every live start carries its residual and the residuals at its two
    forward-difference Jacobian probes x + h_k e_k (h_k = 1e-7, taken
    toward the interior where it would cross K_MAX). An iteration takes
    the minimum-norm least-squares step and evaluates all 20 line-search
    candidates x + lam * step, lam = 1, 1/2, ..., 2^-19, each with its
    own two probes, in one call of the vectorized map. A start accepts
    the first candidate that lowers its residual norm, whose rows become
    its residual and probes for the next iteration: the map is
    row-independent, so they carry the bits a fresh call at the accepted
    point would give. That is one map call to begin with and one per
    iteration. A start stops after 60 iterations, when its Jacobian is
    not finite, when no candidate lowers the norm, when the accepted step
    is shorter than 1e-13, when its residual norm is at most `stop`, or
    when it creeps behind the leader: its accepted step lowered the norm
    by less than `_CREEP_DROP` of the new norm, and the norm is still
    above the leader's, the smallest norm among the stopped starts. The
    last stop needs a leader above `stop`. With an exact-fit leader the
    map may alias: at the grid point (0.05, 1.45) a start fits the alias
    (0.051719, 1.440137) to 1e-15 while the start heading for the true
    point still creeps at 2.7e-3, and stopping it would flip the winner.
    Returns the end points and their residual norms.
    """
    eps = 1e-7
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def probed(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # residuals at c, c + h_1 e_1 and c + h_2 e_2 (stacked on a new
        # axis 0) for a (..., 2) stack c, and its steps h
        h = np.where(c + eps > K_MAX, -eps, eps)
        probes = np.stack([c + u * h for u in unit])
        r = _ratio_residuals(probes.reshape(-1, 2), ratios, us)
        return r.reshape(probes.shape[:-1] + (3,)), h

    x = np.array(starts, dtype=float)
    r, h = probed(x)  # (3, live, 3), (live, 2)
    rnorm = np.linalg.norm(r[0], axis=1)  # residual norm at x
    live = np.arange(len(x))
    for _ in range(60):
        jac = ((r[1:] - r[0]) / h.T[:, :, None]).transpose(1, 2, 0)  # (live, 3, 2)
        # a non-finite Jacobian has no least-squares step: the start stops
        go = np.isfinite(jac).all(axis=(1, 2))
        live, r0, jac = live[go], r[0][go], jac[go]
        if not len(live):
            break
        step = -(np.linalg.pinv(jac, rtol=None) @ r0[:, :, None])[:, :, 0]
        cand = x[live] + _LAMBDAS[:, None, None] * step  # (20, live, 2)
        rc, hc = probed(cand)  # (3, 20, live, 3), (20, live, 2)
        cnorm = np.linalg.norm(rc[0], axis=2)
        lower = cnorm < rnorm[live]
        first = lower.argmax(axis=0)
        moved = lower.any(axis=0)
        cols = np.arange(len(live))[moved]
        live, first = live[moved], first[moved]
        new = cnorm[first, cols]
        creep = rnorm[live] - new < _CREEP_DROP * new
        x[live], rnorm[live] = cand[first, cols], new
        short = np.linalg.norm(_LAMBDAS[first, None] * step[cols], axis=1) < 1e-13
        keep = ~short & (new > stop)
        # the leader: the smallest norm among the stopped starts
        lead = np.delete(rnorm, live[keep]).min(initial=np.inf)
        if lead > stop:
            keep &= ~(creep & (new > lead))
        live, first, cols = live[keep], first[keep], cols[keep]
        if not len(live):
            break
        r, h = rc[:, first, cols], hc[first, cols]
    return x, rnorm


def solve_eigenvalues(
    ratios: np.ndarray,
    settings=DEFAULT_SETTINGS,
    *,
    residual_tol: float = 1e-6,
) -> np.ndarray:
    """Invert three measured ratios to the eigenvalue triple.

    Damped Gauss-Newton over the model parameters (k1, k2) on the box
    0 <= k1, k2 <= K_MAX, from the four `_K_STARTS` in one lockstep round
    of `_descend`; a start also stops once its residual norm is at
    rounding level (`_ROUNDING_STOP`), or once it creeps with a norm above
    that of a start already stopped short of an exact fit (see `_descend`).
    Points outside the box or with a complex spectrum are dead, so every
    end is a readable point. The end with the smallest residual wins,
    ties going to the earlier start; if its residual exceeds
    `residual_tol` a NumericsError lists every start's residual.
    Non-finite ratios raise ValueError.

    The ratio map is not injective: with signed k, distant points such
    as (0.3, 0.5) and about (-0.173, -1.375) fit the same ratios, which
    the box excludes, and inside the box points near the PT-broken edge
    at k2 > 1 can still alias. The triple is the closed-form spectrum at
    the winning (k1, k2), in descending order, so it sums to 6 to
    rounding rather than exactly.
    """
    ratios = np.asarray(ratios, dtype=float)
    if not np.isfinite(ratios).all():
        raise ValueError(f"ratios must be finite, got {ratios}")
    us = _setting_unitaries(settings)
    scale = max(np.linalg.norm(ratios), 1.0)
    x, rnorm = _descend(_K_STARTS, ratios, us, _ROUNDING_STOP * scale)
    best = int(rnorm.argmin())
    if not rnorm[best] <= residual_tol * scale:
        lines = ", ".join(f"start {s} -> residual {r:.3e}" for s, r in zip(_K_STARTS, rnorm))
        raise NumericsError(
            f"no eigenvalue triple fits the ratios within {residual_tol:.1e} "
            f"(best residual {rnorm[best]:.3e}); landscape: {lines}"
        )
    return _spectra(x[best : best + 1])[0].real


def simulate_counts(
    state: np.ndarray,
    setting: MeasurementSetting,
    shots: int,
    *,
    rng: np.random.Generator | None = None,
) -> TomographyRecord:
    """Populations after the setting rotation, optionally multinomial-sampled.

    shots=0 returns the exact populations; otherwise a multinomial draw
    from `rng` (a fresh unseeded generator when None) renormalized to sum
    1. Raises ValueError for shots outside 0..2^63 - 1, the range of the
    C long `rng.multinomial` takes.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if shots >= 2**63:
        raise ValueError(f"shots must be at most {2**63 - 1}, got {shots}")
    psi = np.asarray(state, dtype=complex)
    rotated = setting_unitary(setting) @ (psi / np.linalg.norm(psi))
    p = np.abs(rotated) ** 2
    p = p / p.sum()
    if shots > 0:
        counts = np.random.default_rng(rng).multinomial(shots, p)
        p = counts / counts.sum()
    return TomographyRecord(setting=setting, shots=shots, populations=p)


def _projectors(setting: MeasurementSetting) -> np.ndarray:
    """The three rank-1 measurement operators U2^dag |j><j| U2."""
    u = setting_unitary(setting)
    return np.stack([np.outer(u[j].conj(), u[j]) for j in range(3)])


def _check_complete(records) -> None:
    ops = np.concatenate([_projectors(r.setting) for r in records])
    flat = ops.reshape(len(ops), 9)
    basis = np.concatenate([flat.real, flat.imag], axis=1)
    _, sing, vt = np.linalg.svd(basis)
    rank = int((sing > 1e-10 * sing[0]).sum())
    if rank < 9:
        null = vt[rank:]
        dirs = []
        for row in null:
            m = (row[:9] + 1j * row[9:]).reshape(3, 3)
            m = (m + m.conj().T) / 2.0
            dirs.append(np.array2string(m, precision=3))
        raise ValueError(
            "measurement settings not informationally complete; "
            f"unconstrained Hermitian directions:\n" + "\n".join(dirs)
        )


# stop rule and cap of `mle_reconstruct`: it has converged once the NLL
# gradient norm is at most MLE_GRAD_TOL times the total weighted count (the
# rounding floor of the gradient is about 1e-15 of it), and it raises
# NumericsError if that takes more than MLE_MAX_ITER iterations
MLE_GRAD_TOL = 1e-12
MLE_MAX_ITER = 200


def _quadratic_forms(records) -> np.ndarray:
    """The (K, 18, 18) real symmetric A_k of the K = 3 len(records) rank-1
    POVM elements Pi_k = a_k a_k^dag, with x^T A_k x = ||T a_k||^2 =
    tr(Pi_k T^dag T) for the 3x3 complex T = (x[:9] + 1j x[9:]).reshape(3, 3)."""
    a = np.concatenate([setting_unitary(r.setting).conj() for r in records])
    b = np.kron(np.eye(3), a[:, None, :])  # b[k, i, 3i + j] = a_k[j]
    b = np.concatenate([b, 1j * b], axis=2)  # T a_k = b_k @ x
    return np.einsum("kip,kiq->kpq", b.conj(), b).real


def mle_reconstruct(records) -> np.ndarray:
    """Maximum-likelihood density matrix from population records.

    rho = T^dag T / tr(T^dag T) with T a full 3x3 complex matrix, so the
    result is positive semidefinite with unit trace by construction. With
    the real and imaginary parts of the 9 entries of T in x, the
    multinomial negative log-likelihood is NLL(x) = -sum_k c_k log(x^T A_k x) + (sum_k c_k)
    log(x^T x), where c_k is the recorded population times the shots
    (unit weight for noiseless records, shots=0) and A_k comes from the
    setting rows.

    Damped Newton (Levenberg-Marquardt) with the exact gradient and
    Hessian, from the maximally mixed state T = I / sqrt(3): each step
    solves (H + mu I) d = -g on the unit sphere of x (H is the Hessian with
    the scale direction x projected out), with mu raised above
    -lambda_min(H) when H is indefinite, and x + d is renormalized. The
    damping also covers the null directions T -> U T, U unitary. A step is
    kept when it lowers the NLL, and mu follows the ratio of the actual to
    the predicted decrease (Nielsen's rule). The solver stops once the
    gradient norm is at most MLE_GRAD_TOL times sum_k c_k, and raises
    NumericsError with the final gradient norm when it meets a non-finite
    value or MLE_MAX_ITER iterations pass first.
    """
    records = list(records)
    if not records:
        raise ValueError("no tomography records")
    _check_complete(records)
    forms = _quadratic_forms(records)
    counts = np.concatenate([
        np.asarray(r.populations, float) * (float(r.shots) if r.shots > 0 else 1.0)
        for r in records
    ])
    # a zero count adds 0 log 0 = 0, and so does a noiseless population at
    # most 1e-12, the tolerance of TomographyRecord: near the optimum its
    # x^T A_k x would sink below the rounding of its increments
    keep = counts > 1e-12
    forms, counts = forms[keep], counts[keep]
    total = counts.sum()
    x = np.zeros(18)
    x[[0, 4, 8]] = 1.0 / np.sqrt(3.0)  # the diagonal of T
    # mu is the damping in units of `total`, floored at 1e-12 so that the
    # null directions of H stay damped; nu is its growth on a rejected step
    mu, nu = 0.1, 2.0
    tol = MLE_GRAD_TOL * total
    for it in range(MLE_MAX_ITER + 1):
        v = forms @ x
        q = v @ x  # tr(Pi_k rho), as x^T x = 1
        w = counts / q
        grad = 2.0 * (total * x - w @ v)
        gnorm = float(np.linalg.norm(grad))
        if np.isfinite(gnorm) and gnorm <= tol:
            t = (x[:9] + 1j * x[9:]).reshape(3, 3)
            s = t.conj().T @ t
            rho = s / np.real(np.trace(s))
            return (rho + rho.conj().T) / 2.0
        if it == MLE_MAX_ITER or not np.isfinite(gnorm):
            raise NumericsError(
                f"tomography MLE stopped at iteration {it} with gradient norm "
                f"{gnorm:.3e}; convergence needs <= {tol:.3e} within "
                f"{MLE_MAX_ITER} iterations"
            )
        # the Hessian on the sphere x^T x = 1 is P G P + 2 total P, where G is
        # the Hessian of -sum_k c_k log(x^T A_k x) and P the projector off x;
        # 2 total x x^T is added so that x itself takes no step
        proj = np.eye(18) - np.outer(x, x)
        hess = proj @ (4.0 * (v.T * (w / q)) @ v - 2.0 * np.tensordot(w, forms, 1)) @ proj
        hess += 2.0 * total * np.eye(18)
        lam, vec = np.linalg.eigh(hess)
        shift = max(0.0, -lam[0]) + mu * total
        step = -vec @ ((vec.T @ grad) / (lam + shift))
        # the NLL change from the increments of x^T A_k x and x^T x: near the
        # optimum it is far below the rounding of the NLL itself
        dq = (2.0 * v + forms @ step) @ step
        change = total * np.log1p(step @ (2.0 * x + step)) - counts @ np.log1p(dq / q)
        if change < 0.0:
            ratio = change / (grad @ step + 0.5 * step @ hess @ step)
            mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-12)
            nu = 2.0
            x = (x + step) / np.linalg.norm(x + step)
        else:
            mu, nu = mu * nu, 2.0 * nu


def fidelity(rho_i: np.ndarray, rho_j: np.ndarray) -> float:
    """Uhlmann fidelity [tr sqrt(sqrt(ri) rj sqrt(ri))]^2."""
    for rho in (rho_i, rho_j):
        rho = np.asarray(rho, dtype=complex)
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10:
            raise ValueError("fidelity requires positive semidefinite inputs")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("fidelity requires unit-trace inputs")
    root = psd_sqrt(np.asarray(rho_i, dtype=complex))
    inner = psd_sqrt(root @ np.asarray(rho_j, dtype=complex) @ root)
    f = float(np.real(np.trace(inner)) ** 2)
    return min(max(f, 0.0), 1.0)
