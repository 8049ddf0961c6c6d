"""Dense complex-matrix kernels for small (3/5/6-level) systems.

Everything here is a pure function of immutable array inputs:
eigendecomposition with a deterministic ordering, the principal PSD
square root, matrix-exponential propagation and midpoint-sampled
time-ordered evolution on a grid.

There is one matrix exponential, `_expm_taylor`: scaling-and-squaring
on a truncated Taylor series over a stack of matrices. `expm` and
`psd_sqrt` take any stack (..., n, n), and `step_propagators` runs the
kernel on a stack of steps. `propagate_ordered` serves `dilated_evolve`.

The batched kernels take a stack of N step matrices, shape (N, n, n).
`step_propagators` exponentiates the stack with one scaling and one Taylor
degree chosen from its largest norm; `prefix_states` runs a two-level
blocked scan over the ordered product and `ordered_product` reduces it by
a pairwise tree. Each needs memory of a small multiple of the stack, so
callers that propagate over long grids (the loop experiments) feed them
fixed-length slices and carry the state vector from slice to slice,
which bounds memory by the slice length instead of the grid length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericsError",
    "Spectrum",
    "Trajectory",
    "eig",
    "psd_sqrt",
    "expm",
    "propagate_const",
    "step_propagators",
    "ordered_product",
    "prefix_states",
    "propagate_ordered",
]

class NumericsError(RuntimeError):
    """Raised when a kernel cannot certify its numerical contract."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and unit right eigenvectors (columns), plus optional
    left eigenvectors. `ordering_tag` records whether the order is the
    local deterministic one or continuity-tracked by a sweep."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None = None
    ordering_tag: str = "local"


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    norms: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.norms is None:
            object.__setattr__(
                self, "norms", np.linalg.norm(self.states, axis=-1)
            )


def _local_order(vals: np.ndarray) -> np.ndarray:
    """Descending real part, ties broken by descending imaginary part."""
    return np.lexsort((-vals.imag, -vals.real))


def eig(m: np.ndarray) -> Spectrum:
    """Eigendecomposition with residual certificate.

    Raises NumericsError (echoing the matrix) if LAPACK fails to converge
    or any residual ||m v - E v|| exceeds 1e-10 * ||m||.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed for:\n{m!r}") from exc
    order = _local_order(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    scale = max(np.linalg.norm(m, 2), 1e-300)
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    if np.any(resid > 1e-10 * scale):
        raise NumericsError(
            f"eigen residual {resid.max():.3e} exceeds tolerance for:\n{m!r}"
        )
    return Spectrum(eigenvalues=vals, right_vectors=vecs)


def _dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (..., n, n)."""
    return np.swapaxes(m, -1, -2).conj()


def psd_sqrt(m: np.ndarray, *, eig_floor: float = -1e-10) -> np.ndarray:
    """Principal square root of each Hermitian PSD matrix in a stack.

    Eigenvalues in [eig_floor, 0) are clamped to zero; anything below
    eig_floor signals a metric violation and raises. Each matrix is held
    to its own scale; an error names the earliest failing one.
    """
    m = np.asarray(m, dtype=complex)
    defect = np.abs(m - _dag(m)).max(axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-9 * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0))
    if bad.size:
        raise NumericsError(
            f"psd_sqrt input not Hermitian in frame {bad[0]} (defect {defect.flat[bad[0]]:.3e})"
        )
    vals, vecs = np.linalg.eigh((m + _dag(m)) / 2.0)
    low = vals.min(axis=-1)
    bad = np.flatnonzero(low < eig_floor * np.maximum(np.abs(vals.max(axis=-1)), 1.0))
    if bad.size:
        raise NumericsError(
            f"metric violation in frame {bad[0]}: eigenvalue {low.flat[bad[0]]:.3e} below PSD floor"
        )
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _dag(vecs)
    return (root + _dag(root)) / 2.0


def expm(m: np.ndarray) -> np.ndarray:
    """exp(m) for a stack of small dense matrices (..., n, n): `_expm_taylor`
    on the flattened stack, which shares one scaling.

    Scaling-and-squaring on a truncated Taylor series, which needs no
    eigenvectors and so also covers defective matrices (at an EP).
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return _expm_taylor(m.reshape(-1, *m.shape[-2:])).reshape(m.shape)


# highest tabulated Taylor degree; after scaling to norm <= 1/2 the chosen
# degree never exceeds 14
_TAYLOR_MAX_ORDER = 16
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_MAX_ORDER + 1))
# largest scaled norm theta for which degree m keeps the first dropped term,
# theta^(m+1)/(m+1)!, within the unit roundoff 2^-53
_TAYLOR_THETA = np.array(
    [(math.factorial(m + 1) * 2.0**-53) ** (1.0 / (m + 1)) for m in range(_TAYLOR_MAX_ORDER + 1)]
)


def _paterson_stockmeyer(m: int) -> np.ndarray:
    """Coefficients of sum_{k<=m} x^k / k! split for Paterson-Stockmeyer.

    With block length s, the series is sum_j B_j (x^s)^j, where row j of
    the returned (blocks, s + 1) array holds the coefficients of B_j on
    I, x, ..., x^s. s minimises the matmul count: s - 1 powers plus one
    Horner step per block after the top one. When s divides m, the lone
    x^m term goes into the next block as its x^s coefficient instead of
    forming a block of its own.
    """
    s = min(range(2, m + 1), key=lambda s: s - 1 + m // s - (m % s == 0))
    coeffs = np.zeros((m // s + 1, s + 1))
    for k in range(m + 1):
        coeffs[k // s, k % s] = _INV_FACTORIAL[k]
    if m % s == 0:
        coeffs[-2, s] = coeffs[-1, 0]
        coeffs = coeffs[:-1]
    return coeffs


_PS_COEFFS = {m: _paterson_stockmeyer(m) for m in range(2, _TAYLOR_MAX_ORDER + 1)}

# bytes of one (rows, n, n) stack in a pass of the batched series; a pass
# holds about ten such temporaries, so they stay under a MB
_TAYLOR_PASS_BYTES = 1 << 16


def _taylor_polynomial(x: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<=m} x^k / k! (m >= 2) by Paterson-Stockmeyer, batched over
    (N, n, n): s - 1 batched matmuls for the powers, one product with the
    coefficient table for all blocks, then Horner in x^s."""
    coeffs = _PS_COEFFS[m]
    s = coeffs.shape[1] - 1
    powers = np.empty((s + 1, *x.shape), dtype=complex)
    powers[0] = np.eye(x.shape[-1])
    powers[1] = x
    for k in range(2, s + 1):
        np.matmul(powers[k - 1], x, out=powers[k])
    blocks = np.matmul(coeffs, powers.reshape(s + 1, x.size)).reshape(len(coeffs), *x.shape)
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = np.matmul(acc, powers[s])
        acc += block
    return acc


def _expm_taylor(ms: np.ndarray) -> np.ndarray:
    """Batched scaling-and-squaring with a truncated Taylor series.

    `ms` has shape (N, n, n). The batch shares one scaling 2^-s, chosen
    from its largest inf-norm so that the scaled norm theta is at most 1/2,
    and one Taylor degree: the smallest m with theta^(m+1)/(m+1)! <= 2^-53
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), evaluated with about
    2 sqrt(m) batched matmuls by Paterson-Stockmeyer. The series runs over
    a few hundred matrices at a time, so beyond the result its memory is
    a fixed amount under a MB.
    """
    ms = np.asarray(ms, dtype=complex)
    max_norm = float(np.abs(ms).sum(axis=-1).max()) if ms.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(max(max_norm, 1e-300) / 0.5))))
    order = max(2, int(np.searchsorted(_TAYLOR_THETA, max_norm / 2.0**squarings)))
    rows = max(1, _TAYLOR_PASS_BYTES // ms[:1].nbytes) if ms.size else 1
    result = np.empty(ms.shape, dtype=complex)
    for lo in range(0, ms.shape[0], rows):
        part = _taylor_polynomial(ms[lo : lo + rows] / 2.0**squarings, order)
        for _ in range(squarings):
            part = np.matmul(part, part)
        result[lo : lo + rows] = part
    return result


def propagate_const(h: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) @ psi; h need not be Hermitian."""
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    grow = np.linalg.eigvals(h).imag.max() * abs(dt)
    if grow > 700.0:
        raise NumericsError(
            f"propagation overflow: largest Im(E)*dt = {grow:.3e}"
        )
    return expm(-1j * dt * h) @ np.asarray(psi, dtype=complex)


def step_propagators(h_mid: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Batched exp(-i H_j dt_j) from midpoint-sampled Hamiltonians."""
    phases = -1j * np.asarray(dts)[:, None, None] * np.asarray(h_mid, dtype=complex)
    return _expm_taylor(phases)


def ordered_product(props: np.ndarray) -> np.ndarray:
    """Time-ordered product U_N ... U_2 U_1 by pairwise tree reduction."""
    acc = np.asarray(props, dtype=complex)
    while acc.shape[0] > 1:
        n = acc.shape[0]
        half = n // 2
        paired = np.matmul(acc[1 : 2 * half : 2], acc[0 : 2 * half : 2])
        acc = np.concatenate([paired, acc[2 * half :]]) if n % 2 else paired
    return acc[0]


def prefix_states(props: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States after each step of the ordered product, including t=0.

    Two-level blocked scan (Blelloch, "Prefix sums and their
    applications", 1990) with block length b = isqrt(N): b - 1 batched
    matmuls across the ~N/b blocks build every within-block prefix
    product, the state is carried across the blocks one matrix-vector
    product each, and one batched product fills in the states. That is
    N matrix products, N + N/b matrix-vector products and about 2 sqrt(N)
    Python-level calls, against the N log2 N products of a Hillis-Steele
    scan.
    """
    props = np.asarray(props, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    n, dim = props.shape[0], psi0.size
    states = np.empty((n + 1, dim), dtype=complex)
    states[0] = psi0
    if n == 0:
        return states
    block = math.isqrt(n)
    blocks = -(-n // block)
    # the last block is padded with identities
    prefix = np.empty((blocks * block, dim, dim), dtype=complex)
    prefix[:n] = props
    prefix[n:] = np.eye(dim)
    prefix = prefix.reshape(blocks, block, dim, dim)
    for j in range(1, block):
        np.matmul(prefix[:, j], prefix[:, j - 1], out=prefix[:, j])
    carried = np.empty((blocks, dim), dtype=complex)
    carried[0] = psi0
    for k in range(1, blocks):
        carried[k] = prefix[k - 1, -1] @ carried[k - 1]
    filled = np.einsum("kjab,kb->kja", prefix, carried).reshape(-1, dim)
    states[1:] = filled[:n]
    return states


def propagate_ordered(
    h_of_t,
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    step_tol: float | None = None,
) -> Trajectory:
    """Piecewise-constant (midpoint-sampled) time-ordered evolution.

    `h_of_t` maps a time array (or scalar) to Hamiltonian samples of
    shape (..., n, n). If `step_tol` is given, any interval with
    ||H(t+dt) - H(t)||_max * dt above it is rejected.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing grid")
    dts = np.diff(times)
    if step_tol is not None:
        h_nodes = np.asarray(h_of_t(times), dtype=complex)
        drift = np.abs(np.diff(h_nodes, axis=0)).max(axis=(1, 2)) * dts
        worst = int(np.argmax(drift))
        if drift[worst] > step_tol:
            raise NumericsError(
                "step-size tolerance violated on interval "
                f"[{times[worst]:.6g}, {times[worst + 1]:.6g}] "
                f"(||dH||*dt = {drift[worst]:.3e})"
            )
    h_mid = np.asarray(h_of_t((times[:-1] + times[1:]) / 2.0), dtype=complex)
    props = step_propagators(h_mid, dts)
    states = prefix_states(props, psi0)
    return Trajectory(times=times, states=states)
