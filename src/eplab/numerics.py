"""Dense complex-matrix kernels for small systems: exponentials and
propagation for n <= 3 (`expm` refuses n > 3, and the six-level dilation
runs as two 3x3 blocks), eigendecompositions for any small n.

Everything here is a pure function of immutable array inputs:
eigendecomposition with a deterministic ordering (`eig`, now only for the
`ep_atlas` probes of arbitrary families), the principal PSD square root,
matrix exponentials and the one time-ordered propagation engine,
`propagate_ordered`.

There is one matrix exponential for the 3x3 systems the package evolves,
`_expm3_closed_form`: scaling and squaring on the truncated Taylor
series with one scaling per pass of rows, reduced with Cayley-Hamilton
to three scalar coefficients per matrix (Moler and Van Loan, "Nineteen
dubious ways to compute the exponential of a matrix, twenty-five years
later", SIAM Rev. 45, 3, 2003). It serves every 3x3 stack at any norm:
the loop and dilation step propagators, the metric's exp(i H t), the
CLI's direct reference and the readout's steady state. `_exp_stack`,
behind `expm` and `step_propagators`, is the one dispatch: a 3x3 stack
takes the closed form, a 1x1 or 2x2 stack the leading block of its 3x3
stack padded with tr(A)/n, and n > 3 is refused, so the package needs no
SciPy. Products are `_matmul`: three broadcast multiply-adds over a 3x3
stack, since `np.matmul` makes one BLAS call per small matrix, and
`np.matmul` for any other n.

`propagate_ordered` evolves a state over a time grid by one of two step
rules, in slices of at most CHUNK_STEPS steps with the state carried from
one to the next, so its working set is bounded whatever the grid length.
"midpoint" is the second-order exponential midpoint rule, one sample of
H per step. "cf4" is the fourth-order commutator-free rule of Blanes and
Moan (J. Comput. Appl. Math. 142, 313, 2002; Blanes, Casas, Oteo and Ros,
Phys. Rep. 470, 151, 2009): H at the two Gauss-Legendre nodes of the step
and a product of two exponentials, multiplied into one matrix per step.
The engine also takes a batch of independent blocks, H (N, *batch, n, n)
and a state (*batch, n): the dilation's Gamma and Lambda, two 3x3 blocks
in place of the 6x6 block-diagonal Htot. Each block is exponentiated with
the scaling it would have alone and so ends on the bits it would have
alone. Each slice samples H once and is reduced on one pairwise tree:
`ordered_product` keeps its top, and `prefix_states` sweeps the state
down its levels to every node; both end on the same bits. A closed-form
stack stays stack-last in memory throughout.
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
    "step_propagators",
    "gauss_nodes",
    "ordered_product",
    "prefix_states",
    "propagate_ordered",
]

class NumericsError(RuntimeError):
    """Raised when a kernel cannot certify its numerical contract."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and unit right eigenvectors (columns).

    A stack of spectra keeps the leading axes: eigenvalues (..., n),
    right_vectors (..., n, n) with the vectors in the last axis' columns."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    norms: np.ndarray = field(init=False)  # the norm of each state

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        # a slice of rows at a time, so that no temporary spans the stack
        norms = np.empty(len(self.states))
        for lo in range(0, len(norms), CHUNK_STEPS):
            rows = slice(lo, lo + CHUNK_STEPS)
            norms[rows] = np.linalg.norm(self.states[rows], axis=-1)
        object.__setattr__(self, "norms", norms)


def eig(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a matrix or a stack (..., n, n) of them, in
    one LAPACK call, with a residual certificate per matrix.

    Eigenvalues (..., n) are in descending real part, ties broken by
    descending imaginary part; the unit right eigenvectors are the
    columns of (..., n, n). Raises NumericsError (echoing the matrix) if
    LAPACK fails to converge or if a residual ||m v - E v|| exceeds
    1e-10 * ||m||_2 of its own matrix; the error names the earliest
    failing frame of the flattened stack (frame 0 for a single matrix).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed for:\n{m!r}") from exc
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    vecs = vecs / np.linalg.norm(vecs, axis=-2, keepdims=True)
    # ||m||_2 is the largest singular value, the first one LAPACK returns
    scale = np.maximum(np.linalg.svd(m, compute_uv=False)[..., 0], 1e-300)
    resid = np.linalg.norm(m @ vecs - vecs * vals[..., None, :], axis=-2).max(axis=-1)
    bad = resid > 1e-10 * scale
    if bad.any():
        frame = np.flatnonzero(bad)[0]
        raise NumericsError(
            f"eigen residual {resid.flat[frame]:.3e} exceeds tolerance in frame {frame} "
            f"for:\n{m.reshape(-1, *m.shape[-2:])[frame]!r}"
        )
    return Spectrum(eigenvalues=vals, right_vectors=vecs)


def _dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (..., n, n)."""
    return np.swapaxes(m, -1, -2).conj()


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise if a matrix of the stack departs from Hermitian by more than
    1e-9 of its own scale, naming the earliest such frame."""
    defect = np.abs(m - _dag(m)).max(axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-9 * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0))
    if bad.size:
        raise NumericsError(
            f"{what} not Hermitian in frame {bad[0]} (defect {defect.flat[bad[0]]:.3e})"
        )


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of each Hermitian PSD matrix in a stack.

    Eigenvalues in [-1e-10 max(|largest|, 1), 0) are clamped to zero;
    anything below that floor signals a metric violation and raises. Each
    matrix is held to its own scale; an error names the earliest failing
    one.
    """
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m, "psd_sqrt input")
    vals, vecs = np.linalg.eigh((m + _dag(m)) / 2.0)
    low = vals.min(axis=-1)
    bad = np.flatnonzero(low < -1e-10 * np.maximum(np.abs(vals.max(axis=-1)), 1.0))
    if bad.size:
        raise NumericsError(
            f"metric violation in frame {bad[0]}: eigenvalue {low.flat[bad[0]]:.3e} below PSD floor"
        )
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _dag(vecs)
    return (root + _dag(root)) / 2.0


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks (..., n, n), into `out` if given. For n = 3 it is
    three broadcast multiply-adds, in the memory order of the operands:
    `np.matmul` makes one BLAS call per small matrix, about 0.37 us each."""
    if a.shape[-1] != 3:
        return np.matmul(a, b, out=out)
    out = np.multiply(a[..., :, 0, None], b[..., None, 0, :], out=out)
    out += a[..., :, 1, None] * b[..., None, 1, :]
    out += a[..., :, 2, None] * b[..., None, 2, :]
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """exp(m) for a stack of small dense matrices (..., n, n) with n <= 3,
    by `_exp_stack` on the flattened stack: the closed form, a 3x3 stack
    returned in stack-last memory. Raises ValueError for n > 3.

    The closed form is scaling-and-squaring on a truncated Taylor series,
    which needs no eigenvectors and so also covers defective matrices (at
    an EP).
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    flat = m.reshape(-1, *m.shape[-2:])
    return _exp_stack(flat, np.ones(len(flat))).reshape(m.shape)


# highest tabulated Taylor degree: `_squarings` brings the scaled norm of
# the traceless part that `_expm3_closed_form` sums to at most 1/2, and
# `_taylor_degree(0.5)` is 14
_TAYLOR_MAX_ORDER = 14
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_MAX_ORDER + 1))
# largest scaled norm theta for which degree m keeps the first dropped term,
# theta^(m+1)/(m+1)!, within the unit roundoff 2^-53
_TAYLOR_THETA = np.array(
    [(math.factorial(m + 1) * 2.0**-53) ** (1.0 / (m + 1)) for m in range(_TAYLOR_MAX_ORDER + 1)]
)


def _squarings(max_norm: float) -> int:
    """Number of squarings s that brings max_norm / 2^s to at most 1/2."""
    return max(0, int(np.ceil(np.log2(max(max_norm, 1e-300) / 0.5))))


def _taylor_degree(theta: float) -> int:
    """Smallest degree m >= 2 with theta^(m+1)/(m+1)! <= 2^-53."""
    return max(2, int(np.searchsorted(_TAYLOR_THETA, theta)))


# steps per slice of `propagate_ordered`, for either rule: long enough to
# amortize the per-call cost of the batched kernels, short enough that a
# slice's 3x3 propagators take 0.6 MB and a "cf4" slice, with two samples
# and two factors per step, peaks at about 4 MB (`tracemalloc`). A whole
# `modeswitch` or `geophase` op then peaks at about 5.5 MB, against 14-18
# MB with 2^14-step slices; 2^11-step slices ran slower
CHUNK_STEPS = 1 << 12

# largest inf-norm of a slice's end state; its squared norm stays finite
_STATE_NORM_CEILING = 1e100

# rows per pass of the closed form, whose (3, 3, rows) temporaries peak at
# about 1.5 MB for 2^11 rows whatever the stack length. A "cf4" slice
# exponentiates 2 CHUNK_STEPS rows; with passes as long as the slice, the
# pass temporaries outgrow what the allocator keeps between passes and
# are faulted in again on every pass (about 18k minor faults and 13% more
# time per `modeswitch` op, against 1.2k at half the slice)
_CLOSED_FORM_PASS_ROWS = 1 << 11


def _max_scaled_norm(m: np.ndarray, scale: np.ndarray) -> float:
    """max_j |scale_j| ||m_j||_inf over 3x3 matrices stored matrix axes
    first, (3, 3, N), N >= 1."""
    a = np.abs(m)
    return float(((a[:, 0] + a[:, 1] + a[:, 2]) * np.abs(scale)).max())


def _expm3_closed_form(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(z_j H_j) for 3x3 matrices stored matrix axes first, h (3, 3, N),
    and scalars z (N,): e^{z tr H / 3} (A I + B G + C G^2) with G the
    traceless part of H, as an (N, 3, 3) view of (3, 3, N) memory.

    Each pass of `_CLOSED_FORM_PASS_ROWS` rows takes one norm, theta, the
    largest ||z_j G_j||_inf of its rows, so a row's bits do not depend on
    the rows of other passes: s = `_squarings(theta)` squarings bring
    Y = z G / 2^s to ||Y||_inf <= 1/2, and its Taylor series is truncated
    at degree `_taylor_degree(theta / 2^s)` and reduced with
    Cayley-Hamilton, Y^3 = det(Y) I - sigma Y with sigma = -tr(Y^2)/2, so that
    Y^k = a_k I + b_k Y + c_k Y^2 with (a, b, c) -> (c det Y, a - c sigma, b).
    Horner's rule on that recurrence and the s squarings run on N-length
    coefficient arrays; the only matrix product is one G^2 per step. Every
    operation, here and in the tree's products, runs along the stack on
    the last axis; numpy's loops over a length-3 last axis cost more.
    """
    result = np.empty((3, 3, z.size), dtype=complex)
    for lo in range(0, z.size, _CLOSED_FORM_PASS_ROWS):
        part = slice(lo, lo + _CLOSED_FORM_PASS_ROWS)
        gp = np.array(h[..., part], dtype=np.result_type(h, float), order="C")
        third = (gp[0, 0] + gp[1, 1] + gp[2, 2]) / 3.0
        for i in range(3):
            gp[i, i] -= third
        zp = z[part]
        theta = _max_scaled_norm(gp, zp)
        squarings = _squarings(theta)
        yp = zp / 2.0**squarings
        inv_fact = _INV_FACTORIAL[: _taylor_degree(theta / 2.0**squarings) + 1]
        g2 = gp[:, 0, None] * gp[0] + gp[:, 1, None] * gp[1] + gp[:, 2, None] * gp[2]
        sigma = -(g2[0, 0] + g2[1, 1] + g2[2, 2]) / 2.0 * yp**2
        det = yp**3 * (
            gp[0, 0] * (gp[1, 1] * gp[2, 2] - gp[1, 2] * gp[2, 1])
            - gp[0, 1] * (gp[1, 0] * gp[2, 2] - gp[1, 2] * gp[2, 0])
            + gp[0, 2] * (gp[1, 0] * gp[2, 1] - gp[1, 1] * gp[2, 0])
        )
        # Horner from the top: the three highest terms need no reduction
        a, b, c = inv_fact[-3], inv_fact[-2], inv_fact[-1]
        for coeff in inv_fact[-4::-1]:
            a, b, c = c * det + coeff, a - c * sigma, b
        for _ in range(squarings):
            a, b, c = (
                a * a + 2.0 * b * c * det,
                2.0 * a * b - 2.0 * b * c * sigma + c * c * det,
                b * b + 2.0 * a * c - c * c * sigma,
            )
        phase = np.exp(zp * third)
        out = (b * yp * phase) * gp
        out += (c * yp**2 * phase) * g2
        for i in range(3):
            out[i, i] += a * phase
        result[..., part] = out
    return np.moveaxis(result, -1, 0)


def _exp_stack(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(z_j H_j) for a stack h (N, n, n), n <= 3, and scalars z (N,):
    the one dispatch behind `expm` and `step_propagators`. A 3x3 stack
    takes `_expm3_closed_form` at any norm and comes back in stack-last
    memory; a 1x1 or 2x2 stack is the leading block of its 3x3 stack
    padded with tr(H)/n, which adds no spread. Raises ValueError for n > 3."""
    n = h.shape[-1]
    if n == 3:
        return _expm3_closed_form(np.moveaxis(h, 0, -1), z)
    if n > 3:
        raise ValueError(f"matrix exponential takes n <= 3, got {n}x{n}")
    padded = np.zeros((3, 3, len(h)), dtype=np.result_type(h, float))
    padded[:n, :n] = np.moveaxis(h, 0, -1)
    padded[range(n, 3), range(n, 3)] = np.trace(h, axis1=1, axis2=2) / n
    return _expm3_closed_form(padded, z)[:, :n, :n]


def step_propagators(h_mid: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Batched exp(-i H_j dt_j) for a stack of step Hamiltonians (N, n, n),
    n <= 3: midpoint samples, or the weighted sums of Gauss-node samples
    that make up a "cf4" factor, by `_exp_stack`. Real and complex H take
    the same path. A stack of independent blocks (N, *batch, n, n) is
    exponentiated block by block, each with the scaling it would have
    alone, into memory with the stack axis innermost."""
    h = np.asarray(h_mid)
    z = -1j * np.asarray(dts)
    if h.ndim == 3:
        return _exp_stack(h, z)
    props = np.empty((*h.shape[1:], z.size), dtype=complex)
    for block in np.ndindex(h.shape[1:-2]):
        props[block] = np.moveaxis(_exp_stack(h[(slice(None), *block)], z), 0, -1)
    return np.moveaxis(props, -1, 0)


# Gauss-Legendre nodes of a step, as fractions of its length
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# weights of (H(node 1), H(node 2)) in the exponent of the first and of the
# second factor of a "cf4" step. The first factor applied weights the
# earlier node more; in the other order the rule is only second order.
_CF4_WEIGHTS = np.array([
    [(3.0 + 2.0 * math.sqrt(3.0)) / 12.0, (3.0 - 2.0 * math.sqrt(3.0)) / 12.0],
    [(3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0],
])


def gauss_nodes(t: np.ndarray) -> np.ndarray:
    """The two Gauss-Legendre nodes of every step of the grid t, (2, N)."""
    t = np.asarray(t, dtype=float)
    return t[:-1] + np.multiply.outer(GAUSS_NODES, np.diff(t))


def _midpoint_steps(h_of_t, t: np.ndarray) -> np.ndarray:
    """exp(-i dt H(t + dt/2)) for every step of the grid t."""
    return step_propagators(h_of_t((t[:-1] + t[1:]) / 2.0), np.diff(t))


def _cf4_steps(h_of_t, t: np.ndarray) -> np.ndarray:
    """exp(-i dt (b H1 + a H2)) exp(-i dt (a H1 + b H2)) for every step of
    the grid t, H1,2 at its Gauss nodes: both factors of the slice in one
    `step_propagators` call, multiplied into one matrix per step."""
    dts = np.diff(t)
    h = h_of_t(gauss_nodes(t).reshape(-1))
    exponents = np.tensordot(_CF4_WEIGHTS, h.reshape(2, dts.size, *h.shape[1:]), axes=1)
    factors = step_propagators(exponents.reshape(h.shape), np.tile(dts, 2))
    return _matmul(factors[dts.size :], factors[: dts.size])


_STEP_RULES = {"midpoint": _midpoint_steps, "cf4": _cf4_steps}


def _pairwise_levels(props: np.ndarray):
    """Levels, bottom up, of the pairwise tree of the time-ordered product
    of `props` (N, *batch, n, n): level k + 1 holds level[2i + 1] @
    level[2i] and the odd last matrix of level k, in the memory order of
    `props`."""
    level = np.asarray(props, dtype=complex)
    yield level
    while len(level) > 1:
        n, half = len(level), len(level) // 2
        up = np.empty_like(level, shape=(half + n % 2, *level.shape[1:]))
        _matmul(level[1 : 2 * half : 2], level[0 : 2 * half : 2], out=up[:half])
        if n % 2:
            up[half] = level[-1]
        level = up
        yield level


def ordered_product(props: np.ndarray) -> np.ndarray:
    """Time-ordered product U_N ... U_2 U_1: the top of the pairwise tree."""
    for level in _pairwise_levels(props):
        pass  # each level is dropped once the next is built
    return level[0]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v over stacks (..., n, n), (..., n): n broadcast multiply-adds."""
    out = a[..., :, 0] * v[..., 0, None]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j] * v[..., j, None]
    return out


def _apply_top(top: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """top @ psi for a product (*batch, n, n) and a state (*batch, n): the
    end state of a slice, the same expression in both propagation modes."""
    return (top @ psi[..., None])[..., 0]


def prefix_states(props: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States (N + 1, *batch, dim) after each step of the ordered product
    of `props` (N, *batch, dim, dim), including t=0, by an
    up-sweep/down-sweep scan (Blelloch, "Prefix sums and their
    applications", 1990) on the kept levels of the pairwise tree: a left
    child starts where its parent does, a right child at the left child's
    product applied to that state. The last state is the top applied to
    psi0 (*batch, dim), as in product mode, so both modes end on the same
    bits. N - 1 matrix and about N matrix-vector products in about
    2 log2 N vectorized calls."""
    psi0 = np.asarray(psi0, dtype=complex)
    states = np.array([psi0, psi0])  # row 1 takes the end state if N = 1
    levels = list(_pairwise_levels(props))
    if not len(levels[0]):
        return states[:1]
    for level in levels[-2::-1]:
        m, half = len(level), len(level) // 2
        down = np.empty((m + 1, *psi0.shape), dtype=complex)  # row m: the end state
        down[0:m:2] = states[: m - half]
        down[1 : 2 * half : 2] = _matvec(level[0 : 2 * half : 2], states[:half])
        states = down
    states[-1] = _apply_top(levels[-1][0], psi0)
    return states


def propagate_ordered(
    h_of_t, psi0: np.ndarray, times: np.ndarray, *, trajectory: bool = True, rule: str = "midpoint"
):
    """Time-ordered evolution of psi0 over the strictly increasing grid
    `times` by the step rule `rule`, "midpoint" (second order) or "cf4"
    (fourth order), one slice of at most CHUNK_STEPS steps at a time.

    `h_of_t` maps a 1-D array of times to Hamiltonian samples (len(t),
    *batch, n, n): no batch axes for one n-level system, or a batch of
    independent blocks, with psi0 (*batch, n) split into their states. It
    is called once per slice, on that slice's step midpoints or on its
    Gauss nodes (`gauss_nodes`, the first node of every step, then the
    second). Either rule gives one propagator per step to the tree. Yields
    (start, t, states) per slice: `start` is the grid index of t[0], `t`
    the slice's nodes with both ends, and `states` the state at every node
    of `t` (trajectory=True, by `prefix_states`) or at its last node only
    (trajectory=False, by `ordered_product`). The end state of one slice
    starts the next; NumericsError names the slice whose end state is not
    finite or over `_STATE_NORM_CEILING` (a gain that overflows).
    """
    if rule not in _STEP_RULES:
        raise ValueError(f"unknown step rule {rule!r}")
    times = np.asarray(times, dtype=float)
    # compared as views: np.diff would hold another 8 bytes a step beside the grid
    if times.ndim != 1 or times.size < 2 or not np.all(times[1:] > times[:-1]):
        raise ValueError("times must be a strictly increasing grid")
    psi = np.asarray(psi0, dtype=complex)
    for start in range(0, times.size - 1, CHUNK_STEPS):
        t = times[start : start + CHUNK_STEPS + 1]
        props = _STEP_RULES[rule](h_of_t, t)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if trajectory:
                states = prefix_states(props, psi)
            else:
                states = _apply_top(ordered_product(props), psi)[np.newaxis]
        psi = states[-1]
        if not (peak := np.abs(psi).max()) <= _STATE_NORM_CEILING:
            raise NumericsError(f"state norm {peak:.3e} over t in [{t[0]:.6g}, {t[-1]:.6g}] "
                                f"is not finite or over {_STATE_NORM_CEILING:.0e}: it overflows")
        yield start, t, states
