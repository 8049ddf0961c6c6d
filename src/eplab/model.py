"""The PT-symmetric three-level lattice model and its closed-form spectra.

The model is the 3x3 matrix of `build_hamiltonian`,

    [[3 + 2 k1, 1 - k2,   0      ],
     [1 + k2,   0,        1 - k2 ],
     [0,        1 + k2,   3 - 2 k1]]

whose characteristic cubic, discriminant, line spectra, conical
expansion and closed-form eigenstates are all available analytically.
The discriminant is the cubic's, in its coefficients f1 and f0, and
`_discriminant_derivatives` differentiates it exactly by the chain rule.
`build_tb_block` is a different matrix: the literal truncation of the
non-reciprocal tight-binding chain to the sites m = -reach..reach. At
(0.3, 0.5) its three-site spectrum is about [-0.257, 0.718, 1.809], the
model's [-0.449, 2.621, 3.827], and on k2 = 1 it degenerates at k1 = 0
and +-1/2. Acceptance criterion 6 locates those of the five-site block.

Eigenvalues come from the roots of the cubic (`cubic.solve_cubic`), and
every eigenvector from one closed form, `_eigenvectors`. A sweep that
needs no vectors (`sweep_tracked_eigenvalues`, behind `eplab spectrum`)
and the cone sheets of `eplab cone` take the cubic roots alone. Sweeps
track the eigenvalue order from point to point with a greedy nearest
match, tabled for all six orders of the previous point and then chained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cubic import solve_cubic
from .numerics import Spectrum

__all__ = [
    "MAX_ABS_K",
    "ModelParams",
    "CharPoly",
    "ConeDirection",
    "build_hamiltonian",
    "build_tb_block",
    "char_poly",
    "discriminant",
    "eigenvalues",
    "spectrum",
    "line_spectrum",
    "cone_expansion",
    "analytic_eigenstate",
    "sweep_tracked_eigenvalues",
    "sweep_tracked_spectra",
]


# largest |k1|, |k2| the model takes. It lives at |k| <~ 2; up to 1e6 the
# 4 f1^3 term of `discriminant` stays below 1e39, so no polynomial of the
# model overflows
MAX_ABS_K = 1e6


@dataclass(frozen=True)
class ModelParams:
    """A point (k1, k2) of the parameter plane.

    k1 and k2 may be arrays (a path or a grid of points) wherever a
    function says it broadcasts; they must be finite and at most
    MAX_ABS_K in magnitude."""

    k1: float
    k2: float

    def __post_init__(self):
        # one comparison per parameter, also false for nan and inf
        if not (np.all(np.abs(self.k1) <= MAX_ABS_K) and np.all(np.abs(self.k2) <= MAX_ABS_K)):
            if not (np.all(np.isfinite(self.k1)) and np.all(np.isfinite(self.k2))):
                raise ValueError("model parameters k1, k2 have non-finite entries")
            raise ValueError(f"model parameters k1, k2 must lie within +-{MAX_ABS_K:g}")


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of the characteristic cubic P(E)."""

    f3: float
    f2: float
    f1: float
    f0: float


@dataclass(frozen=True)
class ConeDirection:
    """Radial approach direction to the conical degeneracy at (0, 1).

    theta may be an array of directions; dk1 and dk2 follow its shape."""

    theta: float
    dk: float = 1e-4

    def __post_init__(self):
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")
        if not (np.isfinite(self.dk) and self.dk > 0):
            raise ValueError("dk must be finite and positive")

    @property
    def dk1(self) -> float:
        return np.cos(self.theta) * self.dk

    @property
    def dk2(self) -> float:
        return np.sin(self.theta) * self.dk


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """The 3x3 model Hamiltonian (real, non-symmetric for k2 != 0).

    Broadcasts: shape (..., 3, 3) when p.k1 and p.k2 are arrays.
    """
    k1, k2 = p.k1, p.k2
    h = np.zeros((*np.broadcast(k1, k2).shape, 3, 3))
    h[..., 0, 0] = 3.0 + 2.0 * k1
    h[..., 2, 2] = 3.0 - 2.0 * k1
    h[..., 0, 1] = h[..., 1, 2] = 1.0 - k2
    h[..., 1, 0] = h[..., 2, 1] = 1.0 + k2
    return h


def build_tb_block(p: ModelParams, reach: int = 1) -> np.ndarray:
    """Literal truncation of the tight-binding chain onto the sites
    m = -reach..reach, reach 1 or 2, with hops of distance 1 to reach.

    Diagonal (m + k1)^2, rightward hops (1 - k2)/2, leftward hops
    (1 + k2)/2, the same couplings at every hop distance. This is not the
    3x3 model of `build_hamiltonian`, even at reach 1.
    """
    if reach not in (1, 2):
        raise ValueError(f"reach must be 1 or 2, got {reach!r}")
    ms = np.arange(-reach, reach + 1, dtype=float)
    n = ms.size
    h = np.diag((ms + p.k1) ** 2)
    for d in range(1, reach + 1):
        for i in range(n - d):
            h[i, i + d] += (1.0 - p.k2) / 2.0  # |m><m+d|
            h[i + d, i] += (1.0 + p.k2) / 2.0  # |m><m-d|
    return h


def _cubic_coefficients(k1, k2):
    """(f1, f0), the k-dependent coefficients of the characteristic cubic
    -E^3 + 6 E^2 + f1 E + f0; elementwise for arrays."""
    return 4.0 * k1**2 - 2.0 * k2**2 - 7.0, 6.0 * (k2**2 - 1.0)


def char_poly(p: ModelParams) -> CharPoly:
    """P(E) = det[H - E] for the 3x3 model.

    Elementwise when p.k1 and p.k2 are arrays (as for `discriminant`).
    """
    return CharPoly(-1.0, 6.0, *_cubic_coefficients(p.k1, p.k2))


def discriminant(k1, k2):
    """Discriminant of the characteristic cubic, the degeneracy-locus
    polynomial of the 3x3 model; accepts arrays. In Horner form it is
    4 f1^3 + 36 f1^2 - 108 f1 f0 - 27 f0^2 - 864 f0."""
    f1, f0 = _cubic_coefficients(np.asarray(k1), np.asarray(k2))
    return ((4.0 * f1 + 36.0) * f1 - 108.0 * f0) * f1 - (27.0 * f0 + 864.0) * f0


def _discriminant_derivatives(k1: float, k2: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient (2,) and Hessian (2, 2) of `discriminant` at a scalar
    point, by the chain rule through f1 (k-gradient (8 k1, -4 k2)) and f0
    ((0, 12 k2)); the second partials in (f1, f0) are 24 f1 + 72, -108, -54."""
    f1, f0 = _cubic_coefficients(k1, k2)
    d1 = (12.0 * f1 + 72.0) * f1 - 108.0 * f0  # dDelta/df1
    d0 = -108.0 * f1 - 54.0 * f0 - 864.0  # dDelta/df0
    d11 = 24.0 * f1 + 72.0  # d2Delta/df1^2
    a1, a2, b2 = 8.0 * k1, -4.0 * k2, 12.0 * k2  # df1/dk1, df1/dk2, df0/dk2
    h12 = a1 * (d11 * a2 - 108.0 * b2)
    h22 = (d11 * a2 - 216.0 * b2) * a2 - 54.0 * b2 * b2 - 4.0 * d1 + 12.0 * d0
    grad = np.array([d1 * a1, d1 * a2 + d0 * b2])
    return grad, np.array([[d11 * a1 * a1 + 8.0 * d1, h12], [h12, h22]])


def eigenvalues(p: ModelParams) -> np.ndarray:
    """Eigenvalues (..., 3) of the 3x3 model, complex: the roots of its
    characteristic cubic in `spectrum` order (descending real part, ties
    by descending imaginary part), without eigenvectors. Elementwise when
    p.k1 and p.k2 are arrays."""
    cp = char_poly(p)
    return solve_cubic(cp.f3, cp.f2, cp.f1, cp.f0)


def spectrum(p: ModelParams) -> Spectrum:
    """Eigenvalues from the characteristic cubic plus closed-form eigenvectors.

    The cubic route keeps full accuracy at (near-)degeneracies where a
    generic eigensolver only delivers ~sqrt(machine epsilon), and each
    `_eigenvectors` column is exact for its root, also where two coalesce.

    Broadcasts over array p.k1, p.k2: eigenvalues (..., 3) in descending
    real part (ties by descending imaginary part) and vectors (..., 3, 3)
    in the columns. A scalar point gives shapes (3,) and (3, 3).
    """
    vals = eigenvalues(p)
    return Spectrum(eigenvalues=vals, right_vectors=_eigenvectors(vals, p.k1, p.k2))


def line_spectrum(p: ModelParams) -> np.ndarray:
    """Closed-form eigenvalue triplet on the k2=1 or k1=0 lines.

    Ordering is the branch labelling with the middle eigenvalue 3 on the
    k1=0 line assigned to E2 below the degeneracy (k2 < 1) and to E1
    above it, consistent with sheet continuity.
    """
    on_k2_line = abs(p.k2 - 1.0) < 1e-12
    on_k1_line = abs(p.k1) < 1e-12
    if on_k2_line:
        return np.array([3.0 + 2.0 * abs(p.k1), 3.0 - 2.0 * abs(p.k1), 0.0])
    if on_k1_line:
        rad = 17.0 - 8.0 * p.k2**2
        if rad < 0.0:
            raise ValueError("k1=0 closed form requires 17 - 8 k2^2 >= 0")
        g = np.sqrt(rad)
        upper, lower = (3.0 + g) / 2.0, (3.0 - g) / 2.0
        if p.k2 < 1.0:
            return np.array([upper, 3.0, lower])
        return np.array([3.0, upper, lower])
    raise ValueError("closed-form line spectrum requires k2=1 or k1=0")


def cone_expansion(c: ConeDirection) -> tuple[float, float]:
    """First-order radial slopes of the two touching sheets at (0, 1)."""
    s, co = np.sin(c.theta), np.cos(c.theta)
    root = np.sqrt(s * s + 9.0 * co * co)
    return (2.0 * (-s + root) / 3.0, 2.0 * (-s - root) / 3.0)


def _eigenvector_polynomial(e, k1, k2) -> np.ndarray:
    """Column 0 of adj(H - e I) (rows 1 x 2 of H - e I), a polynomial in
    (e, k1, k2) of one shape: an unnormalized right eigenvector for an
    eigenvalue e, which can vanish only on k2 = -1; complex arguments
    are allowed."""
    return np.array(
        [
            e * (e + 2.0 * k1 - 3.0) + k2**2 - 1.0,
            (e + 2.0 * k1 - 3.0) * (1.0 + k2),
            (1.0 + k2) ** 2,
        ],
        dtype=complex,
    )


def _eigenvectors(vals, k1, k2) -> np.ndarray:
    """Unit right eigenvectors (..., 3, n), in the columns, of the 3x3
    model for eigenvalues vals (..., n) at k1, k2 (broadcasting to (...)).

    Each is the largest of the three columns of adj(H - E I), the cross
    products of pairs of rows of H - E I. A nonzero column is an exact
    eigenvector wherever H - E I has rank 2 (Kopp, Int. J. Mod. Phys. C
    19, 523, 2008), and here it always has, even at both conical points:
    columns 0 and 2 hold the minors (1 + k2)^2 and (1 - k2)^2, which
    cannot both vanish. Column 2 is column 0 of the mirrored model
    (k1, k2) -> (-k1, -k2) with its entries reversed.
    """
    e = np.asarray(vals)
    k1, k2 = (np.broadcast_to(np.asarray(k)[..., None], e.shape) for k in (k1, k2))
    up, down = e - 3.0 - 2.0 * k1, e - 3.0 + 2.0 * k1  # E - H00, E - H22
    cols = np.stack([
        _eigenvector_polynomial(e, k1, k2),
        np.array([(1.0 - k2) * down, up * down, (1.0 + k2) * up], dtype=complex),
        _eigenvector_polynomial(e, -k1, -k2)[::-1],
    ])  # (column, component, ..., n)
    sq = np.sum(np.abs(cols) ** 2, axis=1)
    best = np.argmax(sq, axis=0)
    return np.moveaxis(np.choose(best, cols) / np.sqrt(np.choose(best, sq)), 0, -2)


def analytic_eigenstate(p: ModelParams, e: complex) -> np.ndarray:
    """Closed-form unit eigenstate of the 3x3 model for eigenvalue e, the
    `_eigenvectors` column. Raises if e is not an eigenvalue at p."""
    h = build_hamiltonian(p)
    v = _eigenvectors(np.array([e]), p.k1, p.k2)[:, 0]
    resid = np.linalg.norm(h @ v - e * v)
    if resid > 1e-8 * max(np.linalg.norm(h, 2), 1.0):
        raise ValueError(f"{e!r} is not an eigenvalue (residual {resid:.3e})")
    return v


# the six orders of three eigenvalues; row 0 is the identity
_PERMS = np.array(list(itertools.permutations(range(3))))
# row of _PERMS with first two entries (a, b), at index 3 a + b
_PERM_ROW = np.zeros(9, dtype=int)
_PERM_ROW[3 * _PERMS[:, 0] + _PERMS[:, 1]] = np.arange(6)


def _tracking_perms(vals: np.ndarray) -> np.ndarray:
    """Continuity-tracking permutations (N, 3) of the eigenvalue rows (N, 3).

    Row i orders vals[i] to follow on from the ordered row i - 1 (row 0
    follows itself) by greedy matching: each earlier eigenvalue in turn
    takes the nearest free new one, ties within 1e-12 going to the lower
    index. The greedy result depends only on the two rows and the order
    the earlier row is in, so it is tabled for all six orders at once,
    (N, 6), in two vectorized rounds (the third pick is the index left),
    and the table is then chained from the identity with N lookups.
    """
    prev = np.concatenate([vals[:1], vals[:-1]])
    targets = prev[:, _PERMS]  # (N, 6, 3): row i - 1 in each of the six orders
    taken = np.zeros(targets.shape, dtype=bool)
    picks = []
    for r in range(2):
        dist = np.abs(vals[:, None, :] - targets[:, :, r, None])
        dist[taken] = np.inf
        # np.minimum over the columns: a reduction over an axis of 3 is slow
        low = np.minimum(np.minimum(dist[..., 0], dist[..., 1]), dist[..., 2]) + 1e-12
        pick = np.argmax(dist <= low[..., None], axis=-1)  # the lowest index within the tie
        taken |= pick[..., None] == np.arange(3)
        picks.append(pick)
    table = _PERM_ROW[3 * picks[0] + picks[1]].tolist()
    order = []
    row = 0
    for successors in table:
        row = successors[row]
        order.append(row)
    return _PERMS[order]


def _check_sweep_path(path: ModelParams) -> None:
    k1, k2 = np.broadcast_arrays(path.k1, path.k2)
    if k1.ndim != 1:
        raise ValueError("a sweep path is one-dimensional")
    if np.any(np.hypot(np.diff(k1), np.diff(k2)) > 0.05 + 1e-12):
        raise ValueError("consecutive path points farther than 0.05 apart")


def sweep_tracked_eigenvalues(path: ModelParams) -> np.ndarray:
    """Eigenvalues (N, 3) along a parameter path, continuity-tracked.

    `path` holds the points as 1-D arrays k1, k2 (a scalar broadcasts),
    at most 0.05 apart. Each point's cubic roots are permuted to follow
    on from the previous point's by greedy nearest matching.
    """
    _check_sweep_path(path)
    vals = eigenvalues(path)
    return np.take_along_axis(vals, _tracking_perms(vals), axis=-1)


def sweep_tracked_spectra(path: ModelParams) -> Spectrum:
    """`sweep_tracked_eigenvalues` plus the closed-form vector of each
    eigenvalue. Returns one stacked Spectrum, eigenvalues (N, 3), vectors
    (N, 3, 3)."""
    vals = sweep_tracked_eigenvalues(path)
    return Spectrum(eigenvalues=vals, right_vectors=_eigenvectors(vals, path.k1, path.k2))
