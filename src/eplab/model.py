"""The PT-symmetric three-level lattice model and its closed-form spectra.

The family is a non-reciprocal tight-binding chain truncated to a small
block around the origin; the nearest-neighbour truncation is the 3x3
matrix

    [[3 + 2 k1, 1 - k2,   0      ],
     [1 + k2,   0,        1 - k2 ],
     [0,        1 + k2,   3 - 2 k1]]

whose characteristic cubic, discriminant, line spectra, conical
expansion and closed-form eigenstates are all available analytically.

Eigenvalues come from the roots of the cubic (`cubic.solve_cubic`); only
`spectrum` adds numeric eigenvectors. A sweep that needs no vectors
(`sweep_tracked_eigenvalues`, behind `eplab spectrum`) and the cone
sheets of `eplab cone` take the cubic roots alone. Sweeps track the
eigenvalue order from point to point with a greedy nearest match, tabled
for all six orders of the previous point and then chained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cubic import solve_cubic
from .numerics import Spectrum, eig

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
# 256 k^6 term of `discriminant` stays below 1e39, so no polynomial of
# the model overflows
MAX_ABS_K = 1e6


@dataclass(frozen=True)
class ModelParams:
    """A point (k1, k2) of the parameter plane plus the truncation variant.

    k1 and k2 may be arrays (a path or a grid of points) wherever a
    function says it broadcasts; they must be finite and at most
    MAX_ABS_K in magnitude."""

    k1: float
    k2: float
    variant: str = "nearest"
    block: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        # one comparison per parameter, also false for nan and inf
        if not (np.all(np.abs(self.k1) <= MAX_ABS_K) and np.all(np.abs(self.k2) <= MAX_ABS_K)):
            if not (np.all(np.isfinite(self.k1)) and np.all(np.isfinite(self.k2))):
                raise ValueError("model parameters k1, k2 have non-finite entries")
            raise ValueError(f"model parameters k1, k2 must lie within +-{MAX_ABS_K:g}")
        if self.variant not in ("nearest", "next_nearest"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.block is None:
            size = 1 if self.variant == "nearest" else 2
            object.__setattr__(self, "block", tuple(range(-size, size + 1)))
        want = 3 if self.variant == "nearest" else 5
        if len(self.block) != want or tuple(sorted(self.block)) != tuple(
            -m for m in sorted(self.block, reverse=True)
        ):
            raise ValueError("block must be symmetric about 0 with the variant size")


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
    """3x3 nearest-truncation Hamiltonian (real, non-symmetric for k2 != 0).

    Broadcasts: shape (..., 3, 3) when p.k1 and p.k2 are arrays.
    """
    if p.variant != "nearest":
        raise ValueError("closed-form 3x3 Hamiltonian exists for variant='nearest'")
    k1, k2 = p.k1, p.k2
    h = np.zeros((*np.broadcast(k1, k2).shape, 3, 3))
    h[..., 0, 0] = 3.0 + 2.0 * k1
    h[..., 2, 2] = 3.0 - 2.0 * k1
    h[..., 0, 1] = h[..., 1, 2] = 1.0 - k2
    h[..., 1, 0] = h[..., 2, 1] = 1.0 + k2
    return h


def build_tb_block(p: ModelParams) -> np.ndarray:
    """Literal truncation of the tight-binding chain onto `p.block`.

    Diagonal (m + k1)^2, rightward hops (1 - k2)/2, leftward hops
    (1 + k2)/2; the next-nearest variant repeats the same couplings on
    the distance-2 hops.
    """
    ms = np.array(sorted(p.block), dtype=float)
    n = ms.size
    h = np.diag((ms + p.k1) ** 2)
    hops = [1] if p.variant == "nearest" else [1, 2]
    for d in hops:
        for i in range(n - d):
            h[i, i + d] += (1.0 - p.k2) / 2.0  # |m><m+d|
            h[i + d, i] += (1.0 + p.k2) / 2.0  # |m><m-d|
    return h


def char_poly(p: ModelParams) -> CharPoly:
    """P(E) = det[H - E] for the nearest 3x3 model.

    Elementwise when p.k1 and p.k2 are arrays (as for `discriminant`).
    """
    if p.variant != "nearest":
        raise ValueError("characteristic cubic is specific to variant='nearest'")
    f3, f2 = -1.0, 6.0
    f1 = 4.0 * p.k1**2 - 2.0 * p.k2**2 - 7.0
    f0 = 6.0 * (p.k2**2 - 1.0)
    return CharPoly(f3, f2, f1, f0)


def discriminant(k1, k2):
    """Degeneracy-locus polynomial of the 3x3 model; accepts arrays."""
    k1sq = np.asarray(k1) ** 2
    k2sq = np.asarray(k2) ** 2
    return (
        256.0 * k1sq**3
        - 768.0 * k1sq**2
        + 2928.0 * k1sq
        - 384.0 * k1sq**2 * k2sq
        - 1824.0 * k1sq * k2sq
        + 192.0 * k1sq * k2sq**2
        - 168.0 * k2sq
        + 132.0 * k2sq**2
        - 32.0 * k2sq**3
        + 68.0
    )


def eigenvalues(p: ModelParams) -> np.ndarray:
    """Eigenvalues (..., 3) of the 3x3 model, complex: the roots of its
    characteristic cubic in `spectrum` order (descending real part, ties
    by descending imaginary part), without eigenvectors. Elementwise when
    p.k1 and p.k2 are arrays."""
    cp = char_poly(p)
    return solve_cubic(cp.f3, cp.f2, cp.f1, cp.f0)


def spectrum(p: ModelParams) -> Spectrum:
    """Eigenvalues from the characteristic cubic plus numeric eigenvectors.

    The cubic route keeps full accuracy at (near-)degeneracies where a
    generic eigensolver only delivers ~sqrt(machine epsilon). Vectors
    are matched to the cubic roots by nearest eigenvalue.

    Broadcasts over array p.k1, p.k2: one `solve_cubic` and one stacked
    `eig` call give eigenvalues (..., 3) in descending real part (ties by
    descending imaginary part) and vectors (..., 3, 3) in the columns. A
    scalar point gives shapes (3,) and (3, 3).
    """
    vals = eigenvalues(p)
    numeric = eig(build_hamiltonian(p))
    # column j of the result is the numeric vector nearest to vals[..., j]
    gap = np.abs(numeric.eigenvalues[..., None, :] - vals[..., :, None])
    nearest = np.argmin(gap, axis=-1)
    vecs = np.take_along_axis(numeric.right_vectors, nearest[..., None, :], axis=-1)
    return Spectrum(eigenvalues=vals, right_vectors=vecs)


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
    """Unnormalized right eigenvector of the 3x3 model for eigenvalue e,
    a polynomial in (e, k1, k2); complex arguments are allowed."""
    return np.array(
        [
            e * (e + 2.0 * k1 - 3.0) + k2**2 - 1.0,
            (e + 2.0 * k1 - 3.0) * (1.0 + k2),
            (1.0 + k2) ** 2,
        ],
        dtype=complex,
    )


def analytic_eigenstate(p: ModelParams, e: complex) -> np.ndarray:
    """Closed-form normalized eigenstate of the 3x3 model for eigenvalue e.

    The unnormalized vector is
        (e (e + 2 k1 - 3) + k2^2 - 1,
         (e + 2 k1 - 3) (1 + k2),
         (1 + k2)^2).
    """
    if abs(1.0 + p.k2) < 1e-12:
        raise ValueError(
            "closed-form eigenstate vanishes at k2 = -1; use numeric eigenvectors"
        )
    h = build_hamiltonian(p)
    v = _eigenvector_polynomial(e, p.k1, p.k2)
    v = v / np.linalg.norm(v)
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

    The roots of the characteristic cubic alone, in the order
    `sweep_tracked_spectra` gives them (bit for bit), without the
    eigenvectors; `path` is as there.
    """
    _check_sweep_path(path)
    vals = eigenvalues(path)
    return np.take_along_axis(vals, _tracking_perms(vals), axis=-1)


def sweep_tracked_spectra(path: ModelParams) -> Spectrum:
    """Spectra along a parameter path with continuity-tracked ordering.

    `path` holds the points as 1-D arrays k1, k2 (a scalar broadcasts),
    at most 0.05 apart. The spectra come from one `spectrum` call; each
    point's eigenvalues and vectors are then permuted to follow on from
    the previous point's by greedy nearest matching. Returns one stacked
    Spectrum tagged "sweep-tracked", eigenvalues (N, 3), vectors (N, 3, 3).
    """
    _check_sweep_path(path)
    sp = spectrum(path)
    perms = _tracking_perms(sp.eigenvalues)
    return Spectrum(
        eigenvalues=np.take_along_axis(sp.eigenvalues, perms, axis=-1),
        right_vectors=np.take_along_axis(sp.right_vectors, perms[:, None, :], axis=-1),
        ordering_tag="sweep-tracked",
    )
