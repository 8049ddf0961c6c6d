"""The PT-symmetric three-level lattice model and its closed-form spectra.

The family is a non-reciprocal tight-binding chain truncated to a small
block around the origin; the nearest-neighbour truncation is the 3x3
matrix

    [[3 + 2 k1, 1 - k2,   0      ],
     [1 + k2,   0,        1 - k2 ],
     [0,        1 + k2,   3 - 2 k1]]

whose characteristic cubic, discriminant, line spectra, conical
expansion and closed-form eigenstates are all available analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cubic import cubic_discriminant, solve_cubic
from .numerics import Spectrum, eig

__all__ = [
    "ModelParams",
    "CharPoly",
    "ConeDirection",
    "build_hamiltonian",
    "build_tb_block",
    "char_poly",
    "discriminant",
    "spectrum",
    "line_spectrum",
    "cone_expansion",
    "analytic_eigenstate",
    "sweep_tracked_spectra",
]


@dataclass(frozen=True)
class ModelParams:
    """A point (k1, k2) of the parameter plane plus the truncation variant."""

    k1: float
    k2: float
    variant: str = "nearest"
    block: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
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
    """Coefficients of the characteristic cubic P(E) and its discriminant."""

    f3: float
    f2: float
    f1: float
    f0: float
    discriminant: float


@dataclass(frozen=True)
class ConeDirection:
    """Radial approach direction to the conical degeneracy at (0, 1)."""

    theta: float
    dk: float = 1e-4

    def __post_init__(self):
        if self.dk <= 0:
            raise ValueError("dk must be positive")

    @property
    def dk1(self) -> float:
        return np.cos(self.theta) * self.dk

    @property
    def dk2(self) -> float:
        return np.sin(self.theta) * self.dk


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """3x3 nearest-truncation Hamiltonian (real, non-symmetric for k2 != 0)."""
    if p.variant != "nearest":
        raise ValueError("closed-form 3x3 Hamiltonian exists for variant='nearest'")
    k1, k2 = p.k1, p.k2
    return np.array(
        [
            [3.0 + 2.0 * k1, 1.0 - k2, 0.0],
            [1.0 + k2, 0.0, 1.0 - k2],
            [0.0, 1.0 + k2, 3.0 - 2.0 * k1],
        ]
    )


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
    """P(E) = det[H - E] for the nearest 3x3 model, plus its discriminant.

    Elementwise when p.k1 and p.k2 are arrays (as for `discriminant`).
    """
    if p.variant != "nearest":
        raise ValueError("characteristic cubic is specific to variant='nearest'")
    f3, f2 = -1.0, 6.0
    f1 = 4.0 * p.k1**2 - 2.0 * p.k2**2 - 7.0
    f0 = 6.0 * (p.k2**2 - 1.0)
    return CharPoly(f3, f2, f1, f0, cubic_discriminant(f3, f2, f1, f0))


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


def spectrum(p: ModelParams) -> Spectrum:
    """Eigenvalues from the characteristic cubic plus numeric eigenvectors.

    The cubic route keeps full accuracy at (near-)degeneracies where a
    generic eigensolver only delivers ~sqrt(machine epsilon). Vectors
    are matched to the cubic roots by nearest eigenvalue.
    """
    cp = char_poly(p)
    vals = solve_cubic(cp.f3, cp.f2, cp.f1, cp.f0)
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    numeric = eig(build_hamiltonian(p))
    cols = []
    for v in vals:
        cols.append(numeric.right_vectors[:, int(np.argmin(np.abs(numeric.eigenvalues - v)))])
    return Spectrum(eigenvalues=vals, right_vectors=np.column_stack(cols))


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


def analytic_eigenstate(p: ModelParams, e: complex) -> np.ndarray:
    """Closed-form normalized eigenstate of the 3x3 model for eigenvalue e.

    The unnormalized vector is
        (e (e + 2 k1 - 3) + k2^2 - 1,
         (e + 2 k1 - 3) (1 + k2),
         (1 + k2)^2).
    """
    k1, k2 = p.k1, p.k2
    if abs(1.0 + k2) < 1e-12:
        raise ValueError(
            "closed-form eigenstate vanishes at k2 = -1; use numeric eigenvectors"
        )
    h = build_hamiltonian(p)
    v = np.array(
        [
            e * (e + 2.0 * k1 - 3.0) + k2**2 - 1.0,
            (e + 2.0 * k1 - 3.0) * (1.0 + k2),
            (1.0 + k2) ** 2,
        ],
        dtype=complex,
    )
    v = v / np.linalg.norm(v)
    resid = np.linalg.norm(h @ v - e * v)
    if resid > 1e-8 * max(np.linalg.norm(h, 2), 1.0):
        raise ValueError(f"{e!r} is not an eigenvalue (residual {resid:.3e})")
    return v


def _greedy_match(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Permutation of `new` minimizing total distance to `prev`, greedily.

    Ties within 1e-12 in the per-step cost are broken by the lower prior
    index, which keeps sweeps deterministic.
    """
    n = prev.size
    perm = np.full(n, -1, dtype=int)
    taken = np.zeros(n, dtype=bool)
    for i in range(n):
        dists = np.abs(new - prev[i])
        dists[taken] = np.inf
        best = np.flatnonzero(dists <= dists.min() + 1e-12)[0]
        perm[i] = best
        taken[best] = True
    return perm


def sweep_tracked_spectra(path: list[ModelParams]) -> list[Spectrum]:
    """Spectra along a parameter path with continuity-tracked ordering."""
    if not path:
        return []
    for a, b in zip(path, path[1:]):
        if np.hypot(a.k1 - b.k1, a.k2 - b.k2) > 0.05 + 1e-12:
            raise ValueError("consecutive path points farther than 0.05 apart")
    out = [spectrum(path[0])]
    for p in path[1:]:
        sp = spectrum(p)
        perm = _greedy_match(out[-1].eigenvalues, sp.eigenvalues)
        out.append(
            Spectrum(
                eigenvalues=sp.eigenvalues[perm],
                right_vectors=sp.right_vectors[:, perm],
                ordering_tag="sweep-tracked",
            )
        )
    return out
