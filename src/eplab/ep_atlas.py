"""Locating and classifying the degeneracies of the lattice model.

The degeneracy locus is the zero set of the characteristic cubic's
discriminant, and refinement uses its exact chain-rule derivatives from
`model` throughout: `_locus_newton`, Newton along the gradient onto the
locus, from seeds and as the corrector of the exceptional-line walk, and
Newton on the gradient for the conical point, where the gradient vanishes.

The atlas probes are stacked: the conical-point scan takes every cell's
3x3-neighbourhood minimum from nine shifted views of the grid, and
`classify_ep` puts its 24 ring points through one `eigvals` and its ten
probe offsets through one `eig` (a custom `family` is still called once
per point, and its matrices are stacked). `locate_line_degeneracies`
refines by golden-section search (Kiefer, Proc. AMS 4, 502, 1953).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import MAX_ABS_K, ModelParams, build_hamiltonian, discriminant
from .model import _cubic_coefficients, _discriminant_derivatives
from .numerics import eig

__all__ = [
    "EPRecord",
    "TraceResult",
    "scan_discriminant",
    "refine_degeneracy",
    "locate_conical_points",
    "trace_exceptional_line",
    "classify_ep",
    "overlap_scaling",
    "locate_line_degeneracies",
]


@dataclass(frozen=True)
class EPRecord:
    location: tuple[float, float]
    kind: str  # dirac | typical | hermitian_dp
    dispersion_exponent: float
    coalescence: float
    spectrum_real_radius: float


@dataclass(frozen=True)
class TraceResult:
    """A walk along the exceptional line. A seed at a conical point ends it
    at once, with one vertex and the Hessian's signature there."""

    vertices: np.ndarray  # (n, 2) points on the zero set
    terminated: str  # boundary | max_steps | lost_track | singular_seed
    hessian_signature: tuple[int, int] | None = None  # (positive, negative)


def _gradient_newton(x: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Newton on grad(delta) = 0 from x: at most 50 steps, stopping after
    a step shorter than tol. Converges to a critical point of the
    discriminant, such as the conical degeneracy, where the zero is
    isolated and plain Newton on delta stalls."""
    x = np.array(x, dtype=float)
    for _ in range(50):
        grad, hess = _discriminant_derivatives(*x)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        x = x - step
        if np.linalg.norm(step) < tol:
            break
    return x


# finest grid `scan_discriminant` and `locate_conical_points` take per
# axis: 10^6 cells, 8 MB per float grid, a few tens of MB at peak
MAX_RESOLUTION = 1000


def _check_scan(k1_range, k2_range, resolution: int, min_resolution: int) -> None:
    """Raise ValueError unless both scan ranges are finite, within
    +-MAX_ABS_K and min < max, and min_resolution <= resolution <=
    MAX_RESOLUTION."""
    bounds = np.array((*k1_range, *k2_range), dtype=float)
    if not np.all(np.abs(bounds) <= MAX_ABS_K):
        if not np.all(np.isfinite(bounds)):
            raise ValueError(f"scan ranges must be finite, got {k1_range} and {k2_range}")
        raise ValueError(
            f"scan ranges must lie within +-{MAX_ABS_K:g}, got {k1_range} and {k2_range}"
        )
    if k1_range[0] >= k1_range[1] or k2_range[0] >= k2_range[1]:
        raise ValueError(f"scan ranges need min < max, got {k1_range} and {k2_range}")
    if not min_resolution <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be in {min_resolution}..{MAX_RESOLUTION}, got {resolution}"
        )


def scan_discriminant(
    k1_range: tuple[float, float],
    k2_range: tuple[float, float],
    resolution: int,
) -> dict:
    """Discriminant field on a grid, with sign-change cells marked.

    Raises ValueError as `_check_scan` does, for a resolution outside
    2..MAX_RESOLUTION."""
    _check_scan(k1_range, k2_range, resolution, 2)
    k1 = np.linspace(*k1_range, resolution)
    k2 = np.linspace(*k2_range, resolution)
    field_vals = discriminant(k1[:, None], k2[None, :])
    sgn = np.sign(field_vals)
    change = np.zeros_like(field_vals, dtype=bool)
    change[:-1, :] |= sgn[:-1, :] * sgn[1:, :] < 0
    change[1:, :] |= sgn[:-1, :] * sgn[1:, :] < 0
    change[:, :-1] |= sgn[:, :-1] * sgn[:, 1:] < 0
    change[:, 1:] |= sgn[:, :-1] * sgn[:, 1:] < 0
    return {"k1": k1, "k2": k2, "delta": field_vals, "sign_change": change}


def _locus_floor(x: np.ndarray, tol: float) -> float:
    """The largest |delta| at which x counts as on the zero set, max(tol,
    3 eps S). S = 4|f1|^3 + 36 f1^2 + 108|f1 f0| + 27 f0^2 + 864|f0| is
    the size of delta's terms, so eps S is delta's rounding floor, above
    1e-10 past |k| ~ 3."""
    f1, f0 = np.abs(_cubic_coefficients(*x))
    size = ((4.0 * f1 + 36.0) * f1 + 108.0 * f0) * f1 + (27.0 * f0 + 864.0) * f0
    return max(tol, 3.0 * np.finfo(float).eps * float(size))


def _locus_newton(
    x: np.ndarray, max_steps: int, flat: float, tol: float = 1e-10
) -> tuple[np.ndarray, bool]:
    """Newton along the gradient g onto the zero set from x, the step
    x - delta g / |g|^2, for at most max_steps steps. Returns (x, True)
    once |delta| <= `_locus_floor(x, tol)`, and (x, False) after
    max_steps steps or at a point where |g|^2 < flat."""
    d = float(discriminant(*x))
    for _ in range(max_steps):
        if abs(d) <= _locus_floor(x, tol):
            return x, True
        g = _discriminant_derivatives(*x)[0]
        gn = float(np.dot(g, g))
        if gn < flat:
            return x, False
        x = x - d * g / gn
        d = float(discriminant(*x))
    return x, abs(d) <= _locus_floor(x, tol)


def refine_degeneracy(seed: tuple[float, float], tol: float = 1e-10) -> np.ndarray:
    """Refine a seed onto the zero set of the discriminant: `_locus_newton`
    for at most 60 steps, then bisection along the gradient. Raises
    ValueError where neither lands on the zero set (|delta| <=
    `_locus_floor`) within +-MAX_ABS_K.

    A vanishing gradient ends the walk only near a saddle of delta, off
    the zero set: near a conical point Newton converges linearly with
    |g|^2 >= 576 |delta|, and |delta| is above the rounding floor 3.9e-12
    until the walk stops.
    """
    x, done = _locus_newton(np.array(seed, dtype=float), 60, 1e-12, tol)
    if done:
        return x
    # bisection fallback along the gradient direction
    g = _discriminant_derivatives(*x)[0]
    gdir = g / max(np.linalg.norm(g), 1e-300)
    lo, hi = -0.05, 0.05
    f = lambda s: float(discriminant(*(x + s * gdir)))
    if f(lo) * f(hi) < 0:
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        x = x + (lo + hi) / 2 * gdir
        # from near a saddle Newton's first step lands far out, where one
        # float step of x moves delta by more than its rounding floor
        if abs(float(discriminant(*x))) <= _locus_floor(x, tol) and np.abs(x).max() <= MAX_ABS_K:
            return x
    d = float(discriminant(*x))
    raise ValueError(f"seed {seed} not refinable to the degeneracy locus (delta={d:.3e})")


def locate_conical_points(
    k1_range: tuple[float, float] = (-1.0, 1.0),
    k2_range: tuple[float, float] = (-2.0, 2.0),
    resolution: int = 41,
) -> list[tuple[float, float]]:
    """Isolated zero-minima of the discriminant (the conical degeneracies).

    Grid-scan for local minima with small positive value, then Newton on
    the gradient; a point is accepted when the refined discriminant is
    below 1e-12 and the Hessian is definite (isolated-zero structure).
    A cell is a candidate when it equals the minimum of its 3x3
    neighbourhood (nine shifted views of the grid) and is at most 50;
    candidates are refined in row-major order. Raises ValueError as
    `_check_scan` does, for a resolution outside 3..MAX_RESOLUTION (a
    grid needs an interior cell).
    """
    _check_scan(k1_range, k2_range, resolution, 3)
    k1 = np.linspace(*k1_range, resolution)
    k2 = np.linspace(*k2_range, resolution)
    vals = discriminant(k1[:, None], k2[None, :])
    n = resolution - 2
    shifted = (vals[di : di + n, dj : dj + n] for di in range(3) for dj in range(3))
    low = functools.reduce(np.minimum, shifted)
    core = vals[1:-1, 1:-1]
    found: list[tuple[float, float]] = []
    for i, j in (np.argwhere((core == low) & (core <= 50.0)) + 1).tolist():
        x = _gradient_newton(np.array([k1[i], k2[j]]))
        if abs(float(discriminant(*x))) > 1e-12:
            continue
        sig = np.linalg.eigvalsh(_discriminant_derivatives(*x)[1])
        if sig[0] * sig[1] <= 0:
            continue
        if not any(np.hypot(x[0] - f[0], x[1] - f[1]) < 1e-4 for f in found):
            found.append((float(x[0]), float(x[1])))
    return sorted(found, key=lambda t: (t[1], t[0]))


# most predictor-corrector steps `trace_exceptional_line` takes
TRACE_MAX_STEPS = 2000


def trace_exceptional_line(
    seed: tuple[float, float],
    step: float,
    *,
    bounds: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0),
) -> TraceResult:
    """Predictor-corrector walk along the discriminant zero line, for at
    most TRACE_MAX_STEPS steps.

    Raises ValueError for a step that is not finite and positive."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    x = refine_degeneracy(seed)
    # a gradient-Newton polish that stays nearby on the zero set flags a
    # conical point, an isolated zero and not a regular curve. The real
    # critical points of delta are (0, +-1), where delta = 0 and the
    # Hessian's eigenvalues are 2592 and 288, and three saddles where delta
    # is 68 or 27/4: so the Hessian there is definite, and no branch of the
    # line passes through.
    xs = _gradient_newton(x)
    gs, hess = _discriminant_derivatives(*xs)
    near = np.linalg.norm(xs - x) < 1e-3 and np.linalg.norm(gs) < 1e-8
    if near and abs(float(discriminant(*xs))) < 1e-12:
        sig_vals = np.linalg.eigvalsh(hess)
        signature = (int(np.sum(sig_vals > 0)), int(np.sum(sig_vals < 0)))
        return TraceResult(np.array([xs]), "singular_seed", signature)
    g = _discriminant_derivatives(*x)[0]
    vertices = [x.copy()]
    tangent = np.array([-g[1], g[0]])
    tangent /= np.linalg.norm(tangent)
    k1min, k1max, k2min, k2max = bounds
    terminated = "max_steps"
    for _ in range(TRACE_MAX_STEPS):
        pred = vertices[-1] + step * tangent
        cur, on_line = _locus_newton(pred, 50, 1e-20)
        if not on_line:
            terminated = "lost_track"
            break
        g = _discriminant_derivatives(*cur)[0]
        new_tan = np.array([-g[1], g[0]])
        new_tan /= max(np.linalg.norm(new_tan), 1e-300)
        if np.dot(new_tan, tangent) < 0:
            new_tan = -new_tan
        tangent = new_tan
        vertices.append(cur)
        if not (k1min <= cur[0] <= k1max and k2min <= cur[1] <= k2max):
            terminated = "boundary"
            break
    return TraceResult(vertices=np.array(vertices), terminated=terminated)


def _coalescing_pair(vals: np.ndarray) -> tuple[int, int]:
    n = vals.size
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gaps = [abs(vals[i] - vals[j]) for i, j in pairs]
    return pairs[int(np.argmin(gaps))]


def _pair_gaps_and_overlaps(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gap and right-vector overlap modulus of the coalescing pair of
    each matrix of a stack (m, n, n), from one stacked `eig`."""
    sp = eig(h)
    gaps, overlaps = np.empty(len(h)), np.empty(len(h))
    for r, (vals, vecs) in enumerate(zip(sp.eigenvalues, sp.right_vectors)):
        i, j = _coalescing_pair(vals)
        gaps[r] = abs(vals[i] - vals[j])
        overlaps[r] = abs(np.vdot(vecs[:, i], vecs[:, j]))
    return gaps, overlaps


def _family_stack(family, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The Hamiltonians (m, n, n) at the points of 1-D arrays k1, k2: the
    model's in one broadcast build when `family` is None, else one
    `family` call per point."""
    if family is None:
        return build_hamiltonian(ModelParams(k1, k2))
    return np.stack([family(a, b) for a, b in zip(k1, k2)])


# radius of the ring of points around a degeneracy on which `classify_ep`
# tests the spectrum for reality
RING_RADIUS = 0.05


def classify_ep(location: tuple[float, float], *, family=None) -> EPRecord:
    """Classify a degeneracy as conical (dirac), typical EP or Hermitian DP.

    Three tests: eigenvector coalescence at offset 1e-6, spectrum reality
    on a ring of radius RING_RADIUS, and the log-log dispersion exponent
    of the eigenvalue splitting over radial offsets 1e-4..1e-2, along the
    unit discriminant gradient where it exceeds 1e-6 (the model only),
    else along k1. The 24 ring points go through one stacked `eigvals`
    and the ten probe offsets through one stacked `eig`.
    """
    k1, k2 = location
    if family is None:
        loc = refine_degeneracy(location, tol=1e-8)
        k1, k2 = float(loc[0]), float(loc[1])
    (gap0,), _ = _pair_gaps_and_overlaps(
        _family_stack(family, np.array([k1]), np.array([k2]))
    )
    if gap0 > 1e-4:
        raise ValueError(f"({k1}, {k2}) is not on the degeneracy locus (gap {gap0:.3e})")

    probe_direction = np.array([1.0, 0.0])
    if family is None:
        g = _discriminant_derivatives(k1, k2)[0]
        if np.linalg.norm(g) > 1e-6:
            probe_direction = g / np.linalg.norm(g)  # normal to the line
            # divided once more by its norm, within an ulp of 1: the atlas
            # output is pinned to these bits
            probe_direction = probe_direction / np.linalg.norm(probe_direction)

    # the coalescence offset first, then the nine dispersion offsets
    offsets = np.geomspace(1e-4, 1e-2, 9)
    dks = np.concatenate([[1e-6], offsets])
    gaps, overlaps = _pair_gaps_and_overlaps(
        _family_stack(family, k1 + dks * probe_direction[0], k2 + dks * probe_direction[1])
    )
    coalescence = overlaps[0]

    angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ring = _family_stack(
        family, k1 + RING_RADIUS * np.cos(angles), k2 + RING_RADIUS * np.sin(angles)
    )
    ring_real = not (np.abs(np.linalg.eigvals(ring).imag) > 1e-7).any()
    real_radius = RING_RADIUS if ring_real else 0.0

    exponent = float(np.polyfit(np.log(offsets), np.log(gaps[1:]), 1)[0])

    if coalescence < 0.5:
        kind = "hermitian_dp"
    elif ring_real and 0.8 < exponent < 1.2:
        kind = "dirac"
    else:
        kind = "typical"
    return EPRecord(
        location=(k1, k2),
        kind=kind,
        dispersion_exponent=exponent,
        coalescence=float(coalescence),
        spectrum_real_radius=float(real_radius),
    )


def overlap_scaling(
    offsets,
    *,
    center: tuple[float, float] = (0.0, 1.0),
    direction: tuple[float, float] = (1.0, 0.0),
    family=None,
) -> tuple[float, np.ndarray]:
    """Fit exponent of 1 - F12 vs offset along a ray from a degeneracy.

    F12 is the overlap modulus of the two coalescing normalized right
    eigenvectors. Returns (fitted exponent, 1 - F12 samples). Raises
    ValueError for offsets that are not finite and positive, and for a
    direction that is not finite or has zero norm.
    """
    offsets = np.asarray(offsets, dtype=float)
    if not np.all((offsets > 0.0) & (offsets < np.inf)):
        raise ValueError(f"offsets must be finite and positive, got {offsets}")
    if offsets.size < 2 or np.ptp(offsets) < 1e-15:
        raise ValueError("need at least two distinct offsets for the fit")
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"direction must be finite and nonzero, got {direction}")
    d = d / norm
    _, overlaps = _pair_gaps_and_overlaps(
        _family_stack(family, center[0] + offsets * d[0], center[1] + offsets * d[1])
    )
    defects = 1.0 - overlaps
    slope = float(np.polyfit(np.log(offsets), np.log(defects), 1)[0])
    return slope, defects


# grid points of the gap scan of `locate_line_degeneracies`, and the
# largest refined gap it accepts as a degeneracy
LINE_SCAN_POINTS = 201
LINE_GAP_TOL = 1e-6


def _golden_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a minimum of a unimodal f on [a, b], by golden-section
    search: a fixed count of steps, each shrinking the bracket by 1/phi,
    takes it to xatol. A stop on the width could cycle past |x| = 8192,
    where a 1e-12 bracket is below the float spacing."""
    r = (5.0**0.5 - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(int(np.ceil(np.log(xatol / (b - a)) / np.log(r)))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def locate_line_degeneracies(family, k1_range: tuple[float, float]) -> list[float]:
    """Degeneracy points of a one-parameter Hamiltonian family.

    Scans the minimal eigenvalue gap of family(k1) on LINE_SCAN_POINTS
    points of the range, then drives each local minimum to zero by
    `_golden_minimum` over its two cells, keeping those below LINE_GAP_TOL.
    Used for the larger truncation blocks where no closed-form
    discriminant is available. Raises ValueError, before calling
    `family`, unless the range is finite with lo < hi.
    """
    lo, hi = map(float, k1_range)
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"k1_range must be finite with lo < hi, got {k1_range}")
    k1s = np.linspace(lo, hi, LINE_SCAN_POINTS)

    def min_gap(k1: float) -> float:
        vals = np.sort(np.linalg.eigvals(family(k1)).real)
        return float(np.diff(vals).min())

    gaps = np.array([min_gap(k) for k in k1s])
    found = []
    for i in range(1, LINE_SCAN_POINTS - 1):
        if gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1]:
            k, gap = _golden_minimum(min_gap, float(k1s[i - 1]), float(k1s[i + 1]), 1e-12)
            if gap < LINE_GAP_TOL and not any(abs(k - f) < 1e-6 for f in found):
                found.append(k)
    return sorted(found)
