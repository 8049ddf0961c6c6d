"""Root finder for real cubic polynomials with multiplicity handling.

Cubic spectra of the lattice model are computed here instead of going
through a companion-matrix eigensolver: close to a degeneracy the latter
loses half its digits, while the closed-form branches below stay accurate
because the multiple-root case is dispatched on the exact discriminant.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["cubic_discriminant", "solve_cubic", "solve_real_cubics"]

# |discriminant| below this is treated as an exact multiple root
MULTIPLE_ROOT_TOL = 1e-13


def cubic_discriminant(a: float, b: float, c: float, d: float) -> float:
    """Discriminant of a*x^3 + b*x^2 + c*x + d.

    Positive: three distinct real roots. Negative: one real root and a
    complex-conjugate pair. Zero: a multiple root.
    """
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b**2 * c**2
        - 4.0 * a * c**3
        - 27.0 * a**2 * d**2
    )


def _monic_scaled(a, b, c, d):
    """Monic form of a*x^3 + b*x^2 + c*x + d with its roots divided by 2^k.

    Returns (b', c', d', s, k) for y^3 + b' y^2 + c' y + d' = 0, y = x / 2^k.
    2^k is the power of two just above the root bound
    max(|b/a|, |c/a|^(1/2), |d/a|^(1/3)) (every root is at most twice it),
    so the scaled bound s lies in [1/2, 1), or is 0 for x^3, and the
    scaling is exact. Works elementwise on arrays.
    """
    b, c, d = b / a, c / a, d / a
    bound = np.maximum(np.maximum(abs(b), abs(c) ** 0.5), abs(d) ** (1.0 / 3.0))
    frac, k = np.frexp(bound)
    return np.ldexp(b, -k), np.ldexp(c, -2 * k), np.ldexp(d, -3 * k), frac, k


def _roots_multiple(b: float, c: float, d: float) -> list[float]:
    """Roots of the monic x^3 + b x^2 + c x + d when its discriminant
    vanishes (double or triple root)."""
    delta0 = b * b - 3.0 * c
    if abs(delta0) < 1e-12 * max(b * b, abs(3.0 * c), 1.0):
        return [-b / 3.0] * 3
    double = (9.0 * d - b * c) / (2.0 * delta0)
    simple = (4.0 * b * c - 9.0 * d - b**3) / delta0
    return [double, double, simple]


def solve_cubic(a: float, b: float, c: float, d: float) -> np.ndarray:
    """All three roots of a real cubic, as a complex array.

    The cubic is made monic and its roots scaled to unit size by an exact
    power of two, so the result does not depend on the scale of the
    coefficients. Three real roots are computed with the trigonometric
    method, the mixed real/complex case with Cardano's formula using the
    numerically stable branch of the cube root.
    """
    if a == 0.0:
        raise ValueError("leading coefficient is zero; not a cubic")
    b, c, d, s, k = _monic_scaled(a, b, c, d)
    b, c, d, s, k = float(b), float(c), float(d), float(s), int(k)
    disc = cubic_discriminant(1.0, b, c, d)
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3.0
    q = (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 27.0
    # disc scales as s^6, so the dispatch does not depend on the root
    # magnitude; s = 0 (the cubic x^3) is a multiple root too
    if abs(disc) <= MULTIPLE_ROOT_TOL * s**6:
        roots = _roots_multiple(b, c, d)
    elif disc > 0.0:
        # three distinct real roots, trigonometric method
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(max(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        roots = [m * math.cos(phi - 2.0 * math.pi * j / 3.0) - b / 3.0 for j in range(3)]
    else:
        # one real root, conjugate pair (Cardano)
        half_q = q / 2.0
        rad = cmath.sqrt(half_q**2 + (p / 3.0) ** 3)
        u3 = -half_q + rad
        if abs(u3) < abs(-half_q - rad):
            u3 = -half_q - rad
        u = u3 ** (1.0 / 3.0)
        v = -p / (3.0 * u) if u != 0 else 0.0
        w = cmath.exp(2j * math.pi / 3.0)
        cardano = (u + v, u * w + v / w, u / w + v * w)
        # polish the real root and reconstruct the pair from exact symmetric sums
        r = min(cardano, key=lambda z: abs(z.imag)).real - b / 3.0
        for _ in range(2):
            f = ((r + b) * r + c) * r + d
            fp = (3.0 * r + 2.0 * b) * r + c
            if fp != 0.0:
                r -= f / fp
        pair_sum = -b - r
        pair_prod = c - r * pair_sum  # division-free, valid even for r = 0
        im = math.sqrt(max(pair_prod - (pair_sum / 2.0) ** 2, 0.0))
        roots = [r, complex(pair_sum / 2.0, im), complex(pair_sum / 2.0, -im)]
    return np.array(
        [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in map(complex, roots)]
    )


def solve_real_cubics(a, b, c, d) -> np.ndarray:
    """Roots of a batch of real cubics that have three real roots each.

    Arrays of coefficients in, shape (N, 3) out, each row in descending
    order: the trigonometric branch of `solve_cubic`, vectorized, after the
    same monic power-of-two scaling. Raises ValueError if a cubic's
    discriminant is clearly negative (a complex-conjugate root pair).
    """
    b, c, d, s, k = _monic_scaled(*np.broadcast_arrays(*np.atleast_1d(a, b, c, d)))
    disc = cubic_discriminant(1.0, b, c, d)
    if np.any(disc < -MULTIPLE_ROOT_TOL * s**6):
        raise ValueError("cubic has complex roots")
    shift = b / 3.0
    p = np.minimum(c - b * b / 3.0, 0.0)
    q = (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 27.0
    m = 2.0 * np.sqrt(-p / 3.0)
    # p = 0 only at a triple root, where any angle gives m = 0
    arg = np.divide(3.0 * q, p * m, out=np.zeros_like(q), where=p * m != 0.0)
    phi = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    # phi lies in [0, pi/3], so these three cosines are in descending order
    roots = m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * np.arange(3) / 3.0) - shift[:, None]
    return np.ldexp(roots, k[:, None])
