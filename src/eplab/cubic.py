"""Root finder for real cubic polynomials with multiplicity handling.

Cubic spectra of the lattice model are computed here instead of going
through a companion-matrix eigensolver: close to a degeneracy the latter
loses half its digits, while the closed-form branches below stay accurate
because the multiple-root case is dispatched on the exact discriminant.

`solve_cubic` works on whole arrays of coefficients: every row is scaled
and dispatched on its own, and each branch runs vectorized over the rows
that take it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cubic_discriminant", "solve_cubic"]

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


def _roots_multiple(b, c, d):
    """Roots (rows of 3) of monic cubics x^3 + b x^2 + c x + d whose
    discriminant vanishes: a double or a triple root."""
    delta0 = b * b - 3.0 * c
    triple = abs(delta0) < 1e-12 * np.maximum(np.maximum(b * b, abs(3.0 * c)), 1.0)
    double = np.divide(9.0 * d - b * c, 2.0 * delta0, out=np.zeros_like(b), where=~triple)
    simple = np.divide(4.0 * b * c - 9.0 * d - b**3, delta0, out=np.zeros_like(b), where=~triple)
    roots = np.stack([double, double, simple], axis=-1)
    roots[triple] = (-b[triple] / 3.0)[:, None]
    return roots


def _roots_trigonometric(b, p, q):
    """Three distinct real roots (rows of 3, descending) of the monic
    cubics with depressed coefficients p < 0, q, shifted by -b/3.

    |disc| > MULTIPLE_ROOT_TOL * s^6 keeps the roots at least ~1e-9 apart
    in scaled units, far above the rounding of the cosines, so the order
    of the formula is the order of the values.
    """
    p = np.minimum(p, 0.0)
    m = 2.0 * np.sqrt(-p / 3.0)
    # p = 0 only at a triple root (misdispatched by rounding), where any
    # angle gives m = 0
    arg = np.divide(3.0 * q, p * m, out=np.zeros_like(q), where=p * m != 0.0)
    phi = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    # phi lies in [0, pi/3], so the three cosines are in descending order
    return m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * np.arange(3) / 3.0) - (b / 3.0)[:, None]


def _roots_cardano(b, c, d, p, q):
    """One real root and a conjugate pair (rows of 3: real, +imag, -imag)
    by Cardano's formula on the numerically stable branch of the cube root.

    The real root is polished by two Newton steps and the pair rebuilt
    from the exact symmetric sums.
    """
    half_q = q / 2.0
    rad = np.sqrt((half_q**2 + (p / 3.0) ** 3).astype(complex))
    u3 = -half_q + rad
    flip = abs(u3) < abs(-half_q - rad)
    u3[flip] = (-half_q - rad)[flip]
    u = u3 ** (1.0 / 3.0)
    v = np.zeros_like(u)
    np.divide(-p, 3.0 * u, out=v, where=u != 0)
    w = np.exp(2j * np.pi / 3.0)
    cardano = np.stack([u + v, u * w + v / w, u / w + v * w], axis=-1)
    real = np.argmin(abs(cardano.imag), axis=-1)
    r = np.take_along_axis(cardano.real, real[:, None], axis=-1)[:, 0] - b / 3.0
    for _ in range(2):
        f = ((r + b) * r + c) * r + d
        fp = (3.0 * r + 2.0 * b) * r + c
        step = np.zeros_like(r)
        np.divide(f, fp, out=step, where=fp != 0.0)
        r = r - step
    pair_sum = -b - r
    pair_prod = c - r * pair_sum  # division-free, valid even for r = 0
    im = np.sqrt(np.maximum(pair_prod - (pair_sum / 2.0) ** 2, 0.0))
    roots = np.empty((r.size, 3), dtype=complex)
    roots[:, 0] = r
    roots[:, 1].real = roots[:, 2].real = pair_sum / 2.0
    roots[:, 1].imag = im
    roots[:, 2].imag = -im
    return roots


def solve_cubic(a, b, c, d) -> np.ndarray:
    """All three roots of real cubics a*x^3 + b*x^2 + c*x + d, complex.

    The coefficients broadcast against each other; the result has shape
    (..., 3), so a scalar cubic gives three roots. Each row is in the
    `spectrum` order: descending real part, ties broken by descending
    imaginary part.

    Each cubic is made monic and its roots scaled to unit size by its own
    exact power of two, so the result does not depend on the scale of the
    coefficients, and each is dispatched on its own discriminant: a
    multiple root when |disc| <= MULTIPLE_ROOT_TOL * s^6 (s the scaled
    root bound), three real roots by the trigonometric method, and one
    real root with a conjugate pair by Cardano's formula.
    """
    coeffs = [np.asarray(x, dtype=float) for x in (a, b, c, d)]
    if np.any(coeffs[0] == 0.0):
        raise ValueError("leading coefficient is zero; not a cubic")
    if not all(np.isfinite(x).all() for x in coeffs):
        raise ValueError("cubic coefficients must be finite")
    shape = np.broadcast(*coeffs).shape
    # every output of _monic_scaled already has the broadcast shape
    b, c, d, s, k = (x.reshape(-1) for x in _monic_scaled(*coeffs))
    # cubic_discriminant(1, b, c, d) term by term, sharing b**3 with q:
    # numpy's b**3 costs as much as the rest of the discriminant
    b3 = b**3
    disc = 18.0 * b * c * d - 4.0 * b3 * d + b**2 * c**2 - 4.0 * c**3 - 27.0 * d**2
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3.0
    q = (2.0 * b3 - 9.0 * b * c + 27.0 * d) / 27.0
    # disc scales as s^6, so the dispatch does not depend on the root
    # magnitude; s = 0 (the cubic x^3) is a multiple root too
    multiple = abs(disc) <= MULTIPLE_ROOT_TOL * s**6
    trig = ~multiple & (disc > 0.0)
    pair = ~multiple & ~trig
    if trig.all():  # the common case of a batch, without copies
        real = _roots_trigonometric(b, p, q)
    else:
        real = np.zeros((b.size, 3))
        if trig.any():
            real[trig] = _roots_trigonometric(b[trig], p[trig], q[trig])
        if multiple.any():
            # sort [double, double, simple] into descending order
            real[multiple] = -np.sort(-_roots_multiple(b[multiple], c[multiple], d[multiple]))
    roots = np.ldexp(real, k[:, None]).astype(complex)
    if pair.any():
        z = _roots_cardano(b[pair], c[pair], d[pair], p[pair], q[pair])
        z.real = np.ldexp(z.real, k[pair, None])
        z.imag = np.ldexp(z.imag, k[pair, None])
        # the real root may lie on either side of the pair
        roots[pair] = np.take_along_axis(z, np.lexsort((-z.imag, -z.real), axis=-1), axis=-1)
    return roots.reshape(*shape, 3)
