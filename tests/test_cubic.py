import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eplab.cubic import MULTIPLE_ROOT_TOL, _monic_scaled, cubic_discriminant, solve_cubic
from eplab.experiments import LoopSpec
from eplab.model import ModelParams, build_hamiltonian, char_poly


def _sorted(roots):
    return np.sort_complex(np.asarray(roots, dtype=complex))


def test_discriminant_signs():
    # (x-1)(x-2)(x-3): three distinct real roots
    assert cubic_discriminant(1, -6, 11, -6) > 0
    # x^3 + x + 1: one real root
    assert cubic_discriminant(1, 0, 1, 1) < 0
    # (x-1)^2 (x-2): double root
    assert cubic_discriminant(1, -4, 5, -2) == 0


def test_three_real_roots_exact():
    got = _sorted(solve_cubic(1, -6, 11, -6))
    assert np.allclose(got, [1, 2, 3], atol=1e-12)


def test_double_root_dispatch():
    got = _sorted(solve_cubic(1, -4, 5, -2))
    assert np.allclose(got, [1, 1, 2], atol=1e-10)


def test_triple_root():
    got = _sorted(solve_cubic(1, -3, 3, -1))
    assert np.allclose(got, [1, 1, 1], atol=1e-7)


def test_conjugate_pair():
    got = solve_cubic(1, 0, 1, 1)
    real = got[np.argmin(np.abs(got.imag))]
    pair = np.sort_complex(np.delete(got, np.argmin(np.abs(got.imag))))
    assert abs(real.imag) < 1e-14
    assert np.allclose(pair[0].conjugate(), pair[1], atol=1e-12)
    for r in got:
        assert abs(r**3 + r + 1) < 1e-12


def test_not_a_cubic():
    with pytest.raises(ValueError):
        solve_cubic(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="not a cubic"):
        solve_cubic(np.array([1.0, 0.0]), 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="finite"):
        solve_cubic(1.0, np.array([0.0, np.nan]), 2.0, 3.0)


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
    st.floats(min_value=0.2, max_value=5).flatmap(
        lambda a: st.sampled_from([a, -a])
    ),
)
@settings(max_examples=200, deadline=None)
def test_matches_numpy_roots(b, c, d, a):
    ours = solve_cubic(a, b, c, d)
    ref = np.roots([a, b, c, d])
    scale = max(np.abs(ref).max(), 1.0)
    # near-degenerate cubics legitimately differ more between methods
    disc = abs(cubic_discriminant(a, b, c, d))
    tol = 1e-6 * scale if disc > 1e-6 else 5e-3 * scale
    # set-wise comparison; sorting by real part is unstable near the axis
    for r in ref:
        assert np.abs(ours - r).min() < tol
    for r in ours:
        assert np.abs(ref - r).min() < tol


@given(st.floats(-3, 3), st.floats(-3, 3))
@example(5e-324, 5e-324)
@settings(max_examples=100, deadline=None)
def test_residuals_vanish(p, q):
    roots = solve_cubic(1.0, 0.0, p, q)
    for r in roots:
        assert abs(r**3 + p * r + q) < 1e-8 * max(abs(r) ** 3, 1.0)


def test_tiny_coefficients_scale_out():
    got = _sorted(solve_cubic(1e-200, 0.0, -1e-200, 0.0))
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-15)


def test_real_cubics_batch_matches_eigvals_on_loop():
    # the criterion-9 loop around the conical point, at step midpoints
    loop = LoopSpec(T=5000.0)
    k1, k2 = loop.params(np.linspace(0.0, loop.T, 4001)[:-1] + loop.T / 8000.0)
    cp = char_poly(ModelParams(k1, k2))
    got = solve_cubic(cp.f3, cp.f2, cp.f1, cp.f0)
    assert got.shape == (4000, 3)
    for a, b, row in zip(k1, k2, got):
        ref = np.linalg.eigvals(build_hamiltonian(ModelParams(float(a), float(b))))
        assert np.abs(row.real - np.sort(ref.real)[::-1]).max() < 1e-12
        assert np.abs(ref.imag).max() < 1e-12
        assert not row.imag.any()


def _scalar_roots(a, b, c, d):
    """One cubic at a time on Python floats: the per-point solver that
    `solve_cubic` replaced, kept as the reference for the batched one.
    Rows come out in the same order (descending real, then imaginary)."""
    b, c, d, s, k = (float(x) for x in _monic_scaled(a, b, c, d))
    k = int(k)
    disc = cubic_discriminant(1.0, b, c, d)
    p = c - b * b / 3.0
    q = (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 27.0
    if abs(disc) <= MULTIPLE_ROOT_TOL * s**6:
        delta0 = b * b - 3.0 * c
        if abs(delta0) < 1e-12 * max(b * b, abs(3.0 * c), 1.0):
            roots = [-b / 3.0] * 3
        else:
            double = (9.0 * d - b * c) / (2.0 * delta0)
            roots = [double, double, (4.0 * b * c - 9.0 * d - b**3) / delta0]
    elif disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(max(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        roots = [m * math.cos(phi - 2.0 * math.pi * j / 3.0) - b / 3.0 for j in range(3)]
    else:
        half_q = q / 2.0
        rad = cmath.sqrt(half_q**2 + (p / 3.0) ** 3)
        u3 = -half_q + rad
        if abs(u3) < abs(-half_q - rad):
            u3 = -half_q - rad
        u = u3 ** (1.0 / 3.0)
        v = -p / (3.0 * u) if u != 0 else 0.0
        w = cmath.exp(2j * math.pi / 3.0)
        r = min((u + v, u * w + v / w, u / w + v * w), key=lambda z: abs(z.imag)).real - b / 3.0
        for _ in range(2):
            fp = (3.0 * r + 2.0 * b) * r + c
            if fp != 0.0:
                r -= (((r + b) * r + c) * r + d) / fp
        pair_sum = -b - r
        im = math.sqrt(max(c - r * pair_sum - (pair_sum / 2.0) ** 2, 0.0))
        roots = [r, complex(pair_sum / 2.0, im), complex(pair_sum / 2.0, -im)]
    z = np.array([complex(math.ldexp(x.real, k), math.ldexp(x.imag, k)) for x in map(complex, roots)])
    return z[np.lexsort((-z.imag, -z.real))]


def test_batch_mixing_every_branch_matches_scalar_solves():
    rows = [
        (1.0, -6.0, 11.0, -6.0),  # three real roots
        (1.0, -4.0, 5.0, -2.0),  # double root
        (1.0, -3.0, 3.0, -1.0),  # triple root
        (1.0, 0.0, 1.0, 1.0),  # real root below a conjugate pair
        (1.0, -3.0, 1.0, -3.0),  # real root 3 above the pair +-i
        (1.0, 0.0, 5e-324, 5e-324),  # subnormal coefficients
        (1e-200, 0.0, -1e-200, 0.0),  # tiny leading coefficient
        (1e200, -6e200, 11e200, -6e200),  # 1e200 scale, three real roots
        (-1e200, 0.0, -1e200, -1e200),  # 1e200 scale, conjugate pair
        (1.0, -3.0 * 2.0**300, 3.0 * 2.0**600, -(2.0**900)),  # triple root at 2^300
        (1e-100, -3e-100, 3e-100, -1e-100),  # triple root at 1, tiny coefficients
        (2.0, 0.0, 0.0, 0.0),  # x^3
        (-1.0, 6.0, -9.0, 0.0),  # the model at the conical point (0, 1): 3, 3, 0
    ]
    a, b, c, d = np.array(rows).T
    got = solve_cubic(a, b, c, d)
    assert got.shape == (len(rows), 3)
    for row, roots in zip(rows, got):
        want = _scalar_roots(*row)
        assert np.abs(roots - want).max() <= 1e-14 * np.abs(want).max(), row
        assert np.array_equal(solve_cubic(*row), roots), row
    column = solve_cubic(a[:, None], b[:, None], c[:, None], d[:, None])
    assert column.shape == (len(rows), 1, 3)
    assert np.array_equal(column[:, 0], got)
