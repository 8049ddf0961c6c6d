import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eplab.cubic import cubic_discriminant, solve_cubic, solve_real_cubics
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
    got = solve_real_cubics(cp.f3, cp.f2, cp.f1, cp.f0)
    for a, b, row in zip(k1, k2, got):
        ref = np.linalg.eigvals(build_hamiltonian(ModelParams(float(a), float(b))))
        assert np.abs(row - np.sort(ref.real)[::-1]).max() < 1e-12
        assert np.abs(ref.imag).max() < 1e-12
    with pytest.raises(ValueError, match="complex roots"):
        solve_real_cubics(1.0, 0.0, 1.0, 1.0)
