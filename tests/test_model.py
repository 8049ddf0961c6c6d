import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eplab.cubic import solve_cubic
from eplab.model import (
    MAX_ABS_K,
    ConeDirection,
    ModelParams,
    analytic_eigenstate,
    build_hamiltonian,
    build_tb_block,
    char_poly,
    cone_expansion,
    discriminant,
    eigenvalues,
    line_spectrum,
    spectrum,
    sweep_tracked_eigenvalues,
    sweep_tracked_spectra,
)
from eplab.model import _discriminant_derivatives, _tracking_perms
from eplab.numerics import Spectrum, eig


def test_hamiltonian_entries():
    h = build_hamiltonian(ModelParams(0.3, 0.4))
    want = np.array(
        [[3.6, 0.6, 0.0], [1.4, 0.0, 0.6], [0.0, 1.4, 2.4]]
    )
    assert np.allclose(h, want)


def test_batched_hamiltonian_matches_scalar_builds():
    k1 = np.linspace(-1.0, 1.0, 7)
    k2 = np.linspace(0.5, 1.5, 7)
    batch = build_hamiltonian(ModelParams(k1, k2))
    assert batch.shape == (7, 3, 3)
    want = np.stack([build_hamiltonian(ModelParams(a, b)) for a, b in zip(k1, k2)])
    assert np.array_equal(batch, want)
    grid = build_hamiltonian(ModelParams(k1[:, None], k2[None, :3]))
    assert grid.shape == (7, 3, 3, 3)
    assert np.array_equal(grid[4, 2], build_hamiltonian(ModelParams(k1[4], k2[2])))


def test_params_validation():
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["k1", "k2"]
    for reach in (0, 3, 1.5, "nearest"):
        with pytest.raises(ValueError, match="reach must be 1 or 2"):
            build_tb_block(ModelParams(0.0, 0.0), reach)


def test_char_poly_matches_determinant():
    p = ModelParams(0.37, -0.82)
    cp = char_poly(p)
    h = build_hamiltonian(p)
    for e in (-1.3, 0.0, 2.5, 4.1):
        det = np.linalg.det(h - e * np.eye(3))
        poly = ((cp.f3 * e + cp.f2) * e + cp.f1) * e + cp.f0
        assert abs(det - poly) < 1e-10


def test_discriminant_reference_values():
    assert discriminant(0.0, 0.0) == pytest.approx(68.0)
    assert discriminant(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert discriminant(0.5, 1.0) == pytest.approx(256.0)


def test_discriminant_matches_cubic_formula():
    from eplab.cubic import cubic_discriminant

    rng = np.random.default_rng(0)
    for _ in range(50):
        k1, k2 = rng.uniform(-2, 2, size=2)
        cp = char_poly(ModelParams(k1, k2))
        assert discriminant(k1, k2) == pytest.approx(
            cubic_discriminant(cp.f3, cp.f2, cp.f1, cp.f0), rel=1e-10, abs=1e-9
        )


def _expanded_discriminant(k1, k2) -> Fraction:
    """The discriminant as a polynomial in k1^2, k2^2, evaluated exactly."""
    a, b = Fraction(k1) ** 2, Fraction(k2) ** 2
    return (
        256 * a**3 - 768 * a**2 + 2928 * a - 384 * a**2 * b - 1824 * a * b
        + 192 * a * b**2 - 168 * b + 132 * b**2 - 32 * b**3 + 68
    )


def test_discriminant_matches_the_exact_expansion():
    rng = np.random.default_rng(3)
    for k1, k2 in rng.uniform(-2.0, 2.0, size=(50, 2)):
        # the error scale is the size of the terms that cancel
        f1, f0 = 4 * k1**2 - 2 * k2**2 - 7, 6 * (k2**2 - 1)
        terms = 4 * abs(f1) ** 3 + 36 * f1**2 + 108 * abs(f1 * f0) + 27 * f0**2 + 864 * abs(f0)
        error = Fraction(float(discriminant(k1, k2))) - _expanded_discriminant(k1, k2)
        assert abs(error) <= 1e-14 * terms
    # near the conical points the terms cancel to zero: an absolute bound,
    # below the 1e-12 `locate_conical_points` accepts a zero at
    r = 1e-4 * np.sqrt(rng.uniform(size=400))
    t = rng.uniform(0.0, 2.0 * np.pi, size=400)
    for k1, k2 in zip(r * np.cos(t), rng.choice([-1.0, 1.0], size=400) + r * np.sin(t)):
        assert abs(Fraction(float(discriminant(k1, k2))) - _expanded_discriminant(k1, k2)) <= 1e-12


def test_discriminant_derivatives_match_central_differences():
    rng = np.random.default_rng(4)
    h = 1e-4
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)):
        grad, hess = _discriminant_derivatives(*x)
        d = lambda dx: float(discriminant(*(x + dx)))
        fd_grad = [(d(e) - d(-e)) / (2 * h) for e in (e1, e2)]
        fd_hess = [
            [(d(a + b) - d(a - b) - d(b - a) + d(-a - b)) / (4 * h * h) for b in (e1, e2)]
            for a in (e1, e2)
        ]
        scale = 1.0 + np.abs(hess).max()
        assert np.allclose(grad, fd_grad, rtol=1e-7, atol=1e-7 * scale)
        assert np.allclose(hess, fd_hess, rtol=1e-5, atol=1e-5 * scale)


def test_spectrum_exact_at_conical_point():
    vals = spectrum(ModelParams(0.0, 1.0)).eigenvalues
    assert np.allclose(np.sort(vals.real)[::-1], [3.0, 3.0, 0.0], atol=1e-12)
    assert np.abs(vals.imag).max() < 1e-12


def test_spectrum_matches_numpy_eigenvalues():
    p = ModelParams(0.3, 0.4)
    ours = np.sort_complex(spectrum(p).eigenvalues)
    ref = np.sort_complex(np.linalg.eigvals(build_hamiltonian(p)))
    assert np.abs(ours - ref).max() < 1e-9


def test_line_spectrum_k2_line():
    got = line_spectrum(ModelParams(-0.4, 1.0))
    assert np.allclose(got, [3.8, 2.2, 0.0])


def test_line_spectrum_k1_line_branch_labels():
    below = line_spectrum(ModelParams(0.0, 0.5))
    assert below[1] == 3.0 and below[0] > 3.0 > below[2]
    above = line_spectrum(ModelParams(0.0, 1.2))
    assert above[0] == 3.0
    with pytest.raises(ValueError):
        line_spectrum(ModelParams(0.0, 1.5))  # 17 - 8 k2^2 < 0
    with pytest.raises(ValueError):
        line_spectrum(ModelParams(0.2, 0.5))  # off both lines


def test_cone_axis_slopes():
    sp, sm = cone_expansion(ConeDirection(0.0))
    assert (sp, sm) == pytest.approx((2.0, -2.0))
    sp, sm = cone_expansion(ConeDirection(np.pi / 2))
    assert sp == pytest.approx(0.0, abs=1e-12)
    assert sm == pytest.approx(-4.0 / 3.0)


def test_analytic_eigenstate_examples():
    v = analytic_eigenstate(ModelParams(0.0, 1.0), 3.0)
    assert np.allclose(np.abs(v), [0.0, 0.0, 1.0], atol=1e-12)
    v0 = analytic_eigenstate(ModelParams(0.0, 1.0), 0.0)
    assert np.allclose(np.abs(v0), np.abs(np.array([0.0, -6.0, 4.0]) / np.sqrt(52.0)))
    # the other conical point, on k2 = -1, where column 0 of the adjugate
    # vanishes and column 2 gives the vector
    v = analytic_eigenstate(ModelParams(0.0, -1.0), 3.0)
    assert np.allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        analytic_eigenstate(ModelParams(0.0, 1.0), 1.2345)  # not an eigenvalue


def test_tb_block_structure():
    p = ModelParams(0.2, 0.3)
    h = build_tb_block(p)
    assert h.shape == (3, 3)
    assert np.allclose(np.diag(h), [(m + 0.2) ** 2 for m in (-1, 0, 1)])
    assert h[0, 1] == pytest.approx((1 - 0.3) / 2)
    assert h[1, 0] == pytest.approx((1 + 0.3) / 2)
    h5 = build_tb_block(ModelParams(0.2, 0.3), reach=2)
    assert h5.shape == (5, 5)
    assert h5[0, 2] == pytest.approx((1 - 0.3) / 2)
    assert h5[2, 0] == pytest.approx((1 + 0.3) / 2)


def test_next_nearest_degenerate_spectrum():
    h = build_tb_block(ModelParams(0.5, 1.0), reach=2)
    vals = np.sort(np.linalg.eigvals(h).real)
    assert np.allclose(vals, [0.25, 0.25, 2.25, 2.25, 6.25], atol=1e-9)


def test_sweep_tracking_continuity():
    path = ModelParams(np.arange(-0.3, 0.31, 0.02), 1.0)
    spectra = sweep_tracked_spectra(path)
    branches = spectra.eigenvalues.real
    assert branches.shape == (31, 3)
    assert spectra.right_vectors.shape == (31, 3, 3)
    # tracked branches are continuous (no jumps larger than the step scale)
    assert np.abs(np.diff(branches, axis=0)).max() < 0.1
    with pytest.raises(ValueError):
        sweep_tracked_spectra(ModelParams(np.array([0.0, 0.2]), 0.0))


def _greedy_match(prev: list, new: list) -> list:
    """The scalar greedy match the sweeps used to run per point: each
    earlier eigenvalue takes the nearest free new one, ties within 1e-12
    going to the lower index."""
    perm = []
    for target in prev:
        dists = [abs(e - target) if j not in perm else math.inf for j, e in enumerate(new)]
        low = min(dists) + 1e-12
        perm.append(next(j for j, dist in enumerate(dists) if dist <= low))
    return perm


def _scalar_tracking_perms(vals: np.ndarray) -> np.ndarray:
    perms = []
    rows = vals.tolist()
    prev = rows[0] if rows else []  # the first point keeps its own order
    for row in rows:
        perm = _greedy_match(prev, row)
        prev = [row[j] for j in perm]
        perms.append(perm)
    return np.array(perms, dtype=int).reshape(-1, 3)


def _random_walk(rng, n):
    """n points from a random start, steps of length 0.05 or less."""
    start = rng.uniform(-1.5, 1.5, 2)
    angle = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    steps = rng.uniform(0.0, 0.05, n - 1)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    pts = start + np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])
    return ModelParams(pts[:, 0], pts[:, 1])


def _cubic_roots(path):
    cp = char_poly(path)
    return solve_cubic(cp.f3, cp.f2, cp.f1, cp.f0)


def _tracking_cases():
    rng = np.random.default_rng(14)
    for n in (2, 3, 17, 400):
        yield _cubic_roots(_random_walk(rng, n))
    # exact ties: (3, 3, 0) at k1 = 0 on the k2 = 1 line
    yield _cubic_roots(ModelParams(np.linspace(-0.2, 0.2, 41), 1.0))
    yield _cubic_roots(ModelParams(0.0, np.linspace(0.5, 1.5, 101)))
    # complex pairs past the PT-broken edge on k1 = 0
    yield _cubic_roots(ModelParams(0.0, np.linspace(1.46, 1.9, 45)))
    yield _cubic_roots(ModelParams(np.linspace(-0.1, 0.1, 21), 1.7))
    # constant rows, a single point and no point
    yield _cubic_roots(ModelParams(np.zeros(5), 1.0))
    yield np.full((6, 3), 2.0 + 1.0j)
    yield _cubic_roots(ModelParams(np.array([0.3]), 0.4))
    yield np.zeros((0, 3), dtype=complex)
    # values from a small set, apart by exactly 0, by 1e-13 (inside the
    # tie rule) and by 1e-11 (outside it)
    levels = np.array([0.0, 1e-13, 1e-11, 1.0, 1.0 + 1e-13, 2.0, 1j, -1j])
    for _ in range(20):
        yield levels[rng.integers(0, levels.size, (50, 3))]


@pytest.mark.parametrize("vals", list(_tracking_cases()))
def test_tabled_tracking_equals_scalar_greedy_match(vals):
    got = _tracking_perms(vals)
    assert got.shape == vals.shape
    assert np.array_equal(got, _scalar_tracking_perms(vals))


@pytest.mark.parametrize(
    "path",
    [
        ModelParams(np.arange(-1.0, 1.0001, 0.005), 1.0),
        ModelParams(0.0, np.arange(-1.6, 1.6001, 0.005)),
        ModelParams(np.array([0.25]), -1.0),
        _random_walk(np.random.default_rng(3), 300),
    ],
)
def test_eigenvalue_sweep_equals_tracked_spectra(path):
    want = sweep_tracked_spectra(path).eigenvalues
    got = sweep_tracked_eigenvalues(path)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))
    with pytest.raises(ValueError, match="farther than 0.05"):
        sweep_tracked_eigenvalues(ModelParams(np.array([0.0, 0.2]), 0.0))


def _residual(p, vals, vecs):
    h = build_hamiltonian(p)
    return np.abs(h @ vecs - vecs * vals).max()


def test_stacked_spectrum_matches_point_by_point():
    rng = np.random.default_rng(5)
    k1 = np.concatenate([
        rng.uniform(-1.5, 1.5, 40),
        [0.0, 0.0],  # the conical points (0, +-1)
        rng.uniform(-1.0, 1.0, 5),  # on the k2 = -1 line
        [0.0, 0.05, -0.02],  # complex-pair region near k1 = 0, k2 > 1.46
    ])
    k2 = np.concatenate([
        rng.uniform(-1.5, 1.5, 40), [1.0, -1.0], np.full(5, -1.0), [1.6, 1.5, 1.8],
    ])
    assert (discriminant(k1[-3:], k2[-3:]) < 0).all()
    batch = spectrum(ModelParams(k1, k2))
    assert batch.eigenvalues.shape == (50, 3) and batch.right_vectors.shape == (50, 3, 3)
    for a, b, vals, vecs in zip(k1, k2, batch.eigenvalues, batch.right_vectors):
        p = ModelParams(float(a), float(b))
        one = spectrum(p)
        assert np.abs(vals - one.eigenvalues).max() <= 1e-12
        assert np.abs(vecs - one.right_vectors).max() <= 1e-12
        assert _residual(p, vals, vecs) < 1e-8
    grid = spectrum(ModelParams(k1[:6, None], k2[None, :4]))
    assert grid.eigenvalues.shape == (6, 4, 3) and grid.right_vectors.shape == (6, 4, 3, 3)


@pytest.mark.parametrize("k2", [1.0, -1.0])
def test_eigenvectors_coalesce_at_the_dirac_eps(k2):
    # the two E = 3 vectors of a conical point are one vector, the
    # coalescence that tells an EP from a Hermitian degeneracy
    sp = spectrum(ModelParams(0.0, k2))
    assert np.array_equal(sp.eigenvalues, [3.0, 3.0, 0.0])
    v = sp.right_vectors
    assert abs(np.vdot(v[:, 0], v[:, 1])) >= 1.0 - 1e-12
    assert abs(np.vdot(v[:, 0], v[:, 2])) < 0.9


def _relative_residuals(p, sp):
    h = build_hamiltonian(p)
    v, e = sp.right_vectors, sp.eigenvalues
    resid = np.linalg.norm(h @ v - v * e[..., None, :], axis=-2)
    return resid / np.linalg.norm(h, 2, axis=(-2, -1))[..., None]


def _check_unit_eigenvectors(p, sp):
    assert np.isfinite(sp.right_vectors).all()
    assert np.abs(np.linalg.norm(sp.right_vectors, axis=-2) - 1.0).max() <= 1e-15
    assert _relative_residuals(p, sp).max() <= 1e-14


def test_eigenvectors_at_extreme_inputs():
    k = MAX_ABS_K
    corners = ModelParams(np.array([k, k, -k, -k]), np.array([k, -k, k, -k]))
    _check_unit_eigenvectors(corners, spectrum(corners))
    tiny = ModelParams(5e-324, 5e-324)
    _check_unit_eigenvectors(tiny, spectrum(tiny))
    line = ModelParams(np.linspace(-1.6, 1.6, 65), -1.0)
    _check_unit_eigenvectors(line, spectrum(line))
    _check_unit_eigenvectors(line, sweep_tracked_spectra(line))
    broken = ModelParams(np.array([0.0, 0.05, 1.5, -0.3]), np.array([1.6, 1.8, 1.5, -1.7]))
    assert (discriminant(broken.k1, broken.k2) < 0).all()
    _check_unit_eigenvectors(broken, spectrum(broken))
    ep = ModelParams(0.0, -1.0)
    v = analytic_eigenstate(ep, 3.0)
    _check_unit_eigenvectors(ep, Spectrum(eigenvalues=np.array([3.0]), right_vectors=v[:, None]))


def test_eigenvectors_match_the_lapack_reference():
    rng = np.random.default_rng(20)
    k = np.concatenate([
        rng.uniform(-1.6, 1.6, (20000, 2)),
        np.column_stack([np.linspace(-1.6, 1.6, 401), np.full(401, -1.0)]),
        [[0.0, 1.0], [0.0, -1.0], [0.0, math.sqrt(17 / 8)]],
    ])
    p = ModelParams(k[:, 0], k[:, 1])
    sp = spectrum(p)
    assert _relative_residuals(p, sp).max() <= 1e-14
    vals = sp.eigenvalues
    gap = np.min(np.abs(vals[:, [0, 0, 1]] - vals[:, [1, 2, 2]]), axis=-1)
    ref = eig(build_hamiltonian(p))
    # the reference orders complex pairs by their rounding, so its vectors
    # are matched to the cubic roots by nearest eigenvalue
    near = np.argmin(np.abs(ref.eigenvalues[:, None, :] - vals[:, :, None]), axis=-1)
    want = np.take_along_axis(ref.right_vectors, near[:, None, :], axis=-1)
    overlap = np.abs(np.sum(want.conj() * sp.right_vectors, axis=-2))
    assert (gap > 1e-3).sum() > 20000
    assert overlap[gap > 1e-3].min() >= 1.0 - 1e-12


@pytest.mark.parametrize("k1, k2", [(np.inf, 0.0), (0.0, np.nan), (np.array([0.1, np.inf]), 1.0)])
def test_params_reject_non_finite(k1, k2):
    with pytest.raises(ValueError, match="non-finite entries"):
        ModelParams(k1, k2)


@pytest.mark.parametrize("k1, k2", [(1e200, 0.0), (0.0, -1e7), (np.array([0.1, 2e6]), 1.0)])
def test_params_reject_huge(k1, k2):
    # 1e200 overflowed char_poly (an OverflowError traceback for a float)
    with pytest.raises(ValueError, match=r"within \+-1e\+06"):
        ModelParams(k1, k2)
    ModelParams(MAX_ABS_K, -MAX_ABS_K)
    with pytest.raises(ValueError, match="non-finite entries"):
        ModelParams(np.array([1e200, np.nan]), 0.0)


def test_eigenvalues_are_the_spectrum_roots():
    k1 = np.array([0.0, 0.3, -0.7, 0.05, 0.0])
    k2 = np.array([1.0, 0.5, -1.0, 1.6, math.sqrt(17 / 8)])
    assert np.array_equal(eigenvalues(ModelParams(k1, k2)), spectrum(ModelParams(k1, k2)).eigenvalues)
    assert np.array_equal(eigenvalues(ModelParams(0.3, 1.0)), spectrum(ModelParams(0.3, 1.0)).eigenvalues)


@pytest.mark.parametrize("theta, dk", [(np.nan, 1e-4), (0.0, np.inf), (0.0, np.nan), (0.0, 0.0)])
def test_cone_direction_rejects_bad_inputs(theta, dk):
    with pytest.raises(ValueError):
        ConeDirection(theta, dk)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=80, deadline=None)
def test_vieta_relations(k1, k2):
    vals = spectrum(ModelParams(k1, k2)).eigenvalues
    assert np.sum(vals) == pytest.approx(6.0, abs=1e-9)
    assert np.prod(vals) == pytest.approx(6.0 * (k2**2 - 1.0), abs=1e-8)


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_discriminant_sign_matches_spectrum_reality(k1, k2):
    disc = float(discriminant(k1, k2))
    vals = spectrum(ModelParams(k1, k2)).eigenvalues
    if disc > 1e-6:
        assert np.abs(vals.imag).max() < 1e-6
    elif disc < -1e-6:
        assert np.abs(vals.imag).max() > 1e-9
