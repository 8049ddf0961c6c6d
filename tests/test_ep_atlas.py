import numpy as np
import pytest

from eplab.ep_atlas import (
    _hess_disc,
    classify_ep,
    locate_conical_points,
    locate_line_degeneracies,
    overlap_scaling,
    refine_degeneracy,
    scan_discriminant,
    trace_exceptional_line,
)
from eplab.model import ModelParams, build_tb_block, discriminant


def test_scan_marks_sign_changes():
    out = scan_discriminant((-0.5, 0.5), (1.2, 1.8), 41)
    assert out["delta"].shape == (41, 41)
    assert out["sign_change"].any()  # the exceptional line crosses this window
    with pytest.raises(ValueError):
        scan_discriminant((0, 1), (0, 1), 1)


def test_refine_lands_on_zero_set():
    x = refine_degeneracy((0.05, 1.43))
    assert abs(float(discriminant(*x))) < 1e-9


def test_conical_points_found_exactly():
    pts = sorted(locate_conical_points(), key=lambda p: p[1])
    assert len(pts) == 2
    assert np.hypot(pts[0][0], pts[0][1] + 1.0) < 1e-8
    assert np.hypot(pts[1][0], pts[1][1] - 1.0) < 1e-8


def test_hessian_exact_at_conical_points():
    for k2 in (1.0, -1.0):
        assert np.array_equal(_hess_disc(0.0, k2), [[2592.0, 0.0], [0.0, 288.0]])


def test_classify_conical_point():
    rec = classify_ep((0.0, 1.0))
    assert rec.kind == "dirac"
    assert rec.dispersion_exponent == pytest.approx(1.0, abs=0.02)
    assert rec.coalescence > 0.999
    assert rec.spectrum_real_radius >= 0.05


def test_classify_typical_point():
    trace = trace_exceptional_line((0.05, 1.44), 0.01)
    mid = tuple(trace.vertices[len(trace.vertices) // 2])
    rec = classify_ep(mid)
    assert rec.kind == "typical"
    assert rec.dispersion_exponent == pytest.approx(0.5, abs=0.05)
    assert rec.coalescence > 0.999  # eigenvectors coalesce at any non-Hermitian EP
    assert rec.spectrum_real_radius < 0.05  # complex spectrum on one side


def test_classify_hermitian_point():
    # k2 = 0 keeps H symmetric; the k1 = +-0.5 crossing there is diabolical
    fam = lambda k1, k2: np.diag([3 + 2 * k1, 0.0, 3 - 2 * k1])
    rec = classify_ep((1.5, 0.0), family=fam)
    assert rec.kind == "hermitian_dp"
    assert rec.coalescence < 0.5


def test_trace_recognizes_singular_seed():
    res = trace_exceptional_line((0.001, 1.0005), 0.01)
    assert res.terminated == "singular_seed"
    assert res.singular
    assert res.hessian_signature == (2, 0)
    assert np.hypot(*(res.vertices[0] - np.array([0.0, 1.0]))) < 1e-6


def test_trace_reaches_boundary():
    res = trace_exceptional_line(
        (0.05, 1.44), 0.02, bounds=(-1.0, 1.0, 0.0, 2.0)
    )
    assert res.terminated == "boundary"
    assert np.abs(discriminant(res.vertices[:, 0], res.vertices[:, 1])).max() < 1e-6


def test_overlap_scaling_exponents():
    offsets = np.geomspace(1e-3, 1e-1, 9)
    for direction in ((1, 0), (0, 1)):
        slope, defects = overlap_scaling(offsets, direction=direction)
        assert slope == pytest.approx(2.0, abs=0.1)
        assert np.all(np.diff(defects) > 0)


def test_overlap_reference_values():
    # quadratic-law anchors: 1 - F12 at two specific offsets along k1
    _, defects = overlap_scaling(np.array([0.05, 0.1]))
    assert defects[0] == pytest.approx(0.0166, abs=2e-3)
    assert defects[1] == pytest.approx(0.0644, abs=2e-3)


def test_overlap_scaling_linear_at_typical_point():
    # at a generic point on the exceptional line the overlap defect grows
    # linearly with offset, unlike the quadratic law at the conical points
    trace = trace_exceptional_line((0.05, 1.44), 0.01)
    mid = tuple(trace.vertices[len(trace.vertices) // 2])
    slope, _ = overlap_scaling(
        np.geomspace(1e-4, 1e-2, 7), center=mid, direction=(0.0, 1.0)
    )
    assert slope == pytest.approx(1.0, abs=0.15)


def test_line_degeneracy_locator_next_nearest():
    fam = lambda k1: build_tb_block(ModelParams(k1, 1.0, variant="next_nearest"))
    pts = locate_line_degeneracies(fam, (-1.0, 1.0))
    assert any(abs(p - 0.5) < 1e-6 for p in pts)
    assert any(abs(p + 0.5) < 1e-6 for p in pts)
