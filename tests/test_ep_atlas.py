import warnings

import numpy as np
import pytest

from eplab import ep_atlas
from eplab.ep_atlas import (
    RING_RADIUS,
    EPRecord,
    _coalescing_pair,
    _gradient_newton,
    classify_ep,
    locate_conical_points,
    locate_line_degeneracies,
    overlap_scaling,
    refine_degeneracy,
    scan_discriminant,
    trace_exceptional_line,
)
from eplab.model import (
    ModelParams,
    _cubic_coefficients,
    _discriminant_derivatives,
    build_hamiltonian,
    build_tb_block,
    discriminant,
)
from eplab.numerics import eig


def test_scan_marks_sign_changes():
    out = scan_discriminant((-0.5, 0.5), (1.2, 1.8), 41)
    assert out["delta"].shape == (41, 41)
    assert out["sign_change"].any()  # the exceptional line crosses this window
    with pytest.raises(ValueError):
        scan_discriminant((0, 1), (0, 1), 1)


def test_refine_lands_on_zero_set():
    x = refine_degeneracy((0.05, 1.43))
    assert abs(float(discriminant(*x))) < 1e-9


@pytest.mark.parametrize("seed", [(5.0, 4.0), (4.8, -4.5)])
def test_refine_stops_within_the_rounding_floor(seed):
    # past |k| ~ 3 the rounding floor eps S of delta is above 1e-10: a stop
    # at 1e-10 alone used up all 60 Newton steps there, and the bisection
    # fallback returned these seeds at 1.5 and 1.3 times the bound below
    x = refine_degeneracy(seed)
    f1, f0 = np.abs(_cubic_coefficients(*x))
    size = 4 * f1**3 + 36 * f1**2 + 108 * f1 * f0 + 27 * f0**2 + 864 * f0
    assert abs(float(discriminant(*x))) <= max(1e-10, 3 * np.finfo(float).eps * size)


def test_refine_raises_far_from_the_zero_set():
    # Newton from (-2, 0) runs down to delta = 69.8 near the saddle at the
    # origin (delta 68) and finds no sign change along the gradient there
    with pytest.raises(ValueError, match=r"seed \(-2.0, 0.0\) not refinable"):
        refine_degeneracy((-2.0, 0.0))


def test_conical_points_found_exactly():
    pts = sorted(locate_conical_points(), key=lambda p: p[1])
    assert len(pts) == 2
    assert np.hypot(pts[0][0], pts[0][1] + 1.0) < 1e-8
    assert np.hypot(pts[1][0], pts[1][1] - 1.0) < 1e-8


def test_hessian_exact_at_conical_points():
    for k2 in (1.0, -1.0):
        assert np.array_equal(_discriminant_derivatives(0.0, k2)[1], [[2592.0, 0.0], [0.0, 288.0]])


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
    assert res.hessian_signature == (2, 0)
    assert np.hypot(*(res.vertices[0] - np.array([0.0, 1.0]))) < 1e-6


def test_zero_set_critical_points_are_the_cones():
    # the trace treats a seed with a vanishing gradient as a cone with a
    # definite Hessian: every critical point of delta that gradient Newton
    # reaches on the zero set is (0, +-1), where the Hessian is definite
    ends = 0
    for k1 in np.linspace(-3.0, 3.0, 25):
        for k2 in np.linspace(-3.0, 3.0, 25):
            x = _gradient_newton(np.array([k1, k2]))
            if not abs(float(discriminant(*x))) <= 1e-12:
                continue
            ends += 1
            assert min(np.hypot(x[0], x[1] - 1.0), np.hypot(x[0], x[1] + 1.0)) < 1e-9
            assert np.all(np.linalg.eigvalsh(_discriminant_derivatives(*x)[1]) > 0)
    assert ends > 0


def test_trace_reaches_boundary():
    res = trace_exceptional_line(
        (0.05, 1.44), 0.02, bounds=(-1.0, 1.0, 0.0, 2.0)
    )
    assert res.terminated == "boundary"
    assert np.abs(discriminant(res.vertices[:, 0], res.vertices[:, 1])).max() < 1e-6


def test_trace_stops_after_the_step_limit(monkeypatch):
    monkeypatch.setattr(ep_atlas, "TRACE_MAX_STEPS", 3)
    res = trace_exceptional_line((0.05, 1.44), 0.01)
    assert res.terminated == "max_steps"
    assert res.vertices.shape == (4, 2)  # the seed and three steps


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
    fam = lambda k1: build_tb_block(ModelParams(k1, 1.0), reach=2)
    pts = locate_line_degeneracies(fam, (-1.0, 1.0))
    assert any(abs(p - 0.5) < 1e-6 for p in pts)
    assert any(abs(p + 0.5) < 1e-6 for p in pts)


@pytest.mark.parametrize("center", [1e4 + 0.3, -1e6 + 0.3])
def test_line_locator_ends_past_the_float_spacing(center):
    # past |k1| = 8192 a 1e-12 bracket is below the float spacing, where a
    # search stopped by the bracket width could cycle between two floats
    families = (
        lambda k1: np.array([[1.0, k1 - center], [k1 - center, 1.0]]),
        lambda k1: np.diag([k1 - center, 0.0, 5.0]),
    )
    for family in families:
        pts = locate_line_degeneracies(family, (center - 0.3, center + 0.7))
        assert len(pts) == 1 and abs(pts[0] - center) < 1e-6


# The per-cell and per-probe loops the atlas ran before its probes were
# stacked, kept as references for bit-identical results.


def _loop_conical_points(k1_range, k2_range, resolution):
    k1 = np.linspace(*k1_range, resolution)
    k2 = np.linspace(*k2_range, resolution)
    vals = discriminant(k1[:, None], k2[None, :])
    found = []
    for i in range(1, resolution - 1):
        for j in range(1, resolution - 1):
            patch = vals[i - 1 : i + 2, j - 1 : j + 2]
            if vals[i, j] != patch.min() or vals[i, j] > 50.0:
                continue
            x = _gradient_newton(np.array([k1[i], k2[j]]))
            if abs(float(discriminant(*x))) > 1e-12:
                continue
            sig = np.linalg.eigvalsh(_discriminant_derivatives(*x)[1])
            if sig[0] * sig[1] <= 0:
                continue
            if not any(np.hypot(x[0] - f[0], x[1] - f[1]) < 1e-4 for f in found):
                found.append((float(x[0]), float(x[1])))
    return sorted(found, key=lambda t: (t[1], t[0]))


def _loop_pair_gap_and_overlap(h):
    sp = eig(h)
    i, j = _coalescing_pair(sp.eigenvalues)
    gap = abs(sp.eigenvalues[i] - sp.eigenvalues[j])
    ov = abs(np.vdot(sp.right_vectors[:, i], sp.right_vectors[:, j]))
    return gap, ov


def _loop_classify_ep(location, *, family=None, ring_radius=RING_RADIUS):
    fam = family or (lambda a, b: build_hamiltonian(ModelParams(a, b)))
    k1, k2 = location
    if family is None:
        loc = refine_degeneracy(location, tol=1e-8)
        k1, k2 = float(loc[0]), float(loc[1])
    gap0, _ = _loop_pair_gap_and_overlap(fam(k1, k2))
    assert gap0 <= 1e-4
    probe = np.array([1.0, 0.0])
    g = _discriminant_derivatives(k1, k2)[0]
    if family is None and np.linalg.norm(g) > 1e-6:
        probe = g / np.linalg.norm(g)
    probe = probe / np.linalg.norm(probe)
    _, coalescence = _loop_pair_gap_and_overlap(fam(k1 + 1e-6 * probe[0], k2 + 1e-6 * probe[1]))
    ring_real = True
    for a in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        vals = np.linalg.eigvals(fam(k1 + ring_radius * np.cos(a), k2 + ring_radius * np.sin(a)))
        if np.abs(vals.imag).max() > 1e-7:
            ring_real = False
            break
    offsets = np.geomspace(1e-4, 1e-2, 9)
    gaps = [_loop_pair_gap_and_overlap(fam(k1 + dk * probe[0], k2 + dk * probe[1]))[0]
            for dk in offsets]
    exponent = float(np.polyfit(np.log(offsets), np.log(gaps), 1)[0])
    if coalescence < 0.5:
        kind = "hermitian_dp"
    elif ring_real and 0.8 < exponent < 1.2:
        kind = "dirac"
    else:
        kind = "typical"
    return EPRecord((k1, k2), kind, exponent, float(coalescence),
                    float(ring_radius if ring_real else 0.0))


@pytest.mark.parametrize(
    "k1_range, k2_range, resolution",
    [((-1.0, 1.0), (-2.0, 2.0), r) for r in (11, 41, 45, 49, 80)]
    + [((-0.5, 0.7), (0.0, 2.0), 37), ((-2.0, 2.0), (-3.0, 1.5), 57)],
)
def test_stacked_scan_equals_the_cell_loop(k1_range, k2_range, resolution):
    got = locate_conical_points(k1_range, k2_range, resolution)
    want = _loop_conical_points(k1_range, k2_range, resolution)
    assert repr(got) == repr(want)


def _typical_point():
    trace = trace_exceptional_line((0.05, 1.44), 0.01)
    return tuple(trace.vertices[len(trace.vertices) // 2])


@pytest.mark.parametrize(
    "location, family, ring_radius",
    [
        ((0.0, 1.0), None, 0.05),
        ((0.0, -1.0), None, 0.05),
        ((1e-3, 1.0005), None, 0.05),
        (_typical_point(), None, 0.05),
        ((1.5, 0.0), lambda k1, k2: np.diag([3 + 2 * k1, 0.0, 3 - 2 * k1]), 0.05),
        ((0.0, 1.0), lambda k1, k2: build_hamiltonian(ModelParams(k1, k2)), 0.05),
    ],
)
def test_stacked_classification_equals_the_probe_loops(location, family, ring_radius):
    # ring_radius is the reference's; classify_ep tests the ring at RING_RADIUS
    got = classify_ep(location, family=family)
    want = _loop_classify_ep(location, family=family, ring_radius=ring_radius)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("center, direction", [((0.0, 1.0), (1.0, 0.0)), ((0.0, -1.0), (0.3, 1.0))])
def test_stacked_overlaps_equal_the_probe_loop(center, direction):
    offsets = np.geomspace(1e-3, 1e-1, 9)
    d = np.asarray(direction) / np.linalg.norm(direction)
    want = [1.0 - _loop_pair_gap_and_overlap(
        build_hamiltonian(ModelParams(center[0] + dk * d[0], center[1] + dk * d[1])))[1]
        for dk in offsets]
    _, got = overlap_scaling(offsets, center=center, direction=direction)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "k1_range, k2_range, resolution, message",
    [
        ((-1.0, 1.0), (-2.0, 2.0), 2, "resolution"),
        ((-1.0, 1.0), (-2.0, 2.0), 1001, "resolution"),
        ((-1.0, np.inf), (-2.0, 2.0), 41, "finite"),
        ((-1.0, 1.0), (np.nan, 2.0), 41, "finite"),
        ((1.0, 1.0), (-2.0, 2.0), 41, "min < max"),
        ((-1.0, 1.0), (2.0, -2.0), 41, "min < max"),
        ((-1e200, 1e200), (-2.0, 2.0), 41, "within"),
    ],
)
def test_scan_rejects_grids_without_an_interior(k1_range, k2_range, resolution, message):
    with pytest.raises(ValueError, match=message):
        locate_conical_points(k1_range, k2_range, resolution)


@pytest.mark.parametrize(
    "k1_range, k2_range, resolution, message",
    [
        ((0.0, 1.0), (0.0, 1.0), 1, "resolution must be in 2..1000, got 1"),
        ((0.0, 1.0), (0.0, 1.0), 1001, "resolution must be in 2..1000, got 1001"),
        # returned an all-NaN grid with no sign change after a RuntimeWarning
        ((0.0, np.inf), (0.0, 1.0), 5, "finite"),
        ((0.0, 1.0), (np.nan, 1.0), 5, "finite"),
        ((0.0, 1e200), (0.0, 1.0), 5, "within"),
        ((1.0, 1.0), (0.0, 1.0), 5, "min < max"),
        ((0.0, 1.0), (1.0, 0.0), 5, "min < max"),
    ],
)
def test_discriminant_scan_rejects_bad_grids(k1_range, k2_range, resolution, message):
    # the scan keeps its own lowest resolution, 2: it needs no interior cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            scan_discriminant(k1_range, k2_range, resolution)
    assert scan_discriminant((0.0, 1.0), (0.0, 1.0), 2)["delta"].shape == (2, 2)


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -0.01])
def test_trace_rejects_bad_step(step):
    # nan returned terminated="lost_track" with one vertex; inf warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step must be finite and positive"):
            trace_exceptional_line((0.05, 1.44), step)


@pytest.mark.parametrize("direction", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0)])
def test_overlap_scaling_rejects_bad_direction(direction):
    # normalising (0, 0) divides by zero and gives a nan direction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction must be finite and nonzero"):
            overlap_scaling(np.array([0.01, 0.02]), direction=direction)


@pytest.mark.parametrize("offsets", [(-0.01, 0.02), (0.0, 0.02), (0.01, np.nan), (0.01, np.inf)])
def test_overlap_scaling_rejects_bad_offsets(offsets):
    # -0.01 and 0 each warned from log and gave a nan slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="offsets must be finite and positive"):
            overlap_scaling(np.array(offsets))


@pytest.mark.parametrize("k1_range", [(0.0, np.inf), (1.0, -1.0), (0.4, 0.4), (np.nan, 1.0)])
def test_line_locator_rejects_bad_range(k1_range):
    # (0, inf) warned from linspace, and (0.4, 0.4) quietly found nothing
    def family(k1):
        raise AssertionError("family called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"k1_range must be finite with lo < hi, got \("):
            locate_line_degeneracies(family, k1_range)
