import numpy as np
import pytest

from eplab import experiments
from eplab.experiments import (
    LoopSpec,
    PhaseReport,
    adiabaticity_check,
    geometric_phase,
    mode_switch,
)
from eplab.numerics import NumericsError


def test_loop_validation():
    with pytest.raises(ValueError, match="kind"):
        LoopSpec(kind="square")
    with pytest.raises(ValueError, match="direction"):
        LoopSpec(direction="widdershins")
    with pytest.raises(ValueError, match="radius"):
        LoopSpec(R=-0.1)
    with pytest.raises(ValueError, match="duration"):
        LoopSpec(T=0.0)
    with pytest.raises(ValueError, match="callables"):
        LoopSpec(kind="custom")
    with pytest.raises(ValueError, match="not closed"):
        LoopSpec(kind="custom", k1_of=lambda u: u, k2_of=lambda u: 0.5 * u)


def test_direction_reversal_retraces_the_curve():
    ccw = LoopSpec(T=100.0)
    cw = LoopSpec(T=100.0, direction="cw")
    for t in (0.0, 13.0, 42.0, 100.0):
        assert np.allclose(ccw.params(t), cw.params(100.0 - t), atol=1e-12)


def test_preset_loops_pass_through_conical_point():
    for kind in ("through_k2", "through_k1"):
        loop = LoopSpec(kind=kind, T=10.0)
        k1, k2 = loop.params(np.linspace(0.0, 10.0, 1001))
        d = np.hypot(k1 - 0.0, k2 - 1.0)
        assert d.min() < 1e-2


def test_custom_loop_params():
    loop = LoopSpec(
        kind="custom", T=7.0,
        k1_of=lambda u: 0.1 * np.sin(2 * np.pi * u),
        k2_of=lambda u: 0.5 + 0.1 * np.cos(2 * np.pi * u),
    )
    k1, k2 = loop.params(7.0 / 4.0)
    assert k1 == pytest.approx(0.1, abs=1e-12)
    assert k2 == pytest.approx(0.5, abs=1e-12)


def test_phase_report_invariant():
    PhaseReport(total=1.0 + 0.5j, dynamical=0.2j, geometric=1.0 + 0.3j, eigenindex=1)
    with pytest.raises(ValueError):
        PhaseReport(total=1.0, dynamical=0.5, geometric=0.1, eigenindex=1)


def test_trivial_loop_has_zero_geometric_phase():
    # R = 0 keeps H constant, so the entire phase is dynamical
    rep = geometric_phase(LoopSpec(center=(0.0, 0.8), R=0.0, T=50.0), 1)
    assert abs(rep.geometric) < 1e-8
    assert rep.total.real == pytest.approx(rep.dynamical.real, abs=1e-8)


def test_geometric_phase_rejects_complex_spectrum_path():
    with pytest.raises(NumericsError, match="not all-real"):
        geometric_phase(LoopSpec(center=(0.0, 1.6), R=0.05, T=50.0), 1)


def test_fast_loop_reports_leakage():
    with pytest.raises(NumericsError, match="increase the loop duration"):
        geometric_phase(LoopSpec(T=5.0), 1)


def test_bad_eigenindex():
    with pytest.raises(ValueError, match="eigenindex"):
        geometric_phase(LoopSpec(center=(0.0, 0.0), R=0.1, T=50.0), 4)


def test_slow_small_loop_is_reciprocal():
    # a loop that does not enclose the conical point: both directions
    # return the state to the same branch with a tiny geometric phase
    loop_kwargs = dict(center=(0.3, 0.4), R=0.05, T=2000.0)
    fwd = geometric_phase(LoopSpec(**loop_kwargs), 2, dt=0.05)
    bwd = geometric_phase(LoopSpec(direction="cw", **loop_kwargs), 2, dt=0.05)
    assert abs(fwd.geometric) < 0.02
    assert abs(fwd.geometric + bwd.geometric) < 0.01


def test_mode_switch_trivial_loop_keeps_branch():
    rep = mode_switch(LoopSpec(center=(0.3, 0.5), R=0.0, T=50.0), 2)
    assert rep.start_index == 2 and rep.end_index == 2
    assert rep.overlap > 1.0 - 1e-8
    assert rep.efficiency == pytest.approx(1.0, abs=1e-9)
    assert len(rep.overlaps) == 3
    assert rep.overlaps[1] == pytest.approx(rep.overlap)


def test_mode_switch_direction_override():
    rep = mode_switch(
        LoopSpec(center=(0.3, 0.5), R=0.0, T=50.0), 1, direction="cw"
    )
    assert rep.direction == "cw"


def test_adiabaticity_scaling_with_duration():
    kwargs = dict(center=(0.3, 0.4), R=0.1)
    slow = adiabaticity_check(LoopSpec(T=2000.0, **kwargs), 1, dt=0.05)
    fast = adiabaticity_check(LoopSpec(T=20.0, **kwargs), 1, dt=0.01)
    assert slow < 1e-3
    assert fast > 10.0 * slow


def test_bad_dt_rejected():
    loop = LoopSpec(center=(0.3, 0.4), R=0.1, T=50.0)
    for run in (geometric_phase, mode_switch, adiabaticity_check):
        for dt in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                run(loop, 1, dt=dt)


def test_slices_carry_the_state(monkeypatch):
    # one slice (2000 steps) against many short ones with a remainder
    loop = LoopSpec(center=(0.3, 0.4), R=0.1, T=50.0)
    whole = (
        geometric_phase(loop, 2),
        mode_switch(loop, 2),
        adiabaticity_check(loop, 2, checkpoints=50),
    )
    monkeypatch.setattr(experiments, "CHUNK_STEPS", 37)
    sliced = (
        geometric_phase(loop, 2),
        mode_switch(loop, 2),
        adiabaticity_check(loop, 2, checkpoints=50),
    )
    assert abs(sliced[0].total - whole[0].total) < 1e-11
    assert abs(sliced[0].dynamical - whole[0].dynamical) < 1e-11
    assert sliced[1].efficiency == pytest.approx(whole[1].efficiency, abs=1e-12)
    assert np.allclose(sliced[1].overlaps, whole[1].overlaps, atol=1e-12)
    assert sliced[2] == pytest.approx(whole[2], abs=1e-12)
