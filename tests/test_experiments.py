import tracemalloc
import warnings

import numpy as np
import pytest

from eplab import experiments, numerics
from eplab.experiments import (
    LoopSpec,
    PhaseReport,
    geometric_phase,
    mode_switch,
)
from eplab.model import ModelParams, eigenvalues
from eplab.numerics import NumericsError, gauss_nodes, propagate_ordered


def test_loop_validation():
    with pytest.raises(ValueError, match="kind"):
        LoopSpec(kind="square")
    with pytest.raises(ValueError, match="direction"):
        LoopSpec(direction="widdershins")
    with pytest.raises(ValueError, match="radius"):
        LoopSpec(R=-0.1)
    with pytest.raises(ValueError, match="duration"):
        LoopSpec(T=0.0)
    with pytest.raises(ValueError, match="kind"):
        LoopSpec(kind="custom")
    # a circle reaching past the model's +-1e6 was "not closed" (rounding)
    with pytest.raises(ValueError, match=r"within \+-1e\+06"):
        LoopSpec(R=1e200, T=10.0)
    with pytest.raises(ValueError, match=r"within \+-1e\+06"):
        LoopSpec(center=(-1e6, 0.0), R=0.5)
    LoopSpec(center=(0.0, 1.0), R=1e6 - 1.0)


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


@pytest.mark.parametrize(
    "T, peak",
    # the gain of a loop in the broken-PT region overflows to nan within
    # the slice at T = 1e3, and leaves a finite state past the ceiling at 1e2
    [(1e3, "nan"), (1e2, r"7\.5\d+e\+156")],
)
def test_overflowing_loop_raises(T, peak):
    loop = LoopSpec(kind="circle", center=(0.0, 3.0), R=0.1, T=T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=rf"state norm {peak} over t in \[0, {T:g}\]"):
            mode_switch(loop, 1, dt=0.5)


def test_broken_pt_loop_rejected_before_propagating(monkeypatch):
    # the loop of test_overflowing_loop_raises: its discriminant is checked
    # over the whole grid first, so the state never overflows
    def forbidden(*args, **kwargs):
        raise AssertionError("propagated a loop with a complex spectrum")

    monkeypatch.setattr(experiments, "propagate_ordered", forbidden)
    loop = LoopSpec(kind="circle", center=(0.0, 3.0), R=0.1, T=1e3)
    with pytest.raises(NumericsError, match="loop spectrum is not all-real"):
        geometric_phase(loop, 1, dt=0.5)


def test_total_phase_is_branch_safe_for_long_steps():
    # |E dt| is about 3.3 at dt 1.0, past the pi where the principal log of
    # a bare overlap ratio wraps; gamma stays within the CF4 error of dt 0.2
    ref = geometric_phase(LoopSpec(), 1)
    rep = geometric_phase(LoopSpec(), 1, dt=1.0)
    assert abs(rep.geometric - ref.geometric) < 1e-6
    assert abs(rep.total - ref.total) < 1e-6


def _per_step_phase(loop, eigenindex, dt=0.2):
    """(total, dynamical) by the per-step method: each step's dynamical
    phase from the cubic's eigenvalue at its two Gauss nodes, the total
    from one log per step of the overlap ratio times exp(i phi_j)."""
    times = experiments._time_grid(loop, dt)
    psi0 = experiments._start_eigenstate(loop, eigenindex)
    total = dynamical = 0.0
    for _, t, states in propagate_ordered(loop.hamiltonian, psi0, times, rule="cf4"):
        overlaps = states @ psi0.conj()
        energy = eigenvalues(ModelParams(*loop.params(gauss_nodes(t))))[..., eigenindex - 1].real
        phi = np.diff(t) * (energy[0] + energy[1]) / 2.0
        total += np.sum(np.log(overlaps[1:] / overlaps[:-1] * np.exp(1j * phi)))
        dynamical += np.sum(phi)
    return complex(1j * total + dynamical), complex(dynamical)


@pytest.mark.parametrize(
    "loop, dt, tol",
    [
        (LoopSpec(), 0.2, 1e-10),
        # small loops around the conical point pin the branch of the
        # per-step logs: one log per slice was off by 2 pi at R = 0.002
        (LoopSpec(R=0.002), 0.2, 1e-9),
        (LoopSpec(R=0.005), 0.2, 1e-9),
        (LoopSpec(), 1.0, 1e-10),
    ],
)
@pytest.mark.parametrize("eigenindex", [1, 2, 3])
def test_spectral_phase_matches_the_per_step_sum(loop, dt, tol, eigenindex):
    total, dynamical = _per_step_phase(loop, eigenindex, dt)
    rep = geometric_phase(loop, eigenindex, dt=dt)
    assert abs(rep.total - total) < tol
    assert abs(rep.dynamical - dynamical) < tol
    assert abs(rep.geometric - (total - dynamical)) < tol


def test_dynamical_phases_sum_to_the_trace():
    # tr H = 6 at every loop point, so the three phases sum to 6 T
    loop = LoopSpec()
    phases = [geometric_phase(loop, n).dynamical for n in (1, 2, 3)]
    assert sum(phases) == pytest.approx(6.0 * loop.T, rel=1e-14, abs=0.0)


def test_loop_through_a_degeneracy_is_rejected(monkeypatch):
    # the circle touches the conical point (0, 1), where the sorted E1 and
    # E2 change sheet: the per-step sum read Re gamma -645.9 for E1. The
    # lowest sheet stays smooth there and keeps its phase
    loop = LoopSpec(center=(0.0, 0.95), R=0.05, T=20000.0)
    total, dynamical = _per_step_phase(loop, 3)
    rep = geometric_phase(loop, 3)
    assert abs(rep.total - total) < 1e-10 and abs(rep.dynamical - dynamical) < 1e-10

    def forbidden(*args, **kwargs):
        raise AssertionError("propagated a loop through a degeneracy")

    monkeypatch.setattr(experiments, "propagate_ordered", forbidden)
    for n in (1, 2):
        with pytest.raises(NumericsError, match="the loop passes through a degeneracy"):
            geometric_phase(loop, n)


def _loop_end_state(loop, dt, rule):
    times = np.linspace(0.0, loop.T, int(round(loop.T / dt)) + 1)
    psi0 = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
    [(_, _, states)] = propagate_ordered(loop.hamiltonian, psi0, times, trajectory=False, rule=rule)
    return states[-1]


@pytest.mark.parametrize("kind", ["circle", "through_k1", "through_k2"])
def test_cf4_steps_are_fourth_order(kind, monkeypatch):
    # halving dt divides the end-state error by about 16 (midpoint: 4); with
    # the two factors of a step in the other order the rule is second order
    loop = LoopSpec(kind=kind, T=50.0)
    ref = _loop_end_state(loop, 0.0125, "cf4")

    def ratio(rule):
        coarse, fine = (np.linalg.norm(_loop_end_state(loop, dt, rule) - ref) for dt in (0.4, 0.2))
        return coarse / fine

    assert ratio("cf4") >= 12.0
    assert ratio("midpoint") < 5.0
    monkeypatch.setattr(numerics, "_CF4_WEIGHTS", numerics._CF4_WEIGHTS[::-1])
    assert ratio("cf4") < 5.0


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
    rep = mode_switch(LoopSpec(center=(0.3, 0.5), R=0.0, T=50.0, direction="cw"), 1)
    assert rep.direction == "cw"


def test_adiabaticity_scaling_with_duration():
    # the loop does not enclose the conical point, so a slow passage ends
    # on its start eigenstate; a fast one leaks about 1.5e-3 out of it
    kwargs = dict(center=(0.3, 0.4), R=0.1)
    slow = mode_switch(LoopSpec(T=2000.0, **kwargs), 1, dt=0.05)
    fast = mode_switch(LoopSpec(T=20.0, **kwargs), 1, dt=0.01)
    assert slow.end_index == fast.end_index == 1
    assert 1.0 - slow.overlap < 1e-6
    assert 1.0 - fast.overlap > 100.0 * (1.0 - slow.overlap)


def test_bad_dt_rejected():
    loop = LoopSpec(center=(0.3, 0.4), R=0.1, T=50.0)
    for run in (geometric_phase, mode_switch):
        for dt in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                run(loop, 1, dt=dt)


def test_step_resonance_rejected(monkeypatch):
    # the default circle's largest splitting is 3.54: dt 1.77 stays below
    # 2 pi and dt 1.78 reaches it, before anything is propagated
    class Propagated(Exception):
        pass

    def engine(*args, **kwargs):
        raise Propagated

    monkeypatch.setattr(experiments, "propagate_ordered", engine)
    for run in (geometric_phase, mode_switch):
        with pytest.raises(ValueError, match="is 6.3, at or past the 2 pi step resonance"):
            run(LoopSpec(), 1, dt=1.78)
        with pytest.raises(Propagated):
            run(LoopSpec(), 1, dt=1.77)


def _traced_peak(fn):
    """Peak bytes `tracemalloc` sees during fn(); numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_working_set_is_bounded_by_the_slice():
    # the default modeswitch and a geophase loop peak at about 5.5 MB (16.8
    # and 13.8 MB with 2^14-step slices); a loop four or five times as long
    # adds only its time grid, 8 bytes a step: geophase keeps no array of
    # its own over the grid nodes (a dynamical phase kept at every node
    # made it 40)
    def switch(T):
        return lambda: mode_switch(LoopSpec(kind="through_k2", T=T), 1)

    def phase(T):
        return lambda: geometric_phase(LoopSpec(T=T), 1)

    switch(5e4)()  # first-call costs outside the trace
    short = _traced_peak(switch(5e4))
    assert short < 8e6
    assert _traced_peak(lambda: geometric_phase(LoopSpec(), 2)) < 8e6
    added_steps = (2e5 - 5e4) / 0.4
    assert _traced_peak(switch(2e5)) - short < 8 * added_steps + 2.5e5
    short = _traced_peak(phase(2e4))
    added_steps = (1e5 - 2e4) / 0.2
    assert _traced_peak(phase(1e5)) - short < 8 * added_steps + 2.5e5


def test_slices_carry_the_state(monkeypatch):
    # one slice (2000 steps) against many short ones with a remainder
    loop = LoopSpec(center=(0.3, 0.4), R=0.1, T=50.0)
    whole = geometric_phase(loop, 2), mode_switch(loop, 2)
    monkeypatch.setattr(numerics, "CHUNK_STEPS", 37)
    sliced = geometric_phase(loop, 2), mode_switch(loop, 2)
    assert abs(sliced[0].total - whole[0].total) < 1e-11
    assert abs(sliced[0].dynamical - whole[0].dynamical) < 1e-11
    assert sliced[1].efficiency == pytest.approx(whole[1].efficiency, abs=1e-12)
    assert np.allclose(sliced[1].overlaps, whole[1].overlaps, atol=1e-12)
