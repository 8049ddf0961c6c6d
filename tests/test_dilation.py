import inspect

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from eplab import dilation, numerics
from eplab.dilation import (
    POSITIVITY_MARGIN,
    assemble_htot,
    build_frame,
    dilated_evolve,
    metric_M,
    postselect,
    prepare_initial,
)
from eplab.model import ModelParams, build_hamiltonian
from eplab.numerics import NumericsError, expm


H_REF = build_hamiltonian(ModelParams(0.3, 0.5))


def _reference_frame(h, t, m0_scale):
    """eta, d(eta)/dt, Gamma and Lambda by three decompositions per frame:
    eigvalsh for the window, eigh for the square root of M - I, eigh of
    eta for the Sylvester solve, and inv(M)."""
    h = np.asarray(h, dtype=complex)
    m = metric_M(h, t, m0_scale)
    shifted = m - np.eye(3)
    assert np.linalg.eigvalsh(shifted).min() >= -POSITIVITY_MARGIN
    eta = numerics.psd_sqrt(shifted)
    dm = 1j * (m @ h - h.conj().T @ m)
    vals, vecs = np.linalg.eigh(eta)
    rhs = vecs.conj().swapaxes(-1, -2) @ dm @ vecs
    deta = vecs @ (rhs / (vals[..., :, None] + vals[..., None, :])) @ vecs.conj().swapaxes(-1, -2)
    minv = np.linalg.inv(m)
    lhat = (h + (1j * deta + eta @ h) @ eta) @ minv
    ghat = 1j * (h @ eta - eta @ h - 1j * deta) @ minv
    blocks = np.stack([lhat + ghat, lhat - ghat])
    gamma, lam = (blocks + blocks.conj().swapaxes(-1, -2)) / 2.0
    return {"eta": eta, "deta": deta, "Gamma": gamma, "Lambda": lam}


def _eta_and_rate(h, t, m0_scale):
    """eta = V diag(r) V^dag and d(eta)/dt = V rate V^dag from the
    eigenbasis V of M - I that `build_frame` works in."""
    _, vecs, roots, _, rate = dilation._eigenbasis(h, t, m0_scale)
    vecs_dag = vecs.conj().swapaxes(-1, -2)
    return (vecs * roots[..., None, :]) @ vecs_dag, vecs @ rate @ vecs_dag


def test_metric_initial_value_and_hermiticity():
    m0 = metric_M(H_REF, 0.0, m0_scale=1.3)
    assert np.allclose(m0, 1.3 * np.eye(3), atol=1e-12)
    mt = metric_M(H_REF, 0.7, m0_scale=6.0)
    assert np.abs(mt - mt.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        metric_M(H_REF, 0.0, m0_scale=1.0)


def test_metric_flow_equation():
    # dM/dt = i (M H - H^dag M), checked by central difference
    t, dt = 0.4, 1e-6
    m = metric_M(H_REF, t, m0_scale=1.5)
    dm_fd = (metric_M(H_REF, t + dt, 1.5) - metric_M(H_REF, t - dt, 1.5)) / (2 * dt)
    dm = 1j * (m @ H_REF - H_REF.conj().T @ m)
    assert np.abs(dm_fd - dm).max() < 1e-6


def test_eta_initial_and_square():
    eta0, _ = _eta_and_rate(H_REF, 0.0, 1.3)
    assert np.allclose(eta0, np.sqrt(0.3) * np.eye(3), atol=1e-12)
    eta, _ = _eta_and_rate(H_REF, 0.5, 6.0)
    assert np.allclose(eta @ eta, metric_M(H_REF, 0.5, 6.0) - np.eye(3), atol=1e-10)


def test_eta_positivity_window_violation():
    # one window rule: a frame whose M - I has an eigenvalue below
    # POSITIVITY_MARGIN is outside the window, even a positive one
    h = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(
        NumericsError,
        match=r"^dilation window exceeded at model time 0: M - I lost positivity$",
    ):
        build_frame(h, 0.0, m0_scale=1.0 + 5e-9)
    eta, _ = _eta_and_rate(h, 0.0, 1.0 + 2.0 * POSITIVITY_MARGIN)
    assert np.allclose(eta, np.sqrt(2.0 * POSITIVITY_MARGIN) * np.eye(3), rtol=1e-6, atol=0.0)


def test_eta_rate_matches_finite_difference():
    t, dt = 0.3, 1e-6
    _, rate = _eta_and_rate(H_REF, t, 6.0)
    fd = (_eta_and_rate(H_REF, t + dt, 6.0)[0] - _eta_and_rate(H_REF, t - dt, 6.0)[0]) / (2 * dt)
    assert np.abs(rate - fd).max() < 1e-5


def test_blocks_hermitian_and_assembled_block_diagonal():
    frame = build_frame(H_REF, 0.6, m0_scale=6.0)
    assert np.abs(frame.Gamma - frame.Gamma.conj().T).max() < 1e-10
    assert np.abs(frame.Lambda - frame.Lambda.conj().T).max() < 1e-10
    htot = frame.Htot
    assert np.array_equal(htot[:3, :3], frame.Gamma)
    assert np.array_equal(htot[3:, 3:], frame.Lambda)
    assert np.abs(htot[:3, 3:]).max() == 0.0
    assert np.array_equal(assemble_htot(frame.Gamma, frame.Lambda), htot)


def test_gamma_lambda_rejects_inconsistent_inputs(monkeypatch):
    # the Hermiticity certificate of the blocks: an eigendecomposition of
    # M - I that does not diagonalise M, its eigenvectors turned by 1e-6
    # rad or one eigenvalue moved by 1e-6 relative, in one frame
    closed_form = numerics._eigh3_closed_form

    def turn(vals, vecs):  # V stays orthonormal
        c, s = np.cos(1e-6), np.sin(1e-6)
        vecs[:, :2] = vecs[:, :2] @ np.array([[c, -s], [s, c]])

    def shift(vals, vecs):
        vals[1] *= 1.0 + 1e-6

    def spoiled(frame, spoil):
        def eigh3(a):
            vals, vecs = closed_form(a)  # stack-last: frame k is [..., k]
            spoil(vals[:, frame], vecs[:, :, frame])
            return vals, vecs

        return eigh3

    ts = np.array([0.2, 0.4, 0.6])
    build_frame(H_REF, 0.4, m0_scale=6.0)
    build_frame(H_REF, ts, m0_scale=6.0)
    for spoil in (turn, shift):
        monkeypatch.setattr(dilation, "_eigh3_closed_form", spoiled(0, spoil))
        with pytest.raises(NumericsError, match="Hermiticity in frame 0"):
            build_frame(H_REF, 0.4, m0_scale=6.0)
        # a stack of consistent frames with one bad frame in the middle
        monkeypatch.setattr(dilation, "_eigh3_closed_form", spoiled(1, spoil))
        with pytest.raises(NumericsError, match="Hermiticity in frame 1"):
            build_frame(H_REF, ts, m0_scale=6.0)


@pytest.mark.parametrize(
    "h, m0_scale, ts",
    [
        (H_REF, 6.0, np.linspace(0.0, 0.7, 8)),
        (build_hamiltonian(ModelParams(0.0, 1.0)), 12.0, np.linspace(0.0, 2.0, 9)),
    ],
)
def test_frame_over_times_matches_scalar_frames(h, m0_scale, ts):
    stacked = build_frame(h, ts, m0_scale=m0_scale)
    singles = [build_frame(h, t, m0_scale=m0_scale) for t in ts]
    for name in ("M", "Gamma", "Lambda", "Htot"):
        want = np.stack([getattr(f, name) for f in singles])
        assert getattr(stacked, name).shape == want.shape
        assert np.abs(getattr(stacked, name) - want).max() < 1e-12, name
    for got, want in zip(
        _eta_and_rate(h, ts, m0_scale), zip(*(_eta_and_rate(h, t, m0_scale) for t in ts))
    ):
        assert np.abs(got - np.stack(want)).max() < 1e-12


def test_build_frame_makes_one_eigendecomposition(monkeypatch):
    # the one eigendecomposition is the closed form: no np.linalg call
    calls = {
        name: 0
        for name in np.linalg.__all__
        if callable(getattr(np.linalg, name)) and not inspect.isclass(getattr(np.linalg, name))
    }
    assert {"eigh", "eigvalsh", "inv", "eig", "solve"} <= set(calls)

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    ts = np.linspace(0.0, 0.7, 50)
    frame = build_frame(H_REF, ts, m0_scale=6.0)
    _, vecs, roots, hv, rate = dilation._eigenbasis(H_REF, ts, 6.0)
    assert not any(calls.values()), {name: n for name, n in calls.items() if n}
    # every product of the frame runs along the stack, in stack-last memory
    arrays = {"M": frame.M, "Gamma": frame.Gamma, "Lambda": frame.Lambda}
    arrays.update(vecs=vecs, roots=roots, hv=hv, rate=rate)
    for name, array in arrays.items():
        assert array.strides[0] == array.itemsize, name


@pytest.mark.parametrize(
    "k1, k2, m0_scale, span",
    [
        # the three dilate points of criterion 7 over its time span
        (0.0, 1.0, 12.0, 2.0),
        (0.3, 1.0, 12.0, 2.0),
        (0.0, 0.8, 12.0, 2.0),
        # the pulse paths of criterion 8 and the reference H of this file
        (0.0, 1.0, 1.3, 0.08),
        (0.0, 1.3, 1.5, 0.05),
        (0.3, 0.5, 2.0, 0.3),
        (0.3, 0.5, 6.0, 0.7),
    ],
)
def test_frame_matches_three_decomposition_reference(k1, k2, m0_scale, span):
    h = build_hamiltonian(ModelParams(k1, k2))
    ts = np.random.default_rng(7).uniform(0.0, span, 64)
    frame = build_frame(h, ts, m0_scale=m0_scale)
    eta, deta = _eta_and_rate(h, ts, m0_scale)
    got_all = {"eta": eta, "deta": deta, "Gamma": frame.Gamma, "Lambda": frame.Lambda}
    for name, ref in _reference_frame(h, ts, m0_scale).items():
        got = got_all[name]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_prepare_and_postselect_roundtrip():
    psi = np.array([0.2, -0.5j, 1.0])
    joint = prepare_initial(psi, 0.7)
    assert joint.shape == (6,)
    assert abs(np.linalg.norm(joint) - 1.0) < 1e-12
    recovered, prob = postselect(joint)
    phase = recovered[2] / abs(recovered[2])
    assert np.allclose(recovered / phase, psi / np.linalg.norm(psi), atol=1e-12)
    assert prob == pytest.approx(1.0 / (1.0 + 0.7**2))
    for eta0 in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eta0 must be finite and positive"):
            prepare_initial(psi, eta0)


def test_postselect_stack_matches_rows():
    rng = np.random.default_rng(5)
    joint = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
    states, probs = postselect(joint)
    assert states.shape == (7, 3) and probs.shape == (7,)
    for row, state, prob in zip(joint, states, probs):
        want_state, want_prob = postselect(row)
        assert np.abs(state - want_state).max() < 1e-15
        assert prob == pytest.approx(want_prob, rel=1e-15)


def test_postselect_no_minus_component():
    minus = np.array([1.0, -1j]) / np.sqrt(2.0)
    plus = np.array([-1j, 1.0]) / np.sqrt(2.0)
    psi = np.array([1.0, 0.0, 0.0])
    joint = np.concatenate([psi * plus[0], psi * plus[1]])
    with pytest.raises(NumericsError, match="post-selection"):
        postselect(joint)
    # sanity: the two ancilla vectors are orthogonal
    assert abs(np.vdot(minus, plus)) < 1e-15


def test_dilated_evolution_reproduces_nonhermitian_dynamics():
    h = build_hamiltonian(ModelParams(0.0, 1.3))  # complex spectrum
    psi0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    total = 1.0
    _, post, probs = dilated_evolve(psi0, h, total, m0_scale=24.0, steps=800)
    ref = expm(-1j * total * h) @ psi0
    ref = ref / np.linalg.norm(ref)
    got = post.states[-1]
    got = got * (np.vdot(got, ref) / abs(np.vdot(got, ref))).conjugate() ** -1
    infid = 1.0 - abs(np.vdot(ref, got)) ** 2
    assert infid < 1e-8
    assert probs[0] == pytest.approx(1.0 / 24.0, abs=1e-9)


def test_dilated_evolution_hermitian_h_constant_probability():
    # PT-unbroken real-spectrum point with Hermitian H: the metric is
    # static, so the post-selection probability never decays
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    psi0 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    _, _, probs = dilated_evolve(psi0, h, 2.0, m0_scale=1.3, steps=400)
    assert np.ptp(probs) < 1e-8


def test_dilated_evolve_propagates_two_blocks(monkeypatch):
    # the engine evolves Gamma and Lambda as two 3x3 blocks and never sees
    # the 6x6 Htot, which agrees with midpoint steps of Htot on scipy's expm
    h = build_hamiltonian(ModelParams(0.3, 1.0))
    psi0 = np.array([0.0, 1.0, 0.0])
    times = np.linspace(0.0, 2.0, 301)
    htot = build_frame(h, (times[:-1] + times[1:]) / 2.0, m0_scale=12.0).Htot
    want = [prepare_initial(psi0, np.sqrt(11.0))]
    for dt, hm in zip(np.diff(times), htot):
        want.append(scipy_expm(-1j * dt * hm) @ want[-1])

    def forbidden(*args):
        raise AssertionError("dilated_evolve assembled Htot")

    monkeypatch.setattr(dilation, "assemble_htot", forbidden)
    joint, _, _ = dilated_evolve(psi0, h, 2.0, m0_scale=12.0, steps=300)
    assert np.abs(joint.states - want).max() < 1e-13


def test_dilation_window_exceeded_reports_time():
    h = build_hamiltonian(ModelParams(0.0, 1.3))
    psi0 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NumericsError, match="model time 0.0375"):
        dilated_evolve(psi0, h, 5.0, m0_scale=1.05, steps=200)
    # the default dilate run at m0 = 1.3 leaves the window once, said once
    h = build_hamiltonian(ModelParams(0.0, 1.0))
    with pytest.raises(NumericsError) as exc:
        dilated_evolve(psi0, h, 2.0, m0_scale=1.3, steps=2000)
    assert str(exc.value) == "dilation window exceeded at model time 0.0935: M - I lost positivity"


def test_window_loss_is_reported_before_a_later_overflow():
    # PT-broken: M - I loses positivity at the first frame, and the metric
    # of the same stack overflows from model time 317.5 on
    h = build_hamiltonian(ModelParams(1.5, 1.5))
    t = np.linspace(2.5, 497.5, 100)
    with pytest.raises(NumericsError, match="^dilation metric overflows at model time 317.5: "):
        metric_M(h, t)
    with pytest.raises(NumericsError, match="^dilation window exceeded at model time 2.5: "):
        build_frame(h, t)
    # with the window kept up to the overflow, the overflow is reported
    with pytest.raises(NumericsError, match="^dilation metric overflows at model time 317.5: "):
        build_frame(h, t[63:])


def test_dilation_window_error_found_in_a_later_slice(monkeypatch):
    # one step per slice: the failing frame is in the second slice
    monkeypatch.setattr(numerics, "CHUNK_STEPS", 1)
    h = build_hamiltonian(ModelParams(0.0, 1.3))
    psi0 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NumericsError, match="model time 0.0375"):
        dilated_evolve(psi0, h, 5.0, m0_scale=1.05, steps=200)


def test_dilation_slices_carry_the_state(monkeypatch):
    # one slice (500 steps) against many short ones with a remainder
    h = build_hamiltonian(ModelParams(0.3, 1.0))
    psi0 = np.array([0.0, 1.0, 0.0])
    whole = dilated_evolve(psi0, h, 2.0, m0_scale=12.0, steps=500)
    monkeypatch.setattr(numerics, "CHUNK_STEPS", 37)
    sliced = dilated_evolve(psi0, h, 2.0, m0_scale=12.0, steps=500)
    assert np.array_equal(sliced[0].times, whole[0].times)
    for got, want in zip(
        (sliced[0].states, sliced[1].states, sliced[2]),
        (whole[0].states, whole[1].states, whole[2]),
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12
