import numpy as np
import pytest

from eplab.dilation import (
    JointState,
    assemble_htot,
    build_frame,
    dilated_evolve,
    eta_of_t,
    eta_rate,
    gamma_lambda,
    metric_M,
    postselect,
    prepare_initial,
)
from eplab.model import ModelParams, build_hamiltonian
from eplab.numerics import NumericsError, expm


H_REF = build_hamiltonian(ModelParams(0.3, 0.5))


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
    m = metric_M(H_REF, 0.0, m0_scale=1.3)
    eta0 = eta_of_t(m)
    assert np.allclose(eta0, np.sqrt(0.3) * np.eye(3), atol=1e-12)
    mt = metric_M(H_REF, 0.5, m0_scale=6.0)
    eta = eta_of_t(mt)
    assert np.allclose(eta @ eta, mt - np.eye(3), atol=1e-10)


def test_eta_positivity_window_violation():
    with pytest.raises(NumericsError, match="positivity"):
        eta_of_t(np.diag([2.0, 0.5, 2.0]))


def test_eta_rate_matches_finite_difference():
    t, dt = 0.3, 1e-6
    m = metric_M(H_REF, t, 6.0)
    eta = eta_of_t(m)
    rate = eta_rate(H_REF, m, eta)
    fd = (
        eta_of_t(metric_M(H_REF, t + dt, 6.0))
        - eta_of_t(metric_M(H_REF, t - dt, 6.0))
    ) / (2 * dt)
    assert np.abs(rate - fd).max() < 1e-5


def test_blocks_hermitian_and_assembled_block_diagonal():
    frame = build_frame(H_REF, 0.6, m0_scale=6.0, s=2.0)
    assert np.abs(frame.Gamma - frame.Gamma.conj().T).max() < 1e-10
    assert np.abs(frame.Lambda - frame.Lambda.conj().T).max() < 1e-10
    htot = frame.Htot
    assert np.allclose(htot[:3, :3], 2.0 * frame.Gamma)
    assert np.allclose(htot[3:, 3:], 2.0 * frame.Lambda)
    assert np.abs(htot[:3, 3:]).max() == 0.0
    assert np.abs(assemble_htot(frame.Gamma, frame.Lambda) - htot / 2.0).max() < 1e-12


def test_gamma_lambda_rejects_inconsistent_inputs():
    m = metric_M(H_REF, 0.4, 6.0)
    eta = eta_of_t(m)
    bad_rate = np.ones((3, 3))  # not the actual d(eta)/dt
    with pytest.raises(NumericsError, match="Hermiticity"):
        gamma_lambda(H_REF, m, eta, 1j * bad_rate + bad_rate @ m)
    # a stack of consistent frames with one bad frame in the middle
    frames = build_frame(H_REF, np.array([0.2, 0.4, 0.6]), m0_scale=6.0)
    deta = eta_rate(H_REF, frames.M, frames.eta)
    gamma_lambda(H_REF, frames.M, frames.eta, deta)
    deta[1] = 1j * bad_rate + bad_rate @ frames.M[1]
    with pytest.raises(NumericsError, match="Hermiticity in frame 1"):
        gamma_lambda(H_REF, frames.M, frames.eta, deta)


@pytest.mark.parametrize(
    "h, m0_scale, ts",
    [
        (H_REF, 6.0, np.linspace(0.0, 0.7, 8)),
        (build_hamiltonian(ModelParams(0.0, 1.0)), 12.0, np.linspace(0.0, 2.0, 9)),
    ],
)
def test_frame_over_times_matches_scalar_frames(h, m0_scale, ts):
    stacked = build_frame(h, ts, m0_scale=m0_scale, s=2.0)
    singles = [build_frame(h, t, m0_scale=m0_scale, s=2.0) for t in ts]
    for name in ("M", "eta", "Gamma", "Lambda", "Htot"):
        want = np.stack([getattr(f, name) for f in singles])
        assert getattr(stacked, name).shape == want.shape
        assert np.abs(getattr(stacked, name) - want).max() < 1e-12, name


def test_prepare_and_postselect_roundtrip():
    psi = np.array([0.2, -0.5j, 1.0])
    joint = prepare_initial(psi, 0.7)
    assert isinstance(joint, JointState)
    assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12
    recovered, prob = postselect(joint.amplitudes)
    phase = recovered[2] / abs(recovered[2])
    assert np.allclose(recovered / phase, psi / np.linalg.norm(psi), atol=1e-12)
    assert prob == pytest.approx(1.0 / (1.0 + 0.7**2))
    with pytest.raises(ValueError):
        prepare_initial(psi, 0.0)


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


def test_dilation_window_exceeded_reports_time():
    h = build_hamiltonian(ModelParams(0.0, 1.3))
    psi0 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NumericsError, match="model time 0.0375"):
        dilated_evolve(psi0, h, 5.0, m0_scale=1.05, steps=200)
