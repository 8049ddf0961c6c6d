import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from eplab.numerics import (
    NumericsError,
    Spectrum,
    Trajectory,
    eig,
    expm,
    ordered_product,
    prefix_states,
    propagate_const,
    propagate_ordered,
    psd_sqrt,
    step_propagators,
)


def _random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_eig_ordering_and_residual():
    m = np.diag([1.0, 3.0, 2.0])
    sp = eig(m)
    assert np.allclose(sp.eigenvalues, [3.0, 2.0, 1.0])
    assert sp.ordering_tag == "local"
    for k in range(3):
        v = sp.right_vectors[:, k]
        assert np.linalg.norm(m @ v - sp.eigenvalues[k] * v) < 1e-12


def test_eig_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        eig(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig(np.ones((2, 3)))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(0)
    a = _random_complex(rng, 4)
    m = a @ a.conj().T
    r = psd_sqrt(m)
    assert np.allclose(r @ r, m, atol=1e-10)
    assert np.abs(r - r.conj().T).max() < 1e-12


def test_psd_sqrt_metric_violation():
    with pytest.raises(NumericsError, match="metric violation"):
        psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(NumericsError, match="not Hermitian"):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # each matrix of a stack is held to its own scale: a large one next
    # to it must not hide the defect of a small one
    stack = np.array([1e12 * np.eye(2), [[1.0, 1e-3], [0.0, 1.0]], np.eye(2)])
    with pytest.raises(NumericsError, match="not Hermitian in frame 1"):
        psd_sqrt(stack)
    stack[1] = np.diag([1.0, -0.5])
    with pytest.raises(NumericsError, match="metric violation in frame 1"):
        psd_sqrt(stack)


def test_expm_matches_scipy():
    rng = np.random.default_rng(1)
    for n in (3, 2, 6):
        for _ in range(10):
            m = _random_complex(rng, n)
            assert np.allclose(expm(m), scipy_expm(m), atol=1e-10)
        # a stack (k, n, n) shares one scaling; each matrix still matches
        stack = np.stack([_random_complex(rng, n) * 2.0**-j for j in range(6)])
        want = np.stack([scipy_expm(m) for m in stack])
        assert np.allclose(expm(stack), want, atol=1e-10)


def test_expm_defective_matrix():
    m = np.array([[3.0, 1.0], [0.0, 3.0]])  # Jordan block
    want = np.exp(3.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(expm(m), want, atol=1e-10)


def test_propagate_const_overflow_guard():
    h = np.diag([100.0j * 1j, 0.0])  # large negative real -> huge Im(E)
    with pytest.raises(NumericsError, match="overflow"):
        propagate_const(1j * 1e4 * np.eye(2), np.array([1.0, 0.0]), 1.0)


# batch sizes: trivial, a square, non-squares, and a remainder block
SCAN_SIZES = [(n_steps, dim) for n_steps in (1, 2, 3, 13, 256, 257, 1000) for dim in (2, 3, 6)]


def _unitary_steps(rng, n_steps, dim):
    def herm():
        a = _random_complex(rng, dim)
        return a + a.conj().T

    return np.stack([scipy_expm(-0.05j * herm()) for _ in range(n_steps)])


def test_ordered_product_matches_loop():
    rng = np.random.default_rng(2)
    for n_steps, dim in SCAN_SIZES:
        props = _unitary_steps(rng, n_steps, dim)
        ref = np.eye(dim, dtype=complex)
        for u in props:
            ref = u @ ref
        assert np.abs(ordered_product(props) - ref).max() < 1e-12, (n_steps, dim)


def test_prefix_states_matches_loop():
    rng = np.random.default_rng(3)
    for n_steps, dim in SCAN_SIZES:
        props = _unitary_steps(rng, n_steps, dim)
        psi0 = _random_complex(rng, dim)[:, 0]
        states = prefix_states(props, psi0)
        ref = [psi0]
        for u in props:
            ref.append(u @ ref[-1])
        assert states.shape == (n_steps + 1, dim)
        assert np.abs(states - np.array(ref)).max() < 1e-12, (n_steps, dim)
    assert np.array_equal(prefix_states(np.zeros((0, 3, 3)), np.ones(3)), np.ones((1, 3)))


def test_step_propagators_accuracy():
    rng = np.random.default_rng(4)
    hs = np.stack([_random_complex(rng, 3) for _ in range(5)])
    dts = np.full(5, 0.01)
    props = step_propagators(hs, dts)
    for h, u in zip(hs, props):
        assert np.allclose(u, scipy_expm(-0.01j * h), atol=1e-12)


def test_step_propagators_across_scaling_regimes():
    # theta = max inf-norm of dt*H over the batch: zero, either side of the
    # 1/2 where scaling-and-squaring starts, and many squarings
    rng = np.random.default_rng(5)
    for theta in (0.0, 0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 16.0):
        hs = np.stack([_random_complex(rng, 3) for _ in range(4)])
        hs = hs + np.conj(np.swapaxes(hs, -1, -2))
        dts = np.full(4, theta / max(np.abs(hs).sum(axis=-1).max(), 1e-300))
        props = step_propagators(hs, dts)
        for h, dt, u in zip(hs, dts, props):
            assert np.abs(u - scipy_expm(-1j * dt * h)).max() < 1e-14, theta
    assert step_propagators(np.zeros((0, 3, 3)), np.zeros(0)).shape == (0, 3, 3)


def test_propagate_ordered_constant_hamiltonian():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    times = np.linspace(0.0, 1.0, 101)
    traj = propagate_ordered(
        lambda t: np.broadcast_to(h, (np.atleast_1d(t).size, 3, 3)),
        np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
        times,
    )
    want = np.exp(-1j * np.diag(h)) / np.sqrt(3.0)
    assert np.allclose(traj.states[-1], want, atol=1e-10)
    assert np.allclose(traj.norms, 1.0, atol=1e-12)


def test_propagate_ordered_step_tolerance():
    def h_of_t(t):
        t = np.atleast_1d(t)
        h = np.zeros((t.size, 2, 2), dtype=complex)
        h[:, 0, 0] = 100.0 * t
        return h

    with pytest.raises(NumericsError, match="step-size tolerance"):
        propagate_ordered(
            h_of_t, np.array([1.0, 0.0]), np.linspace(0, 1, 5), step_tol=1e-3
        )


def test_propagate_ordered_evaluates_nodes_only_for_step_tol():
    calls = []

    def h_of_t(t):
        calls.append(np.shape(t))
        return np.broadcast_to(np.diag([1.0, 2.0]), (*np.shape(t), 2, 2))

    times = np.linspace(0.0, 1.0, 11)
    propagate_ordered(h_of_t, np.array([1.0, 0.0]), times)
    assert calls == [(10,)]
    calls.clear()
    propagate_ordered(h_of_t, np.array([1.0, 0.0]), times, step_tol=1.0)
    assert calls == [(11,), (10,)]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)))
    tr = Trajectory(times=np.array([0.0, 1.0]), states=np.eye(2, 3))
    assert np.allclose(tr.norms, 1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, 3)
    m = m / max(np.abs(m).max(), 1.0)
    assert np.allclose(expm(m) @ expm(-m), np.eye(3), atol=1e-10)
