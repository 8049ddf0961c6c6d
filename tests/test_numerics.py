import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from eplab import numerics
from eplab.dilation import metric_M
from eplab.model import ModelParams, build_hamiltonian
from eplab.numerics import (
    NumericsError,
    Spectrum,
    Trajectory,
    eig,
    expm,
    ordered_product,
    prefix_states,
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
    for k in range(3):
        v = sp.right_vectors[:, k]
        assert np.linalg.norm(m @ v - sp.eigenvalues[k] * v) < 1e-12


def test_eig_stack_matches_single_calls():
    rng = np.random.default_rng(3)
    ms = rng.normal(size=(2, 5, 4, 4)) + 1j * rng.normal(size=(2, 5, 4, 4))
    sp = eig(ms)
    assert sp.eigenvalues.shape == (2, 5, 4)
    assert sp.right_vectors.shape == (2, 5, 4, 4)
    for i in range(2):
        for j in range(5):
            one = eig(ms[i, j])
            assert np.array_equal(sp.eigenvalues[i, j], one.eigenvalues)
            assert np.array_equal(sp.right_vectors[i, j], one.right_vectors)


def test_eig_names_the_failing_frame(monkeypatch):
    # LAPACK is backward stable, so a bad residual is simulated: frame 1's
    # eigenvalues are shifted by 1e-8 of the matrix scale, frames 0 and 2 kept
    lapack_eig = np.linalg.eig

    def shifted(m):
        vals, vecs = lapack_eig(m)
        vals[1] += 1e-8
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", shifted)
    stack = np.stack([np.diag([1.0, 2.0, 3.0])] * 3)
    with pytest.raises(NumericsError, match="in frame 1 for"):
        eig(stack)
    stack[1] *= 1e12  # the same shift is within 1e-10 of a 1e12-scale frame
    assert eig(stack).eigenvalues.shape == (3, 3)


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


def _hermitian(rng, n):
    x = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _eigh3_stacks():
    """Named Hermitian stacks (N, 3, 3): the M - I frames of `dilate` at the
    criterion-7 points and of `pulses` at the criterion-8 cases, random
    stacks, near-double and double eigenvalues, near-scalar matrices and
    both ends of the float range."""
    rng = np.random.default_rng(28)
    unitaries = np.linalg.qr(_hermitian(rng, 200))[0]
    stacks = {"random": _hermitian(rng, 500), "random real": _hermitian(rng, 500).real}
    for gap in (1e-4, 1e-8, 1e-12, 0.0):
        for far in (3.0, -3.0):  # the isolated eigenvalue above or below the pair
            spectrum = np.array([1.0, 1.0 + gap, 1.0 + far])
            stacks[f"gap {gap:g}, far {far:g}"] = (
                unitaries * spectrum
            ) @ unitaries.conj().swapaxes(-1, -2)
    stacks["7 I + 1e-15 X"] = 7.0 * np.eye(3) + 1e-15 * _hermitian(rng, 200)
    for tiny in (1e-160, 1e-170, 1e-310):  # squares of B under- or not representable
        stacks[f"I + {tiny:g} X"] = np.eye(3) + tiny * _hermitian(rng, 200)
    stacks["1e300 X"] = 1e300 * _hermitian(rng, 200)
    stacks["6e307 (I + X / 10)"] = 6e307 * (np.eye(3) + 0.1 * _hermitian(rng, 200))  # tr A overflows
    stacks["subnormal"] = 1e-310 * _hermitian(rng, 200)
    for k1, k2, m0_scale, span, samples in (
        (0.0, 1.0, 12.0, 2.0, 2000),
        (0.3, 1.0, 12.0, 2.0, 2000),
        (0.0, 0.8, 12.0, 2.0, 2000),
        (0.0, 1.0, 1.3, 0.08, 151),
        (0.0, 1.3, 1.5, 0.05, 151),
        (0.3, 0.5, 2.0, 0.3, 151),
    ):
        h = build_hamiltonian(ModelParams(k1, k2))
        m = metric_M(h, np.linspace(0.0, span, samples), m0_scale)
        stacks[f"M - I at ({k1}, {k2}), m0 {m0_scale}"] = m - np.eye(3)
    return stacks


EIGH3_STACKS = _eigh3_stacks()


@pytest.mark.parametrize("name", list(EIGH3_STACKS))
def test_eigh3_closed_form_matches_lapack(name):
    a = EIGH3_STACKS[name]
    vals, vecs = numerics._eigh3_closed_form(np.moveaxis(a, 0, -1))
    vals, vecs = vals.T, np.moveaxis(vecs, -1, 0)
    # checked at a largest |entry| in [1/2, 1), rescaled by an exact power of
    # two; a subnormal eigenvalue carries up to half a unit of the subnormal
    # grid, which the rescaling turns into `floor`
    shift = -np.frexp(np.abs(a).max(axis=(-2, -1)))[1]
    a = np.ldexp(a.real, shift[:, None, None]) + 1j * np.ldexp(a.imag, shift[:, None, None])
    vals = np.ldexp(vals, shift[:, None])
    floor = 2.0 * np.ldexp(np.finfo(float).smallest_subnormal, shift)
    back = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.all(np.abs(back - a).max(axis=(-2, -1)) <= 1e-14 + floor)
    assert np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(3)).max() <= 1e-14
    assert np.all(np.diff(vals, axis=-1) >= 0.0)
    assert np.all(np.abs(vals - np.linalg.eigvalsh(a)).max(axis=-1) <= 1e-14 + floor)


def test_eigh3_closed_form_scalar_and_nonfinite_inputs():
    # an exact scalar or zero matrix gives V = I and its own eigenvalues
    stack = np.stack([np.zeros((3, 3)), -2.5 * np.eye(3), 1e-310 * np.eye(3)], axis=-1)
    vals, vecs = numerics._eigh3_closed_form(stack)
    assert np.array_equal(vals, np.diagonal(stack).T)
    assert np.array_equal(vecs, np.broadcast_to(np.eye(3)[..., None], (3, 3, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        stack = np.zeros((3, 3, 4), dtype=complex)
        stack[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            numerics._eigh3_closed_form(stack)


def _traceless_norms(stack):
    """||G_j||_inf of the traceless part G_j of each 3x3 matrix of a stack."""
    g = stack - np.trace(stack, axis1=-2, axis2=-1)[:, None, None] / 3.0 * np.eye(3)
    return np.abs(g).sum(axis=-1).max(axis=-1)


def test_expm_matches_scipy():
    # n = 3 takes the closed form, n = 2 the leading block of its
    # 3x3 stack padded with its mean eigenvalue, and n > 3 is refused
    rng = np.random.default_rng(1)
    for n in (3, 2):
        for _ in range(10):
            m = _random_complex(rng, n)
            assert np.allclose(expm(m), scipy_expm(m), atol=1e-10)
        # a stack (k, n, n) shares one scaling; each matrix still matches
        stack = np.stack([_random_complex(rng, n) * 2.0**-j for j in range(6)])
        want = np.stack([scipy_expm(m) for m in stack])
        assert np.allclose(expm(stack), want, atol=1e-10)
    # a 2x2 with a large real spread from 0: padding with 0 in place of the
    # mean eigenvalue would overflow at exp(+733) inside the squarings
    for m in ([[-1100.0, 0.0], [0.0, -1100.0]], [[-700.0, 3.0], [2.0, -650.0]], [[-1100.0]]):
        want = scipy_expm(np.array(m))
        assert np.allclose(expm(np.array(m)), want, rtol=1e-10, atol=0.0)
    with pytest.raises(ValueError, match="n <= 3, got 6x6"):
        expm(_random_complex(rng, 6))
    # 3x3 stacks whose traceless parts' largest inf-norm takes 0 to 6
    # squarings: the series and the squarings run on the broadcast 3x3 products
    for squarings, norm in enumerate((0.4, 0.9, 1.5, 3.0, 6.0, 12.0, 24.0)):
        stack = np.stack([_random_complex(rng, 3) for _ in range(5)])
        stack *= (norm * 2.0 ** -np.arange(5) / _traceless_norms(stack))[:, None, None]
        assert numerics._squarings(_traceless_norms(stack).max()) == squarings
        for got, m in zip(expm(stack), stack):
            want = scipy_expm(m)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_expm_defective_matrix():
    m = np.array([[3.0, 1.0], [0.0, 3.0]])  # Jordan block
    want = np.exp(3.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(expm(m), want, atol=1e-10)


# stack lengths: trivial, powers of two, and odd lengths at several levels
# of the pairwise tree, whose last matrix is carried up a level unpaired
SCAN_SIZES = [(n_steps, dim) for n_steps in (1, 2, 3, 13, 256, 257, 1000) for dim in (2, 3, 6)]


def _unitary_steps(rng, n_steps, dim):
    def herm():
        a = _random_complex(rng, dim)
        return a + a.conj().T

    return np.stack([scipy_expm(-0.05j * herm()) for _ in range(n_steps)])


def _loop_states(props, psi0):
    """States after each step, one matrix-vector product at a time."""
    states = [psi0]
    for u in props:
        states.append(u @ states[-1])
    return np.array(states)


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
        assert states.shape == (n_steps + 1, dim)
        assert np.abs(states - _loop_states(props, psi0)).max() < 1e-12, (n_steps, dim)
    assert np.array_equal(prefix_states(np.zeros((0, 3, 3)), np.ones(3)), np.ones((1, 3)))


def test_tree_modes_end_on_the_same_bits():
    # trajectory mode ends on the product-mode expression, and the tree
    # gives the same bits on a C-ordered stack and on the stack-last
    # (3, 3, N) memory of the closed form
    rng = np.random.default_rng(10)
    for n_steps, dim in SCAN_SIZES:
        props = _unitary_steps(rng, n_steps, dim)
        psi0 = _random_complex(rng, dim)[:, 0]
        states = prefix_states(props, psi0)
        top = ordered_product(props)
        assert np.array_equal(states[-1], top @ psi0), (n_steps, dim)
        if dim == 3:
            stack_last = np.moveaxis(np.empty((3, 3, n_steps), dtype=complex), -1, 0)
            stack_last[...] = props
            assert np.array_equal(prefix_states(stack_last, psi0), states), n_steps
            assert np.array_equal(ordered_product(stack_last), top), n_steps


def _hermitian_steps(rng, n_steps, dim):
    """Propagators of random Hermitian H_j over dt = 0.05: step_propagators
    for dims 2 and 3, which it takes, and scipy's expm for dim 6."""
    a = rng.normal(size=(n_steps, dim, dim)) + 1j * rng.normal(size=(n_steps, dim, dim))
    h = a + np.conj(np.swapaxes(a, -1, -2))
    if dim > 3:
        return scipy_expm(-0.05j * h)
    return step_propagators(h, np.full(n_steps, 0.05))


def test_tree_matches_loop_beyond_a_slice():
    # a slice's worth of steps and three more: 2^12 + 3 steps have 13 tree
    # levels above them, with an odd last matrix carried up from 11 of them
    rng = np.random.default_rng(11)
    for dim in (2, 3, 6):
        props = _hermitian_steps(rng, numerics.CHUNK_STEPS + 3, dim)
        psi0 = _random_complex(rng, dim)[:, 0]
        ref = _loop_states(props, psi0)
        states = prefix_states(props, psi0)
        assert np.abs(states - ref).max() < 1e-12, dim
        assert np.abs(ordered_product(props) @ psi0 - ref[-1]).max() < 1e-12, dim


@given(st.integers(1, 3000), st.sampled_from([2, 3, 6]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tree_modes_property(n_steps, dim, seed):
    rng = np.random.default_rng(seed)
    props = _hermitian_steps(rng, n_steps, dim)
    psi0 = _random_complex(rng, dim)[:, 0]
    states = prefix_states(props, psi0)
    assert np.array_equal(states[-1], ordered_product(props) @ psi0)
    assert np.abs(states - _loop_states(props, psi0)).max() < 1e-12


def test_step_propagators_accuracy():
    rng = np.random.default_rng(4)
    hs = np.stack([_random_complex(rng, 3) for _ in range(5)])
    dts = np.full(5, 0.01)
    props = step_propagators(hs, dts)
    for h, u in zip(hs, props):
        assert np.allclose(u, scipy_expm(-0.01j * h), atol=1e-12)


def test_step_propagators_across_scaling_regimes():
    # theta = max inf-norm of dt*G over the batch, G the traceless part of
    # H: zero, either side of the 1/2 where scaling-and-squaring starts, and
    # many squarings
    rng = np.random.default_rng(5)
    for theta in (0.0, 0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 16.0):
        hs = np.stack([_random_complex(rng, 3) for _ in range(4)])
        hs = hs + np.conj(np.swapaxes(hs, -1, -2))
        dts = np.full(4, theta / max(_traceless_norms(hs).max(), 1e-300))
        props = step_propagators(hs, dts)
        for h, dt, u in zip(hs, dts, props):
            assert np.abs(u - scipy_expm(-1j * dt * h)).max() < 1e-14, theta
    assert step_propagators(np.zeros((0, 3, 3)), np.zeros(0)).shape == (0, 3, 3)


def test_closed_form_rows_keep_their_bits_whatever_later_passes_hold():
    # each pass of rows takes one norm of its own, so a full first pass at
    # scale 0.1 ends on the same bits with or without a later pass at scale 16
    rng = np.random.default_rng(9)
    rows = numerics._CLOSED_FORM_PASS_ROWS
    first = rng.normal(size=(rows, 3, 3)) + 1j * rng.normal(size=(rows, 3, 3))
    later = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
    first *= 0.1 / _traceless_norms(first).max()
    later *= 16.0 / _traceless_norms(later).max()
    assert np.array_equal(expm(np.concatenate([first, later]))[:rows], expm(first))


def _counting(fn, calls):
    """fn, recording the stack length of each call in `calls`."""
    def wrapped(h, z, *args):
        calls.append(z.size)
        return fn(h, z, *args)
    return wrapped


def _closed_form_error(monkeypatch, hs, dts, relative=False):
    """Largest entry difference between step_propagators, which must take
    the closed form, and scipy's expm on the same exponents; with
    `relative`, each matrix's difference over its own largest entry."""
    want = scipy_expm(-1j * dts[:, None, None] * np.asarray(hs, dtype=complex))
    calls = []
    with monkeypatch.context() as m:
        m.setattr(numerics, "_expm3_closed_form", _counting(numerics._expm3_closed_form, calls))
        got = step_propagators(hs, dts)
    assert len(calls) == 1, "the closed form was not taken"
    diff = np.abs(got - want).max(axis=(-2, -1))
    if relative:
        diff /= np.abs(want).max(axis=(-2, -1))
    return diff.max()


def test_closed_form_matches_scipy_expm(monkeypatch):
    # model Hamiltonians at the conical points (0, +-1), on the exceptional
    # line (0, sqrt(17/8)) and in the complex-pair region beyond it, at the
    # old and new geophase and modeswitch steps, at dt = 1e-9 and at dt 0.35,
    # where theta at (0, 1.6) is 1.96
    k1, k2 = np.zeros(4), np.array([1.0, -1.0, math.sqrt(17 / 8), 1.6])
    model = build_hamiltonian(ModelParams(k1, k2))
    for dt in (0.025, 0.1, 0.2, 0.35, 1e-9):
        assert _closed_form_error(monkeypatch, model, np.full(4, dt)) < 1e-14, dt
    # theta = max ||dt G||_inf, G the traceless part of H, the norm the
    # kernel takes its squarings from: small, either side of the 1/2 where
    # one squaring starts and of the 1 where the second starts, and up to 2;
    # per-row dt, real and complex stacks. From 4 up (three squarings and
    # more) the entries of a non-unitary exponential span many orders, so
    # each matrix is held to its own largest entry, to 1e-15 2^s for s
    # squarings: the rounding of the squarings grows about as 2^s (measured
    # 1.3e-15 at s = 3 to 7.9e-14 at s = 8, the complex stack the largest)
    rng = np.random.default_rng(6)
    stacks = [
        model,
        rng.normal(size=(64, 3, 3)),
        rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3)),
    ]
    for hs in stacks:
        spread = rng.uniform(0.5, 1.0, len(hs))
        norms = _traceless_norms(hs) * spread

        def squarings(theta):
            dts = spread * theta / norms.max()
            return numerics._squarings(float((dts * _traceless_norms(hs)).max()))

        for below, above, s in ((0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 0),
                                (1.0 - 1e-12, 1.0 + 1e-9, 1),
                                (16.0 - 1e-12, 16.0 * (1 + 1e-9), 5)):
            assert (squarings(below), squarings(above)) == (s, s + 1), (hs.dtype, below)
        for theta in (1e-3, 0.3, 0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 1.0 - 1e-12,
                      1.0 + 1e-9, 1.2, 1.5, 1.8, 2.0 - 1e-12):
            dts = spread * theta / norms.max()
            assert _closed_form_error(monkeypatch, hs, dts) < 1e-14, (hs.dtype, theta)
        for theta in (4.0, 8.0, 12.0, 16.0 - 1e-12, 16.0 * (1 + 1e-9), 32.0, 64.0, 128.0):
            dts = spread * theta / norms.max()
            err = _closed_form_error(monkeypatch, hs, dts, relative=True)
            assert err < 1e-15 * 2.0 ** squarings(theta), (hs.dtype, theta)


def test_step_propagators_dispatch(monkeypatch):
    # every 3x3 stack takes the closed form, from step_propagators and
    # from expm, either side of theta 16 and at theta 100; a 2x2 stack
    # takes it padded to 3x3, and n > 3 is refused before any exponential
    closed = []
    monkeypatch.setattr(numerics, "_expm3_closed_form", _counting(numerics._expm3_closed_form, closed))
    rng = np.random.default_rng(7)
    h3 = rng.normal(size=(5, 3, 3))
    norm = np.abs(h3).sum(axis=-1).max()
    for theta in (16.0 * (1.0 - 1e-9), 16.0 * (1.0 + 1e-9), 100.0):
        dt = theta / norm
        for got in (step_propagators(h3, np.full(5, dt)), expm(-1j * dt * h3)):
            for h, u in zip(h3, got):
                want = scipy_expm(-1j * dt * h)
                assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max(), theta
    assert closed == [5] * 6
    h2 = rng.normal(size=(5, 2, 2))
    for h, u in zip(h2, step_propagators(h2, np.full(5, 0.01))):
        assert np.abs(u - scipy_expm(-0.01j * h)).max() < 1e-14
    assert closed == [5] * 7
    with pytest.raises(ValueError, match="n <= 3, got 6x6"):
        step_propagators(rng.normal(size=(5, 6, 6)), np.full(5, 0.01))
    assert closed == [5] * 7


def test_three_by_three_products_match_matmul():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(257, 3, 3)) + 1j * rng.normal(size=(257, 3, 3))
    b = rng.normal(size=(257, 3, 3)) + 1j * rng.normal(size=(257, 3, 3))
    assert np.abs(numerics._matmul(a, b) - np.matmul(a, b)).max() < 1e-14
    assert np.abs(numerics._matmul(a.real, b) - np.matmul(a.real, b)).max() < 1e-14
    blocks = a[:256].reshape(16, 16, 3, 3)
    got = numerics._matmul(blocks[:, 3], blocks[:, 2])
    assert np.abs(got - np.matmul(blocks[:, 3], blocks[:, 2])).max() < 1e-14


def test_propagate_ordered_constant_hamiltonian():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    times = np.linspace(0.0, 1.0, 101)
    for rule in ("midpoint", "cf4"):
        [(start, t, states)] = propagate_ordered(
            lambda t: np.broadcast_to(h, (np.atleast_1d(t).size, 3, 3)),
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
            times,
            rule=rule,
        )
        assert start == 0 and np.array_equal(t, times)
        want = np.exp(-1j * np.diag(h)) / np.sqrt(3.0)
        assert np.allclose(states[-1], want, atol=1e-10), rule
        assert np.allclose(np.linalg.norm(states, axis=-1), 1.0, atol=1e-12), rule


def test_propagate_ordered_block_batch(monkeypatch):
    # two independent 3x3 blocks over three slices, one with sixteen times
    # the other's norm, so that its steps take three squarings to the
    # other's none: the batch gives the bits of each block propagated
    # alone, in both modes and by both rules, and agrees with the 6x6
    # block-diagonal Hamiltonian through the same engine with scipy's expm
    # for every exponential
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    a = (a + np.conj(np.swapaxes(a, -1, -2))) * np.array([1.0, 16.0])[:, None, None]

    def blocks(t):  # (len(t), 2, 3, 3)
        return a[0] + np.cos(t)[:, None, None, None] * a[1]

    def block_diagonal(t):
        h = np.zeros((t.size, 6, 6), dtype=complex)
        h[:, :3, :3], h[:, 3:, 3:] = blocks(t)[:, 0], blocks(t)[:, 1]
        return h

    psi0 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    times = np.linspace(0.0, 3.0, 301)
    monkeypatch.setattr(numerics, "CHUNK_STEPS", 128)

    def run(h_of_t, psi, trajectory, rule):
        return np.concatenate([
            piece[1:] if start and trajectory else piece
            for start, _, piece in propagate_ordered(
                h_of_t, psi, times, trajectory=trajectory, rule=rule
            )
        ])

    for rule in ("midpoint", "cf4"):
        for trajectory in (True, False):
            batch = run(blocks, psi0, trajectory, rule)
            assert batch.shape == ((301 if trajectory else 3), 2, 3)
            for b in range(2):
                alone = run(lambda t: blocks(t)[:, b], psi0[b], trajectory, rule)
                assert np.array_equal(batch[:, b], alone), (rule, trajectory, b)
            with monkeypatch.context() as m:
                m.setattr(numerics, "_exp_stack", lambda h, z: scipy_expm(z[:, None, None] * h))
                full = run(block_diagonal, psi0.reshape(6), trajectory, rule)
            assert np.abs(batch.reshape(len(batch), 6) - full).max() < 1e-13, (rule, trajectory)


def test_propagate_ordered_evaluates_nodes_only_for_step_tol(monkeypatch):
    # H is sampled at the step midpoints only, in one call per slice
    calls = []

    def h_of_t(t):
        calls.append(t.copy())
        return np.broadcast_to(np.diag([1.0, 2.0]), (*np.shape(t), 2, 2))

    times = np.linspace(0.0, 1.0, 11)
    mids = (times[:-1] + times[1:]) / 2.0
    list(propagate_ordered(h_of_t, np.array([1.0, 0.0]), times))
    assert len(calls) == 1 and np.array_equal(calls[0], mids)
    calls.clear()
    monkeypatch.setattr(numerics, "CHUNK_STEPS", 4)
    slices = list(propagate_ordered(h_of_t, np.array([1.0, 0.0]), times, trajectory=False))
    assert [start for start, _, _ in slices] == [0, 4, 8]
    assert [c.size for c in calls] == [4, 4, 2]
    assert np.array_equal(np.concatenate(calls), mids)
    assert all(states.shape == (1, 2) for _, _, states in slices)
    # "cf4" samples the two Gauss nodes of every step of a slice in one call
    calls.clear()
    slices = list(propagate_ordered(h_of_t, np.array([1.0, 0.0]), times, rule="cf4"))
    assert [c.size for c in calls] == [8, 8, 4]
    nodes = [numerics.gauss_nodes(times[lo : lo + 5]).reshape(-1) for lo in (0, 4, 8)]
    assert all(np.array_equal(c, want) for c, want in zip(calls, nodes))
    assert np.allclose(nodes[0][:4] - times[:4], (0.5 - math.sqrt(3) / 6) * 0.1)
    with pytest.raises(ValueError, match="unknown step rule"):
        next(propagate_ordered(h_of_t, np.array([1.0, 0.0]), times, rule="euler"))


def test_propagate_ordered_stops_at_the_overflowing_slice(monkeypatch):
    # H = diag(i, 0) amplifies the first component as e^t: past the 1e100
    # ceiling in the slice over [200, 300], and to inf within one slice
    # over [0, 1000]; neither leaks a RuntimeWarning
    h = np.diag([1j, 0.0])

    def h_of_t(t):
        return np.broadcast_to(h, (t.size, 2, 2))

    def run(t_end, trajectory):
        times = np.linspace(0.0, t_end, int(t_end) + 1)
        return list(propagate_ordered(h_of_t, np.array([1.0, 0.0]), times, trajectory=trajectory))

    for trajectory in (True, False):
        with monkeypatch.context() as m:
            m.setattr(numerics, "CHUNK_STEPS", 100)
            with pytest.raises(NumericsError, match=r"1\.9\d\de\+130 over t in \[200, 300\]"):
                run(400.0, trajectory)
        with pytest.raises(NumericsError, match=r"(nan|inf) over t in \[0, 1000\] is not finite"):
            run(1000.0, trajectory)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)))
    tr = Trajectory(times=np.array([0.0, 1.0]), states=np.eye(2, 3))
    assert np.allclose(tr.norms, 1.0)
    with pytest.raises(TypeError):  # the norms are always computed
        Trajectory(times=np.array([0.0, 1.0]), states=np.eye(2, 3), norms=np.ones(2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    m = _random_complex(rng, 3)
    m = m / max(np.abs(m).max(), 1.0)
    assert np.allclose(expm(m) @ expm(-m), np.eye(3), atol=1e-10)
