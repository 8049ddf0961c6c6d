import numpy as np
import pytest

from eplab import readout
from eplab.model import (
    ModelParams,
    _eigenvector_polynomial,
    _eigenvectors,
    build_hamiltonian,
    spectrum,
)
from eplab.numerics import NumericsError
from eplab.readout import (
    DEFAULT_SETTINGS,
    TOMOGRAPHY_SETTINGS,
    GFunction,
    MeasurementSetting,
    TomographyRecord,
    fidelity,
    mle_reconstruct,
    population_ratios,
    ratios_from_energies,
    rotation_u,
    rotation_v,
    setting_unitary,
    simulate_counts,
    solve_eigenvalues,
    steady_state_eigenstate,
)


def test_g_function_forms():
    h = build_hamiltonian(ModelParams(0.2, 0.3))
    assert np.allclose(GFunction("i_h").apply(h), 1j * h)
    assert np.allclose(GFunction("minus_i_h").apply(h), -1j * h)
    inv = GFunction("inverse_shifted", c=-0.5).apply(h)
    assert np.allclose(inv @ (h + 0.5 * np.eye(3)), 1j * np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        GFunction("bogus")


def test_g_function_shift_near_eigenvalue():
    h = build_hamiltonian(ModelParams(0.0, 1.0))  # eigenvalues {3, 3, 0}
    with pytest.raises(ValueError, match="eigenvalue"):
        GFunction("inverse_shifted", c=0.0).apply(h)


def test_rotations_unitary_and_composed():
    u = rotation_u(0.7, 1.1)
    v = rotation_v(0.4, -0.3)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)
    s = MeasurementSetting(0.7, 1.1, 0.4, -0.3)
    assert np.allclose(setting_unitary(s), u @ v, atol=1e-12)
    with pytest.raises(ValueError):
        MeasurementSetting(np.nan, 0.0, 0.0, 0.0)


def test_steady_state_selects_dominant_mode():
    p = ModelParams(0.3, 1.0)
    res = steady_state_eigenstate(p, GFunction("i_h"))
    assert res.converged and res.residual < 1e-8
    assert res.eigenvalue.real == pytest.approx(3.6, abs=1e-7)
    lo = steady_state_eigenstate(p, GFunction("minus_i_h"))
    assert lo.eigenvalue.real == pytest.approx(0.0, abs=1e-7)


def test_steady_state_inverse_shift_targets_middle_branch():
    res = steady_state_eigenstate(
        ModelParams(0.0, 1.0), GFunction("inverse_shifted", c=-0.1)
    )
    assert res.converged
    want = _eigenvectors(np.array([0.0]), 0.0, 1.0)[:, 0]
    overlap = abs(np.vdot(want, res.state))
    assert overlap == pytest.approx(1.0, abs=1e-7)


def test_steady_state_defective_pair_reports_unresolved():
    # at the conical point the E = 3 pair is defective; convergence of the
    # i*H filter toward it is algebraic, so the horizon is exhausted
    res = steady_state_eigenstate(
        ModelParams(0.0, 1.0), GFunction("i_h"), horizon=50.0
    )
    assert not res.converged
    assert "unresolved" in res.message
    assert res.eigenvalue.real == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dt": 0.0}, "finite, positive dt and horizon"),
        ({"dt": -0.1}, "finite, positive dt and horizon"),
        ({"dt": np.nan}, "finite, positive dt and horizon"),
        ({"dt": np.inf}, "finite, positive dt and horizon"),
        ({"horizon": 0.0}, "finite, positive dt and horizon"),
        ({"horizon": -200.0}, "finite, positive dt and horizon"),
        ({"horizon": np.nan}, "finite, positive dt and horizon"),
        ({"horizon": np.inf}, "finite, positive dt and horizon"),
        ({"horizon": 1e6, "dt": 1e-3}, r"steady state steps 1e\+09 exceed the 1000000 allowed"),
        ({"horizon": 1e308, "dt": 1e-10}, r"steady state steps inf exceed the 1000000 allowed"),
    ],
)
def test_steady_state_rejects_bad_dt_and_horizon(kwargs, message):
    with pytest.raises(ValueError, match=message):
        steady_state_eigenstate(ModelParams(0.3, 1.0), GFunction("i_h"), **kwargs)


@pytest.mark.parametrize(
    "psi_init", [np.zeros(3), np.array([np.nan, 1.0, 0.0]), np.array([np.inf, 0.0, 0.0])]
)
def test_steady_state_rejects_bad_psi_init(psi_init):
    # a zero psi_init divided by its zero norm
    with pytest.raises(ValueError, match="psi_init needs a finite, nonzero norm"):
        steady_state_eigenstate(ModelParams(0.3, 1.0), GFunction("i_h"), psi_init)


def test_population_ratio_examples():
    assert population_ratios(
        np.array([0.0, 6.0, 4.0]), MeasurementSetting(0, 0, 0, 0)
    ) == pytest.approx(36.0 / 16.0)
    assert population_ratios(
        np.array([1.0, 0.0, 1.0]), MeasurementSetting(0, 0, 0, 0)
    ) == pytest.approx(0.0)
    # invariance under global phase and scaling
    psi = np.array([0.3, 0.4 - 0.2j, 0.8])
    s = MeasurementSetting(np.pi / 4, 0.3, np.pi / 5, -0.2)
    r1 = population_ratios(psi, s)
    r2 = population_ratios(5.0 * np.exp(0.7j) * psi, s)
    assert r1 == pytest.approx(r2, rel=1e-12)
    with pytest.raises(ValueError, match="underflow"):
        population_ratios(np.array([0.0, 1.0, 0.0]), MeasurementSetting(0, 0, 0, 0))


def test_forward_model_matches_direct_simulation():
    p = ModelParams(0.25, 0.6)
    vals = np.sort(spectrum(p).eigenvalues.real)[::-1]
    ratios = ratios_from_energies(vals)
    for i, (e, s) in enumerate(zip(vals, DEFAULT_SETTINGS)):
        psi = _eigenvectors(np.array([e]), p.k1, p.k2)[:, 0]
        assert ratios[i] == pytest.approx(population_ratios(psi, s), rel=1e-9)
    with pytest.raises(ValueError, match="sum to 6"):
        ratios_from_energies(np.array([1.0, 2.0, 4.0]))


def test_solver_recovers_triples_noiselessly():
    # points inside the documented operating window of the inversion
    for k1, k2 in ((0.3, 0.5), (0.1, 0.65), (0.45, 0.35), (0.2, 0.7)):
        vals = np.sort(spectrum(ModelParams(k1, k2)).eigenvalues.real)[::-1]
        got = solve_eigenvalues(ratios_from_energies(vals))
        assert np.allclose(got, vals, atol=1e-8)
        assert got.sum() == pytest.approx(6.0, abs=1e-12)


def test_solver_rejects_unfittable_ratios():
    with pytest.raises(NumericsError, match="landscape") as err:
        solve_eigenvalues(np.array([1e6, 1e-6, 1e6]))
    # one round from the four (k1, k2) starts
    msg = str(err.value)
    assert msg.count("start (") == len(readout._K_STARTS) == 4
    for start in readout._K_STARTS:
        assert f"start {start} -> residual" in msg


def test_every_start_is_alive_for_the_default_settings():
    us = readout._setting_unitaries(DEFAULT_SETTINGS)
    r = readout._ratio_residuals(np.array(readout._K_STARTS), np.zeros(3), us)
    assert np.isfinite(r).all() and np.abs(r).max() < 1e6


def test_old_retry_points_solve_from_the_four_starts(monkeypatch):
    # noiseless points inside the window where every one of the eight
    # (E1, E2) starts of the earlier solver ended in a spurious minimum
    calls = []
    real_descend = readout._descend

    def counted_descend(*args):
        calls.append(args[0])
        return real_descend(*args)

    monkeypatch.setattr(readout, "_descend", counted_descend)
    for k1, k2 in ((0.0923, 0.3114), (0.0897, 0.3183)):
        vals = spectrum(ModelParams(k1, k2)).eigenvalues.real
        assert np.abs(solve_eigenvalues(ratios_from_energies(vals)) - vals).max() < 1e-12
    assert calls == [readout._K_STARTS] * 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solver_rejects_non_finite_ratios(bad):
    with pytest.raises(ValueError, match="finite"):
        solve_eigenvalues(np.array([0.7, bad, 0.5]))


def test_forward_model_flags_settings_without_level_3_weight(monkeypatch):
    # a stand-in unitary for setting 2 whose level-3 row is zero
    real = readout.setting_unitary
    blind = np.diag([1.0, 1.0, 0.0]).astype(complex)
    monkeypatch.setattr(
        readout, "setting_unitary",
        lambda s: blind if s == DEFAULT_SETTINGS[1] else real(s),
    )
    with pytest.raises(ValueError, match="setting 2 puts no weight on level 3"):
        ratios_from_energies(np.array([3.6, 2.4, 0.0]))
    us = readout._setting_unitaries(DEFAULT_SETTINGS)
    # (0.3, 1) has the spectrum (3.6, 2.4, 0)
    r = readout._ratio_residuals(np.array([[0.3, 1.0]]), np.ones(3), us)
    assert np.array_equal(r, np.full((1, 3), 1e6))


def _scalar_ratios(es, settings):
    """Reference for `_ratio_map`: the forward model one triple at a time."""
    k1, k2 = readout._vieta_k(*es)
    out = np.empty(3)
    for i, (e, s) in enumerate(zip(es, settings)):
        v = setting_unitary(s) @ _eigenvector_polynomial(e, k1, k2)
        p3 = abs(v[2]) ** 2
        if p3 <= 1e-300:
            raise ValueError(f"setting {i + 1} puts no weight on level 3")
        out[i] = abs(v[1]) ** 2 / p3
    return out


# deterministic coarse-simplex starts of the (E1, E2) reference search
_E_STARTS = (
    (4.0, 1.5), (3.5, 2.5), (3.0, 3.0), (2.0, 3.5),
    (5.0, 0.5), (4.5, 2.0), (2.5, 1.0), (3.8, 2.2),
)


def _scalar_solve(ratios, settings=DEFAULT_SETTINGS, k_max=1.5):
    """Independent reference: Gauss-Newton over (E1, E2) with
    E3 = 6 - E1 - E2 from eight starts one after another, each with a
    scalar finite-difference Jacobian, lstsq step and halving line search,
    keeping the best end whose triple is descending and maps back into the
    window. The lockstep solver searches (k1, k2) instead; away from the
    k1 = 0 and k2 = 0 folds of the map back to k both find the same root."""

    def feasible(x):
        es = np.array([x[0], x[1], 6.0 - x[0] - x[1]])
        if es[0] < es[1] - 1e-6 or es[1] < es[2] - 1e-6:
            return False
        k1, k2 = readout._vieta_k(*es)
        return (
            abs(k1.imag) < 1e-4 and abs(k2.imag) < 1e-4
            and abs(k1) <= k_max + 1e-9 and abs(k2) <= k_max + 1e-9
        )

    def resid(x):
        try:
            return _scalar_ratios([x[0], x[1], 6.0 - x[0] - x[1]], settings) - ratios
        except ValueError:
            return np.full(3, 1e6)

    best = best_any = None
    for start in _E_STARTS:
        x = np.array(start, dtype=float)
        for _ in range(60):
            r = resid(x)
            cols = []
            for k in range(2):
                xp = x.copy()
                xp[k] += 1e-7
                cols.append((resid(xp) - r) / 1e-7)
            step = np.linalg.lstsq(np.column_stack(cols), -r, rcond=None)[0]
            lam, base = 1.0, np.linalg.norm(r)
            while lam > 1e-6:
                if np.linalg.norm(resid(x + lam * step)) < base:
                    break
                lam /= 2.0
            else:
                break
            x = x + lam * step
            if np.linalg.norm(lam * step) < 1e-13:
                break
        rnorm = float(np.linalg.norm(resid(x)))
        if best_any is None or rnorm < best_any[1]:
            best_any = (x, rnorm)
        if feasible(x) and (best is None or rnorm < best[1]):
            best = (x, rnorm)
    x = (best or best_any)[0]
    return np.array([x[0], x[1], 6.0 - x[0] - x[1]])


def test_forward_model_matches_scalar_reference():
    for k1, k2 in ((0.25, 0.6), (0.05, 0.3), (0.45, 0.7), (0.3, 1.0)):
        vals = spectrum(ModelParams(k1, k2)).eigenvalues.real
        for settings in (DEFAULT_SETTINGS, TOMOGRAPHY_SETTINGS[2:9:3]):
            want = _scalar_ratios(vals, settings)
            got = ratios_from_energies(vals, settings)
            assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_lockstep_solver_matches_scalar_reference_noiselessly():
    # the criterion-12 grid
    for k1 in np.linspace(0.05, 0.45, 5):
        for k2 in np.linspace(0.3, 0.7, 5):
            vals = spectrum(ModelParams(float(k1), float(k2))).eigenvalues.real
            ratios = ratios_from_energies(vals)
            got = solve_eigenvalues(ratios)
            assert np.abs(got - _scalar_solve(ratios)).max() < 1e-12


def test_lockstep_solver_matches_scalar_reference_on_noisy_ratios():
    # 1e5-shot ratios drawn over the criterion-12 window, away from the
    # k1 = 0 fold where the (E1, E2) reference stalls
    rng = np.random.default_rng(20)
    for _ in range(20):
        ratios = _noisy_ratios(rng)
        got = solve_eigenvalues(ratios, residual_tol=1e6)
        assert np.abs(got - _scalar_solve(ratios)).max() < 1e-8


def test_lockstep_solver_with_custom_settings():
    settings = TOMOGRAPHY_SETTINGS[2:9:3]  # three settings not in DEFAULT_SETTINGS
    for k1, k2 in ((0.3, 0.5), (0.1, 0.65), (0.45, 0.35)):
        vals = spectrum(ModelParams(k1, k2)).eigenvalues.real
        ratios = ratios_from_energies(vals, settings)
        got = solve_eigenvalues(ratios, settings)
        assert np.abs(got - _scalar_solve(ratios, settings)).max() < 1e-12
        assert np.abs(got - vals).max() < 1e-8


# ratios of a noisy `eigensolve` (1e5 shots) at which the start (0.1, 1.3)
# creeps from about iteration 10 on: without the creep stop it runs to the
# 60-iteration cap, with it the solve ends after 8 iterations
_STALLED_RATIOS = np.array([5.409332545776727, 1.0232572498816555, 0.33026559604694256])


def test_solver_makes_one_map_call_per_iteration(monkeypatch):
    # the starts advance in lockstep: one call for their residuals and
    # Jacobian probes, then at most 60 iterations of one call each for the
    # line-search candidates and their probes; three unitaries per solve
    counts = {"map": 0, "unitary": 0}
    real_map, real_unitary = readout._ratio_residuals, readout.setting_unitary

    def counted_map(*args):
        counts["map"] += 1
        return real_map(*args)

    def counted_unitary(s):
        counts["unitary"] += 1
        return real_unitary(s)

    vals = spectrum(ModelParams(0.3, 1.0)).eigenvalues.real
    ratios = ratios_from_energies(vals)
    monkeypatch.setattr(readout, "_ratio_residuals", counted_map)
    monkeypatch.setattr(readout, "setting_unitary", counted_unitary)
    got = solve_eigenvalues(ratios)
    assert np.abs(got - vals).max() < 1e-12
    assert 0 < counts["map"] <= 60 + 1
    assert counts["unitary"] == 3
    # a start that runs to the iteration cap reaches the bound: at (0.2,
    # 0.025) the winner fits exactly, which leaves the creep stop off
    counts["map"] = 0
    solve_eigenvalues(ratios_from_energies(spectrum(ModelParams(0.2, 0.025)).eigenvalues.real))
    assert counts["map"] == 60 + 1


def test_ratio_residuals_are_row_independent():
    # the solver reuses an accepted candidate's rows as the next
    # iteration's residual and Jacobian probes, which gives the same bits
    # only if no row depends on the others in its batch
    us = readout._setting_unitaries(DEFAULT_SETTINGS)
    edge = readout.K_MAX
    k = np.array([
        [0.3, 0.5], [0.05, 0.7], [0.45, 0.3], [0.3, 1.0],  # inside the box
        [-0.1, 0.5], [0.3, -1e-9], [1.6, 0.2], [0.2, 2.0],  # outside
        [0.8, 1.2], [1.0, 1.3],  # PT-broken: complex spectrum
        [0.0, 1.0],  # the Dirac EP
        [edge, 0.4], [edge - 1e-7, 0.4], [edge + 1e-7, 0.4],  # K_MAX probes
        [0.2, edge], [0.2, edge - 1e-7], [edge - 1e-7, edge - 1e-7],
    ])
    ratios = np.array([0.4, 1.0, 0.7])
    one_by_one = np.concatenate([readout._ratio_residuals(row[None], ratios, us) for row in k])
    dead = (one_by_one == 1e6).all(axis=1)
    assert dead[4:10].all() and dead[13] and not dead[:4].any()
    assert np.array_equal(readout._ratio_residuals(k, ratios, us), one_by_one)
    order = np.random.default_rng(5).permutation(np.tile(np.arange(len(k)), 3))
    assert np.array_equal(readout._ratio_residuals(k[order], ratios, us), one_by_one[order])


def _no_rule_descend(starts, ratios, us, stop):
    """Oracle for the creep stop: `_descend` as it was before it, one map
    call per iteration and every other stop unchanged."""
    eps = 1e-7
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def probed(c):
        h = np.where(c + eps > readout.K_MAX, -eps, eps)
        probes = np.stack([c + u * h for u in unit])
        r = readout._ratio_residuals(probes.reshape(-1, 2), ratios, us)
        return r.reshape(probes.shape[:-1] + (3,)), h

    x = np.array(starts, dtype=float)
    r, h = probed(x)
    rnorm = np.linalg.norm(r[0], axis=1)
    live = np.arange(len(x))
    for _ in range(60):
        jac = ((r[1:] - r[0]) / h.T[:, :, None]).transpose(1, 2, 0)
        go = np.isfinite(jac).all(axis=(1, 2))
        live, r0, jac = live[go], r[0][go], jac[go]
        if not len(live):
            break
        step = -(np.linalg.pinv(jac, rtol=None) @ r0[:, :, None])[:, :, 0]
        cand = x[live] + readout._LAMBDAS[:, None, None] * step
        rc, hc = probed(cand)
        cnorm = np.linalg.norm(rc[0], axis=2)
        lower = cnorm < rnorm[live]
        first = lower.argmax(axis=0)
        moved = lower.any(axis=0)
        cols = np.arange(len(live))[moved]
        live, first = live[moved], first[moved]
        x[live] = cand[first, cols]
        rnorm[live] = cnorm[first, cols]
        short = np.linalg.norm(readout._LAMBDAS[first, None] * step[cols], axis=1) < 1e-13
        keep = ~short & (rnorm[live] > stop)
        live, first, cols = live[keep], first[keep], cols[keep]
        if not len(live):
            break
        r, h = rc[:, first, cols], hc[first, cols]
    return x, rnorm


def _two_call_descend(starts, ratios, us, stop):
    """Reference for `_descend`: the earlier loop, which evaluates the
    residual and Jacobian probes at each iterate in one map call and the
    line-search candidates in a second, with the same creep stop."""
    eps, lambdas = 1e-7, readout._LAMBDAS
    x = np.array(starts, dtype=float)
    rnorm = np.empty(len(x))
    live = np.arange(len(x))
    for _ in range(60):
        xl = x[live]
        h = np.where(xl + eps > readout.K_MAX, -eps, eps)
        probes = xl + np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[:, None] * h
        r = readout._ratio_residuals(probes.reshape(-1, 2), ratios, us)
        r = r.reshape(3, len(live), 3)
        rnorm[live] = np.linalg.norm(r[0], axis=1)
        jac = ((r[1:] - r[0]) / h.T[:, :, None]).transpose(1, 2, 0)
        go = np.isfinite(jac).all(axis=(1, 2))
        live, xl, r0, jac = live[go], xl[go], r[0][go], jac[go]
        if not len(live):
            break
        step = -(np.linalg.pinv(jac, rtol=None) @ r0[:, :, None])[:, :, 0]
        cand = xl + lambdas[:, None, None] * step
        cnorm = np.linalg.norm(
            readout._ratio_residuals(cand.reshape(-1, 2), ratios, us), axis=1
        ).reshape(len(lambdas), len(live))
        lower = cnorm < rnorm[live]
        first = lower.argmax(axis=0)
        moved = lower.any(axis=0)
        cols = np.arange(len(live))[moved]
        live, first = live[moved], first[moved]
        before = rnorm.copy()
        x[live] = cand[first, cols]
        rnorm[live] = cnorm[first, cols]
        short = np.linalg.norm(lambdas[first, None] * step[cols], axis=1) < 1e-13
        live = live[~short & (rnorm[live] > stop)]
        stopped = np.ones(len(x), dtype=bool)
        stopped[live] = False
        lead = rnorm[stopped].min(initial=np.inf)
        if lead > stop:
            creeping = before - rnorm < readout._CREEP_DROP * rnorm
            live = live[~(creeping & (rnorm > lead))[live]]
        if not len(live):
            break
    return x, rnorm


def _noisy_ratios(rng):
    """The ratios of a 1e5-shot `eigensolve` at a point drawn from `rng`
    over the criterion-12 window."""
    p = ModelParams(rng.uniform(0.05, 0.45), rng.uniform(0.3, 0.7))
    vectors = _eigenvectors(spectrum(p).eigenvalues.real, p.k1, p.k2)
    pops = [
        simulate_counts(psi, s, 100_000, rng=rng).populations
        for psi, s in zip(vectors.T, DEFAULT_SETTINGS)
    ]
    return np.array([q[1] / q[2] for q in pops])


def _noiseless_cases():
    grid = [
        (float(k1), float(k2))
        for k1 in np.linspace(0.05, 0.45, 5) for k2 in np.linspace(0.3, 0.7, 5)
    ]
    for k1, k2 in grid:
        yield ratios_from_energies(spectrum(ModelParams(k1, k2)).eigenvalues.real), DEFAULT_SETTINGS
    settings = TOMOGRAPHY_SETTINGS[2:9:3]
    for k1, k2 in grid[::4]:
        vals = spectrum(ModelParams(k1, k2)).eigenvalues.real
        yield ratios_from_energies(vals, settings), settings


def _descend_cases():
    yield from _noiseless_cases()
    rng = np.random.default_rng(7)
    for _ in range(10):
        yield _noisy_ratios(rng), DEFAULT_SETTINGS
    yield _STALLED_RATIOS, DEFAULT_SETTINGS


def test_one_call_descent_matches_the_two_call_reference_bit_for_bit():
    for ratios, settings in _descend_cases():
        us = readout._setting_unitaries(settings)
        stop = readout._ROUNDING_STOP * max(np.linalg.norm(ratios), 1.0)
        x, rnorm = readout._descend(readout._K_STARTS, ratios, us, stop)
        want_x, want_rnorm = _two_call_descend(readout._K_STARTS, ratios, us, stop)
        assert np.array_equal(x, want_x) and np.array_equal(rnorm, want_rnorm)


def _winner(descend, ratios, settings=DEFAULT_SETTINGS):
    """The (k1, k2) end point `solve_eigenvalues` would read, by `descend`."""
    us = readout._setting_unitaries(settings)
    stop = readout._ROUNDING_STOP * max(np.linalg.norm(ratios), 1.0)
    x, rnorm = descend(readout._K_STARTS, ratios, us, stop)
    return x[rnorm.argmin()]


def test_creep_stop_keeps_the_noiseless_winners():
    # the noiseless descent cases, an 11x11 grid over the box with its
    # k1 = 0 edge, and the point (0.05, 1.45) of the 61x61 grid: there a
    # start fits the alias (0.051719, 1.440137) exactly while the true start
    # still creeps, so a creep stop behind an exact-fit leader would flip
    # the winner to the alias
    cases = list(_noiseless_cases())
    alias = ModelParams(*np.linspace(0.0, readout.K_MAX, 61)[[2, 58]])
    cases.append((ratios_from_energies(spectrum(alias).eigenvalues.real), DEFAULT_SETTINGS))
    for k1 in np.linspace(0.0, readout.K_MAX, 11):
        for k2 in np.linspace(0.0, readout.K_MAX, 11):
            vals = spectrum(ModelParams(k1, k2)).eigenvalues
            if (vals.imag == 0.0).all():
                cases.append((ratios_from_energies(vals.real), DEFAULT_SETTINGS))
    assert len(cases) == 33 + 94
    for ratios, settings in cases:
        got = _winner(readout._descend, ratios, settings)
        want = _winner(_no_rule_descend, ratios, settings)
        assert np.abs(got - want).max() <= 1e-11


def test_creep_stop_keeps_the_noisy_winners():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ratios = _noisy_ratios(rng)
        got = _winner(readout._descend, ratios)
        assert np.abs(got - _winner(_no_rule_descend, ratios)).max() <= 1e-9


def _map_calls(monkeypatch, descend, cases) -> int:
    calls = [0]
    real = readout._ratio_residuals

    def counted(*args):
        calls[0] += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(readout, "_ratio_residuals", counted)
        for ratios, settings in cases:
            _winner(descend, ratios, settings)
    return calls[0]


def test_creep_stop_ends_the_stalled_solve_early(monkeypatch):
    # the creeping start trails the start that stopped at the winning point
    want = _winner(_no_rule_descend, _STALLED_RATIOS)
    got = _winner(readout._descend, _STALLED_RATIOS)
    assert np.abs(got - want).max() <= 1e-8
    assert _map_calls(monkeypatch, _no_rule_descend, [(_STALLED_RATIOS, DEFAULT_SETTINGS)]) == 61
    assert _map_calls(monkeypatch, readout._descend, [(_STALLED_RATIOS, DEFAULT_SETTINGS)]) <= 10


def test_creep_stop_cuts_the_map_calls_of_the_descend_cases(monkeypatch):
    # a deterministic guard on the rule's saving (535 -> 467 calls when it
    # landed): a change that disables it fails here without any timing
    cases = list(_descend_cases())
    assert len(cases) == 43
    without = _map_calls(monkeypatch, _no_rule_descend, cases)
    assert _map_calls(monkeypatch, readout._descend, cases) <= 0.9 * without


def test_solver_noise_robustness():
    rng = np.random.default_rng(11)
    vals = np.sort(spectrum(ModelParams(0.3, 0.5)).eigenvalues.real)[::-1]
    ratios = ratios_from_energies(vals)
    errs = []
    for _ in range(20):
        noisy = ratios * (1.0 + 0.01 * rng.normal(size=3))
        got = solve_eigenvalues(noisy, residual_tol=1.0)
        errs.append(np.abs(got - vals).max())
    assert np.median(errs) < 0.1


def test_simulate_counts_noiseless_and_seeded():
    psi = np.array([0.5, 0.5j, np.sqrt(0.5)])
    s = MeasurementSetting(np.pi / 4, 0.0, np.pi / 4, 0.0)
    exact = simulate_counts(psi, s, 0)
    assert exact.shots == 0
    rotated = setting_unitary(s) @ psi
    assert np.allclose(exact.populations, np.abs(rotated) ** 2, atol=1e-12)
    a = simulate_counts(psi, s, 1000, rng=np.random.default_rng(42))
    b = simulate_counts(psi, s, 1000, rng=np.random.default_rng(42))
    assert np.array_equal(a.populations, b.populations)
    big = simulate_counts(psi, s, 4_000_000, rng=np.random.default_rng(1))
    assert np.abs(big.populations - exact.populations).max() < 3e-3
    with pytest.raises(ValueError):
        simulate_counts(psi, s, -1)


def test_record_validation():
    s = MeasurementSetting(0, 0, 0, 0)
    with pytest.raises(ValueError):
        TomographyRecord(s, 10, np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        TomographyRecord(s, -1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TomographyRecord(s, 10, np.array([np.nan, 0.5, 0.5]))


def test_mle_noiseless_fixed_point():
    psi = np.array([0.2, -0.5j, 1.0])
    psi = psi / np.linalg.norm(psi)
    records = [simulate_counts(psi, s, 0) for s in TOMOGRAPHY_SETTINGS]
    rho = mle_reconstruct(records)
    # PSD, unit trace, and essentially the pure target state
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.real(np.vdot(psi, rho @ psi)) == pytest.approx(1.0, abs=1e-6)


def test_mle_noisy_high_fidelity():
    psi = np.array([1.0, 1.0j, -0.5]) / np.linalg.norm([1.0, 1.0, 0.5])
    rng = np.random.default_rng(12)
    records = [simulate_counts(psi, s, 100_000, rng=rng) for s in TOMOGRAPHY_SETTINGS]
    rho = mle_reconstruct(records)
    target = np.outer(psi, psi.conj())
    assert fidelity(rho, target) > 0.999


def test_mle_recovers_mixed_states():
    # noiseless records of three full-rank and four rank-2 states: a start
    # with row 1 of a lower-triangular T at zero, whose gradient stays zero,
    # could not leave rank 2 (errors 0.01-0.21 here), and a lower-triangular
    # T stalls on one of the rank-2 states, whose kernel is almost
    # orthogonal to level 1
    rng = np.random.default_rng(4)
    for rank in (3, 3, 3, 2, 2, 2, 2):
        a = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        records = []
        for s in TOMOGRAPHY_SETTINGS:
            u = setting_unitary(s)
            p = np.diag(u @ rho @ u.conj().T).real
            records.append(TomographyRecord(s, 0, p / p.sum()))
        assert np.abs(mle_reconstruct(records) - rho).max() <= 1e-9


def test_mle_non_convergence_is_a_numerics_error(monkeypatch):
    psi = np.array([0.2, -0.5j, 1.0]) / np.linalg.norm([0.2, 0.5, 1.0])
    records = [simulate_counts(psi, s, 0) for s in TOMOGRAPHY_SETTINGS]
    with monkeypatch.context() as m:
        m.setattr(readout, "MLE_MAX_ITER", 3)
        with pytest.raises(NumericsError, match=r"stopped at iteration 3 with gradient norm \d"):
            mle_reconstruct(records)
    # 1e308 shots per setting overflow the total count
    huge = [TomographyRecord(r.setting, 10**308, r.populations) for r in records]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="stopped at iteration 0 with gradient norm nan"):
            mle_reconstruct(huge)


def test_mle_incomplete_settings_rejected():
    psi = np.array([1.0, 0.0, 0.0])
    records = [simulate_counts(psi, MeasurementSetting(0, 0, 0, 0), 0)]
    with pytest.raises(ValueError, match="informationally complete"):
        mle_reconstruct(records)
    with pytest.raises(ValueError, match="no tomography records"):
        mle_reconstruct([])


def test_fidelity_properties():
    psi = np.array([1.0, 0.0, 0.0])
    phi = np.array([0.0, 1.0, 0.0])
    rho = np.outer(psi, psi)
    sig = np.outer(phi, phi)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(rho, sig) == pytest.approx(0.0, abs=1e-12)
    mix = np.eye(3) / 3.0
    assert fidelity(rho, mix) == pytest.approx(fidelity(mix, rho), abs=1e-10)
    assert fidelity(rho, mix) == pytest.approx(1.0 / 3.0, abs=1e-10)
    with pytest.raises(ValueError):
        fidelity(np.diag([1.5, -0.5, 0.0]), mix)
    with pytest.raises(ValueError):
        fidelity(2.0 * rho, mix)
