import math

import numpy as np
import pytest

from bucklab import (
    ConstraintViolationError,
    FactorCheckError,
    alpha_value,
    bounded_below_check,
    buckling_ground_state,
    disk_oracle,
    divergence_sweep,
    make_disk_mesh,
    make_perturbation,
    make_rectangle_mesh,
    rayleigh_quotient,
)
from bucklab import counterexample, spectra
from bucklab.cli import main
from bucklab.counterexample import _trace_minimizer, alpha_pencil, clamped_fields
from bucklab.runio import tallies
from bucklab.spectra import get_pair
from bucklab.traceops import trace_pencil

from oracles import dense_lift, dense_perturbation


@pytest.fixture(scope="module")
def disk3_pair(disk3):
    return get_pair(disk3, "morley")


@pytest.fixture(scope="module")
def ground(disk3_pair):
    return buckling_ground_state(disk3_pair)


def test_ground_state_contract(disk3, disk3_pair, ground):
    u1, lam1 = ground
    oracle = disk_oracle("buckling", 1).values[0]
    assert abs(lam1 - oracle) / oracle < 0.02
    constrained = disk3_pair.dofmap.boundary_dofs()
    assert np.all(u1[constrained] == 0.0)
    assert abs(u1 @ disk3_pair.k_grad @ u1 - 1.0) < 1e-12


def test_alpha_values(disk3_pair, ground):
    u1, lam1 = ground
    assert abs(alpha_value(u1, lam1, disk3_pair)) < 1e-10
    assert abs(alpha_value(u1, lam1 + 5.0, disk3_pair) + 5.0) < 1e-10
    oracle = disk_oracle("buckling", 1).values[0]
    a20 = alpha_value(u1, 20.0, disk3_pair)
    assert abs(a20 - (oracle - 20.0)) / abs(oracle - 20.0) < 0.01
    # the one-line identity, two ways
    assert abs(a20 - alpha_pencil(lam1, 20.0, u1, disk3_pair)) < 1e-10


def test_perturbation_contract(disk3, disk3_pair):
    h = make_perturbation(disk3_pair)
    perimeter = disk3.perimeter()
    assert abs((disk3_pair.b_normal_diag * h) @ h - perimeter) < 1e-10
    assert np.all(h[disk3_pair.dofmap.boundary_value_dofs()] == 0.0)
    bending = h @ disk3_pair.a_bend @ h
    assert np.isfinite(bending)
    assert bending > 0


def test_perturbation_matches_dense_solve(disk3_pair, tmp_path, capsys, refuse_every_factor,
                                         empty_clamped_fields):
    """The lift of unit normal derivatives on the sparse factor of F_cc is
    the dense clamped solve. A factor of F_cc that fails a check raises
    FactorCheckError naming it, and a ``counterexample`` run whose
    factors fail a check exits 1, naming the check."""
    h = make_perturbation(disk3_pair)
    np.testing.assert_allclose(h, dense_perturbation(disk3_pair), rtol=0, atol=1e-12)
    with refuse_every_factor():
        with pytest.raises(FactorCheckError, match="failed its growth check"):
            make_perturbation(disk3_pair)
        code = main(["counterexample", "--domain", "disk", "--refine", "2", "--lambda", "20",
                     "--run-root", str(tmp_path)])
    assert code == 1
    assert "failed its growth check" in capsys.readouterr().err


def test_quotient_markers_and_samples(disk3_pair, ground):
    u1, lam1 = ground
    s = rayleigh_quotient(u1, lam1 + 5.0, disk3_pair)
    assert s.denominator <= 1e-14
    assert s.numerator < 0
    assert s.quotient == -math.inf

    h = make_perturbation(disk3_pair)
    s0 = rayleigh_quotient(h, 0.0, disk3_pair)
    assert s0.quotient > 0
    assert s0.quotient * s0.denominator == pytest.approx(s0.numerator, rel=1e-10)

    s_eps = rayleigh_quotient(u1 + 1e-2 * h, 20.0, disk3_pair, eps=1e-2)
    assert s_eps.quotient < -1e3

    bad = np.ones(disk3_pair.dofmap.n_dofs)
    with pytest.raises(ConstraintViolationError):
        rayleigh_quotient(bad, 1.0, disk3_pair)


def test_divergence_sweep(disk3_pair):
    report = divergence_sweep(disk3_pair, 20.0, [1e-1, 1e-2, 1e-3, 1e-4])
    assert report.fitted_slope == pytest.approx(-2.0, abs=0.15)
    assert not report.anomaly
    assert abs(report.alpha - report.alpha_pencil) < 1e-10
    # numerator at the smallest eps is alpha to 0.1%
    last = report.samples[-1]
    assert last.eps == 1e-4
    assert abs(last.numerator - report.alpha) < 1e-3 * abs(report.alpha)
    # ordering by decreasing eps
    eps_seq = [s.eps for s in report.samples]
    assert eps_seq == sorted(eps_seq, reverse=True)


def test_divergence_sweep_preconditions(disk3_pair, ground):
    _, lam1 = ground
    with pytest.raises(ValueError):
        divergence_sweep(disk3_pair, lam1 - 1.0, [1e-1, 1e-2])
    with pytest.raises(ValueError):
        divergence_sweep(disk3_pair, 20.0, [1e-2, 1e-1])
    with pytest.raises(ValueError):
        divergence_sweep(disk3_pair, 20.0, [])


def test_bounded_below_regime(disk3_pair):
    report = bounded_below_check(disk3_pair, 2.0, 50)
    assert report.passed
    assert report.beta1 > 0
    assert report.min_quotient >= report.beta1 - 1e-8 * abs(report.beta1)
    assert report.interior_residual <= 1e-6
    # the lifted trace minimizer attains the infimum
    assert report.minimizer_quotient == pytest.approx(report.beta1, rel=1e-8)

    # between the first Dirichlet-type value and the buckling threshold
    report10 = bounded_below_check(disk3_pair, 10.0, 50)
    assert report10.passed
    assert report10.beta1 < 0
    assert report10.interior_residual <= 1e-6
    assert report10.minimizer_quotient == pytest.approx(report10.beta1, rel=1e-8)


def test_bounded_regime_factors_navier_form_once(disk3_pair, empty_clamped_fields):
    """With the mesh's clamped fields memoized, the bounded regime's trace
    operator and its lifted minimizer come from one sparse factorization
    of the Navier shifted form Q, and it makes no other."""
    clamped_fields(disk3_pair)
    before = tallies()["solver"]
    report = bounded_below_check(disk3_pair, 2.0, 10)
    after = tallies()["solver"]
    assert after["sparse_ldlt"] - before["sparse_ldlt"] == 1
    assert after["check_failed"] == before["check_failed"]
    assert report.passed


def test_bounded_regime_lift_on_dense_path(disk3_pair, refuse_every_factor):
    """The trace minimizer's interior values, lifted on the Schur factor,
    are the dense oracle's lift -Q_ii^{-1} Q_ib psi of its boundary
    values. With the factor of Q refused, the bounded regime raises
    FactorCheckError, counted once in ``check_failed``; the memoized
    perturbation makes Q the one factorization."""
    bounded_below_check(disk3_pair, 2.0, 10)  # caches the trace pencil and fields
    _, v_full, _ = _trace_minimizer(disk3_pair, 2.0)
    form = trace_pencil(disk3_pair.mesh, "liu").form
    ni = form.n_interior
    v = v_full[form.rows]
    lifted = dense_lift(form.at(2.0).csc(), np.arange(ni), np.arange(ni, len(v)), v[ni:])
    np.testing.assert_allclose(v[:ni], lifted, rtol=0, atol=1e-10 * np.max(np.abs(lifted)))
    before = tallies()["solver"]
    with refuse_every_factor():
        with pytest.raises(FactorCheckError, match="failed its growth check"):
            bounded_below_check(disk3_pair, 2.0, 10)
    after = tallies()["solver"]
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["check_failed"] - before["check_failed"] == 1


def test_bounded_trials_are_the_per_trial_quotients(disk3_pair, monkeypatch):
    """The bounded regime draws its trial fields as one block from the
    stream of per-trial draws, and each column's numerator and
    denominator are those of :func:`rayleigh_quotient` at that trial's
    field, up to summation order."""
    seen, quotient = [], counterexample._quotient

    def spy(num, den):
        seen.append((num, den))
        return quotient(num, den)

    monkeypatch.setattr(counterexample, "_quotient", spy)
    trials, lam = 20, 10.0
    bounded_below_check(disk3_pair, lam, trials, seed=3)
    block = seen[:trials]
    rng = np.random.default_rng(3)
    free = spectra.free_dofs(disk3_pair, "navier")
    for num, den in block:
        v = np.zeros(disk3_pair.dofmap.n_dofs)
        v[free] = rng.standard_normal(len(free))
        ref = rayleigh_quotient(v, lam, disk3_pair)
        assert num == pytest.approx(ref.numerator, rel=1e-12)
        assert den == pytest.approx(ref.denominator, rel=1e-12)


def test_bounded_below_vacuous_trials(disk3_pair):
    report = bounded_below_check(disk3_pair, 2.0, 0)
    assert report.passed
    assert report.n_trials == 0
    assert report.beta1 > 0


def test_bounded_below_precondition(disk3_pair, ground):
    _, lam1 = ground
    with pytest.raises(ValueError):
        bounded_below_check(disk3_pair, lam1 + 1.0, 5)


@pytest.mark.parametrize("mesh", [
    make_disk_mesh(1.0, 2),
    make_rectangle_mesh(2.0, 1.0, 16, 8),
], ids=["disk2", "rect2x1"])
def test_regimes_do_not_depend_on_ground_state_sign(mesh, monkeypatch, empty_clamped_fields):
    """An eigenvector's sign is the solver's choice; the memoized fields
    sign u1 themselves, so both regimes report the same for u1 and -u1."""
    pair = get_pair(mesh, "morley")
    eps = [1e-1, 1e-2, 1e-3, 1e-4]

    def reports():
        empty_clamped_fields()
        lam1 = clamped_fields(pair).lambda1
        return divergence_sweep(pair, lam1 + 5.0, eps), bounded_below_check(pair, 2.0, 20)

    solved = reports()
    solve = buckling_ground_state

    def flipped(p):
        u1, lam1 = solve(p)
        return -u1, lam1

    monkeypatch.setattr(counterexample, "buckling_ground_state", flipped)
    assert reports() == solved


def test_clamped_fields_are_read_only(disk3_pair):
    fields = clamped_fields(disk3_pair)
    assert clamped_fields(disk3_pair) is fields
    for array in (fields.u1, fields.h):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_clamped_fields_keep_the_most_recently_used(monkeypatch, empty_clamped_fields):
    """The memo holds at most ``CACHE_SIZE`` meshes' fields and evicts the
    least recently used one first, as the pencil cache does."""
    monkeypatch.setattr(spectra, "CACHE_SIZE", 2)
    pairs = [get_pair(make_disk_mesh(r, 1), "morley") for r in (1.0, 1.5, 2.0)]
    first = clamped_fields(pairs[0])
    clamped_fields(pairs[1])
    assert clamped_fields(pairs[0]) is first  # now the most recent
    last = clamped_fields(pairs[2])
    kept = list(counterexample._FIELDS_CACHE.values())
    assert len(kept) == 2 and kept[0] is first and kept[1] is last
    keys = list(counterexample._FIELDS_CACHE)
    assert keys == [p.mesh.content_hash() for p in (pairs[0], pairs[2])]
