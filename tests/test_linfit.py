"""Linear solves behind the grid search.

The reference solver here forms the 3x3 normal equations and solves
them with Cramer's rule, hand-expanded determinants and all.  It shares
no code path with the SVD machinery under test.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from dcmethod import (ConfigError, ModelSpec, SearchConfig, TimeSeries, bootstrap,
                      detrend, diagnose_stability, long_search, no_signal_test,
                      periodogram_slice, refine, short_search, span_stats)
from dcmethod.gridsearch import scan_rounds
from dcmethod.linfit import (
    BatchSolver,
    design_solver,
    evaluate_z,
    fit,
    fit_columns,
    solve_linear,
    weighted_y,
    weighting_mode,
)
from dcmethod.model import design_matrix


def det3(m):
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def cramer_normal_equations(a, b):
    """Least squares through A^T A x = A^T b, Cramer's rule, m = 3 only."""
    ata = a.T @ a
    atb = a.T @ b
    d = det3(ata)
    x = np.empty(3)
    for j in range(3):
        mj = ata.copy()
        mj[:, j] = atb
        x[j] = det3(mj) / d
    return x


def sine_series(n=40, seed=0, sigma=None):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    y = 0.8 * np.cos(2 * np.pi * 1.3 * t) - 0.4 * np.sin(2 * np.pi * 1.3 * t) + 1.0
    y += rng.normal(0, 0.05, n)
    s = np.full(n, sigma) if sigma else None
    return TimeSeries(t, y, s)


# ---------------------------------------------------------------------------
# weighting mode resolution
# ---------------------------------------------------------------------------

def test_weighting_auto_follows_sigma():
    assert weighting_mode(sine_series(), None) == "unweighted"
    assert weighting_mode(sine_series(sigma=0.05), None) == "chi-square"
    assert weighting_mode(sine_series(sigma=0.05), "auto") == "chi-square"


def test_weighting_explicit_override():
    assert weighting_mode(sine_series(sigma=0.05), "unweighted") == "unweighted"


def test_weighting_chi_square_needs_sigma():
    with pytest.raises(ConfigError):
        weighting_mode(sine_series(), "chi-square")


def test_weighting_unknown_mode():
    with pytest.raises(ConfigError):
        weighting_mode(sine_series(), "quadrature")


def _bits(obj):
    """Every float of a result as bytes, walking dataclasses and lists."""
    if dataclasses.is_dataclass(obj):
        return [_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [_bits(o) for o in obj]
    if isinstance(obj, (np.ndarray, float)):
        a = np.asarray(obj)
        return a.dtype.str, a.shape, a.tobytes()
    return obj


def test_unweighted_mode_ignores_the_sigma_column():
    # one weighting resolver: weighting="unweighted" on a weighted series
    # gives the bits of the same series without its sigma column, through
    # every entry that takes a weighting
    rng = np.random.default_rng(4)
    n = 40
    t = np.sort(rng.random(n)) * 3.0
    y = (np.cos(2 * np.pi * 2.1 * t) + 0.6 * np.sin(2 * np.pi * 1.3 * t) + 0.5
         + rng.normal(0, 0.1, n))
    weighted = TimeSeries(t, y, rng.uniform(0.05, 0.3, n))
    plain = TimeSeries(t, y)
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(0.8, 2.6, n_long=24, n_short=12)
    y_rounds = y[None, :] + rng.normal(0, 0.1, (3, n))
    start = np.array([2.05, 1.32])

    def entries(ts, weighting):
        long = long_search(ts, spec, cfg, weighting)
        short = short_search(ts, spec, cfg, long.best, weighting)
        return [
            long, short,
            scan_rounds(ts, spec, short.grids, y_rounds, weighting),
            periodogram_slice(ts, spec, start, 1, short.grids[1], weighting),
            refine(ts, spec, start, weighting),
            solve_linear(ts, spec, start, weighting),
            evaluate_z(ts, spec, np.stack([start, start[::-1], [2.0, 2.0]]), weighting),
        ]

    want = entries(plain, None)
    got = entries(weighted, "unweighted")
    for name, w, g in zip(["long_search", "short_search", "scan_rounds",
                           "periodogram_slice", "refine", "solve_linear", "evaluate_z"],
                          want, got):
        assert _bits(g) == _bits(w), name
    assert _bits(entries(weighted, "chi-square")) != _bits(want)

    grids = want[1].grids
    for call in (lambda: long_search(plain, spec, cfg, "chi-square"),
                 lambda: short_search(plain, spec, cfg, start, "chi-square"),
                 lambda: scan_rounds(plain, spec, grids, y_rounds, "chi-square"),
                 lambda: periodogram_slice(plain, spec, start, 0, grids[0], "chi-square"),
                 lambda: refine(plain, spec, start, "chi-square"),
                 lambda: solve_linear(plain, spec, start, "chi-square"),
                 lambda: evaluate_z(plain, spec, start[None], "chi-square")):
        with pytest.raises(ConfigError, match="sigma column"):
            call()


def test_entries_that_take_the_series_derive_its_span():
    # the span comes from the series; an old call that still passes one
    # fails loudly instead of being used or ignored
    entries = (solve_linear, evaluate_z, design_solver, long_search, short_search,
               scan_rounds, periodogram_slice, refine, bootstrap, diagnose_stability,
               no_signal_test, detrend)
    for entry in entries:
        assert "stats" not in inspect.signature(entry).parameters, entry.__name__
    ts = sine_series(seed=1)
    spec = ModelSpec(1, 1, 0)
    with pytest.raises(ConfigError, match="unknown weighting"):
        solve_linear(ts, spec, [1.3], span_stats(ts))
    with pytest.raises(TypeError):
        refine(ts, spec, [1.3], stats=span_stats(ts))


# ---------------------------------------------------------------------------
# solver against the independent oracle
# ---------------------------------------------------------------------------

def test_solution_matches_cramer_oracle():
    ts = sine_series(seed=1)
    spec = ModelSpec(1, 1, 0)  # m = 3 columns
    stats = span_stats(ts)
    a = design_matrix(ts.t, spec, np.array([1.3]), stats)
    want = cramer_normal_equations(a, ts.y)
    fit = solve_linear(ts, spec, np.array([1.3]))
    assert np.allclose(fit.beta.linear, want, rtol=1e-10, atol=1e-12)


def test_weighted_solution_matches_cramer_oracle():
    ts = sine_series(seed=2, sigma=0.05)
    # non-constant errors so the weighting actually changes the answer
    ts = TimeSeries(ts.t, ts.y, np.linspace(0.02, 0.2, ts.n))
    spec = ModelSpec(1, 1, 0)
    stats = span_stats(ts)
    a = design_matrix(ts.t, spec, np.array([1.3]), stats) / ts.sigma[:, None]
    want = cramer_normal_equations(a, ts.y / ts.sigma)
    fit = solve_linear(ts, spec, np.array([1.3]))
    assert np.allclose(fit.beta.linear, want, rtol=1e-10, atol=1e-12)


def test_z_matches_cramer_oracle():
    ts = sine_series(seed=3)
    spec = ModelSpec(1, 1, 0)
    stats = span_stats(ts)
    a = design_matrix(ts.t, spec, np.array([1.3]), stats)
    x = cramer_normal_equations(a, ts.y)
    r = ts.y - a @ x
    z_want = np.sqrt(r @ r / ts.n)
    fit = solve_linear(ts, spec, np.array([1.3]))
    assert fit.z == pytest.approx(z_want, rel=1e-10)


def test_residuals_are_explicit_differences():
    ts = sine_series(seed=4)
    spec = ModelSpec(1, 1, 1)
    stats = span_stats(ts)
    fit = solve_linear(ts, spec, np.array([1.3]))
    a = design_matrix(ts.t, spec, np.array([1.3]), stats)
    assert np.array_equal(fit.residuals, ts.y - a @ fit.beta.linear)
    assert fit.r_sum == pytest.approx(fit.residuals @ fit.residuals, rel=1e-14)


def test_unweighted_stat_is_residual_sum():
    ts = sine_series(seed=5)
    fit = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.3]))
    assert fit.chi2 is None
    assert fit.stat == fit.r_sum
    assert fit.z == pytest.approx(np.sqrt(fit.r_sum / ts.n), rel=1e-14)


def test_constant_sigma_scales_chi2():
    base = sine_series(seed=6)
    c = 0.07
    ts = TimeSeries(base.t, base.y, np.full(base.n, c))
    fu = solve_linear(base, ModelSpec(1, 1, 0), np.array([1.3]))
    fw = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.3]))
    assert fw.chi2 == pytest.approx(fu.r_sum / c**2, rel=1e-12)
    assert fw.z == pytest.approx(fu.z / c, rel=1e-12)
    assert fw.stat == fw.chi2


# ---------------------------------------------------------------------------
# batched solver
# ---------------------------------------------------------------------------

def test_batch_solver_matches_lstsq_per_row():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 12, 4))
    b = rng.normal(size=12)
    solver = BatchSolver(a)
    x = solver.solve(b[None, :, None])
    resid = b[None, :, None] - a @ x
    for i in range(5):
        want = np.linalg.lstsq(a[i], b, rcond=None)[0]
        assert np.allclose(x[i, :, 0], want, rtol=1e-12, atol=1e-12)
        assert np.allclose(resid[i, :, 0], b - a[i] @ want, atol=1e-12)


def test_batch_misfit_matches_residual_norm():
    # every (matrix, column) pair is the one-column fit solve_linear makes
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 9, 2))
    b = rng.normal(size=(3, 9, 4))
    z = BatchSolver(a).misfit(np.swapaxes(b, 1, 2))
    want = np.array([[np.sqrt(fit(a[i:i + 1], b[i, :, r][None]).wsum[0] / 9)
                      for r in range(4)] for i in range(3)])
    assert np.array_equal(z, want)


def test_rank_deficient_column_flagged_and_min_norm():
    rng = np.random.default_rng(11)
    col = rng.normal(size=10)
    a = np.stack([col, col, rng.normal(size=10)], axis=1)[None, :, :]
    b = rng.normal(size=(1, 10, 1))
    solver = BatchSolver(a)
    assert solver.degenerate[0]
    x = solver.solve(b)
    want = np.linalg.pinv(a[0]) @ b[0]
    assert np.allclose(x[0], want, rtol=1e-8, atol=1e-10)


def test_evaluate_z_flags_duplicate_frequencies():
    ts = sine_series(seed=12)
    spec = ModelSpec(2, 1, 0)
    batch = np.array([[2.0, 1.0], [1.5, 1.5]])  # second tuple duplicates columns
    z, degen = evaluate_z(ts, spec, batch)
    assert z.shape == (2,)
    assert not degen[0]
    assert degen[1]
    assert np.isfinite(z).all()


def test_single_tuple_goes_through_batch_path():
    # bit-identical z whether a tuple is solved alone or inside a batch
    ts = sine_series(seed=13)
    spec = ModelSpec(1, 1, 0)
    batch = np.array([[1.1], [1.3], [2.9]])
    z_all, _ = evaluate_z(ts, spec, batch)
    for i, f in enumerate(batch):
        z_one, _ = evaluate_z(ts, spec, f[None, :])
        assert z_one[0] == z_all[i]
        fit = solve_linear(ts, spec, f)
        assert fit.z == z_all[i]


def test_weighted_y_applies_row_scaling():
    ts = sine_series(seed=14, sigma=0.1)
    assert np.array_equal(weighted_y(ts, "chi-square"), ts.y / ts.sigma)
    assert np.array_equal(weighted_y(ts, "unweighted"), ts.y)


def test_design_solver_weighted_rows():
    ts = sine_series(seed=15, sigma=0.25)
    spec = ModelSpec(1, 1, 0)
    stats = span_stats(ts)
    solver = design_solver(ts, spec, np.array([[1.3]]), "chi-square")
    b = weighted_y(ts, "chi-square")[None, :, None]
    x = solver.solve(b)
    aw = design_matrix(ts.t, spec, np.array([1.3]), stats) / ts.sigma[:, None]
    want = np.linalg.lstsq(aw, ts.y / ts.sigma, rcond=None)[0]
    assert np.allclose(x[0, :, 0], want, rtol=1e-12)


def test_fit_columns_exact_polynomial():
    t = np.linspace(-1, 1, 6)
    cols = np.stack([np.ones_like(t), t, t**2], axis=1)
    y = 2.0 - 0.5 * t + 0.25 * t**2
    x, fitted, resid = fit_columns(cols, y)
    assert np.allclose(x, [2.0, -0.5, 0.25], rtol=1e-12)
    assert np.allclose(fitted, y, rtol=1e-12)
    assert np.max(np.abs(resid)) < 1e-12
