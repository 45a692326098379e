"""Grid search: enumeration, reduction and determinism.

The scans under test chunk their tuple streams and may run on a thread
pool, so the reference here is the dumbest possible loop: solve every
tuple one at a time with solve_linear, track the minimum, break ties by
the smaller tuple.  Results must agree bit for bit.
"""

import itertools
import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcmethod import (
    MODELS,
    ConfigError,
    ModelSpec,
    SearchConfig,
    SimulationSpec,
    TimeSeries,
    UnstableSearchError,
    long_search,
    short_search,
    simulate,
    span_stats,
)
from dcmethod import gridsearch
from dcmethod.gridsearch import (
    _Blocks,
    _chunk_rows,
    _product_chunks,
    ordered_map,
    periodogram_slice,
    scan_rounds,
)
from dcmethod.linfit import (BatchSolver, design_solver, evaluate_z, solve_linear,
                             sumsq, weighted_y)
from dcmethod.model import design_matrix


def two_sine_series(n=18, seed=3):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    y = (np.cos(2 * np.pi * 6.25 * t) + np.cos(2 * np.pi * 5.9 * (t - 0.05))
         + 1.0 + rng.normal(0, 0.1, n))
    return TimeSeries(t, y, np.full(n, 0.1))


def brute_force_best(ts, spec, grids):
    """Per-tuple sequential scan over ordered tuples from the grids."""
    best = (np.inf, None)
    for combo in itertools.product(*grids):
        f = np.asarray(combo)
        if not np.all(f[:-1] > f[1:]):
            continue
        z = solve_linear(ts, spec, f).z
        if z < best[0] or (z == best[0] and tuple(f) < tuple(best[1])):
            best = (z, f)
    return best


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(2.0, 1.0)
    with pytest.raises(ConfigError):
        SearchConfig(0.0, 1.0)
    with pytest.raises(ConfigError):
        SearchConfig(1.0, 2.0, n_long=1)
    with pytest.raises(ConfigError):
        SearchConfig(1.0, 2.0, half_width_frac=0.0)


def test_from_periods_inverts_and_swaps():
    cfg = SearchConfig.from_periods(0.5, 4.0)
    assert cfg.f_min == 0.25
    assert cfg.f_max == 2.0


def test_window_half_width_formula():
    cfg = SearchConfig(1.0, 3.0, half_width_frac=0.05)
    assert cfg.window_half_width == pytest.approx(0.05 * 2.0 / 2)


# ---------------------------------------------------------------------------
# tuple enumeration
# ---------------------------------------------------------------------------

def test_combination_chunks_cover_all_descending_tuples():
    grid = np.linspace(1.0, 2.0, 9)
    chunks = list(_product_chunks([grid] * 2, rows=5))
    got = np.concatenate(chunks)
    assert got.shape == (comb(9, 2), 2)
    assert all(c.shape[0] <= 5 for c in chunks)
    assert (got[:, 0] > got[:, 1]).all()
    # every pair appears exactly once
    seen = {tuple(row) for row in got}
    assert len(seen) == comb(9, 2)


def test_product_chunks_filter_and_chunk_size():
    grids = [np.linspace(1.4, 2.0, 7), np.linspace(1.0, 1.6, 6)]
    chunks = list(_product_chunks(grids, rows=8))
    got = np.concatenate(chunks)
    want = sum(1 for a in grids[0] for b in grids[1] if a > b)
    assert got.shape[0] == want
    assert (got[:, 0] > got[:, 1]).all()
    assert all(c.shape[0] <= 8 for c in chunks[:-1])


def test_product_chunks_single_axis_is_plain_grid():
    grids = [np.linspace(1.0, 2.0, 11)]
    got = np.concatenate(list(_product_chunks(grids, rows=4)))
    assert np.array_equal(got[:, 0], grids[0])


@st.composite
def chunk_cases(draw):
    k = draw(st.integers(1, 3))
    points = st.lists(st.integers(0, 12).map(lambda v: v / 4.0), min_size=1, max_size=7)
    if draw(st.booleans()):
        grids = [np.array(draw(points))] * k
    else:
        grids = [np.array(draw(points)) for _ in range(k)]
    return grids, draw(st.integers(1, 20))


@settings(max_examples=200, deadline=None)
@given(chunk_cases())
def test_product_chunks_are_full_chunks_of_the_descending_tuples(case):
    grids, rows = case
    want = [[g[i] for g, i in zip(grids, idx)]
            for idx in itertools.product(*(range(g.size) for g in grids))]
    want = np.array([w for w in want if all(a > b for a, b in zip(w, w[1:]))])
    chunks = list(_product_chunks(grids, rows))
    assert all(c.shape[0] == rows for c in chunks[:-1])
    assert all(0 < c.shape[0] <= rows for c in chunks)
    if want.size:
        assert np.array_equal(np.concatenate(chunks), want)
    else:
        assert chunks == []


def test_chunk_rows_depends_only_on_dimensions():
    target = gridsearch._EXACT_TARGET
    assert _chunk_rows(100, 5, target) == _chunk_rows(100, 5, target)
    assert _chunk_rows(10, 2, target) == 4096  # capped
    assert _chunk_rows(10**6, 100, target) == 16  # floored


# ---------------------------------------------------------------------------
# long and short stages against the brute force
# ---------------------------------------------------------------------------

def test_long_search_single_signal_bit_identical():
    ts = two_sine_series()
    spec = ModelSpec(1, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=30)
    grid = np.linspace(4.0, 8.0, 30)
    z_want, f_want = brute_force_best(ts, spec, [grid])
    pg = long_search(ts, spec, cfg)
    assert pg.z_min == z_want
    assert np.array_equal(pg.best, f_want)
    assert pg.combinations == 30


def test_long_search_two_signals_bit_identical():
    ts = two_sine_series()
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=25)
    grid = np.linspace(4.0, 8.0, 25)
    z_want, f_want = brute_force_best(ts, spec, [grid, grid])
    pg = long_search(ts, spec, cfg)
    assert pg.z_min == z_want
    assert np.array_equal(pg.best, f_want)
    assert pg.combinations == comb(25, 2)


def test_short_search_matches_brute_force_over_windows():
    ts = two_sine_series()
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=25, n_short=15)
    pg_long = long_search(ts, spec, cfg)
    pg = short_search(ts, spec, cfg, pg_long.best)
    z_want, f_want = brute_force_best(ts, spec, pg.grids)
    assert pg.z_min == z_want
    assert np.array_equal(pg.best, f_want)
    assert pg.z_min <= pg_long.z_min


def test_short_windows_clipped_to_range():
    ts = two_sine_series()
    spec = ModelSpec(1, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=10, n_short=10)
    pg = short_search(ts, spec, cfg, np.array([8.0]))  # center on the edge
    assert pg.grids[0].max() <= 8.0
    assert pg.grids[0].min() >= 4.0


def test_short_search_no_ordered_tuple_raises():
    ts = two_sine_series()
    spec = ModelSpec(2, 1, 0)
    # windows so tight and inverted that f_1 > f_2 never holds
    cfg = SearchConfig(4.0, 8.0, n_short=5, half_width_frac=1e-4)
    with pytest.raises(UnstableSearchError):
        short_search(ts, spec, cfg, np.array([5.0, 7.0]))


def test_worker_count_never_changes_results():
    ts = two_sine_series(n=20, seed=8)
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=40, n_short=12)
    runs = []
    for w in (1, 2, 5):
        pg = long_search(ts, spec, cfg, workers=w)
        sh = short_search(ts, spec, cfg, pg.best, workers=w)
        runs.append((pg.z_min, pg.best.copy(), sh.z_min, sh.best.copy()))
    for other in runs[1:]:
        assert other[0] == runs[0][0]
        assert np.array_equal(other[1], runs[0][1])
        assert other[2] == runs[0][2]
        assert np.array_equal(other[3], runs[0][3])


def test_no_ordered_tuple_raises_in_every_scan():
    ts = two_sine_series()
    # three signals on a two-point long grid
    with pytest.raises(UnstableSearchError):
        long_search(ts, ModelSpec(3, 1, 0), SearchConfig(0.1, 1.0, n_long=2))
    with pytest.raises(UnstableSearchError):
        scan_rounds(ts, ModelSpec(2, 1, 0), [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
                    ts.y[None])


@pytest.mark.parametrize("y_rounds", [
    pytest.param(lambda y: y, id="one-dimensional"),
    pytest.param(lambda y: y[None, :0], id="short-rows"),
    pytest.param(lambda y: np.empty((0, y.size)), id="no-rounds"),
])
def test_scan_rounds_rejects_a_malformed_round_stack(y_rounds):
    ts = two_sine_series()
    grids = [np.linspace(5.5, 7.0, 4), np.linspace(5.0, 6.5, 4)]
    with pytest.raises(ConfigError, match="y_rounds"):
        scan_rounds(ts, ModelSpec(2, 1, 0), grids, y_rounds(ts.y))


@pytest.mark.parametrize("spec,grids", [
    (ModelSpec(1, 1, 0), [np.linspace(5.5, 7.0, 4), np.linspace(5.0, 6.5, 4)]),
    (ModelSpec(0, 1, 1), []),
])
def test_scan_rounds_needs_one_grid_per_signal(spec, grids):
    # a grid count other than k1 used to scan the wrong model silently
    ts = two_sine_series()
    with pytest.raises(ConfigError, match="one grid per signal"):
        scan_rounds(ts, spec, grids, ts.y[None])


@pytest.mark.parametrize("axis", [2, -1])
def test_periodogram_slice_rejects_an_axis_outside_the_signals(axis):
    ts = two_sine_series()
    with pytest.raises(ConfigError, match="axis"):
        periodogram_slice(ts, ModelSpec(2, 1, 0), np.array([7.0, 5.0]), axis,
                          np.linspace(4.0, 8.0, 5))


def test_search_rejects_too_short_series():
    ts = TimeSeries(np.linspace(0, 1, 5), np.zeros(5))
    with pytest.raises(ConfigError):
        long_search(ts, ModelSpec(1, 1, 1), SearchConfig(1.0, 2.0))


def test_search_rejects_pure_trend():
    ts = two_sine_series()
    with pytest.raises(ConfigError):
        long_search(ts, ModelSpec(0, 1, 1), SearchConfig(1.0, 2.0))


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slices_pass_through_minimum():
    ts = two_sine_series()
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=25)
    pg = long_search(ts, spec, cfg)
    assert len(pg.slices) == 2
    for i, sl in enumerate(pg.slices):
        assert sl.signal == i + 1
        assert sl.z.shape == sl.f.shape
        # the cut re-evaluates the best tuple at the best frequency
        j = int(np.argmin(np.abs(sl.f - pg.best[i])))
        assert sl.z[j] == pg.z_min
        assert sl.z.min() >= pg.z_min - 1e-12


def test_slice_matches_direct_evaluation():
    ts = two_sine_series()
    spec = ModelSpec(2, 1, 0)
    grid = np.linspace(4.0, 8.0, 13)
    z = periodogram_slice(ts, spec, np.array([7.0, 5.0]), 1, grid)
    for j in (0, 6, 12):
        fit = solve_linear(ts, spec, np.array([7.0, grid[j]]))
        assert z[j] == fit.z


# ---------------------------------------------------------------------------
# multi-round scanning (the bootstrap path)
# ---------------------------------------------------------------------------

def test_scan_rounds_matches_per_tuple_brute_force():
    # reference: misfit of every ordered tuple alone, over the same
    # multi-round right-hand side block the scanner uses
    ts = two_sine_series(n=16, seed=5)
    spec = ModelSpec(2, 1, 0)
    grids = [np.linspace(5.5, 7.0, 6), np.linspace(5.0, 6.5, 5)]
    rng = np.random.default_rng(17)
    y_rounds = ts.y[None, :] + rng.normal(0, 0.1, (4, ts.n))
    z_min, best = scan_rounds(ts, spec, grids, y_rounds)
    assert z_min.shape == (4,)
    assert best.shape == (4, 2)

    yw = y_rounds / ts.sigma
    want_z = np.full(4, np.inf)
    want_f = np.zeros((4, 2))
    for combo in itertools.product(*grids):
        f = np.asarray(combo)
        if not f[0] > f[1]:
            continue
        solver = design_solver(ts, spec, f[None, :])
        z = solver.misfit(yw[None])[0]
        for r in range(4):
            if z[r] < want_z[r] or (z[r] == want_z[r]
                                    and tuple(f) < tuple(want_f[r])):
                want_z[r] = z[r]
                want_f[r] = f
    assert np.array_equal(z_min, want_z)
    assert np.array_equal(best, want_f)

    # and the per-round winners are the plain single-series solver's bits
    for r in range(4):
        ts_r = TimeSeries(ts.t, y_rounds[r], ts.sigma)
        assert z_min[r] == solve_linear(ts_r, spec, best[r]).z


def test_scan_rounds_worker_invariance():
    ts = two_sine_series(n=16, seed=6)
    spec = ModelSpec(1, 1, 0)
    grids = [np.linspace(4.0, 8.0, 50)]
    rng = np.random.default_rng(23)
    y_rounds = ts.y[None, :] + rng.normal(0, 0.1, (6, ts.n))
    z1, b1 = scan_rounds(ts, spec, grids, y_rounds, workers=1)
    z4, b4 = scan_rounds(ts, spec, grids, y_rounds, workers=4)
    assert np.array_equal(z1, z4)
    assert np.array_equal(b1, b4)


@st.composite
def lex_cases(draw):
    b, r, k = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # few distinct values, so that equal z and equal tuple prefixes are common
    z = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=b * r, max_size=b * r))
    shape = (b, k) if draw(st.booleans()) else (b, r, k)
    t = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=int(np.prod(shape)),
                      max_size=int(np.prod(shape))))
    return np.reshape(z, (b, r)), np.reshape(t, shape)


@settings(max_examples=200, deadline=None)
@given(lex_cases())
def test_lex_argmin_is_the_sort_rule(case):
    z, tuples = case
    got = gridsearch._lex_argmin(z, tuples)
    assert got.shape == (z.shape[1],)
    for c in range(z.shape[1]):
        t = tuples if tuples.ndim == 2 else tuples[:, c]
        want = min(range(z.shape[0]), key=lambda i: (z[i, c], tuple(t[i])))
        assert got[c] == want


# ---------------------------------------------------------------------------
# the Gram screen and its exact verification
# ---------------------------------------------------------------------------

@st.composite
def screen_cases(draw):
    # n up to 400 spans up to 20 row blocks of the Gram formation
    return dict(
        n=draw(st.integers(6, 400)),
        spec=ModelSpec(draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])),
                       draw(st.integers(-1, 2))),
        weighted=draw(st.booleans()),
        noise=10.0 ** draw(st.integers(-8, 0)),
        rounds=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(screen_cases())
@example(dict(n=6, spec=ModelSpec(1, 1, 0), weighted=False, noise=1e-8, rounds=1, seed=0))
@example(dict(n=9, spec=ModelSpec(2, 2, 1), weighted=True, noise=1.0, rounds=3, seed=1))
@example(dict(n=17, spec=ModelSpec(2, 2, 2), weighted=False, noise=1e-6, rounds=1, seed=2))
@example(dict(n=40, spec=ModelSpec(2, 1, -1), weighted=True, noise=1e-3, rounds=3, seed=3))
def test_screen_bound_holds_and_degenerate_tuples_are_guarded(case):
    n, spec = case["n"], case["spec"]
    rng = np.random.default_rng(case["seed"])
    t = np.sort(rng.random(n)) * rng.uniform(0.5, 20.0)
    f0 = rng.uniform(0.5, 3.0)
    # harmonic-coincident (j f0), near-duplicate and unrelated frequencies;
    # all k1-products of the grid add exact duplicates and both orders
    grid = np.unique(np.concatenate(
        [[f0, 2.0 * f0, 3.0 * f0, f0 * (1.0 + 1e-9)], rng.uniform(0.2, 6.0, 3)]))
    signal = (np.cos(2 * np.pi * f0 * t) + 0.5 * np.sin(2 * np.pi * 2 * f0 * t + 0.3)
              + 0.2 * t / t[-1] + 1.0)
    sigma = case["noise"] * rng.uniform(0.5, 2.0, n) if case["weighted"] else None
    ts = TimeSeries(t, signal + case["noise"] * rng.normal(size=n), sigma)
    stats = span_stats(ts)
    yw = weighted_y(ts)[:, None] + (case["noise"] * rng.normal(
        size=(n, case["rounds"] - 1)) / (sigma[:, None] if sigma is not None else 1.0))
    tuples = np.array(list(itertools.product(grid, repeat=spec.k1)))
    blocks = _Blocks(ts, spec, stats, ts.sigma, [grid] * spec.k1, yw.T)
    ok, rss, bound = blocks.score(tuples)

    solver = design_solver(ts, spec, tuples)
    # the screen's columns are the exact kernel's, bit for bit
    assert np.array_equal(blocks.cols[:, blocks.columns(tuples)].transpose(1, 0, 2),
                          solver.a)
    exact = sumsq(solver.residuals(yw.T)[1])
    assert np.all(np.abs(rss - exact[ok]) <= bound)
    assert not np.any(ok & solver.degenerate)


def test_singular_tuples_are_routed_not_raised():
    ts = two_sine_series()
    spec = ModelSpec(2, 2, 0)
    grid = np.array([3.0, 6.0, 6.5])
    tuples = np.array([[6.0, 6.0], [6.0, 3.0], [6.5, 3.0]])
    blocks = _Blocks(ts, spec, span_stats(ts), ts.sigma, [grid, grid],
                     weighted_y(ts)[None])
    ok, rss, bound = blocks.score(tuples)
    # a duplicated frequency and f_a = 2 f_b with two harmonics
    assert ok.tolist() == [False, False, True]
    assert rss.shape == bound.shape == (1, 1)


def _gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _exact_spectrum(lams, signs, perm):
    """G = Q diag(lams) Q^T for Q = D P H / sqrt(m), orthogonal: H the
    Sylvester Hadamard matrix, P a row permutation, D a diagonal of
    signs.  Each entry is a sum of +-lams / m; the lams drawn below are
    small multiples of one power of two, so every sum is exact and lams
    is the spectrum of the float matrix G exactly."""
    m = len(lams)
    h = np.ones((1, 1))
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    q = np.asarray(signs)[:, None] * h[list(perm)]
    return np.array([[math.fsum(q[i] * lams * q[j]) / m for j in range(m)]
                     for i in range(m)])


@st.composite
def known_spectra(draw):
    """A stack of m x m Grams, tuples along the last axis as the screen
    lays them, and their smallest eigenvalues.  Eigenvalues are
    mantissa * 2^-e with mantissa 0-7 and e 0-40: cond(G) reaches
    7 * 2^40 = 7.7e12, and a zero makes G exactly singular."""
    m = draw(st.sampled_from([2, 4, 8, 16]))
    grams, lam_min = [], []
    for _ in range(draw(st.integers(1, 5))):
        lams = np.array([draw(st.integers(0, 7)) * 2.0 ** -draw(st.integers(0, 40))
                         for _ in range(m)])
        lams[0] = max(lams[0], 1.0)
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
        grams.append(_exact_spectrum(lams, signs, draw(st.permutations(range(m)))))
        lam_min.append(lams.min())
    return np.stack(grams, axis=-1), np.array(lam_min)


@settings(max_examples=150, deadline=None)
@given(known_spectra())
def test_certified_floor_is_below_the_smallest_eigenvalue(case):
    gram, lam_min = case
    ok, lam, _ = gridsearch._certified_floor(gram)
    assert np.all(lam[ok] < lam_min[ok])
    # not vacuous: a well-conditioned Gram is certified
    well = lam_min >= 1e-8 * np.trace(gram)
    assert ok[well].all()


@settings(max_examples=150, deadline=None)
@given(known_spectra(), st.sampled_from([1.0, 1.0 + 2.0 ** -50, 1.0 + 2.0 ** -40,
                                         1.0 + 2.0 ** -20, 1.5]))
def test_no_shift_at_or_above_the_smallest_eigenvalue_is_certified(case, factor):
    gram, lam_min = case
    assert not gridsearch._certify(gram, factor * lam_min).any()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400), f=st.integers(1, 6), rounds=st.integers(1, 3),
       h=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16))
@example(n=1, f=1, rounds=1, h=1, seed=0)
@example(n=2, f=3, rounds=2, h=2, seed=1)
def test_blocked_formation_is_within_its_constant(n, f, rounds, h, seed):
    # entries of at most 23 significant bits make every product exact, so the
    # fsum of the products is the exact dot product, correctly rounded
    rng = np.random.default_rng(seed)

    def exact_bits(shape):
        return np.round(rng.normal(size=shape) * 2**20) * 2.0 ** rng.integers(-30, 10)

    cols = exact_bits((n, f * h + 2))
    yw = exact_bits((n, rounds))
    # a group that keeps only each frequency's own block, a full one
    groups = [(0, f * h, False), (f * h, f * h + 2, True)]
    gram, rhs, ss, k = gridsearch._gram(cols, yw.T, groups, h)
    g = _gamma(k)
    own = [range(0, f * h)[i:i + h] for i in range(0, f * h, h)]
    for i, j in itertools.product(range(f * h + 2), repeat=2):
        formed = max(i, j) >= f * h or any(i in blk and j in blk for blk in own)
        if not formed:
            assert gram[i, j] == 0.0
            continue
        prod = cols[:, i] * cols[:, j]
        assert abs(gram[i, j] - math.fsum(prod)) <= g * math.fsum(np.abs(prod))
    for i, r in itertools.product(range(f * h + 2), range(rounds)):
        prod = cols[:, i] * yw[:, r]
        assert abs(rhs[i, r] - math.fsum(prod)) <= g * math.fsum(np.abs(prod))
    for r in range(rounds):
        assert abs(ss[r] - math.fsum(yw[:, r] ** 2)) <= g * math.fsum(yw[:, r] ** 2)
    assert np.array_equal(gram, gram.T)


def test_formation_constant_counts_the_block_additions(monkeypatch):
    # two-row blocks: the first sums to 1, each later one to 0.75 u,
    # which the running sum 1 rounds away; every sum inside a block is
    # exact, so the whole error comes from the K - 1 additions
    monkeypatch.setattr(gridsearch, "_row_block", lambda n: 2)
    n = 40
    a, b = np.zeros(n), np.zeros(n)
    a[0] = b[0] = 1.0
    a[2::2], b[2::2] = 2.0 ** -27, 1.5 * 2.0 ** -27
    gram, _, _, k = gridsearch._gram(np.stack([a, b], axis=1), b[None],
                                     [(0, 2, True)], 1)
    exact = 1 + 19 * Fraction(3, 4) * Fraction(np.finfo(float).eps) / 2
    error = exact - Fraction(gram[0, 1])
    assert error > _gamma(2) * exact  # more than the block length explains
    assert error <= Fraction(_gamma(k)) * exact


def test_exact_pass_tuple_counts_do_not_grow(monkeypatch):
    # the harmonics bench shape, reduced: model 7 g(2,2,2), n = 500,
    # SN = 1e6, seed 42, 40 long and 30 short grid points, two rounds.
    # Tuples sent to the exact kernel per stage (long / short / rounds):
    # 101 / 395 / 397 with the eigensolver screen on a one-product Gram,
    # 84 / 152 / 152 with the certified Cholesky screen on the blocked
    # Gram.  A looser bound or guard sends more, with every output byte
    # unchanged.
    ts = simulate(SimulationSpec(7, 500, 1e6, seed=42))
    spec = ModelSpec(2, 2, 2)
    cfg = SearchConfig.from_periods(*MODELS[7].period_range, n_long=40, n_short=30)
    exact = gridsearch._Blocks.rescore
    seen = dict.fromkeys(("long", "short", "rounds"), 0)

    def counting(blocks, tuples, *need):
        seen[stage] += len(tuples)
        return exact(blocks, tuples, *need)

    monkeypatch.setattr(gridsearch._Blocks, "rescore", counting)
    stage = "long"
    pg = long_search(ts, spec, cfg)
    stage = "short"
    sh = short_search(ts, spec, cfg, pg.best)
    stage = "rounds"
    y_rounds = ts.y[None, :] + ts.sigma * np.random.default_rng(7).normal(size=(2, ts.n))
    scan_rounds(ts, spec, sh.grids, y_rounds)
    assert (pg.combinations, sh.combinations) == (780, 900)
    assert seen["long"] <= 84
    assert seen["short"] <= 152
    assert seen["rounds"] <= 152


def test_degenerate_tuples_reach_the_exact_kernel():
    # the grid holds exact octaves (3, 6), (4, 8), ...: with two harmonics
    # those tuples are rank deficient, so only the exact kernel flags them
    ts = two_sine_series()
    spec = ModelSpec(2, 2, 0)
    cfg = SearchConfig(2.0, 8.0, n_long=13)
    grid = np.linspace(2.0, 8.0, 13)
    tuples = np.concatenate(list(_product_chunks([grid] * 2, 4096)))
    _, degenerate = gridsearch.evaluate_z(ts, spec, tuples)
    assert degenerate.any()
    pg = long_search(ts, spec, cfg)
    assert pg.degenerate_hit
    z_want, f_want = brute_force_best(ts, spec, [grid, grid])
    assert pg.z_min == z_want
    assert np.array_equal(pg.best, f_want)


def test_ordered_map_keeps_input_order():
    items = range(23)
    for workers in (1, 2, 3, 40):
        assert list(ordered_map(lambda i: i * i, items, workers)) == [i * i for i in items]


def test_ordered_map_stops_at_the_first_error():
    started = []

    def call(i):
        started.append(i)
        if i == 0:
            raise ValueError("item 0")
        time.sleep(0.01)
        return i

    for workers in (1, 2):
        started.clear()
        with pytest.raises(ValueError, match="item 0"):
            list(ordered_map(call, range(200), workers))
        assert len(started) < 50


def test_rescored_tuples_do_not_depend_on_workers(monkeypatch):
    ts = two_sine_series(n=20, seed=8)
    spec = ModelSpec(2, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=40, n_short=12)
    exact = gridsearch._Blocks.rescore
    seen = {}

    def recording(blocks, tuples, *need):
        seen.setdefault((workers, stage), []).extend(map(tuple, tuples))
        return exact(blocks, tuples, *need)

    monkeypatch.setattr(gridsearch._Blocks, "rescore", recording)
    for workers in (1, 3):
        stage = "long"
        pg = long_search(ts, spec, cfg, workers=workers)
        stage = "short"
        short_search(ts, spec, cfg, pg.best, workers=workers)
    for stage in ("long", "short"):
        assert seen[1, stage]
        assert sorted(seen[1, stage]) == sorted(seen[3, stage])
    # slices do not pass through here; the exact kernel sees a small
    # share of the tuples
    assert len(seen[1, "long"]) + len(seen[1, "short"]) < comb(40, 2) // 10


def test_model7_hazard_scans_match_brute_force():
    # model 7 g(2,2,2) at SN = 1e6: scored from the Grams alone, the long
    # stage picks a near-singular tuple and the short stage a neighbour
    # whose Gram-only rss undercuts the winner's; the exact re-score must
    # restore the brute-force winner
    ts = simulate(SimulationSpec(7, 40, 1e6, seed=22))
    spec = ModelSpec(2, 2, 2)
    stats = span_stats(ts)
    cfg = SearchConfig.from_periods(0.4, 3.6, n_long=20, n_short=12)
    grid = np.linspace(cfg.f_min, cfg.f_max, cfg.n_long)

    long_tuples = np.concatenate(list(_product_chunks([grid] * 2, 4096)))
    blocks = _Blocks(ts, spec, stats, ts.sigma, [grid, grid],
                     weighted_y(ts)[None])
    idx = blocks.columns(long_tuples)
    gram = blocks.gram[idx[:, :, None], idx[:, None, :]]
    b = blocks.rhs[idx]
    x = np.linalg.pinv(gram) @ b
    gram_only = blocks.ss - 2 * np.einsum("bmr,bmr->b", b, x) + np.einsum(
        "bmr,bmr->b", x, gram @ x)

    pg = long_search(ts, spec, cfg)
    z_want, f_want = brute_force_best(ts, spec, [grid, grid])
    assert pg.z_min == z_want
    assert np.array_equal(pg.best, f_want)
    assert not np.array_equal(long_tuples[np.argmin(gram_only)], f_want)

    sh = short_search(ts, spec, cfg, pg.best)
    z_want, f_want = brute_force_best(ts, spec, sh.grids)
    assert sh.z_min == z_want
    assert np.array_equal(sh.best, f_want)
    short_tuples = np.concatenate(list(_product_chunks(sh.grids, 4096)))
    blocks = _Blocks(ts, spec, stats, ts.sigma, sh.grids,
                     weighted_y(ts)[None])
    ok, rss, _ = blocks.score(short_tuples)
    assert not np.array_equal(short_tuples[ok][np.argmin(rss[:, 0])], f_want)
    z_lo, z_hi = blocks.screen(short_tuples)
    survivors = short_tuples[(z_lo <= z_hi.min(axis=0)).any(axis=1)]
    assert len(survivors) > 1

    # rounds: each round's winner is the brute force over its own series
    rng = np.random.default_rng(11)
    y_rounds = ts.y[None, :] + ts.sigma[None, :] * rng.normal(size=(3, ts.n))
    z_min, best = scan_rounds(ts, spec, sh.grids, y_rounds)
    for r in range(3):
        ts_r = TimeSeries(ts.t, y_rounds[r], ts.sigma)
        z_want, f_want = brute_force_best(ts_r, spec, sh.grids)
        assert z_min[r] == z_want
        assert np.array_equal(best[r], f_want)


# ---------------------------------------------------------------------------
# one engine behind all three scans
# ---------------------------------------------------------------------------

def _stage_case(name):
    if name == "hazard":
        # model 7 g(2,2,2) at SN = 1e6: near-singular tuples and near ties
        ts = simulate(SimulationSpec(7, 40, 1e6, seed=5))
        return ts, ModelSpec(2, 2, 2), SearchConfig.from_periods(0.4, 3.6, n_long=20,
                                                                 n_short=12)
    ts = two_sine_series(n=20, seed=8)
    if name == "weighted":
        sigma = np.random.default_rng(4).uniform(0.05, 0.2, ts.n)
        ts = TimeSeries(ts.t, ts.y, sigma)
    else:
        ts = TimeSeries(ts.t, ts.y)
    return ts, ModelSpec(2, 1, 0), SearchConfig(4.0, 8.0, n_long=30, n_short=12)


@pytest.mark.parametrize("case", ["weighted", "unweighted", "hazard"])
def test_scan_rounds_of_the_series_equals_each_stage(case):
    ts, spec, cfg = _stage_case(case)
    pg = long_search(ts, spec, cfg)
    sh = short_search(ts, spec, cfg, pg.best)
    grid = np.linspace(cfg.f_min, cfg.f_max, cfg.n_long)
    for stage, grids in ((pg, [grid] * spec.k1), (sh, sh.grids)):
        z_min, best = scan_rounds(ts, spec, grids, ts.y[None])
        assert z_min[0] == stage.z_min
        assert np.array_equal(best[0], stage.best)


@pytest.mark.parametrize("case", ["weighted", "unweighted", "hazard"])
@pytest.mark.parametrize("exact_target", [None, 1])
def test_stage_slices_equal_periodogram_slice(case, exact_target, monkeypatch):
    # the stages score their slices inside the engine, from gathered
    # columns and in worker-independent chunks; on the shared long grid a
    # slice point duplicates the other frequency (a rank-deficient solve),
    # and the hazard case adds near-singular harmonic tuples
    if exact_target is not None:
        monkeypatch.setattr(gridsearch, "_EXACT_TARGET", exact_target)
    ts, spec, cfg = _stage_case(case)
    degenerate = False
    for workers in (1, 3):
        pg = long_search(ts, spec, cfg, workers=workers)
        sh = short_search(ts, spec, cfg, pg.best, workers=workers)
        for stage in (pg, sh):
            assert [sl.signal for sl in stage.slices] == list(range(1, spec.k1 + 1))
            for i, (sl, grid) in enumerate(zip(stage.slices, stage.grids)):
                assert sl.f is grid
                want = periodogram_slice(ts, spec, stage.best, i, grid)
                assert np.array_equal(sl.z, want)
                tuples = np.tile(stage.best, (grid.size, 1))
                tuples[:, i] = grid
                degenerate |= gridsearch.evaluate_z(ts, spec, tuples)[1].any()
    assert degenerate


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("shape", [(2, 1, 0), (2, 3, 0), (2, 1, -1), (3, 2, 2)])
def test_gathered_design_matrices_equal_design_matrix(weighted, shape):
    # the exact pass gathers each tuple's matrix from the screen's
    # columns; matmul bits depend on the layout, so it must also be
    # C-contiguous like design_matrix's output
    ts = two_sine_series(n=23, seed=6)
    if weighted:
        ts = TimeSeries(ts.t, ts.y, np.random.default_rng(2).uniform(0.05, 0.2, ts.n))
    else:
        ts = TimeSeries(ts.t, ts.y)
    spec = ModelSpec(*shape)
    stats = span_stats(ts)
    long_grid = np.linspace(2.0, 8.0, 9)
    short_grids = [np.linspace(c - 0.7, c + 0.7, 6) for c in (7.1, 6.6, 3.0)[:spec.k1]]
    for grids in ([long_grid] * spec.k1, short_grids):
        blocks = _Blocks(ts, spec, stats, ts.sigma, grids,
                         weighted_y(ts)[None])
        # every combination, descending or not, as slice points are
        tuples = np.array(list(itertools.product(*grids)))
        got = blocks.design(tuples)
        want = design_matrix(ts.t, spec, tuples, stats)
        if weighted:
            want = want / ts.sigma[None, :, None]
        assert got.flags.c_contiguous
        assert got.shape == (len(tuples), ts.n, spec.n_linear)
        assert np.array_equal(got, want)


def test_chunk_sizes_never_change_results(monkeypatch):
    # f_a = 2 f_b and 3 f_b on the long grid make rank-deficient tuples,
    # more of them than one exact-kernel chunk holds once it is shrunk
    ts = two_sine_series(n=40)
    spec = ModelSpec(2, 3, 0)
    cfg = SearchConfig(2.0, 8.0, n_long=25, n_short=12)
    rng = np.random.default_rng(29)
    y_rounds = ts.y[None, :] + rng.normal(0, 0.1, (5, ts.n))
    exact = gridsearch._Blocks.rescore
    batches = []

    def counting(blocks, tuples, *need):
        batches.append(len(tuples))
        return exact(blocks, tuples, *need)

    monkeypatch.setattr(gridsearch._Blocks, "rescore", counting)

    def run():
        batches.clear()
        pg = long_search(ts, spec, cfg)
        sh = short_search(ts, spec, cfg, pg.best)
        z, best = scan_rounds(ts, spec, sh.grids, y_rounds)
        stages = [(p.z_min, p.best.copy(), p.combinations, p.degenerate_hit)
                  for p in (pg, sh)]
        return stages, z, best, list(batches)

    want = run()
    assert want[0][0][3]  # the long stage hit a rank-deficient tuple
    monkeypatch.setattr(gridsearch, "_SCREEN_TARGET", 1)
    monkeypatch.setattr(gridsearch, "_EXACT_TARGET", 1)
    got = run()
    assert len(got[3]) > len(want[3])
    assert sum(got[3]) == sum(want[3])
    for (z_a, f_a, n_a, d_a), (z_b, f_b, n_b, d_b) in zip(got[0], want[0]):
        assert z_a == z_b
        assert np.array_equal(f_a, f_b)
        assert (n_a, d_a) == (n_b, d_b)
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


def test_each_round_keeps_its_own_survivors_and_best(monkeypatch):
    # two rounds with different signals, so different winners, and
    # rank-deficient tuples (k2 = 3) enough for two exact-kernel chunks
    monkeypatch.setattr(gridsearch, "_EXACT_TARGET", 1)
    ts = two_sine_series(n=40)
    rng = np.random.default_rng(3)
    other = (np.cos(2 * np.pi * 7.4 * ts.t) + 0.7 * np.sin(2 * np.pi * 7.1 * ts.t)
             + 1.0 + rng.normal(0, 0.1, ts.n))
    spec = ModelSpec(2, 3, 0)
    cfg = SearchConfig(2.0, 8.0, n_long=25)
    grid = np.linspace(cfg.f_min, cfg.f_max, cfg.n_long)
    y_rounds = np.stack([ts.y, other])
    z_min, best = scan_rounds(ts, spec, [grid] * 2, y_rounds)
    for r in range(2):
        pg = long_search(TimeSeries(ts.t, y_rounds[r], ts.sigma), spec, cfg)
        assert np.array_equal(best[r], pg.best)
        assert z_min[r] == pg.z_min
    assert not np.array_equal(best[0], best[1])


def test_rounds_fit_only_the_pairs_that_can_win_them(monkeypatch):
    # four rounds with two different signals, so two different winners:
    # a survivor is fitted only against the rounds whose smallest z_hi
    # its z_lo reaches, and every round keeps the brute-force winner
    ts = two_sine_series(n=40)
    rng = np.random.default_rng(3)
    other = (np.cos(2 * np.pi * 7.4 * ts.t) + 0.7 * np.sin(2 * np.pi * 7.1 * ts.t)
             + 1.0 + rng.normal(0, 0.1, ts.n))
    y_rounds = np.stack([ts.y, other, ts.y + rng.normal(0, 0.1, ts.n),
                         other + rng.normal(0, 0.1, ts.n)])
    spec = ModelSpec(2, 1, 0)
    grid = np.linspace(2.0, 8.0, 25)
    rescore, residuals = gridsearch._Blocks.rescore, BatchSolver.residuals
    seen = dict(survivors=0, needed=0, fitted=0)

    def counting_rescore(blocks, tuples, need=None):
        seen["survivors"] += len(tuples)
        seen["needed"] += len(tuples) * blocks.n_rhs if need is None else int(need.sum())
        return rescore(blocks, tuples, need)

    def counting_residuals(solver, rows):
        # (matrix, data row) columns this call fits
        seen["fitted"] += math.prod(np.broadcast_shapes(solver.a.shape[:1] + (1,),
                                                        np.shape(rows)[:-1]))
        return residuals(solver, rows)

    with monkeypatch.context() as patch:
        patch.setattr(gridsearch._Blocks, "rescore", counting_rescore)
        patch.setattr(BatchSolver, "residuals", counting_residuals)
        z_min, best = scan_rounds(ts, spec, [grid, grid], y_rounds)
    assert seen["fitted"] == seen["needed"]
    assert seen["fitted"] < seen["survivors"] * len(y_rounds)
    assert not np.array_equal(best[0], best[1])
    for r, y in enumerate(y_rounds):
        z_want, f_want = brute_force_best(TimeSeries(ts.t, y, ts.sigma), spec, [grid, grid])
        assert z_min[r] == z_want
        assert np.array_equal(best[r], f_want)


def test_gathered_factors_fit_to_the_batch_bits():
    # BatchSolver.take gathers factors, repeats included, into the layout
    # the batch has: each pair's fit equals the batch's fit of that column
    rng = np.random.default_rng(4)
    solver = BatchSolver(rng.normal(size=(5, 30, 4)))
    rows = rng.normal(size=(6, 30))
    x, resid = solver.residuals(rows[None])
    which, col = np.array([3, 0, 3, 4]), np.array([1, 5, 2, 1])
    x_p, resid_p = solver.take(which).residuals(rows[col][:, None])
    assert np.array_equal(x_p[:, 0], x[which, col])
    assert np.array_equal(resid_p[:, 0], resid[which, col])
    assert np.array_equal(solver.take(which).degenerate, solver.degenerate[which])


# ---------------------------------------------------------------------------
# every reported z is solve_linear's
# ---------------------------------------------------------------------------

@st.composite
def one_column_cases(draw):
    return dict(n=draw(st.integers(20, 1000)), k1=draw(st.integers(1, 2)),
                k2=draw(st.integers(1, 2)), k3=draw(st.integers(-1, 2)),
                weighted=draw(st.booleans()), rounds=draw(st.integers(1, 8)),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=25, deadline=None)
@given(one_column_cases())
# the bootstrap shape: many rounds, strided columns of the (n, R) data
@example(dict(n=1000, k1=1, k2=1, k3=0, weighted=True, rounds=6, seed=42))
def test_every_scan_z_is_the_one_column_fit(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    t = np.sort(rng.uniform(0.0, 20.0, n))
    y = (np.cos(2 * np.pi * 1.3 * t) + 0.6 * np.sin(2 * np.pi * 0.9 * t + 0.4)
         + 0.01 * t + rng.normal(0, 0.3, n))
    sigma = rng.uniform(0.2, 0.5, n) if case["weighted"] else None
    ts = TimeSeries(t, y, sigma)
    spec = ModelSpec(case["k1"], case["k2"], case["k3"])
    cfg = SearchConfig(0.5, 2.0, n_long=9, n_short=5, half_width_frac=0.1)

    def z_alone(series, f):
        return solve_linear(series, spec, f).z

    long_pg = long_search(ts, spec, cfg)
    short_pg = short_search(ts, spec, cfg, long_pg.best)
    for pg in (long_pg, short_pg):
        assert pg.z_min == z_alone(ts, pg.best)
        for s in pg.slices:
            tuples = np.tile(pg.best, (s.f.size, 1))
            tuples[:, s.signal - 1] = s.f
            want = np.array([z_alone(ts, f) for f in tuples])
            assert np.array_equal(s.z, want)
            assert np.array_equal(evaluate_z(ts, spec, tuples)[0], want)
            assert np.array_equal(periodogram_slice(ts, spec, pg.best, s.signal - 1,
                                                    s.f), want)

    y_rounds = ts.y[None, :] + rng.normal(0, 0.3, (case["rounds"], n))
    z_min, best = scan_rounds(ts, spec, short_pg.grids, y_rounds)
    for r in range(case["rounds"]):
        assert z_min[r] == z_alone(TimeSeries(ts.t, y_rounds[r], ts.sigma), best[r])


@pytest.mark.parametrize("rounds", [1, 2, 3, 8, 64])
def test_round_z_does_not_depend_on_the_round_count(rounds):
    # model 7 g(2,2,2): solved as one matrix-matrix product, two or more
    # rounds gave 9.08630467606394 here against the one-column 9.086304676050819
    ts = simulate(SimulationSpec(7, 40, 1e6, seed=5))
    spec = ModelSpec(2, 2, 2)
    f = np.array([0.8, 0.7])
    want = solve_linear(ts, spec, f).z
    z_min, best = scan_rounds(ts, spec, [f[:1], f[1:]], np.tile(ts.y, (rounds, 1)))
    assert np.array_equal(best, np.tile(f, (rounds, 1)))
    assert (z_min == want).all()
    assert (design_solver(ts, spec, f[None]).misfit(
        np.tile(weighted_y(ts), (rounds, 1))[None]) == want).all()
