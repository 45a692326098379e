"""Container validation, span statistics and plain-text round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcmethod import DataError, TimeSeries, load_series, span_stats, write_series


def test_rows_sorted_by_time():
    ts = TimeSeries([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
    assert np.array_equal(ts.t, [1.0, 2.0, 3.0])
    assert np.array_equal(ts.y, [10.0, 20.0, 30.0])


def test_sigma_sorted_with_rows():
    ts = TimeSeries([2.0, 1.0], [20.0, 10.0], [0.2, 0.1])
    assert np.array_equal(ts.sigma, [0.1, 0.2])


@st.composite
def shuffled_rows(draw):
    # few distinct values, so that times and values tie, and both zeros
    n = draw(st.integers(2, 12))
    value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    t = draw(st.lists(value, min_size=n, max_size=n))
    y = draw(st.lists(value, min_size=n, max_size=n))
    sigma = draw(st.none() | st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
    return t, y, sigma, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(shuffled_rows())
def test_any_row_order_gives_the_same_bits(case):
    t, y, sigma, perm = case
    a = TimeSeries(t, y, sigma)
    b = TimeSeries(*(None if c is None else np.array(c)[perm] for c in (t, y, sigma)))
    for name in ("t", "y", "sigma"):
        got, want = getattr(b, name), getattr(a, name)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], [1.0, 2.0], [0.1])


def test_single_point_rejected():
    with pytest.raises(DataError):
        TimeSeries([1.0], [1.0])


def test_non_finite_rejected():
    with pytest.raises(DataError):
        TimeSeries([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], [np.inf, 2.0])


def test_nonpositive_sigma_rejected():
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], [1.0, 2.0], [0.1, 0.0])
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], [1.0, 2.0], [0.1, -0.1])


def test_weighted_property():
    assert not TimeSeries([0.0, 1.0], [0.0, 1.0]).weighted
    assert TimeSeries([0.0, 1.0], [0.0, 1.0], [1.0, 1.0]).weighted


def test_span_stats_values():
    ts = TimeSeries([0.0, 1.0, 4.0], [2.0, 4.0, 6.0])
    st = span_stats(ts)
    assert st.t_mid == 2.0
    assert st.delta_t == 4.0
    assert st.f0 == 0.25
    assert st.t_start == 0.0
    assert st.t_end == 4.0
    assert st.y_mean == pytest.approx(4.0)
    assert st.y_std == pytest.approx(np.std([2.0, 4.0, 6.0], ddof=1))


def test_span_stats_zero_span():
    with pytest.raises(DataError):
        span_stats(TimeSeries([1.0, 1.0], [0.0, 1.0]))


def test_load_three_columns(tmp_path):
    p = tmp_path / "data.dat"
    p.write_text("# a comment\n0.0 1.0 0.1\n\n0.5 2.0 0.1\n1.0 3.0 0.2\n")
    ts = load_series(p)
    assert ts.n == 3
    assert ts.weighted
    assert np.array_equal(ts.sigma, [0.1, 0.1, 0.2])


def test_load_two_columns(tmp_path):
    p = tmp_path / "data.dat"
    p.write_text("0 1\n1 2\n")
    ts = load_series(p)
    assert not ts.weighted


def test_load_reports_bad_line(tmp_path):
    p = tmp_path / "data.dat"
    p.write_text("0 1\n1 2\nbroken row here extra\n")
    with pytest.raises(DataError) as err:
        load_series(p)
    msg = str(err.value)
    assert "data.dat" in msg
    assert ":3" in msg


def test_load_inconsistent_columns(tmp_path):
    p = tmp_path / "data.dat"
    p.write_text("0 1 0.1\n1 2\n")
    with pytest.raises(DataError) as err:
        load_series(p)
    assert ":2" in str(err.value)


def test_load_non_numeric(tmp_path):
    p = tmp_path / "data.dat"
    p.write_text("0 one\n1 2\n")
    with pytest.raises(DataError):
        load_series(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_series(tmp_path / "absent.dat")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ts = TimeSeries(np.sort(rng.random(20)), rng.normal(size=20),
                    np.abs(rng.normal(size=20)) + 0.01)
    p = tmp_path / "round.dat"
    write_series(p, ts, header="generated for the round-trip test")
    back = load_series(p)
    assert np.array_equal(back.t, ts.t)
    assert np.array_equal(back.y, ts.y)
    assert np.array_equal(back.sigma, ts.sigma)
    assert p.read_text().startswith("# generated")
