"""Time series containers and plain-text I/O.

Data files are whitespace separated columns ``t y`` or ``t y sigma``,
with ``#`` comment lines and blank lines ignored.  Rows are kept sorted
by time, rows with equal times by y and then sigma, 0.0 before -0.0
wherever the two tie, so the order of the rows never changes a result;
per-point uncertainties, when present, must be positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["TimeSeries", "SpanStats", "load_series", "write_series", "span_stats"]


@dataclass
class TimeSeries:
    """An unevenly sampled series of measurements.

    Parameters
    ----------
    t : ndarray
        Observation times.  Rows are stored sorted ascending by
        (t, y, sigma), 0.0 before -0.0 in t and in y, so any order of
        the same rows gives the same arrays; ties in t are allowed.
    y : ndarray
        Measured values.
    sigma : ndarray, optional
        Per-point uncertainties.  ``None`` means equal, unknown errors
        and selects unweighted statistics downstream.
    """

    t: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.t.ndim != 1 or self.y.shape != self.t.shape:
            raise DataError("t and y must be 1-d arrays of equal length")
        if self.t.size < 2:
            raise DataError("need at least two points")
        if not (np.isfinite(self.t).all() and np.isfinite(self.y).all()):
            raise DataError("non-finite value in t or y")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.t.shape:
                raise DataError("sigma must match t in length")
            if not np.isfinite(self.sigma).all() or (self.sigma <= 0).any():
                raise DataError("sigma values must be finite and > 0")
        # lexsort ties -0.0 with 0.0; the sign bits break those ties
        keys = (np.signbit(self.y), self.y, np.signbit(self.t), self.t)
        order = np.lexsort(keys if self.sigma is None else (self.sigma,) + keys)
        self.t = self.t[order]
        self.y = self.y[order]
        if self.sigma is not None:
            self.sigma = self.sigma[order]

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def weighted(self) -> bool:
        """True when per-point uncertainties are available."""
        return self.sigma is not None


@dataclass(frozen=True)
class SpanStats:
    """Summary quantities of the observing span.

    ``t_mid`` and ``delta_t`` center and scale the trend variable,
    ``f0 = 1/delta_t`` is the natural frequency unit of the span.
    """

    t_mid: float
    delta_t: float
    f0: float
    y_mean: float
    y_std: float

    @property
    def t_start(self) -> float:
        return self.t_mid - 0.5 * self.delta_t

    @property
    def t_end(self) -> float:
        return self.t_mid + 0.5 * self.delta_t


def span_stats(ts: TimeSeries) -> SpanStats:
    """Compute the span statistics of a series.

    Raises
    ------
    DataError
        If all observation times coincide (zero span).
    """
    t0 = float(ts.t[0])
    t1 = float(ts.t[-1])
    delta_t = t1 - t0
    if delta_t <= 0.0:
        raise DataError("degenerate span: all observation times are equal")
    y_std = float(np.std(ts.y, ddof=1)) if ts.n > 1 else 0.0
    return SpanStats(
        t_mid=t0 + 0.5 * delta_t,
        delta_t=delta_t,
        f0=1.0 / delta_t,
        y_mean=float(np.mean(ts.y)),
        y_std=y_std,
    )


def load_series(path) -> TimeSeries:
    """Read a series from a plain-text file.

    Accepts two or three numeric columns per row; the column count must
    be consistent within one file.  Rows are sorted as ``TimeSeries``
    sorts them.

    Raises
    ------
    DataError
        On malformed rows, inconsistent column counts or invalid values.
        The error message carries the file path and 1-based line number.
    """
    rows = []
    ncols = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open data file: {exc}", path=str(path)) from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise DataError(
                    f"expected 2 or 3 columns, got {len(parts)}",
                    path=str(path), line=lineno,
                )
            if ncols is None:
                ncols = len(parts)
            elif len(parts) != ncols:
                raise DataError(
                    f"inconsistent column count ({len(parts)} after {ncols})",
                    path=str(path), line=lineno,
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise DataError(
                    f"non-numeric field in row: {text!r}",
                    path=str(path), line=lineno,
                ) from None
    if len(rows) < 2:
        raise DataError("need at least two data rows", path=str(path))
    arr = np.asarray(rows, dtype=float)
    try:
        if ncols == 2:
            return TimeSeries(arr[:, 0], arr[:, 1])
        return TimeSeries(arr[:, 0], arr[:, 1], arr[:, 2])
    except DataError as exc:
        raise DataError(f"{exc}", path=str(path)) from None


def write_series(path, ts: TimeSeries, header: str | None = None) -> None:
    """Write a series as plain text, one row per point.

    Values are written with shortest round-trip precision, so a
    load/write cycle reproduces the numbers bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for i in range(ts.n):
            cols = [repr(float(ts.t[i])), repr(float(ts.y[i]))]
            if ts.sigma is not None:
                cols.append(repr(float(ts.sigma[i])))
            fh.write(" ".join(cols) + "\n")
