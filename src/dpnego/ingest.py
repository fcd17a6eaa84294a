"""Load time-series ingestion and the synthetic prosumer/city generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import CityProfile, EcosystemConfig
from .contracts import RESOLUTION_SECONDS, Catalog, ResolutionKind
from .negotiation import BudgetLedger
from .scoring import TrustConfig, TrustStore


class ParseError(ValueError):
    def __init__(self, line: int, message: str = ""):
        self.line = line
        super().__init__(message or f"malformed row at line {line}")


class SchemaMismatch(ValueError):
    pass


class NonMonotoneTimestamps(ValueError):
    pass


SCHEMAS = {
    "household": ("timestamp", "active_power_kw"),
    "national": ("timestamp", "load_mw"),
}

_SPACING_TO_RESOLUTION = {seconds: res for res, seconds in RESOLUTION_SECONDS.items()}


@dataclass
class LoadSeries:
    """A load time series with strictly increasing timestamps (epoch seconds)."""

    source_id: str
    timestamps: np.ndarray
    values: np.ndarray
    resolution: ResolutionKind
    gaps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must align")
        # compare neighbours: their int64 difference can wrap
        ts = self.timestamps
        if len(ts) > 1 and not (ts[1:] > ts[:-1]).all():
            raise NonMonotoneTimestamps(f"series {self.source_id} is not increasing")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def spacing_seconds(self) -> int:
        return RESOLUTION_SECONDS[self.resolution]


def _parse_timestamp(text: str, line: int) -> int:
    try:
        cleaned = text.strip()
        if cleaned.endswith("Z"):
            cleaned = cleaned[:-1] + "+00:00"
        dt = datetime.fromisoformat(cleaned)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    except ValueError:
        raise ParseError(line, f"bad timestamp {text!r} at line {line}") from None


def load_csv(path: str | Path, schema: str) -> LoadSeries:
    """Parse a documented CSV export; malformed rows raise positioned errors."""
    if schema not in SCHEMAS:
        raise SchemaMismatch(f"unknown schema {schema!r}")
    expected_header = SCHEMAS[schema]
    timestamps: list[int] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != expected_header:
            raise SchemaMismatch(
                f"{path}: header {header} does not match schema {schema!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ParseError(line_no, f"expected 2 columns at line {line_no}")
            ts = _parse_timestamp(row[0], line_no)
            try:
                value = float(row[1])
            except ValueError:
                raise ParseError(
                    line_no, f"bad value {row[1]!r} at line {line_no}"
                ) from None
            if not np.isfinite(value) or value < 0:
                raise ParseError(line_no, f"non-physical load at line {line_no}")
            timestamps.append(ts)
            values.append(value)
    ts_arr = np.asarray(timestamps, dtype=np.int64)
    if len(ts_arr) > 1:
        diffs = np.diff(ts_arr)
        if np.any(diffs <= 0):
            raise NonMonotoneTimestamps(f"{path}: timestamps must strictly increase")
        spacing = int(diffs.min())
    else:
        spacing = 3600
    resolution = _SPACING_TO_RESOLUTION.get(spacing)
    if resolution is None:
        raise SchemaMismatch(f"{path}: unsupported sample spacing {spacing}s")
    gaps = tuple(int(i) for i in np.nonzero(np.diff(ts_arr) != spacing)[0])
    return LoadSeries(
        source_id=Path(path).stem,
        timestamps=ts_arr,
        values=np.asarray(values, dtype=np.float64),
        resolution=resolution,
        gaps=gaps,
    )


def write_csv(series: LoadSeries, path: str | Path, schema: str) -> None:
    if schema not in SCHEMAS:
        raise SchemaMismatch(f"unknown schema {schema!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMAS[schema])
        for ts, value in zip(series.timestamps, series.values):
            iso = datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
            writer.writerow([iso, repr(float(value))])


def normalize_to_household(series: LoadSeries, target_mean_kw: float = 0.8) -> LoadSeries:
    """Rescale a national-magnitude series to household magnitude by matching
    its mean; the shape (and so the volatility profile) is preserved."""
    mean = float(series.values.mean())
    factor = target_mean_kw / mean if mean > 0 else 1.0
    return LoadSeries(
        source_id=series.source_id,
        timestamps=series.timestamps.copy(),
        values=series.values * factor,
        resolution=series.resolution,
        gaps=series.gaps,
    )


@dataclass
class Prosumer:
    prosumer_id: str
    series: LoadSeries
    ledger: BudgetLedger
    trust: TrustStore


@dataclass
class Ecosystem:
    prosumers: list[Prosumer]
    config: EcosystemConfig
    catalog: Catalog


def _winter_temperatures(rng: np.random.Generator, hours: int, cfg: EcosystemConfig) -> np.ndarray:
    t = np.arange(hours)
    daily = cfg.temp_daily_amp_c * np.sin(2 * np.pi * (t % 24) / 24 - np.pi / 2)
    noise = rng.normal(0.0, cfg.temp_noise_sd_c, size=hours)
    return cfg.temp_mean_c + daily + noise


def uniform_draw(rng: np.random.Generator, lo: float, hi: float) -> Callable[[], float]:
    """A function whose every call returns the float ``rng.uniform(lo, hi)``
    would, to the bit, and advances ``rng`` as that call does.

    numpy draws a uniform as ``lo + (hi - lo) * u`` in doubles, with ``u``
    the next ``rng.random()``; this does the same sum without numpy's
    per-call argument handling. The range is checked here, once, as numpy
    checks it on every call: a non-finite one raises OverflowError and a
    negative one ValueError. ``test_uniform_draw_is_numpy_uniform`` pins the
    identity over seeds and bounds."""
    lo = float(lo)
    span = float(hi) - lo
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    random = rng.random
    return lambda: lo + span * random()


# numpy's tolerance on the sum of float64 weights
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_draw(rng: np.random.Generator,
                p: np.ndarray | Sequence[float]) -> Callable[[int], np.ndarray]:
    """A function whose call with ``size`` returns the int64 indices
    ``rng.choice(len(p), size, p=p)`` would, to the bit, and advances ``rng``
    as that call does.

    numpy inverts the weights' CDF, ``cdf = p.cumsum(); cdf /= cdf[-1]``, at
    ``rng.random(size)`` with ``cdf.searchsorted(..., side="right")``; this
    builds that CDF once. ``p`` is checked here, once, as numpy checks it on
    every call and with its errors: it must be one-dimensional and not empty,
    and its Kahan-compensated sum must not be NaN, no weight may be negative,
    and the sum must be 1 within sqrt(eps) (the larger of float64's and, for
    a float array, its own dtype's), else ValueError.
    ``test_choice_draw_is_numpy_choice`` pins the identity over seeds, sizes
    and weightings."""
    atol = _SUM_ATOL
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, math.sqrt(np.finfo(p.dtype).eps))
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if not p.size:
        raise ValueError("a must be a positive integer unless no samples are taken")
    weights = p.tolist()
    total, carry = weights[0], 0.0
    for weight in weights[1:]:
        y = weight - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if min(weights) < 0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    random, search = rng.random, cdf.searchsorted
    return lambda size: search(random(size), side="right").astype(np.int64, copy=False)


def gen_ecosystem(
    seed: int,
    catalog: Catalog,
    cfg: EcosystemConfig = EcosystemConfig(),
    trust_cfg: TrustConfig = TrustConfig(),
) -> Ecosystem:
    """Generate the synthetic prosumer ecosystem: per-prosumer hourly load made
    of a base level, a diurnal cycle, temperature-coupled heating, and an
    appliance spike process. Deterministic per seed.

    Every prosumer's series holds the same hourly grid, so they share one
    read-only timestamps array: a write to it raises ``ValueError`` instead
    of moving another owner's samples. Each load is one array, built in place
    (``+=``, ``np.maximum(..., out=load)``) with the values and bits of the
    same sums into new arrays, and the spike hours are drawn with
    ``rng.integers(hours, size=n)``, the call numpy makes for
    ``integers(0, hours, size=n)``."""
    rng = np.random.default_rng(seed)
    hours = cfg.days * 24
    timestamps = cfg.start_epoch + 3600 * np.arange(hours, dtype=np.int64)
    timestamps.setflags(write=False)
    temps = _winter_temperatures(rng, hours, cfg)
    prosumers: list[Prosumer] = []
    hour_of_day = np.arange(hours) % 24
    diurnal_shape = 0.5 + 0.5 * np.sin(2 * np.pi * (hour_of_day - 7) / 24) ** 2
    heating_deficit = np.maximum(0.0, cfg.heating_setpoint_c - temps)
    # each prosumer's four parameters as lo + (hi - lo) * rng.random(): the
    # float rng.uniform(lo, hi) returns, to the bit, from the same stream
    # (test_uniform_draw_is_numpy_uniform). The spike sizes stay one sized
    # rng.uniform call, which costs less than lo + span * rng.random(n).
    draw_base = uniform_draw(rng, *cfg.base_kw)
    draw_amp = uniform_draw(rng, *cfg.diurnal_amp_kw)
    draw_heat = uniform_draw(rng, *cfg.heating_coeff_kw_per_degc)
    draw_rate = uniform_draw(rng, *cfg.appliance_events_per_day)
    for i in range(cfg.n_prosumers):
        base = draw_base()
        amp = draw_amp()
        heat = draw_heat()
        rate = draw_rate()
        load = base + amp * diurnal_shape
        load += heat * heating_deficit
        n_events = rng.poisson(rate * cfg.days)
        if n_events > 0:
            starts = rng.integers(hours, size=n_events)
            sizes = rng.uniform(*cfg.appliance_kw, size=n_events)
            load += np.bincount(starts, weights=sizes, minlength=hours)  # adds in draw order
        np.maximum(load, 0.0, out=load)
        series = LoadSeries(
            source_id=f"prosumer-{i:03d}",
            timestamps=timestamps,
            values=load,
            resolution=ResolutionKind.HOUR1,
        )
        prosumers.append(
            Prosumer(
                prosumer_id=f"prosumer-{i:03d}",
                series=series,
                ledger=BudgetLedger(h_max=cfg.initial_budget),
                trust=TrustStore(cfg=trust_cfg),
            )
        )
    return Ecosystem(prosumers=prosumers, config=cfg, catalog=catalog)


def gen_city_series(
    profile: CityProfile,
    seed: int,
    days: int = 60,
    start_epoch: int = EcosystemConfig.start_epoch,
) -> LoadSeries:
    """Synthetic city-level hourly series over a winter-anchored window; the
    seasonal term peaks mid-winter so colder profiles yield higher means."""
    rng = np.random.default_rng(seed)
    hours = days * 24
    timestamps = start_epoch + 3600 * np.arange(hours, dtype=np.int64)
    t = np.arange(hours)
    day_of_year = (t / 24.0) % 365.0
    season = 0.5 + 0.5 * np.cos(2 * np.pi * (day_of_year - 15) / 365.0)
    diurnal = 0.5 + 0.5 * np.sin(2 * np.pi * ((t % 24) - 7) / 24) ** 2
    values = (
        profile.base_kw
        + profile.seasonal_amp_kw * season
        + profile.diurnal_amp_kw * diurnal
        + rng.normal(0.0, profile.noise_sd_kw, size=hours)
    )
    return LoadSeries(
        source_id=f"city-{profile.name}",
        timestamps=timestamps,
        values=np.maximum(values, 0.0),
        resolution=ResolutionKind.HOUR1,
    )
