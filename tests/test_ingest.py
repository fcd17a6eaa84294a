import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnego.config import load_config
from dpnego.contracts import ResolutionKind
from dpnego.ingest import (
    EcosystemConfig,
    LoadSeries,
    NonMonotoneTimestamps,
    ParseError,
    SchemaMismatch,
    choice_draw,
    gen_city_series,
    gen_ecosystem,
    load_csv,
    normalize_to_household,
    uniform_draw,
    write_csv,
)

CFG = load_config()


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_three_row_household(tmp_path):
    path = write(
        tmp_path,
        "timestamp,active_power_kw\n"
        "2024-01-01T00:00:00Z,1.0\n"
        "2024-01-01T01:00:00Z,1.5\n"
        "2024-01-01T02:00:00Z,0.5\n",
    )
    series = load_csv(path, "household")
    assert len(series) == 3
    assert series.resolution is ResolutionKind.HOUR1
    assert series.values.tolist() == [1.0, 1.5, 0.5]


def test_duplicate_timestamp_rejected(tmp_path):
    path = write(
        tmp_path,
        "timestamp,active_power_kw\n"
        "2024-01-01T00:00:00Z,1.0\n"
        "2024-01-01T00:00:00Z,1.5\n",
    )
    with pytest.raises(NonMonotoneTimestamps):
        load_csv(path, "household")


def stamped(timestamps):
    return LoadSeries(
        source_id="wrap",
        timestamps=np.array(timestamps, dtype=np.int64),
        values=np.zeros(len(timestamps)),
        resolution=ResolutionKind.HOUR1,
    )


def test_decreasing_stamps_whose_difference_wraps_are_refused():
    # 2**62 - (-2**62 - 2) wraps to a negative int64 difference
    with pytest.raises(NonMonotoneTimestamps):
        stamped([2**62, -2**62 - 2])


def test_increasing_stamps_whose_difference_wraps_are_kept():
    series = stamped([-2**62 - 2, 2**62])
    assert series.timestamps.tolist() == [-2**62 - 2, 2**62]


def test_bad_value_reports_line_number(tmp_path):
    # header on line 1, six data rows on lines 2-7, bad value on line 7
    rows = ["timestamp,active_power_kw"] + [
        f"2024-01-01T{h:02d}:00:00Z,1.0" for h in range(6)
    ]
    rows[6] = "2024-01-01T05:00:00Z,abc"
    path = write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, "household")
    assert err.value.line == 7


def test_schema_mismatch(tmp_path):
    path = write(tmp_path, "time,power\n2024-01-01T00:00:00Z,1.0\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path, "household")


def test_gaps_reported_not_fatal(tmp_path):
    path = write(
        tmp_path,
        "timestamp,active_power_kw\n"
        "2024-01-01T00:00:00Z,1.0\n"
        "2024-01-01T01:00:00Z,1.0\n"
        "2024-01-01T03:00:00Z,1.0\n",
    )
    series = load_csv(path, "household")
    assert series.gaps == (1,)


def test_round_trip(tmp_path):
    path = write(
        tmp_path,
        "timestamp,active_power_kw\n"
        "2024-01-01T00:00:00Z,1.2345\n"
        "2024-01-01T01:00:00Z,0.6789\n",
    )
    series = load_csv(path, "household")
    out = tmp_path / "out.csv"
    write_csv(series, out, "household")
    reparsed = load_csv(out, "household")
    assert np.array_equal(series.timestamps, reparsed.timestamps)
    assert np.array_equal(series.values, reparsed.values)
    assert series.resolution == reparsed.resolution


def test_normalize_to_household_preserves_shape(tmp_path):
    path = write(
        tmp_path,
        "timestamp,load_mw\n"
        "2024-01-01T00:00:00Z,50000\n"
        "2024-01-01T01:00:00Z,60000\n",
        name="national.csv",
    )
    series = load_csv(path, "national")
    scaled = normalize_to_household(series, target_mean_kw=0.8)
    assert scaled.values.mean() == pytest.approx(0.8)
    assert scaled.values[1] / scaled.values[0] == pytest.approx(60000 / 50000)


def test_ecosystem_deterministic():
    a = gen_ecosystem(5, CFG.catalog, CFG.ecosystem)
    b = gen_ecosystem(5, CFG.catalog, CFG.ecosystem)
    for pa, pb in zip(a.prosumers, b.prosumers):
        assert np.array_equal(pa.series.values, pb.series.values)
    c = gen_ecosystem(6, CFG.catalog, CFG.ecosystem)
    assert not np.array_equal(a.prosumers[0].series.values, c.prosumers[0].series.values)


def test_ecosystem_shape_and_budgets():
    eco = gen_ecosystem(1, CFG.catalog, CFG.ecosystem)
    assert len(eco.prosumers) == 100
    for p in eco.prosumers:
        assert len(p.series) == 60 * 24
        assert np.all(p.series.values >= 0)
        assert p.ledger.h_max == 8.0
        assert p.ledger.h_remaining == 8.0


def test_ecosystem_shares_one_read_only_grid():
    eco = gen_ecosystem(2, CFG.catalog, CFG.ecosystem)
    grid = eco.prosumers[0].series.timestamps
    assert all(p.series.timestamps is grid for p in eco.prosumers)
    hours = CFG.ecosystem.days * 24
    assert np.array_equal(grid, CFG.ecosystem.start_epoch + 3600 * np.arange(hours))
    with pytest.raises(ValueError):
        grid[0] = 0
    with pytest.raises(ValueError):
        eco.prosumers[5].series.timestamps += 1
    assert grid[0] == CFG.ecosystem.start_epoch


def test_ecosystem_values_pinned():
    # the sha256 of every prosumer's values at seed 7, each array's bytes in
    # prosumer order, as built when each prosumer held its own grid copy
    eco = gen_ecosystem(7, CFG.catalog, CFG.ecosystem)
    digest = hashlib.sha256()
    for p in eco.prosumers:
        digest.update(p.series.values.tobytes())
    assert digest.hexdigest() == (
        "2b56f88544a61b23b026320acac58545de5b8e03d61191cc99d137b0804e5b7f"
    )


@pytest.mark.parametrize("seed, n_prosumers, days, digest", [
    (0, 100, 60, "987eecdddbb27a766b6928b3d1afec83be519d918f80c3aafd02dd6aa67dfbb5"),
    (1, 40, 600, "b5636819e1c5e3875c9418c16ef70446293c227265436d8ba8766dafb1464a0a"),
    (2, 1, 60, "ad2005369e72dd33995d81eccdc0b1ec63a3c831a00d639f07520f097e53c26f"),
])
def test_ecosystem_series_pinned(seed, n_prosumers, days, digest):
    # the sha256 of the shared grid's bytes, then each prosumer's values, as
    # drawn when each prosumer's parameters were four scalar rng.uniform calls
    cfg = dataclasses.replace(CFG.ecosystem, n_prosumers=n_prosumers, days=days)
    eco = gen_ecosystem(seed, CFG.catalog, cfg)
    sha = hashlib.sha256(eco.prosumers[0].series.timestamps.tobytes())
    for p in eco.prosumers:
        sha.update(p.series.values.tobytes())
    assert sha.hexdigest() == digest


def bits(values):
    assert all(type(x) is float for x in values)
    return [x.hex() for x in values]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**128), a=FINITE, b=FINITE, equal=st.booleans(),
       k=st.integers(1, 20))
def test_uniform_draw_is_numpy_uniform(seed, a, b, equal, k):
    """k uniform_draw calls return what k scalar rng.uniform calls return, and
    then what one rng.uniform call of size k returns, bit for bit, leaving the
    generator where numpy's calls leave it. A range too wide for a double is
    refused by both."""
    lo, hi = (a, a) if equal else sorted((a, b))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if not math.isfinite(hi - lo):
        with pytest.raises(OverflowError):
            uniform_draw(ours, lo, hi)
        with pytest.raises(OverflowError):
            theirs.uniform(lo, hi)
        return
    draw = uniform_draw(ours, lo, hi)
    assert bits([draw() for _ in range(k)]) == bits([theirs.uniform(lo, hi) for _ in range(k)])
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert bits([draw() for _ in range(k)]) == bits(theirs.uniform(lo, hi, k).tolist())
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("lo, hi, error", [
    (1.0, 0.0, ValueError), (0.0, math.inf, OverflowError), (math.nan, 1.0, OverflowError),
    (-math.inf, math.inf, OverflowError), (-1e308, 1e308, OverflowError),
])
def test_uniform_draw_refuses_the_ranges_numpy_refuses(lo, hi, error):
    rng = np.random.default_rng(0)
    with pytest.raises(error):
        rng.uniform(lo, hi)
    with pytest.raises(error):
        uniform_draw(rng, lo, hi)
    assert rng.random() == np.random.default_rng(0).random()


# numpy's tolerance on the sum of float64 weights
ATOL = math.sqrt(np.finfo(np.float64).eps)
# bundle weights as a config gives them, zeros among them
WEIGHTS = st.lists(st.just(0.0) | st.floats(1e-3, 10.0), min_size=1, max_size=12).filter(any)


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2**128), raw=WEIGHTS, size=st.integers(0, 500),
       off=st.floats(-0.9, 0.9), boundary=st.floats(0.0, 1.0))
def test_choice_draw_is_numpy_choice(seed, raw, size, off, boundary):
    """Two calls of one choice_draw return what two rng.choice(len(p), size,
    p=p) calls return, indices and dtype, leaving the generator where
    numpy's calls leave it: for normalized weights, for the same weights
    with a sum off 1 within numpy's tolerance, for the probe's pool, whose
    weights are scaled by 1 - b with b appended, and for float32 weights
    whose sum is off 1 within float32's wider tolerance, which only the
    CDF's division by its last entry brings back to 1."""
    w = np.array(raw) / sum(raw)
    f32_atol = math.sqrt(np.finfo(np.float32).eps)
    for p in (w, w * (1.0 + off * ATOL), np.concatenate([w * (1.0 - boundary), [boundary]]),
              (w * (1.0 + off * f32_atol)).astype(np.float32)):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = choice_draw(ours, p)
        for _ in range(2):
            got, want = draw(size), theirs.choice(len(p), size, p=p)
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("p", [
    [0.5, math.nan, 0.5], [0.6, -0.1, 0.5], [0.5, 0.5 + 2 * ATOL], [0.5, 0.5 - 2 * ATOL],
    [math.inf, -math.inf], [], [[0.5, 0.5]], np.array([0.5, 0.5 + 1e-3], dtype=np.float32),
], ids=["nan", "negative", "sum-high", "sum-low", "inf-minus-inf", "empty", "2-d", "float32-sum"])
def test_choice_draw_refuses_the_weights_numpy_refuses(p):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rng.choice(len(p), 5, p=np.asarray(p))
    with pytest.raises(ValueError):
        choice_draw(rng, p)
    assert rng.random() == np.random.default_rng(0).random()


def test_ecosystem_holds_one_grid_and_one_values_array_per_prosumer():
    gen_ecosystem(3, CFG.catalog, CFG.ecosystem)  # lazy imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eco = gen_ecosystem(3, CFG.catalog, CFG.ecosystem)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(eco.prosumers)
    array_bytes = CFG.ecosystem.days * 24 * 8
    # the Python objects of one prosumer (series, ledger, trust store) take
    # under 1 KiB; a grid copy per prosumer would add a whole array each
    slack = 2048 * n
    assert held <= (1 + n) * array_bytes + slack


def test_one_prosumer_ecosystem_is_prosumer_zero():
    full = gen_ecosystem(11, CFG.catalog, CFG.ecosystem).prosumers[0].series
    one = gen_ecosystem(
        11, CFG.catalog, dataclasses.replace(CFG.ecosystem, n_prosumers=1)
    ).prosumers[0].series
    assert np.array_equal(one.values, full.values)
    assert np.array_equal(one.timestamps, full.timestamps)


def test_city_series_reproducible_and_sized():
    oslo = CFG.cities["oslo"]
    a = gen_city_series(oslo, seed=3)
    b = gen_city_series(oslo, seed=3)
    assert np.array_equal(a.values, b.values)
    assert len(a) == 1440


def test_oslo_colder_than_rome():
    oslo = gen_city_series(CFG.cities["oslo"], seed=3)
    rome = gen_city_series(CFG.cities["rome"], seed=3)
    assert oslo.values.mean() > rome.values.mean()


def reference_ecosystem_values(seed, cfg):
    """Each prosumer's load, drawn one scalar at a time into a fresh spike
    array, as gen_ecosystem did before it drew its parameters in one call."""
    rng = np.random.default_rng(seed)
    hours = cfg.days * 24
    t = np.arange(hours)
    daily = cfg.temp_daily_amp_c * np.sin(2 * np.pi * (t % 24) / 24 - np.pi / 2)
    temps = cfg.temp_mean_c + daily + rng.normal(0.0, cfg.temp_noise_sd_c, size=hours)
    diurnal_shape = 0.5 + 0.5 * np.sin(2 * np.pi * (t % 24 - 7) / 24) ** 2
    loads = []
    for _ in range(cfg.n_prosumers):
        base = rng.uniform(*cfg.base_kw)
        amp = rng.uniform(*cfg.diurnal_amp_kw)
        heat = rng.uniform(*cfg.heating_coeff_kw_per_degc)
        rate = rng.uniform(*cfg.appliance_events_per_day)
        load = base + amp * diurnal_shape
        load = load + heat * np.maximum(0.0, cfg.heating_setpoint_c - temps)
        n_events = rng.poisson(rate * cfg.days)
        if n_events > 0:
            starts = rng.integers(0, hours, size=n_events)
            sizes = rng.uniform(*cfg.appliance_kw, size=n_events)
            spikes = np.zeros(hours)
            np.add.at(spikes, starts, sizes)
            load = load + spikes
        loads.append(np.maximum(load, 0.0))
    return loads


@pytest.mark.parametrize("seed, days, n_prosumers", [
    (0, 60, 100), (7, 60, 100), (3, 2, 9), (11, 1, 1), (5, 365, 4),
])
def test_ecosystem_matches_the_scalar_draw_loop(seed, days, n_prosumers):
    # the shipped ranges, then wider event rates so that several spikes land
    # in one hour and their sum order shows
    for cfg in (
        dataclasses.replace(CFG.ecosystem, days=days, n_prosumers=n_prosumers),
        dataclasses.replace(CFG.ecosystem, days=days, n_prosumers=n_prosumers,
                            appliance_events_per_day=(20.0, 60.0)),
    ):
        eco = gen_ecosystem(seed, CFG.catalog, cfg)
        want = reference_ecosystem_values(seed, cfg)
        assert len(eco.prosumers) == len(want)
        for prosumer, values in zip(eco.prosumers, want):
            assert prosumer.series.values.tobytes() == values.tobytes()
