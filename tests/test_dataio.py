"""Strain tables cross process boundaries, so the text codec is held to
bit-exactness: a value written in microstrain must read back as the same
float64, with no quantization drift on repeated save/load cycles."""

import csv
import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgetwin import dataio
from bridgetwin.dataio import (
    BAND_Z,
    format_microstrain,
    format_si,
    parse_hyperparameters,
    parse_microstrain,
    read_estimate,
    read_observation_table,
    read_recording,
    write_estimate,
    write_observations,
    write_prior_bands,
    write_chain,
    write_sensor_bands,
    write_table,
)
from bridgetwin.inference import Estimate, McmcConfig, run_random_walk
from bridgetwin.statfem import Hyperparameters, ObservationSet, Sensor, SensorLayout


_REFERENCE_DECIMAL = re.compile(r"^([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?$")


def shift_decimal(text: str, shift: int) -> str:
    """Multiply a decimal literal by 10**shift exactly, in text space.

    The reference codec: the package once converted microstrain by this
    text surgery, and its exponent-arithmetic codec must agree with it byte
    for byte on writing and bit for bit on reading.
    """
    text = text.strip()
    m = _REFERENCE_DECIMAL.match(text)
    if m is None:
        raise ValueError(f"not a finite decimal literal: {text!r}")
    sign, intpart, fracpart, exp = m.group(1), m.group(2), m.group(3) or "", m.group(4)
    digits = intpart + fracpart
    point = len(intpart) + (int(exp) if exp else 0) + shift
    stripped = digits.lstrip("0")
    if not stripped:
        return sign + "0"
    # keep leading zeros out of the exponent bookkeeping
    point -= len(digits) - len(stripped)
    digits = stripped.rstrip("0") or "0"
    if 0 < point <= 21 and point >= len(digits):
        body = digits + "0" * (point - len(digits))
    elif 0 < point <= 21:
        body = digits[:point] + "." + digits[point:]
    elif -4 < point <= 0:
        body = "0." + "0" * (-point) + digits
    else:
        mant = digits if len(digits) == 1 else digits[0] + "." + digits[1:]
        body = f"{mant}e{point - 1}"
    return sign + body


def reference_format(x: float) -> str:
    return shift_decimal(format_si(x), 6)


def reference_parse(text: str) -> float:
    return float(shift_decimal(text, -6))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _random_doubles(n, seed):
    rng = np.random.default_rng(seed)
    # span many magnitudes, both signs, plus awkward edge values
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, size=n)
    edges = [0.0, -0.0, 1e-308, -1e-308, 1e300, 4.9e-324, 1.0, -1.0,
             0.1, 1e-6, 123456.789e-12, np.pi, 2.0 / 3.0]
    return np.concatenate([vals, edges])


class TestShiftDecimal:
    @pytest.mark.parametrize("text,shift,expected", [
        ("1.5", 6, "1500000"),
        ("2.5e-07", 6, "0.25"),
        ("-3.25", 6, "-3250000"),
        ("1500000", -6, "1.5"),
        ("0", 6, "0"),
        ("-0", 6, "-0"),
        ("12.5e2", 0, "1250"),
    ])
    def test_examples(self, text, shift, expected):
        assert shift_decimal(text, shift) == expected

    def test_rejects_garbage(self):
        for bad in ("abc", "1.2.3", "", "nan", "0x12"):
            with pytest.raises(ValueError):
                shift_decimal(bad, 6)

    def test_matches_decimal_arithmetic(self):
        """The textual shift must be exactly multiplication by a power of ten."""
        for x in _random_doubles(2000, seed=0):
            t = format_si(float(x))
            for shift in (6, -6, 3):
                got = Decimal(shift_decimal(t, shift))
                want = Decimal(t).scaleb(shift)
                assert got == want, (t, shift)


_DIGITS = st.text("0123456789", min_size=1, max_size=26)


@st.composite
def _decimal_literals(draw):
    """Literals as a user CSV may hold them: signs, leading and trailing
    zeros, bare trailing points, e/E exponents and mantissas past 20 digits."""
    text = draw(st.sampled_from(["", "+", "-"])) + draw(_DIGITS)
    if draw(st.booleans()):
        text += "." + draw(st.one_of(st.just(""), _DIGITS))
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        text += draw(st.text("0123456789", min_size=1, max_size=3))
    return text


@settings(max_examples=500, deadline=None)
@given(_decimal_literals(), st.integers(-30, 30))
def test_shift_decimal_is_exact_scaling_of_any_literal(text, shift):
    with localcontext() as ctx:
        ctx.prec = 200  # scaleb rounds to the context precision; keep every digit
        assert Decimal(shift_decimal(text, shift)) == Decimal(text).scaleb(shift)


def _near_power_of_ten(exponent: int, ulps: int, sign: float) -> float:
    x = float(f"1e{exponent}")
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, toward))
    return sign * x


# every finite double: hypothesis' floats (which draw +-0, subnormals and
# the extremes), raw bit patterns, and powers of ten a few ulps either side,
# among them 1e15 and 1e-27, which land next to 1e21 and 1e-21 once shifted
_FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.builds(_near_power_of_ten, st.integers(-330, 310), st.integers(-3, 3),
              st.sampled_from([1.0, -1.0])),
).filter(math.isfinite)


@settings(max_examples=500, deadline=None)
@given(_FINITE_DOUBLES)
def test_format_microstrain_matches_the_reference_renderer(x):
    assert format_microstrain(x) == reference_format(x)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_decimal_literals(), _FINITE_DOUBLES.map(reference_format)))
def test_parse_microstrain_matches_the_reference_reader(text):
    assert _bits(parse_microstrain(text)) == _bits(reference_parse(text))


def test_codec_matches_the_reference_on_random_bit_patterns():
    rng = np.random.default_rng(3)
    values = np.concatenate([
        rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64),
        _random_doubles(20_000, seed=4),
    ])
    for x in values[np.isfinite(values)].tolist():
        text = format_microstrain(x)
        assert text == reference_format(x)
        assert _bits(parse_microstrain(text)) == _bits(reference_parse(text)) == _bits(x)


@pytest.mark.parametrize("text", [".5", "inf", "nan", "1_0", "1e", "--1", "", "+", "1.2.3",
                                  "0x12", "abc", "1e+", "Infinity", "-.5", "1 0"])
def test_literals_the_reference_rejects_still_raise(text):
    with pytest.raises(ValueError):
        reference_parse(text)
    with pytest.raises(ValueError):
        parse_microstrain(text)


# one representative of each rendering regime: positional, "0.000d",
# e-notation with 1-, 2- and 3-digit exponents, +-0, subnormals and the extremes
_REGIME_EDGES = [1.5e-6, -123456.789e-6, 1e-6, 1e14, 9.999999999999999e14,
                 1.5e-10, -1e-10, 1.2345e-9, 9.99e-11,
                 1e15, 1e-11, -2.5e-37, 1e-20, 3e-100, 1.7976931348623157e308,
                 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]
_BLOCK_DOUBLES = st.one_of(_FINITE_DOUBLES, st.sampled_from(_REGIME_EDGES))


def _cells(path):
    """The cells of a written table below its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@settings(max_examples=200, deadline=None)
@given(st.lists(_BLOCK_DOUBLES, min_size=1, max_size=120), st.integers(1, 4), st.integers(1, 9))
def test_block_writer_matches_the_reference_renderer(tmp_path_factory, values, n_cols, block_cells):
    """Every regime mixed in one block, in blocks small enough that runs
    straddle the row-block boundaries."""
    path = tmp_path_factory.mktemp("blocks") / "table.csv"
    n_rows = -(-len(values) // n_cols)
    grid = np.resize(np.array(values), (n_cols, n_rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_CELLS", block_cells)
        write_table(path, [f"c{j}" for j in range(n_cols)], list(grid))
    rows = _cells(path)
    assert len(rows) == n_rows
    for k, row in enumerate(rows):
        assert row == [reference_format(float(v)) for v in grid[:, k]]


def test_block_writer_across_the_default_block_size(tmp_path):
    values = _random_doubles(3 * dataio._BLOCK_CELLS // 2 + 17, seed=6)
    path = tmp_path / "long.csv"
    write_table(path, ["t", "strain"], [[str(k) for k in range(values.size)], values])
    assert [row[1] for row in _cells(path)] == [reference_format(float(v)) for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=6), _BLOCK_DOUBLES), min_size=1, max_size=40),
       st.integers(1, 9))
def test_write_table_quotes_text_as_the_csv_module(tmp_path_factory, rows, block_cells):
    """Text cells of any content, among them commas, quotes and line ends,
    are written byte for byte as a per-row csv.writer writes them."""
    path = tmp_path_factory.mktemp("text") / "table.csv"
    texts, values = [t for t, _ in rows], np.array([v for _, v in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_CELLS", block_cells)
        write_table(path, ["id, name", "strain"], [texts, values], comment="# c\n")
    ref = tmp_path_factory.mktemp("text") / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        fh.write("# c\n")
        writer = csv.writer(fh)
        writer.writerow(["id, name", "strain"])
        for t, v in rows:
            writer.writerow([t, format_microstrain(v)])
    assert path.read_bytes() == ref.read_bytes()


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_write_table_refuses_a_non_finite_strain_before_opening_the_file(tmp_path, x):
    """No truncated table: a strain past the first block is found before a
    byte is written, and the error names the path and the column."""
    path = tmp_path / "x.csv"
    strains = np.zeros(10_000)
    strains[9_000] = x
    with pytest.raises(ValueError) as err:
        write_table(path, ["t", "strain"], [[str(k) for k in range(strains.size)], strains])
    assert str(err.value) == f"{path}: column strain: not a finite strain: {x!r}"
    assert not path.exists()


@st.composite
def _literal_tables(draw):
    """Rows of microstrain literals of every accepted shape, some padded
    with whitespace, and their sensor count."""
    n_ids = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 8))
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    cells = [[draw(pad) + draw(_decimal_literals()) + draw(pad) for _ in range(n_ids)]
             for _ in range(n_rows)]
    return n_ids, cells


@settings(max_examples=200, deadline=None)
@given(_literal_tables(), st.integers(1, 9))
def test_block_reader_matches_the_reference_reader(tmp_path_factory, table, block_cells):
    n_ids, cells = table
    path = tmp_path_factory.mktemp("read") / "rec.csv"
    lines = ["t," + ",".join(f"s{i}" for i in range(n_ids))]
    lines += [f"{k * 0.5}," + ",".join(row) for k, row in enumerate(cells)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_CELLS", block_cells)
        ids, times, strains = read_observation_table(path)
    assert ids == [f"s{i}" for i in range(n_ids)]
    np.testing.assert_array_equal(times, np.arange(len(cells)) * 0.5)
    want = np.array([[reference_parse(c) for c in row] for row in cells]).T
    assert strains.shape == want.shape
    assert [_bits(v) for v in strains.ravel()] == [_bits(v) for v in want.ravel()]


@pytest.mark.parametrize("text", [".5", "inf", "nan", "1_0", "1e", "--1", "", "+", "1.2.3",
                                  "0x12", "abc", "1e+", "Infinity", "-.5", "1 0"])
def test_rejected_literal_mid_table_names_its_cell(tmp_path, text):
    path = tmp_path / "rec.csv"
    path.write_text(f"t,a,b,c\n0,1.5,2,3e-2\n0.5,4,{text},6.\n1,+7,8,9\n")
    with pytest.raises(ValueError) as err:
        read_observation_table(path)
    assert f"{path}:3: sensor b:" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "-inf", "abc", "1e999"])
def test_bad_time_cell_in_a_later_block_names_its_line(tmp_path, cell):
    path = tmp_path / "rec.csv"
    rows = [f"{k * 0.5},1.5,2" for k in range(7)]
    rows[5] = f"{cell},1.5,2"
    path.write_text("t,a,b\n" + "\n".join(rows) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_CELLS", 4)  # two rows a block
        with pytest.raises(ValueError) as err:
            read_observation_table(path)
    assert str(err.value) == f"{path}:7: column t: not a finite number: {cell!r}"


def test_bad_cell_in_a_long_recording_names_line_and_sensor(tmp_path):
    obs = _obs(n_y=5, n_o=3 * dataio._BLOCK_CELLS // 5)
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    lines = path.read_bytes().split(b"\r\n")
    row = lines[1000].split(b",")
    row[4] = b"1.5x"
    lines[1000] = b",".join(row)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1001: sensor s3: .*'1\.5x'"):
        read_observation_table(path)


def _reference_prior_bands(path, timestamps, ids, means, std):
    """The per-row writer band tables were once written by."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sensor", "mean", "lo95", "hi95"])
        for k in range(len(timestamps)):
            t_text = format_si(timestamps[k])
            for i, sid in enumerate(ids):
                m, s = means[i, k], std[i]
                writer.writerow([t_text, sid, format_microstrain(m),
                                 format_microstrain(m - BAND_Z * s), format_microstrain(m + BAND_Z * s)])


def _reference_sensor_bands(path, t, gamma, sensors, bands, observed):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        fh.write(f"# instant t={format_si(t)} gamma={format_si(gamma)}; "
                 "strains in microstrain; lo95/hi95 = mean -/+ 1.96 std\n")
        writer.writerow(["sensor", "x", "y", "fiber"]
                        + [f"{n}_{c}" for n in bands for c in ("mean", "lo95", "hi95")] + ["observed"])
        for i, s in enumerate(sensors):
            row = [s.id, format_si(s.x), format_si(s.y), s.fiber]
            for mean, std in bands.values():
                m, sd = mean[i], std[i]
                row += [format_microstrain(m), format_microstrain(m - BAND_Z * sd),
                        format_microstrain(m + BAND_Z * sd)]
            writer.writerow(row + [format_microstrain(observed[i])])


def test_prior_band_table_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(8)
    ids = ["T01", "B01", "needs,quotes", 'a "q"', "T02"]
    timestamps = np.arange(2000) * 0.004
    means = rng.standard_normal((len(ids), timestamps.size)) * 10.0 ** rng.integers(-12, -2, (len(ids), 1))
    means[0, :5] = [0.0, -0.0, 5e-324, 1e15, -1e-11]
    std = np.abs(rng.standard_normal(len(ids))) * 1e-6
    write_prior_bands(tmp_path / "new.csv", timestamps, ids, means, std)
    _reference_prior_bands(tmp_path / "ref.csv", timestamps, ids, means, std)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sensor_band_table_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(9)
    sensors = [Sensor(f"s{i}", 0.1 * i, -2.0, "top" if i % 2 else "bottom", 0, 0.0, "main")
               for i in range(7)]
    bands = {name: (rng.standard_normal(7) * 1e-5, np.abs(rng.standard_normal(7)) * 1e-6)
             for name in ("prior", "fe", "z")}
    observed = rng.standard_normal(7) * 1e-5
    write_sensor_bands(tmp_path / "new.csv", 2.004, 0.75, sensors, bands, observed)
    _reference_sensor_bands(tmp_path / "ref.csv", 2.004, 0.75, sensors, bands, observed)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_chain(path, chain):
    """The per-row rendering of a chain table."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "rho", "sigma_d", "ell_d", "log_post", "accepted"])
        for k, ((rho, sigma_d, ell_d), log_post, accepted) in enumerate(
                zip(chain.samples, chain.log_density, chain.accepted)):
            writer.writerow([str(chain.config.n_burn + k), format_si(rho), format_microstrain(sigma_d),
                             format_si(ell_d), format_si(log_post), str(int(accepted))])


def test_chain_table_is_written_a_block_at_a_time(tmp_path):
    """A 20 000-iteration chain, 15 000 kept rows, is written with a traced
    heap peak under 2 MB, since its text cells are rendered a block at a
    time (0.5 MB here, 8.2 MB when every row's text was rendered first),
    and its bytes are those of the per-row rendering."""
    chain = run_random_walk(lambda w: -0.5 * float(w @ w), McmcConfig(iterations=20000, seed=1))
    assert len(chain) == 15000
    tracemalloc.start()
    try:
        write_chain(tmp_path / "new.csv", chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    _reference_chain(tmp_path / "ref.csv", chain)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_strains_are_not_written(x):
    with pytest.raises(ValueError):
        reference_format(x)
    with pytest.raises(ValueError):
        format_microstrain(x)


class TestMicrostrainRoundTrip:
    def test_bit_exact_both_ways(self):
        for x in _random_doubles(20_000, seed=1):
            x = float(x)
            again = parse_microstrain(format_microstrain(x))
            assert again == x or (np.isnan(x) and np.isnan(again))
            assert np.signbit(again) == np.signbit(x)

    def test_repeated_cycles_are_stationary(self):
        """Ten save/load cycles must not walk the value at all."""
        for x in _random_doubles(200, seed=2):
            x = float(x)
            y = x
            for _ in range(10):
                y = parse_microstrain(format_microstrain(y))
            assert y == x


def _obs(n_y=3, n_o=4):
    rng = np.random.default_rng(5)
    layout = SensorLayout(sensors=tuple(
        Sensor(f"s{i}", float(i), 0.0, "top", 0, 0.0, "main") for i in range(n_y)
    ))
    return ObservationSet(
        strains=1e-6 * rng.standard_normal((n_y, n_o)),
        timestamps=np.arange(n_o) * 0.004 + 1.0,
        sigma_e=1e-6,
        gamma=np.linspace(0.0, 1.0, n_o),
        layout=layout,
    )


class TestObservationTable:
    def test_round_trip_is_bit_identical(self, tmp_path):
        obs = _obs()
        path = tmp_path / "obs.csv"
        write_observations(path, obs)
        ids, ts, strains = read_observation_table(path)
        assert ids == obs.layout.ids
        np.testing.assert_array_equal(ts, obs.timestamps)
        np.testing.assert_array_equal(strains, obs.strains)

    def test_file_is_in_microstrain(self, tmp_path):
        obs = _obs()
        path = tmp_path / "obs.csv"
        write_observations(path, obs)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        first_cell = lines[1].split(",")[1]
        assert float(first_cell) == pytest.approx(obs.strains[0, 0] * 1e6, rel=1e-12)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_observation_table(path)

    def test_missing_time_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_observation_table(path)


def _estimate(w):
    """The estimate record of a chain whose point estimate is ``w``."""
    return Estimate(w, std=(0.0, 0.0, 0.0), acceptance_rate=0.0, n_kept=0)


class TestRecordingRows:
    """A recording's rows are checked whole and its strain cells parsed
    only for the rows asked for."""

    @pytest.mark.parametrize("rows", [[], [0], [2, 5, 6], [0, 1, 2, 3, 4, 5, 6], None])
    def test_selected_rows_read_the_bits_of_the_whole_table(self, tmp_path, rows):
        obs = _obs(n_y=3, n_o=7)
        path = tmp_path / "obs.csv"
        write_observations(path, obs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_BLOCK_CELLS", 6)  # two rows a block
            strains = read_recording(path).strains(rows)
        want = obs.strains if rows is None else obs.strains[:, rows]
        assert strains.shape == want.shape
        assert [_bits(v) for v in strains.ravel()] == [_bits(v) for v in want.ravel()]

    def test_bad_cell_is_reported_only_in_a_parsed_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,a,b\n0,1.5,2\n0.5,4,x\n1,+7,8\n")
        recording = read_recording(path)
        np.testing.assert_array_equal(recording.timestamps, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(recording.strains([0, 2]), [[1.5e-6, 7e-6], [2e-6, 8e-6]])
        with pytest.raises(ValueError) as err:
            recording.strains([1, 2])
        assert str(err.value) == f"{path}:3: sensor b: not a finite decimal literal: 'x'"

    def test_cell_holding_a_comma_is_named_whole(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text('t,a,b\n0,1.5,2\n0.5,"4,5",6\n')
        recording = read_recording(path)
        np.testing.assert_array_equal(recording.strains([0]), [[1.5e-6], [2e-6]])
        with pytest.raises(ValueError) as err:
            recording.strains()
        assert str(err.value) == f"{path}:3: sensor a: not a finite decimal literal: '4,5'"

    @pytest.mark.parametrize("last,message", [
        ("1.0,7", "{path}:4 has 2 cells, expected 3"),
        ("nan,7,8", "{path}:4: column t: not a finite number: 'nan'"),
        # a row is one instant, so a repeated time would count its strains twice in the evidence
        ("0.50,7,8", "{path}:4: column t: '0.50' does not exceed the previous row's '0.5'"),
        ("0.25,7,8", "{path}:4: column t: '0.25' does not exceed the previous row's '0.5'"),
    ])
    def test_every_row_and_time_cell_is_checked_before_any_strain_cell(self, tmp_path, last, message):
        path = tmp_path / "rec.csv"
        path.write_text(f"t,a,b\n0,x,2\n0.5,4,5\n{last}\n")
        with pytest.raises(ValueError) as err:
            read_recording(path)
        assert str(err.value) == message.format(path=path)


class TestEstimateFile:
    def test_round_trip(self, tmp_path):
        w = Hyperparameters(rho=0.37281946, sigma_d=4.0917e-6, ell_d=1.7320508)
        path = tmp_path / "est.json"
        write_estimate(path, _estimate(w))
        again = read_estimate(path)
        assert again.rho == w.rho
        assert again.ell_d == w.ell_d
        # sigma_d passes through a microstrain rescale, so allow one ulp
        assert again.sigma_d == pytest.approx(w.sigma_d, rel=1e-15)

    def test_sigma_stored_in_microstrain(self, tmp_path):
        w = Hyperparameters(rho=1.0, sigma_d=4e-6, ell_d=1.0)
        path = tmp_path / "est.json"
        write_estimate(path, _estimate(w))
        import json
        raw = json.loads(path.read_text())
        assert raw["sigma_d_microstrain"] == pytest.approx(4.0)


class TestParseHyperparameters:
    def test_inline_triplet(self):
        w = parse_hyperparameters("0.9,4.0,0.5")
        assert w.rho == 0.9
        assert w.sigma_d == pytest.approx(4.0e-6)
        assert w.ell_d == 0.5

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_hyperparameters("1.0,2.0")