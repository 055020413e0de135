"""File formats: observation, layout, series and chain CSVs, JSON estimates.

All strain columns on disk are in microstrain; everything in memory is
dimensionless strain. The conversion moves the decimal exponent by 6 and
never multiplies: writing renders the 17 significant digits of a value with
its exponent raised by 6, and reading hands the literal with its exponent
lowered by 6 to float(), which rounds correctly. Both directions are exact,
so a recording survives write/read round trips bit-identically. Other SI
quantities are rendered at 17 significant digits too, which round-trips
float64 exactly.

Tables go through one writer, ``write_table``, which renders every cell a
block of rows at a time, and strain cells are read a block at a time too: a
block's strain cells are rendered by one bulk ``%e`` conversion and
array-level digit and exponent shuffling, and read by one grammar check and
one float() pass. The per-cell functions ``format_microstrain`` and
``parse_microstrain`` are the one-cell blocks.
A recording is read in two steps: ``read_recording`` checks every row's
cell count and time cell, and its ``strains`` parses the strain cells of
the rows a caller keeps, so a query pays for the rows it answers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, Fields, readonly
from .statfem import Hyperparameters, ObservationSet

MICROSTRAIN = 1e-6
BAND_Z = 1.959963984540054  # two-sided 95% normal quantile: lo95/hi95 = mean -/+ BAND_Z std

# a table block holds about this many cells, which bounds the codec's temporaries
_BLOCK_CELLS = 1 << 12


def format_si(x: float) -> str:
    """Render a float at 17 significant digits; parses back bit-identically."""
    return format(float(x), ".17g")


def _si_cells(values) -> list[str]:
    return list(map(format_si, np.asarray(values, dtype=float).tolist()))


def _int_cells(values) -> list[str]:
    return [str(int(v)) for v in values]


class _Rendered:
    """A text column whose cells are rendered from ``values`` by ``render``
    only when a slice of rows is taken, so the table writer holds one block
    of its text at a time."""

    def __init__(self, values, render=_si_cells) -> None:
        self.values, self.render = values, render

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice) -> list[str]:
        return self.render(self.values[rows])


# -- the microstrain codec ----------------------------------------------------

# every value's 17 significant digits at one width: sign, digit, '.', 16
# digits, 'e', exponent sign, two exponent digits and a third or a space
_E_FORMAT = "%-+24.16e"
_E_DIGITS = np.r_[1, 3:19]
_CELL_WIDTH = 24  # the longest cell: '-', 17 digits, '.', 'e' and a 4-character exponent
_MAX_SHIFT = 6  # a digit sits at most this many places right of its index: '-0.000d'


def _cell_templates(neg: np.ndarray, point: np.ndarray, n_sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The layout of cells with sign ``neg``, ``point`` digits before the
    decimal point after the shift and ``n_sig`` significant digits, and
    their lengths. A place holds either an ASCII character or, below 32,
    how far right of its index the digit it shows has moved: a digit index
    below 0 or above 16 shows a '0'."""
    # positional within (-4, 21] places of the first digit, e-notation otherwise;
    # a positional value below 1 is its digits behind 1 - point zeros: "0.000ddd"
    positional = (point > 0) & (point <= 21)
    fraction = (point > -4) & (point <= 0)
    lead = np.where(fraction, 1 - point, 0)
    dot_at = np.where(positional, point, 1)
    dot = np.where(positional, point < n_sig, fraction | (n_sig > 1))
    mantissa = np.maximum(n_sig + lead, dot_at) + dot
    # e-notation appends 'e' and the exponent point - 1: [-]d[d[d]]
    e_value = point - 1
    e_mag = np.abs(e_value)
    e_len = np.where(positional | fraction, 0, 2 + (e_value < 0) + (e_mag >= 10) + (e_mag >= 100))

    q = np.arange(_CELL_WIDTH) - neg[:, None]  # place after the sign
    tmpl = neg[:, None] + lead[:, None] + (dot[:, None] & (q > dot_at[:, None]))
    tmpl = np.where(dot[:, None] & (q == dot_at[:, None]), ord("."), tmpl)
    # place k of the exponent text, counted back from its end
    k = (mantissa + e_len)[:, None] - 1 - q
    e_digit = e_mag[:, None] // 10 ** np.clip(k, 0, 3) % 10 + ord("0")
    e_text = np.where(k == e_len[:, None] - 1, ord("e"),
                      np.where((k == e_len[:, None] - 2) & (e_value[:, None] < 0), ord("-"), e_digit))
    tmpl = np.where(q >= mantissa[:, None], e_text, tmpl)
    tmpl = np.where(q < 0, ord("-"), tmpl)
    return tmpl.astype(np.uint8), neg + mantissa + e_len


def _render_microstrain(values) -> list[str]:
    """``format_microstrain`` of every value of a finite float array at once."""
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    e = np.frombuffer((_E_FORMAT * n % tuple(x.tolist())).encode("ascii"), np.uint8).reshape(n, 24)
    # the 17 digits with room for every shift on either side
    padded = np.full((n, _MAX_SHIFT + _CELL_WIDTH), ord("0"), np.uint8)
    digits = padded[:, _MAX_SHIFT:_MAX_SHIFT + 17]
    digits[:] = e[:, _E_DIGITS]
    nonzero = digits != ord("0")
    zero = ~nonzero.any(axis=1)
    n_sig = np.where(zero, 1, 17 - np.argmax(nonzero[:, ::-1], axis=1))  # digits without trailing zeros
    exp = e[:, 21:24].astype(np.int64) - ord("0")
    exp = np.where(e[:, 23] == ord(" "), 10 * exp[:, 0] + exp[:, 1], 100 * exp[:, 0] + 10 * exp[:, 1] + exp[:, 2])
    point = np.where(zero, 1, np.where(e[:, 20] == ord("-"), -exp, exp) + 7)
    neg = e[:, 0] == ord("-")
    # cells sharing sign, point and digit count share a layout: build each layout once
    shapes, cell_shape = np.unique((point * 32 + n_sig) * 2 + neg, return_inverse=True)
    layouts, lengths = _cell_templates(shapes & 1, (shapes >> 1) // 32, (shapes >> 1) % 32)
    chars = layouts[cell_shape]
    for shift in set(layouts[layouts <= _MAX_SHIFT].tolist()):
        np.copyto(chars, padded[:, _MAX_SHIFT - shift:_MAX_SHIFT - shift + _CELL_WIDTH], where=chars == shift)
    # NUL past each cell's end: a bytes view of the row drops trailing NULs
    chars[np.arange(_CELL_WIDTH) >= lengths[cell_shape][:, None]] = 0
    return chars.view(f"S{_CELL_WIDTH}").ravel().astype(str).tolist()


def format_microstrain(strain: float) -> str:
    """Exact microstrain rendering of an internal strain value.

    The 17 significant digits of ``strain`` lose their trailing zeros and
    gain 6 on the decimal exponent; the value is written positionally when
    its decimal point falls within (-4, 21] places of the first digit and
    in e-notation otherwise, so 1.5e-06 becomes "1.5", 1.5e-10 "0.00015"
    and 1e15 "1e21". A value that is not finite raises ValueError.
    """
    if not math.isfinite(strain):
        raise ValueError(f"not a finite strain: {float(strain)!r}")
    return _render_microstrain([float(strain)])[0]


# a strain cell: a literal with optional whitespace around it, and no bare leading
# point, inf, nan or underscores. A block of cells, each followed by a comma, is
# valid when deleting every match leaves nothing: a match ends at the first
# comma, so it is one cell, and unlike one match over the whole block this
# keeps no backtracking state per cell
_CELL = re.compile(r"\s*[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?\s*,")
_EXPONENT = re.compile("[eE]")


def _parse_microstrain(text: str, n_cells: int) -> np.ndarray | None:
    """Internal strain values of ``n_cells`` comma-separated microstrain
    literals, or None when a cell is not a finite decimal literal. Each
    literal's decimal exponent is lowered by 6 in text and float() rounds
    the result once, correctly."""
    text += ","
    if text.count(",") != n_cells or _CELL.sub("", text):
        return None
    text = "".join(text.split())
    lowered = text.replace(",", "e-6,")[:-1].split(",")
    if "e" in text or "E" in text:
        # the cells that carry an exponent lower it instead
        b = np.frombuffer(text.encode("utf-8"), np.uint8)
        ends = np.flatnonzero(b == ord(","))
        for i in np.searchsorted(ends, np.flatnonzero(b | 32 == ord("e"))).tolist():
            mantissa, exponent = _EXPONENT.split(lowered[i][:-3])
            lowered[i] = f"{mantissa}e{int(exponent) - 6}"
    return np.fromiter(map(float, lowered), float, n_cells)


def parse_microstrain(text: str) -> float:
    """Exact internal strain value of a microstrain literal.

    The literal's decimal exponent is lowered by 6 and float() rounds the
    result once, correctly; anything but a finite decimal literal raises
    ValueError.
    """
    values = _parse_microstrain(text, 1)
    if values is None:
        raise ValueError(f"not a finite decimal literal: {text.strip()!r}")
    return float(values[0])


# -- tables -------------------------------------------------------------------


def _csv_cells(values) -> list[str]:
    """Each text value as the csv module writes it inside a row; each
    distinct value is rendered once."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    rendered = {}
    for value in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, ""])  # a lone empty field would be quoted
        rendered[value] = buf.getvalue()[:-3]
    return list(map(rendered.__getitem__, values))


def write_table(path: str, header: list[str], columns: list, comment: str = "") -> None:
    """The one CSV writer: equal-length columns under a header row, after
    ``comment`` written verbatim. A float array is a strain column written in
    microstrain; any other sequence holds the text of its cells, or renders
    it when sliced. Rows are rendered and written a block at a time, with
    the csv module's quoting and line ends. A strain column holding a value
    that is not finite raises ValueError naming the path and the column
    before the file is opened."""
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns) or len(header) != len(columns):
        raise ValueError("table columns must match the header and have equal lengths")
    for name, column in zip(header, columns):
        if isinstance(column, np.ndarray) and not np.isfinite(column).all():
            bad = float(column[~np.isfinite(column)][0])
            raise ValueError(f"{path}: column {name}: not a finite strain: {bad!r}")
    strain_at = [i for i, c in enumerate(columns) if isinstance(c, np.ndarray)]
    step = max(1, _BLOCK_CELLS // len(columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment)
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, step):
            block = [c[lo:lo + step] if isinstance(c, np.ndarray) else _csv_cells(c[lo:lo + step])
                     for c in columns]
            if strain_at:
                # one rendering for all the block's strain cells, column after column
                rows = len(block[0])
                cells = _render_microstrain(np.stack([block[i] for i in strain_at]))
                for k, i in enumerate(strain_at):
                    block[i] = cells[k * rows:(k + 1) * rows]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*block)]))


def _rows(path: str, reader, least: int, most: int):
    """(line, row) of the non-blank rows left in ``reader``, each of ``least``
    to ``most`` cells."""
    for row in reader:
        if not row:
            continue
        if not least <= len(row) <= most:
            expected = most if least == most else f"{least} to {most}"
            raise ValueError(f"{path}:{reader.line_num} has {len(row)} cells, expected {expected}")
        yield reader.line_num, row


def _records(path: str, fh, required: set[str], usage: str):
    """The header of a CSV that names the ``required`` columns, and its rows
    as (line, {column: cell}). A row may leave out optional cells after the
    last required one, which read as empty, but may not add cells."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if not header or not required.issubset(header):
        raise ValueError(f"{path} must have {usage}")
    least = 1 + max(map(header.index, required))
    return header, ((line, dict(itertools.zip_longest(header, row, fillvalue="")))
                    for line, row in _rows(path, reader, least, len(header)))


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _finite_column(path: str, column: str, lines, cells: list[str]) -> np.ndarray:
    """The cells of one column, read on ``lines`` of ``path``, as a float
    array; a cell that is not a finite number raises ValueError naming its
    path:line and the column."""
    values = np.fromiter(map(_float_or_nan, cells), float, len(cells))
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}:{lines[i]}: column {column}: not a finite number: {cells[i].strip()!r}")
    return values


# -- observation recordings ---------------------------------------------------


def write_observations(path: str, obs: ObservationSet) -> None:
    """CSV with a time column and one microstrain column per sensor id."""
    write_table(path, ["t"] + obs.layout.ids,
                [_si_cells(obs.timestamps), *obs.strains])


@dataclass(frozen=True, eq=False)
class Recording:
    """A recording CSV read up to its strain cells: the sensor ids, and the
    line, timestamp and strain text of every row. Every row's cell count
    and time cell are checked when it is read; :meth:`strains` parses the
    strain cells of the rows asked for, and only those."""

    path: str
    ids: tuple[str, ...]
    lines: tuple[int, ...]
    timestamps: np.ndarray
    # each row's strain cells joined by commas, or the cells themselves when one holds a comma
    cells: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", readonly(self.timestamps))

    def strains(self, rows=None) -> np.ndarray:
        """Strains (n_y, len(rows)) of the rows at the given indices, every
        row by default, parsed a block of about _BLOCK_CELLS cells at a
        time. A cell that is not a finite decimal literal raises ValueError
        naming its path:line and sensor."""
        rows = range(len(self.cells)) if rows is None else np.asarray(rows, dtype=int).tolist()
        n_y = len(self.ids)
        step = max(1, _BLOCK_CELLS // n_y)
        blocks = [self._parse(rows[lo:lo + step]) for lo in range(0, len(rows), step)]
        return (np.concatenate(blocks) if blocks else np.empty(0)).reshape(-1, n_y).T

    def _cells(self, row: int):
        cells = self.cells[row]
        return cells.split(",") if isinstance(cells, str) else cells

    def _parse(self, rows: list[int]) -> np.ndarray:
        text = ",".join(c if isinstance(c, str) else ",".join(c) for c in map(self.cells.__getitem__, rows))
        values = _parse_microstrain(text, len(rows) * len(self.ids))
        if values is None:
            i, sensor, cell = next((i, sensor, cell) for i in rows for sensor, cell in zip(self.ids, self._cells(i))
                                   if _parse_microstrain(cell, 1) is None)
            raise ValueError(f"{self.path}:{self.lines[i]}: sensor {sensor}: "
                             f"not a finite decimal literal: {cell.strip()!r}")
        return values


def read_recording(path: str) -> Recording:
    """Read a recording CSV up to its strain cells. A row with the wrong
    number of cells, a time cell that is not a finite number, or a time
    that does not exceed the previous row's raises ValueError naming its
    path:line, wherever it is; no strain cell is parsed yet."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        if not header or header[0] != "t":
            raise ValueError(f"{path} must start with a 't' column")
        ids = header[1:]
        if not ids:
            raise ValueError(f"{path} has no sensor columns")
        lines, times, cells = [], [], []
        for line, row in _rows(path, reader, len(ids) + 1, len(ids) + 1):
            text = ",".join(row[1:])
            lines.append(line)
            times.append(row[0])
            cells.append(text if text.count(",") == len(ids) - 1 else tuple(row[1:]))
    if not lines:
        raise ValueError(f"{path} holds no data rows")
    timestamps = _finite_column(path, "t", lines, times)
    back = np.flatnonzero(np.diff(timestamps) <= 0.0)
    if back.size:
        i = int(back[0]) + 1
        raise ValueError(f"{path}:{lines[i]}: column t: {times[i].strip()!r} does not exceed "
                         f"the previous row's {times[i - 1].strip()!r}")
    return Recording(path, tuple(ids), tuple(lines), timestamps, tuple(cells))


def read_observation_table(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a recording CSV: (sensor ids, timestamps, strains (n_y, n_o)),
    every row parsed; :func:`read_recording` with all of its rows."""
    recording = read_recording(path)
    return list(recording.ids), recording.timestamps, recording.strains()


# -- sensor layouts -----------------------------------------------------------


def read_layout_entries(path: str) -> list[dict]:
    """Sensor descriptions from CSV, ready for SensorLayout.resolve."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _, records = _records(path, fh, {"id", "x", "y", "fiber"}, "columns id,x,y,fiber[,line]")
        records = list(records)
    if not records:
        raise ValueError(f"{path} lists no sensors")
    lines, rows = zip(*records)
    xs = _finite_column(path, "x", lines, [row["x"] for row in rows]).tolist()
    ys = _finite_column(path, "y", lines, [row["y"] for row in rows]).tolist()
    entries = []
    for row, x, y in zip(rows, xs, ys):
        entry = {"id": row["id"], "x": x, "y": y, "fiber": row["fiber"].strip()}
        if row.get("line", "").strip():
            entry["line"] = row["line"].strip()
        entries.append(entry)
    return entries


# -- band tables --------------------------------------------------------------


def _band_columns(mean: np.ndarray, std: np.ndarray) -> list[np.ndarray]:
    return [mean, mean - BAND_Z * std, mean + BAND_Z * std]


def write_prior_bands(path: str, timestamps: np.ndarray, ids: list[str],
                      means: np.ndarray, std: np.ndarray) -> None:
    """One row per instant and sensor: the prior strain mean (n_y, n_o) with
    its 95% band from the per-sensor std (n_y,), in microstrain."""
    n_o = len(timestamps)
    write_table(path, ["t", "sensor", "mean", "lo95", "hi95"], [
        [t for t in _si_cells(timestamps) for _ in ids],
        ids * n_o,
        *_band_columns(np.asarray(means).T.ravel(), np.tile(std, n_o)),
    ])


def write_sensor_bands(path: str, t: float, gamma: float, sensors, bands: dict,
                       observed: np.ndarray | None = None) -> None:
    """One row per sensor at one instant: its place, then mean, lo95 and hi95
    in microstrain of each named (mean, std) band, columns prefixed by the
    name unless it is empty, and the observed strain when given."""
    header = ["sensor", "x", "y", "fiber"]
    columns = [[s.id for s in sensors], _si_cells([s.x for s in sensors]),
               _si_cells([s.y for s in sensors]), [s.fiber for s in sensors]]
    for name, (mean, std) in bands.items():
        header += [f"{name}_{c}" if name else c for c in ("mean", "lo95", "hi95")]
        columns += _band_columns(np.asarray(mean, dtype=float), np.asarray(std, dtype=float))
    if observed is not None:
        header.append("observed")
        columns.append(np.asarray(observed, dtype=float))
    comment = (f"# instant t={format_si(t)} gamma={format_si(gamma)}; "
               "strains in microstrain; lo95/hi95 = mean -/+ 1.96 std\n")
    write_table(path, header, columns, comment)


# -- FBG calibration tables ---------------------------------------------------


def read_shift_table(path: str) -> tuple[list[str] | None, np.ndarray, np.ndarray | None]:
    """Relative wavelength shifts of an FBG CSV with a rel_shift_s column and
    optional rel_shift_t and t columns, all finite numbers: (t cells as
    written or None, strain grating shifts, temperature grating shifts or None)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, records = _records(path, fh, {"rel_shift_s"}, "a rel_shift_s column")
        records = list(records)
    if not records:
        raise ValueError(f"{path} holds no data rows")
    lines, rows = zip(*records)
    shifts = {c: _finite_column(path, c, lines, [row[c] for row in rows])
              for c in ("rel_shift_s", "rel_shift_t", "t") if c in header}
    times = [row["t"] for row in rows] if "t" in header else None
    return times, shifts["rel_shift_s"], shifts.get("rel_shift_t")


def write_strain_series(path: str, times: list[str] | None, strains: np.ndarray) -> None:
    """Strain in microstrain, after the t cells when given."""
    if times is None:
        write_table(path, ["strain"], [strains])
    else:
        write_table(path, ["t", "strain"], [times, strains])


# -- load series and chains ---------------------------------------------------


def write_load_series(path: str, series) -> None:
    """CSV of per-instant force norm and relative intensity."""
    write_table(path, ["t", "f_norm", "gamma"],
                [_si_cells(series.timestamps), _si_cells(series.norms), _si_cells(series.gamma)])


def write_chain(path: str, chain) -> None:
    """Kept samples, one row per iteration; sigma_d in microstrain."""
    n_burn = chain.config.n_burn
    write_table(path, ["iter", "rho", "sigma_d", "ell_d", "log_post", "accepted"], [
        _Rendered(range(n_burn, n_burn + len(chain)), _int_cells),
        _Rendered(chain.samples[:, 0]),
        chain.samples[:, 1],
        _Rendered(chain.samples[:, 2]),
        _Rendered(chain.log_density),
        _Rendered(chain.accepted, _int_cells),
    ])


def write_estimate(path: str, estimate) -> None:
    """The :class:`~bridgetwin.inference.Estimate` of a chain as JSON;
    sigma_d stored in microstrain."""
    w = estimate.w
    doc = {
        "rho": w.rho,
        "sigma_d_microstrain": w.sigma_d / MICROSTRAIN,
        "ell_d": w.ell_d,
        "acceptance_rate": estimate.acceptance_rate,
        "n_kept": estimate.n_kept,
        "components": {name: {"mean": mean, "std": std} for name, mean, std in estimate.components},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_estimate(path: str) -> Hyperparameters:
    """The point estimate of :func:`write_estimate`. Its values are read by
    the configuration documents' finite-number rule, and an error names the
    file and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {doc!r}")
    fields = Fields(doc, f"{path}: ")
    return Hyperparameters(fields.number("rho"), fields.number("sigma_d_microstrain") * MICROSTRAIN,
                           fields.number("ell_d"))


def parse_hyperparameters(text: str) -> Hyperparameters:
    """Inline 'rho,sigma_d,ell_d' with sigma_d in microstrain."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected rho,sigma_d,ell_d, got {text!r}")
    return Hyperparameters(
        float(parts[0]), float(parts[1]) * MICROSTRAIN, float(parts[2])
    )
