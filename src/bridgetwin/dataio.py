"""File formats: observation, layout, series and chain CSVs, JSON estimates.

All strain columns on disk are in microstrain; everything in memory is
dimensionless strain. The conversion is done textually by shifting the
decimal exponent of a 17-significant-digit rendering, which is exact in
both directions, so a recording survives write/read round trips
bit-identically. Other SI quantities are rendered at 17 significant digits
too, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from .statfem import Hyperparameters, ObservationSet

MICROSTRAIN = 1e-6

_DECIMAL = re.compile(r"^([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?$")


def format_si(x: float) -> str:
    """Render a float at 17 significant digits; parses back bit-identically."""
    return format(float(x), ".17g")


def shift_decimal(text: str, shift: int) -> str:
    """Multiply a decimal literal by 10**shift exactly, in text space."""
    text = text.strip()
    m = _DECIMAL.match(text)
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


def format_microstrain(strain: float) -> str:
    """Exact microstrain rendering of an internal strain value."""
    return shift_decimal(format_si(strain), 6)


def parse_microstrain(text: str) -> float:
    """Exact internal strain value of a microstrain literal."""
    return float(shift_decimal(text, -6))


# -- observation recordings ---------------------------------------------------


def write_observations(path: str, obs: ObservationSet) -> None:
    """CSV with a time column and one microstrain column per sensor id."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + obs.layout.ids)
        for k in range(obs.n_instants):
            row = [format_si(obs.timestamps[k])]
            row.extend(format_microstrain(v) for v in obs.strains[:, k])
            writer.writerow(row)


def read_observation_table(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a recording CSV: (sensor ids, timestamps, strains (n_y, n_o))."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if not header or header[0] != "t":
            raise ValueError(f"{path} must start with a 't' column")
        ids = header[1:]
        if not ids:
            raise ValueError(f"{path} has no sensor columns")
        times, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ids) + 1:
                raise ValueError(f"{path}:{line_no} has {len(row)} cells, expected {len(ids) + 1}")
            times.append(float(row[0]))
            rows.append([parse_microstrain(cell) for cell in row[1:]])
    if not rows:
        raise ValueError(f"{path} holds no data rows")
    return ids, np.array(times), np.array(rows).T


# -- sensor layouts -----------------------------------------------------------


def read_layout_entries(path: str) -> list[dict]:
    """Sensor descriptions from CSV, ready for SensorLayout.resolve."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"id", "x", "y", "fiber"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path} must have columns id,x,y,fiber[,line]")
        entries = []
        for row in reader:
            entry = {
                "id": row["id"],
                "x": float(row["x"]),
                "y": float(row["y"]),
                "fiber": row["fiber"].strip(),
            }
            line = (row.get("line") or "").strip()
            if line:
                entry["line"] = line
            entries.append(entry)
    if not entries:
        raise ValueError(f"{path} lists no sensors")
    return entries


# -- load series and chains ---------------------------------------------------


def write_load_series(path: str, series) -> None:
    """CSV of per-instant force norm and relative intensity."""
    norms = np.linalg.norm(series.forces, axis=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f_norm", "gamma"])
        for k in range(len(series)):
            writer.writerow([
                format_si(series.timestamps[k]), format_si(norms[k]), format_si(series.gamma[k]),
            ])


def write_chain(path: str, chain) -> None:
    """Kept samples, one row per iteration; sigma_d in microstrain."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "rho", "sigma_d", "ell_d", "log_post", "accepted"])
        for k in range(len(chain)):
            rho, sigma_d, ell_d = chain.samples[k]
            writer.writerow([
                chain.first_iteration + k,
                format_si(rho),
                format_microstrain(sigma_d),
                format_si(ell_d),
                format_si(chain.log_density[k]),
                int(chain.accepted[k]),
            ])


def write_estimate(path: str, w: Hyperparameters, diagnostics=None) -> None:
    """Point estimate JSON; sigma_d stored in microstrain."""
    doc = {
        "rho": w.rho,
        "sigma_d_microstrain": w.sigma_d / MICROSTRAIN,
        "ell_d": w.ell_d,
    }
    if diagnostics is not None:
        doc["acceptance_rate"] = diagnostics.acceptance_rate
        doc["n_kept"] = diagnostics.n_kept
        doc["components"] = {
            c.name: {"mean": c.mean, "std": c.std} for c in diagnostics.components
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_estimate(path: str) -> Hyperparameters:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return Hyperparameters(
            float(doc["rho"]),
            float(doc["sigma_d_microstrain"]) * MICROSTRAIN,
            float(doc["ell_d"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path} is missing key {exc.args[0]!r}") from exc


def parse_hyperparameters(text: str) -> Hyperparameters:
    """Inline 'rho,sigma_d,ell_d' with sigma_d in microstrain."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected rho,sigma_d,ell_d, got {text!r}")
    return Hyperparameters(
        float(parts[0]), float(parts[1]) * MICROSTRAIN, float(parts[2])
    )
