"""File formats: observation, layout, series and chain CSVs, JSON estimates.

All strain columns on disk are in microstrain; everything in memory is
dimensionless strain. The conversion moves the decimal exponent by 6 and
never multiplies: writing renders the 17 significant digits of a value with
its exponent raised by 6, and reading hands the literal with its exponent
lowered by 6 to float(), which rounds correctly. Both directions are exact,
so a recording survives write/read round trips bit-identically. Other SI
quantities are rendered at 17 significant digits too, which round-trips
float64 exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from .statfem import Hyperparameters, ObservationSet

MICROSTRAIN = 1e-6

# the literals a strain cell may hold: no bare leading point, inf, nan or underscores
_DECIMAL = re.compile(r"[+-]?\d+(?:\.\d*)?(?:[eE]([+-]?\d+))?")


def format_si(x: float) -> str:
    """Render a float at 17 significant digits; parses back bit-identically."""
    return format(float(x), ".17g")


def format_microstrain(strain: float) -> str:
    """Exact microstrain rendering of an internal strain value.

    The 17 significant digits of ``strain`` lose their trailing zeros and
    gain 6 on the decimal exponent; the value is written positionally when
    its decimal point falls within (-4, 21] places of the first digit and
    in e-notation otherwise, so 1.5e-06 becomes "1.5", 1.5e-10 "0.00015"
    and 1e15 "1e21".
    """
    strain = float(strain)
    if not math.isfinite(strain):
        raise ValueError(f"not a finite strain: {strain!r}")
    text = format(strain, ".16e")  # [-]d.dddddddddddddddde[+-]dd
    sign = "-" if text[0] == "-" else ""
    body = text[len(sign):]
    digits = (body[0] + body[2:18]).rstrip("0")
    if not digits:
        return sign + "0"
    point = int(body[19:]) + 7  # digits before the decimal point, after the shift
    n = len(digits)
    if 0 < point <= 21:
        return sign + (digits + "0" * (point - n) if point >= n else digits[:point] + "." + digits[point:])
    if -4 < point <= 0:
        return sign + "0." + "0" * -point + digits
    mantissa = digits if n == 1 else digits[0] + "." + digits[1:]
    return f"{sign}{mantissa}e{point - 1}"


def parse_microstrain(text: str) -> float:
    """Exact internal strain value of a microstrain literal.

    The literal's decimal exponent is lowered by 6 and float() rounds the
    result once, correctly; anything but a finite decimal literal raises
    ValueError.
    """
    text = text.strip()
    m = _DECIMAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a finite decimal literal: {text!r}")
    if m.group(1) is None:
        return float(text + "e-6")
    return float(f"{text[:m.start(1) - 1]}e{int(m.group(1)) - 6}")


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
