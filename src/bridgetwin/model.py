"""Grillage idealization of a bridge deck.

The deck is modelled as a plan grid of beams: two longitudinal girders tied
by transverse crossbeams, or any user-supplied node/element table. Members
carry Euler-Bernoulli bending and St-Venant torsion; every node has three
degrees of freedom, vertical deflection ``w`` and the rotations ``rx``,
``ry`` about the plan axes. Units are strict SI throughout (m, N, Pa, rad).

This module owns materials, section constants, geometry and the ingestion
of YAML/dict configuration documents into a validated :class:`GrillageModel`.
Its document reader, :func:`read_document` and :class:`Fields`, also reads
the crossing scenarios of :mod:`bridgetwin.loading`.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np
import yaml

SCHEMA_VERSION = 1

# storage order of the per-node degrees of freedom
DOF_NAMES = ("w", "rx", "ry")

_GEOM_TOL = 1e-9
# how far, in m, a plan point may lie from a member axis and still be located on it
_LOCATE_TOL = 1e-6


class ConfigError(ValueError):
    """A configuration document cannot be turned into a usable model."""


def readonly(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, the form of every array a
    package value holds: an array of ``dtype`` is frozen in place, with its ``.base`` chain, never copied."""
    array = owner = np.asarray(values, dtype=dtype)
    while isinstance(owner, np.ndarray):
        owner.flags.writeable = False
        owner = owner.base
    return array


# -- configuration documents -------------------------------------------------

_REQUIRED = object()


def _number(value, where: str, kind: str = "a finite number") -> float:
    """A finite float from an int, a float or a numeric string: YAML 1.1
    reads exponent forms like 210.0e9 as strings. A boolean is no number."""
    number = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):
            number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    """An int from an int, or from an integral float or numeric string."""
    number = _number(value, where, "an integer")
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of finite numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _mapping(value, where: str) -> Fields:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return Fields(value, f"{where}.")


def _entry(table: dict, name, where: str):
    """The entry of ``table`` that ``name`` names."""
    if not isinstance(name, Hashable) or name not in table:
        raise ConfigError(f"{where} names {name!r}, which is not defined")
    return table[name]


class Fields:
    """The keys of one mapping of a configuration document.

    Each reader looks a key up and types its value in one call, and its
    errors name the key by its dotted path from the document root,
    ``section.key``, and quote the bad value. A key that is absent or null
    takes the reader's default, and is an error when the reader has none.
    Keys that no reader asks for are ignored.
    """

    def __init__(self, values: dict, prefix: str = "") -> None:
        self.values = values
        self.prefix = prefix

    def __contains__(self, key) -> bool:
        return self.values.get(key) is not None

    def __iter__(self):
        return iter(self.values)

    def _read(self, key, default, convert):
        value = self.values.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.prefix}{key} is missing")
            if default is None:
                return None
            value = default
        return convert(value, f"{self.prefix}{key}")

    def get(self, key, default=_REQUIRED):
        """The value as the document holds it."""
        return self._read(key, default, lambda value, where: value)

    def number(self, key, default=_REQUIRED) -> float:
        return self._read(key, default, _number)

    def integer(self, key, default=_REQUIRED) -> int:
        return self._read(key, default, _integer)

    def numbers(self, key, default=_REQUIRED) -> tuple[float, ...]:
        return self._read(key, default, _numbers)

    def mapping(self, key, default=_REQUIRED) -> Fields:
        return self._read(key, default, _mapping)

    def entry(self, key, table: dict, default=_REQUIRED):
        """The entry of ``table`` that the value names."""
        return self._read(key, default, lambda name, where: _entry(table, name, where))


def document(doc, name: str) -> Fields:
    """The root fields of a configuration document: a mapping whose
    schema_version is SCHEMA_VERSION. ``name`` names it in errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a mapping")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise ConfigError(f"{name}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    return Fields(doc)


def read_document(path: str) -> Fields:
    """The root fields of the YAML configuration document at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return document(doc, path)


def equivalent_modulus(q: float, e_steel: float, e_concrete: float) -> float:
    """Rule-of-mixtures Young's modulus of steel-reinforced concrete.

    ``q`` is the steel volume fraction; the homogenized modulus is the
    volume-weighted average ``q * e_steel + (1 - q) * e_concrete``.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"reinforcement fraction must lie in [0, 1], got {q}")
    if e_steel <= 0.0 or e_concrete <= 0.0:
        raise ConfigError("constituent moduli must be positive")
    return q * e_steel + (1.0 - q) * e_concrete


@dataclass(frozen=True)
class MaterialSpec:
    """Linear elastic isotropic material.

    Parameters
    ----------
    youngs_modulus:
        Young's modulus in Pa, strictly positive.
    poisson_ratio:
        Poisson's ratio, in [0, 0.5).
    """

    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.youngs_modulus) and self.youngs_modulus > 0.0):
            raise ConfigError(f"Young's modulus must be positive, got {self.youngs_modulus}")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ConfigError(f"Poisson ratio must lie in [0, 0.5), got {self.poisson_ratio}")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class SectionSpec:
    """Beam section constants.

    ``bending_stiffness`` is EI in N m^2, ``torsion_stiffness`` is GJ in
    N m^2 and ``fiber_distance`` is the distance from the neutral axis to
    the instrumented extreme fiber in m. Construction does not validate;
    a :class:`GrillageModel` refuses non-physical values.
    """

    bending_stiffness: float
    torsion_stiffness: float
    fiber_distance: float


def i_beam_section(
    material: MaterialSpec,
    web_depth: float,
    web_thickness: float,
    flange_width: float,
    flange_thickness: float,
    deck_width: float = 0.0,
    deck_thickness: float = 0.0,
    deck_material: MaterialSpec | None = None,
) -> SectionSpec:
    """Section constants of a doubly symmetric thin-walled I-beam.

    With ``deck_width > 0`` a concrete slab of the given width and thickness
    is fused on top of the upper flange and the constants are derived from
    the transformed (steel-equivalent) section: the slab area is scaled by
    the modular ratio, the neutral axis shifts accordingly, and the open
    thin-walled torsion constant gains the slab strip's own ``b t^3 / 3``
    term. ``fiber_distance`` is the larger distance from the neutral axis
    to the two steel flange faces, where strain gauges sit.
    """
    for name, v in (
        ("web_depth", web_depth),
        ("web_thickness", web_thickness),
        ("flange_width", flange_width),
        ("flange_thickness", flange_thickness),
    ):
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{name} must be positive, got {v}")
    if deck_width < 0.0 or deck_thickness < 0.0:
        raise ConfigError("deck dimensions must be nonnegative")

    e_s = material.youngs_modulus
    g_s = material.shear_modulus

    area_steel = web_depth * web_thickness + 2.0 * flange_width * flange_thickness
    # second moment about the mid-height centroid of the bare I-beam
    half = 0.5 * (web_depth + flange_thickness)
    inertia_steel = (
        web_thickness * web_depth**3 / 12.0
        + 2.0 * (flange_width * flange_thickness**3 / 12.0 + flange_width * flange_thickness * half**2)
    )
    torsion = (web_depth * web_thickness**3 + 2.0 * flange_width * flange_thickness**3) / 3.0

    top_face = 0.5 * web_depth + flange_thickness

    if deck_width > 0.0 and deck_thickness > 0.0:
        if deck_material is None:
            raise ConfigError("composite sections need a deck material")
        ratio = deck_material.youngs_modulus / e_s
        area_deck = ratio * deck_width * deck_thickness
        y_deck = top_face + 0.5 * deck_thickness
        shift = area_deck * y_deck / (area_steel + area_deck)
        inertia = (
            inertia_steel
            + area_steel * shift**2
            + ratio * deck_width * deck_thickness**3 / 12.0
            + area_deck * (y_deck - shift) ** 2
        )
        torsion_gj = g_s * torsion + deck_material.shear_modulus * deck_width * deck_thickness**3 / 3.0
        fiber = max(top_face - shift, top_face + shift)
        return SectionSpec(e_s * inertia, torsion_gj, fiber)

    return SectionSpec(e_s * inertia_steel, g_s * torsion, top_face)


@dataclass(frozen=True)
class Element:
    """A grillage member joining two node indices with a section."""

    node_i: int
    node_j: int
    section: SectionSpec


@dataclass(frozen=True)
class Support:
    """Constrained degrees of freedom at one node (subset of DOF_NAMES)."""

    node: int
    dofs: frozenset[str]


@dataclass(frozen=True, eq=False)
class LineTable:
    """A member line walked along its path: its elements in path order, the
    arc length at each one's start followed by the line's length, and
    whether each element runs against the path."""

    elements: np.ndarray
    starts: np.ndarray
    flipped: np.ndarray


@dataclass(frozen=True, eq=False)
class GrillageModel:
    """Plan-grid beam model.

    ``nodes`` is an (n, 2) array of plan coordinates. ``lines`` maps a
    member-line name (e.g. a girder) to the ordered node path along it;
    load tracks and sensor stations are resolved against these lines.
    ``deck_spacing`` is the tributary width per unit length used when a
    distributed random load is lumped onto a line, defaulting to the
    crossbeam spacing of the templates. Nodes, elements, supports and
    lines are read-only; ``dataclasses.replace`` makes a changed model.

    Construction refuses a model with non-physical data, a line its
    elements do not chain, or supports that leave rigid body modes, with
    one :class:`ConfigError` naming every violation and each node it holds
    by its plan position. It derives, once, each element's end node
    indices ``ends`` (n, 2), plan vector ``vectors`` (n, 2) from node_i to
    node_j and length ``lengths`` (n,), and each line's :class:`LineTable`
    in ``line_tables``.
    """

    nodes: np.ndarray
    elements: tuple[Element, ...]
    supports: tuple[Support, ...]
    lines: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    deck_spacing: float | None = None
    ends: np.ndarray = field(init=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    line_tables: Mapping[str, LineTable] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", readonly(self.nodes))
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ConfigError(f"nodes must be an (n, 2) array, got shape {self.nodes.shape}")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "supports", tuple(self.supports))
        object.__setattr__(self, "lines", MappingProxyType({name: tuple(path) for name, path in self.lines.items()}))

        n = self.n_nodes
        ends = np.array([(e.node_i, e.node_j) for e in self.elements], dtype=int).reshape(-1, 2)
        known = np.all((ends >= 0) & (ends < n), axis=1)
        vectors = np.zeros(ends.shape)
        vectors[known] = self.nodes[ends[known, 1]] - self.nodes[ends[known, 0]]
        lengths = np.hypot(vectors[:, 0], vectors[:, 1])
        v = [] if np.all(np.isfinite(self.nodes)) else ["node coordinates contain non-finite values"]

        for k, e in enumerate(self.elements):
            if not known[k]:
                v.append(f"element {k} references undefined node")
                continue
            if e.node_i == e.node_j:
                v.append(f"element {k} joins a node to itself")
                continue
            if lengths[k] <= _GEOM_TOL:
                v.append(f"element {k} has zero length")
            s = e.section
            if not (math.isfinite(s.bending_stiffness) and s.bending_stiffness > 0.0):
                v.append(f"non-physical section on element {k}: bending stiffness {s.bending_stiffness}")
            if not (math.isfinite(s.torsion_stiffness) and s.torsion_stiffness >= 0.0):
                v.append(f"non-physical section on element {k}: torsion stiffness {s.torsion_stiffness}")
            if not (math.isfinite(s.fiber_distance) and s.fiber_distance > 0.0):
                v.append(f"non-physical section on element {k}: fiber distance {s.fiber_distance}")

        def at(i: int) -> str:  # a node by its plan position, which names it in any document
            return "({:g}, {:g})".format(*self.nodes[i])

        for sup in self.supports:
            bad = set(sup.dofs) - set(DOF_NAMES)
            if not 0 <= sup.node < n:
                v.append(f"support references undefined node {sup.node}")
            elif bad:
                v.append(f"support on the node at {at(sup.node)} names unknown dofs {sorted(bad)}")

        pairs = {(i, j): k for k, (i, j) in enumerate(ends.tolist())}
        tables = {}
        for name, path in self.lines.items():
            if len(path) < 2:
                v.append(f"line {name!r} has fewer than two nodes")
            if any(not 0 <= i < n for i in path):
                v.append(f"line {name!r} references undefined node")
                continue
            chain = [pairs.get((a, b), pairs.get((b, a))) for a, b in zip(path[:-1], path[1:])]
            if None in chain:
                k = chain.index(None)
                v.append(f"line {name!r} is not chained by elements between the nodes at {at(path[k])} "
                         f"and {at(path[k + 1])}")
                continue
            elems = np.array(chain, dtype=int)
            tables[name] = LineTable(readonly(elems, int),
                                     readonly(np.concatenate([[0.0], np.cumsum(lengths[elems])])),
                                     readonly(ends[elems, 0] != path[:-1], bool))

        for name, value in (("ends", readonly(ends, int)), ("vectors", readonly(vectors)),
                            ("lengths", readonly(lengths)), ("line_tables", MappingProxyType(tables))):
            object.__setattr__(self, name, value)
        if not v:
            from .fem import FactorizationError

            try:
                self.assembled
            except FactorizationError:
                v.append("supports leave rigid body modes unconstrained")
        if v:
            raise ConfigError("; ".join(v))

    @cached_property
    def assembled(self):
        """(K, DofMap): the model's one :func:`bridgetwin.fem.assemble`."""
        from . import fem

        return fem.assemble(self)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def span(self) -> float:
        xs = self.nodes[:, 0]
        return float(xs.max() - xs.min())

    def _line(self, name: str) -> LineTable:
        try:
            return self.line_tables[name]
        except KeyError:
            raise ConfigError(f"model has no line named {name!r}") from None

    def line_length(self, name: str) -> float:
        """Arc length of a line, summed exactly as :meth:`locate_on_line` sums it."""
        return float(self._line(name).starts[-1])

    def locate_on_line(self, name: str, s):
        """Map arc length ``s`` along a line to (element index, local coordinate).

        The local coordinate runs 0..1 from the element's first node and is
        ``(s - start_k) / length_k`` on the k-th element of the path. A point
        on an interior node belongs to the element before it (t = 1 there,
        or 0 on an element laid against the path). ``s`` may be an array:
        every entry is located in one pass and the result is a pair of
        arrays. Raises :class:`ConfigError` for a negative arc length or one
        past the end of the line.
        """
        table = self._line(name)
        starts = table.starts
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < -_GEOM_TOL):
            raise ConfigError(f"arc length {s_arr.min()} is negative")
        beyond = ~(s_arr <= starts[-1] + _GEOM_TOL)
        if np.any(beyond):
            raise ConfigError(f"arc length {s_arr[beyond].flat[0]} exceeds line {name!r} length {starts[-1]}")
        # the first element whose far end (within tolerance) is at or past s
        k = np.searchsorted(starts[1:] + _GEOM_TOL, s_arr, side="left")
        elems = table.elements[k]
        t = np.clip((s_arr - starts[k]) / self.lengths[elems], 0.0, 1.0)
        t = np.where(table.flipped[k], 1.0 - t, t)
        if s_arr.ndim == 0:
            return int(elems), float(t)
        return elems, t

    def locate_point(self, x, y, line: str | None = None):
        """Find the element carrying plan point (x, y) and its local coordinate.

        With ``line`` only the elements chaining that line are candidates,
        which disambiguates stations at girder/crossbeam junctions. Among
        equally close elements the first in element (or path) order wins.
        ``x`` and ``y`` may be arrays: every point is tested against every
        candidate in one array pass and the result is a pair of arrays.
        Raises :class:`ConfigError` for the first point farther than
        ``_LOCATE_TOL`` from every candidate member axis.
        """
        candidates = np.arange(len(self.elements)) if line is None else self._line(line).elements
        a, d = self.nodes[self.ends[candidates, 0]], self.vectors[candidates]
        # stacked 1x2 @ 2x1 products round as the 1-d ``u @ v`` does
        l2 = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
        xs, ys = np.broadcast_arrays(np.asarray(x), np.asarray(y))
        p = np.stack([xs, ys], axis=-1).astype(float)[..., None, :]  # (..., 1, 2) against (candidates, 2)
        t = np.clip(((p - a)[..., None, :] @ d[:, :, None])[..., 0, 0] / l2, 0.0, 1.0)
        off = p - (a + t[..., None] * d)
        gap = np.hypot(off[..., 0], off[..., 1])
        missed = ~(gap.min(axis=-1, initial=np.inf) <= _LOCATE_TOL)
        if np.any(missed):
            i = np.flatnonzero(missed)[0]
            where = "any member" if line is None else f"line {line!r}"
            raise ConfigError(f"point ({xs.flat[i]}, {ys.flat[i]}) does not lie on {where} (tol {_LOCATE_TOL})")
        k = np.argmin(gap, axis=-1)
        t = np.take_along_axis(t, k[..., None], axis=-1)[..., 0]
        if xs.ndim == 0:
            return int(candidates[k]), float(t)
        return candidates[k], t


# -- configuration ingestion -------------------------------------------------


def _build_materials(cfg: Fields) -> dict[str, MaterialSpec]:
    out: dict[str, MaterialSpec] = {}
    for name in cfg:
        body = cfg.mapping(name)
        if "rule_of_mixtures" in body:
            mix = body.mapping("rule_of_mixtures")
            e = equivalent_modulus(mix.number("fraction"), mix.number("e_steel"), mix.number("e_matrix"))
        else:
            e = body.number("youngs_modulus")
        out[name] = MaterialSpec(e, body.number("poisson_ratio"))
    return out


def _build_sections(cfg: Fields, materials: dict[str, MaterialSpec]) -> dict[str, SectionSpec]:
    out: dict[str, SectionSpec] = {}
    for name in cfg:
        body = cfg.mapping(name)
        kind = body.get("type", "constants")
        if kind == "constants":
            out[name] = SectionSpec(
                bending_stiffness=body.number("bending_stiffness"),
                torsion_stiffness=body.number("torsion_stiffness"),
                fiber_distance=body.number("fiber_distance"),
            )
        elif kind == "i_beam":
            out[name] = i_beam_section(
                body.entry("material", materials),
                web_depth=body.number("web_depth"),
                web_thickness=body.number("web_thickness"),
                flange_width=body.number("flange_width"),
                flange_thickness=body.number("flange_thickness"),
                deck_width=body.number("deck_width", 0.0),
                deck_thickness=body.number("deck_thickness", 0.0),
                deck_material=body.entry("deck_material", materials, None),
            )
        else:
            raise ConfigError(f"{body.prefix}type {kind!r} is unknown")
    return out


def two_girder_template(
    span: float,
    girder_spacing: float,
    n_crossbeams: int,
    girder_section: SectionSpec,
    crossbeam_section: SectionSpec,
    girder_subdivision: int = 1,
) -> GrillageModel:
    """Twin simply supported girders tied by evenly spaced crossbeams.

    Crossbeam stations subdivide each girder into ``n_crossbeams - 1`` bays;
    ``girder_subdivision`` splits every bay into that many equal elements.
    The four corner nodes are vertically supported. The girder at y = 0 is
    line ``east``, the other ``west``.
    """
    if span <= 0.0 or girder_spacing <= 0.0:
        raise ConfigError("span and girder spacing must be positive")
    if n_crossbeams < 2:
        raise ConfigError("need at least two crossbeam stations")
    if girder_subdivision < 1:
        raise ConfigError("girder subdivision must be >= 1")

    m = (n_crossbeams - 1) * girder_subdivision + 1
    xs = np.linspace(0.0, span, m)
    nodes = np.empty((2 * m, 2))
    nodes[:m, 0] = xs
    nodes[:m, 1] = 0.0
    nodes[m:, 0] = xs
    nodes[m:, 1] = girder_spacing

    elements: list[Element] = []
    for g in (0, m):
        for k in range(m - 1):
            elements.append(Element(g + k, g + k + 1, girder_section))
    for k in range(n_crossbeams):
        i = k * girder_subdivision
        elements.append(Element(i, m + i, crossbeam_section))

    supports = [Support(i, frozenset({"w"})) for i in (0, m - 1, m, 2 * m - 1)]
    lines = {"east": list(range(m)), "west": list(range(m, 2 * m))}
    return GrillageModel(nodes, elements, supports, lines, deck_spacing=span / (n_crossbeams - 1))


def simply_supported_beam_template(length: float, n_elements: int, section: SectionSpec) -> GrillageModel:
    """A single pin-roller beam along x, line ``main``; twist is suppressed at every node."""
    if length <= 0.0 or n_elements < 1:
        raise ConfigError("need positive length and at least one element")
    n = n_elements + 1
    nodes = np.column_stack([np.linspace(0.0, length, n), np.zeros(n)])
    elements = [Element(k, k + 1, section) for k in range(n_elements)]
    supports = [
        Support(k, frozenset({"w", "rx"} if k in (0, n - 1) else {"rx"})) for k in range(n)
    ]
    return GrillageModel(nodes, elements, supports, {"main": list(range(n))}, deck_spacing=length / n_elements)


def cantilever_template(length: float, n_elements: int, section: SectionSpec) -> GrillageModel:
    """A beam along x, line ``main``, fully fixed at node 0."""
    beam = simply_supported_beam_template(length, n_elements, section)
    return replace(beam, supports=[Support(0, frozenset(DOF_NAMES))])


def _build_template(cfg: Fields, sections: dict[str, SectionSpec]) -> GrillageModel:
    kind = cfg.get("type")
    if kind == "two_girder":
        return two_girder_template(
            span=cfg.number("span"),
            girder_spacing=cfg.number("girder_spacing"),
            n_crossbeams=cfg.integer("n_crossbeams"),
            girder_section=cfg.entry("girder_section", sections),
            crossbeam_section=cfg.entry("crossbeam_section", sections),
            girder_subdivision=cfg.integer("girder_subdivision", 1),
        )
    beams = {"simply_supported_beam": simply_supported_beam_template, "cantilever": cantilever_template}
    if kind in beams:
        return beams[kind](length=cfg.number("length"), n_elements=cfg.integer("n_elements"),
                           section=cfg.entry("section", sections))
    raise ConfigError(f"{cfg.prefix}type {kind!r} is unknown")


def _rows(cfg: Fields, key: str, width: int, form: str):
    """(where, row) of each row of the list at ``key``: ``width`` cells shaped like ``form``."""
    rows = cfg.get(key)
    if not isinstance(rows, list):
        raise ConfigError(f"{cfg.prefix}{key} must be a list of {form} rows, got {rows!r}")
    for k, row in enumerate(rows):
        where = f"{cfg.prefix}{key}[{k}]"
        if not (isinstance(row, list) and len(row) == width):
            raise ConfigError(f"{where} must be {form}, got {row!r}")
        yield where, row


def _build_tables(cfg: Fields, sections: dict[str, SectionSpec]) -> GrillageModel:
    ids: dict[int, int] = {}
    coords = []
    for where, (nid, x, y) in _rows(cfg, "nodes", 3, "[id, x, y]"):
        nid = _integer(nid, where)
        if nid in ids:
            raise ConfigError(f"{where} repeats node id {nid}")
        ids[nid] = len(coords)
        coords.append((_number(x, where), _number(y, where)))

    def node(nid, where: str) -> int:
        nid = _integer(nid, where)
        if nid not in ids:
            raise ConfigError(f"{where} references undefined node {nid}")
        return ids[nid]

    elements = [Element(node(i, where), node(j, where), _entry(sections, sec, where))
                for where, (i, j, sec) in _rows(cfg, "elements", 3, "[i, j, section]")]
    supports = []
    for where, (nid, dofs) in _rows(cfg, "supports", 2, "[node, [dofs]]"):
        if not isinstance(dofs, list):
            raise ConfigError(f"{where} must be [node, [dofs]], got {[nid, dofs]!r}")
        supports.append(Support(node(nid, where), frozenset(map(str, dofs))))
    lines = cfg.mapping("lines", {})
    paths = {str(name): [node(i, f"{lines.prefix}{name}") for i in lines.numbers(name)] for name in lines}
    spacing = cfg.number("deck_spacing", None)
    return GrillageModel(np.array(coords), elements, supports, paths, deck_spacing=spacing)


def build_model(config: dict) -> GrillageModel:
    """Construct and validate a model from a configuration mapping.

    Deterministic: equal documents give models with bit-identical arrays.
    Raises :class:`ConfigError` on schema, reference or validation failures.
    """
    return _build_model(document(config, "model configuration"))


def _build_model(root: Fields) -> GrillageModel:
    materials = _build_materials(root.mapping("materials", {}))
    sections = _build_sections(root.mapping("sections", {}), materials)
    geometry = root.mapping("geometry")
    if "template" in geometry:
        return _build_template(geometry.mapping("template"), sections)
    return _build_tables(geometry, sections)


def load_model_config(path: str) -> GrillageModel:
    """Read a YAML model document from disk and build it."""
    return _build_model(read_document(path))
