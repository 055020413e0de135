import dataclasses

import numpy as np
import pytest
import yaml

from bridgetwin.model import (
    ConfigError,
    Element,
    GrillageModel,
    MaterialSpec,
    SectionSpec,
    Support,
    build_model,
    cantilever_template,
    document,
    equivalent_modulus,
    i_beam_section,
    load_model_config,
    simply_supported_beam_template,
    two_girder_template,
)

from bridgetwin.loading import RandomLoadSpec, TrainScenario, load_scenario_config
from bridgetwin.statfem import SensorLayout
from conftest import BRIDGE_YAML, TRAIN_YAML


class TestEquivalentModulus:
    def test_endpoints(self):
        assert equivalent_modulus(0.0, 210e9, 35e9) == 35e9
        assert equivalent_modulus(1.0, 210e9, 35e9) == 210e9

    def test_mixture_value(self):
        assert equivalent_modulus(0.03, 210e9, 35e9) == pytest.approx(40.25e9)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            equivalent_modulus(-0.1, 210e9, 35e9)
        with pytest.raises(ConfigError):
            equivalent_modulus(1.5, 210e9, 35e9)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ConfigError):
            equivalent_modulus(0.5, 0.0, 35e9)


class TestMaterialSpec:
    def test_shear_modulus(self, steel):
        assert steel.shear_modulus == pytest.approx(210e9 / 2.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MaterialSpec(youngs_modulus=-1.0, poisson_ratio=0.3)
        with pytest.raises(ConfigError):
            MaterialSpec(youngs_modulus=210e9, poisson_ratio=0.5)


class TestIBeamSection:
    def test_bare_section_against_hand_integration(self, steel):
        """Second moment of a doubly symmetric I section, integrated directly."""
        d, tw, bf, tf = 0.6, 0.012, 0.3, 0.02
        sec = i_beam_section(steel, web_depth=d, web_thickness=tw,
                             flange_width=bf, flange_thickness=tf)
        i_web = tw * d**3 / 12.0
        i_fl = 2.0 * (bf * tf**3 / 12.0 + bf * tf * ((d + tf) / 2.0) ** 2)
        assert sec.bending_stiffness == pytest.approx(steel.youngs_modulus * (i_web + i_fl), rel=1e-12)
        assert sec.fiber_distance == pytest.approx(d / 2.0 + tf)
        j = (d * tw**3 + 2.0 * bf * tf**3) / 3.0
        assert sec.torsion_stiffness == pytest.approx(steel.shear_modulus * j, rel=1e-12)

    def test_composite_matches_transformed_section(self, steel):
        """Deck contribution must equal a brute parallel-axis computation with
        the concrete transformed by the modular ratio."""
        deck_mat = MaterialSpec(youngs_modulus=35e9, poisson_ratio=0.2)
        d, tw, bf, tf = 2.04, 0.025, 0.7, 0.12
        bd, td = 3.65, 0.25
        sec = i_beam_section(steel, web_depth=d, web_thickness=tw,
                             flange_width=bf, flange_thickness=tf,
                             deck_width=bd, deck_thickness=td, deck_material=deck_mat)

        n = deck_mat.youngs_modulus / steel.youngs_modulus
        # steel parts about the steel-section mid-height, then shift everything
        # to the composite centroid
        parts = [
            (tw * d, 0.0, tw * d**3 / 12.0),
            (bf * tf, (d + tf) / 2.0, bf * tf**3 / 12.0),
            (bf * tf, -(d + tf) / 2.0, bf * tf**3 / 12.0),
            (n * bd * td, d / 2.0 + tf + td / 2.0, n * bd * td**3 / 12.0),
        ]
        area = sum(a for a, _, _ in parts)
        ybar = sum(a * y for a, y, _ in parts) / area
        i_total = sum(i + a * (y - ybar) ** 2 for a, y, i in parts)
        assert sec.bending_stiffness == pytest.approx(steel.youngs_modulus * i_total, rel=1e-12)
        # strain fiber stays on the steel: distance to the farther flange face
        assert sec.fiber_distance == pytest.approx(max(abs(ybar + d / 2 + tf), abs(ybar - d / 2 - tf)))

    def test_deck_requires_material(self, steel):
        with pytest.raises(ConfigError):
            i_beam_section(steel, 0.6, 0.012, 0.3, 0.02, deck_width=1.0, deck_thickness=0.2)


class TestTemplates:
    def test_simply_supported_counts(self, ss_beam):
        assert ss_beam.nodes.shape == (5, 2)
        assert len(ss_beam.elements) == 4
        assert Support(0, frozenset({"w", "rx"})) in ss_beam.supports
        assert Support(4, frozenset({"w", "rx"})) in ss_beam.supports
        # interior nodes keep only the torsion constraint
        assert Support(2, frozenset({"rx"})) in ss_beam.supports

    def test_cantilever_root_fixed(self, cantilever):
        assert Support(0, frozenset({"w", "rx", "ry"})) in cantilever.supports
        assert len(cantilever.supports) == 1

    def test_two_girder_layout(self, plain_section):
        m = two_girder_template(span=20.0, girder_spacing=6.0, n_crossbeams=5,
                                girder_section=plain_section, crossbeam_section=plain_section)
        assert m.nodes.shape == (10, 2)
        assert m.span() == pytest.approx(20.0)
        assert m.deck_spacing == pytest.approx(5.0)
        assert len(m.lines["east"]) == 5
        assert len(m.lines["west"]) == 5
        # 4 + 4 girder elements plus 5 crossbeams
        assert len(m.elements) == 13
        ys = m.nodes[list(m.lines["west"]), 1]
        np.testing.assert_allclose(ys, 6.0)

    def test_two_girder_subdivision(self, plain_section):
        m = two_girder_template(span=20.0, girder_spacing=6.0, n_crossbeams=5,
                                girder_section=plain_section, crossbeam_section=plain_section,
                                girder_subdivision=2)
        assert len(m.lines["east"]) == 9
        assert len(m.elements) == 2 * 8 + 5

    def test_corner_supports_only(self, plain_section):
        m = two_girder_template(span=20.0, girder_spacing=6.0, n_crossbeams=5,
                                girder_section=plain_section, crossbeam_section=plain_section)
        assert len(m.supports) == 4
        for s in m.supports:
            assert s.dofs == frozenset({"w"})
            x = m.nodes[s.node, 0]
            assert x == pytest.approx(0.0) or x == pytest.approx(20.0)


class TestGeometryQueries:
    def test_locate_point(self, ss_beam):
        elem, t = ss_beam.locate_point(2.5, 0.0)
        xi = ss_beam.nodes[ss_beam.elements[elem].node_i, 0]
        xj = ss_beam.nodes[ss_beam.elements[elem].node_j, 0]
        assert xi + t * (xj - xi) == pytest.approx(2.5)
        with pytest.raises(ConfigError):
            ss_beam.locate_point(2.5, 1.0)

    def test_locate_point_on_a_named_line(self, bundled_ctx):
        """A gauge station at a girder/crossbeam junction binds to the named
        girder; naming the other girder is an error that names the line."""
        model = bundled_ctx.model
        east = model.line_tables["east"].elements
        node = model.lines["east"][2]
        x, y = model.nodes[node]
        assert any(node in (e.node_i, e.node_j) and k not in east for k, e in enumerate(model.elements))
        elem, t = model.locate_point(x, y, line="east")
        assert elem in east
        assert t in (0.0, 1.0)
        layout = SensorLayout.resolve(model, [{"id": "J", "x": x, "y": y, "fiber": "top", "line": "east"}])
        assert (layout.sensors[0].element, layout.sensors[0].t) == (elem, t)
        with pytest.raises(ConfigError, match="line 'west'"):
            model.locate_point(x, y, line="west")
        with pytest.raises(ConfigError, match="'north'"):
            model.locate_point(x, y, line="north")

    @pytest.fixture()
    def girders(self, plain_section):
        """Two 20 m girders of four 5 m elements; ``back`` walks the east one backwards."""
        m = two_girder_template(span=20.0, girder_spacing=6.0, n_crossbeams=5,
                                girder_section=plain_section, crossbeam_section=plain_section)
        return dataclasses.replace(m, lines={**m.lines, "back": m.lines["east"][::-1]})

    def test_locate_on_line(self, girders):
        m = girders
        elem, t = m.locate_on_line("east", 7.5)
        xi = m.nodes[m.elements[elem].node_i, 0]
        xj = m.nodes[m.elements[elem].node_j, 0]
        assert xi + t * (xj - xi) == pytest.approx(7.5)
        with pytest.raises(ConfigError):
            m.locate_on_line("north", 1.0)
        # an interior node belongs to the element before it along the line
        east = m.line_tables["east"].elements
        assert m.locate_on_line("east", 10.0) == (east[1], 1.0)
        assert m.locate_on_line("east", 0.0) == (east[0], 0.0)
        assert m.locate_on_line("east", 20.0) == (east[-1], 1.0)
        assert m.locate_on_line("back", 5.0) == (east[3], 0.0)
        assert m.locate_on_line("back", 1.25) == (east[3], 0.75)
        for bad in (-0.5, 20.5, np.array([1.0, -0.5]), np.array([20.5, 1.0])):
            with pytest.raises(ConfigError):
                m.locate_on_line("east", bad)

    def test_junction_point_binds_to_the_lowest_index_element(self, girders):
        """With ``line=None`` a girder/crossbeam junction is equally close to
        every member meeting there; the lowest element index wins."""
        m = girders
        node = m.lines["east"][2]
        touching = [k for k, e in enumerate(m.elements) if node in (e.node_i, e.node_j)]
        assert len(touching) == 3
        assert m.locate_point(*m.nodes[node]) == (touching[0], 1.0)
        elems, ts = m.locate_point(np.array([m.nodes[node][0]] * 2), m.nodes[node][1])
        assert elems.tolist() == [touching[0]] * 2 and ts.tolist() == [1.0, 1.0]

    def test_array_of_arc_lengths_matches_scalar_calls(self, girders):
        s = [0.0, 2.5, 5.0, 5.0 + 1e-12, 7.5, 10.0, 19.9, 20.0]
        for line in ("east", "back"):
            elems, ts = girders.locate_on_line(line, np.array(s))
            assert elems.shape == ts.shape == (len(s),)
            for e_k, t_k, s_k in zip(elems, ts, s):
                assert (e_k, t_k) == girders.locate_on_line(line, s_k)
        elems, ts = girders.locate_on_line("east", np.array([]))
        assert elems.size == ts.size == 0

    def test_element_length(self, ss_beam):
        assert ss_beam.lengths[0] == pytest.approx(1.0)

    def test_replace_derives_the_tables_again(self, girders):
        """A changed model measures its own nodes: ``dataclasses.replace``
        derives the lengths and line tables afresh, never copies them."""
        m = dataclasses.replace(girders, nodes=2.0 * girders.nodes)
        np.testing.assert_array_equal(m.vectors, 2.0 * girders.vectors)
        np.testing.assert_array_equal(m.lengths, 2.0 * girders.lengths)
        np.testing.assert_array_equal(m.line_tables["east"].starts, [0.0, 10.0, 20.0, 30.0, 40.0])
        np.testing.assert_array_equal(m.line_tables["back"].flipped, [True] * 4)
        assert m.line_length("east") == 40.0 and girders.line_length("east") == 20.0
        assert m.locate_on_line("east", 15.0) == girders.locate_on_line("east", 7.5)


class TestValidation:
    """A model is checked when it is made: one ConfigError names every violation."""

    def test_bundled_model_is_clean(self, bundled_ctx):
        model = dataclasses.replace(bundled_ctx.model)
        assert model.lengths.tobytes() == bundled_ctx.model.lengths.tobytes()

    def test_flags_nonpositive_stiffness(self, plain_section):
        bad = SectionSpec(bending_stiffness=-1.0, torsion_stiffness=1.0, fiber_distance=0.1)
        with pytest.raises(ConfigError, match="non-physical section on element 0: bending stiffness -1.0"):
            simply_supported_beam_template(4.0, 2, bad)

    def test_flags_rigid_body_modes(self, plain_section):
        m = simply_supported_beam_template(4.0, 2, plain_section)
        with pytest.raises(ConfigError, match="rigid"):
            GrillageModel(nodes=m.nodes, elements=m.elements, supports=(),
                          lines=m.lines, deck_spacing=m.deck_spacing)

    def test_violations_are_joined_in_order(self, plain_section):
        """Every violation is named, in element, support and line order; the
        rigid-body check needs a sound model and is skipped."""
        bad = SectionSpec(bending_stiffness=-1.0, torsion_stiffness=1.0, fiber_distance=0.1)
        with pytest.raises(ConfigError) as err:
            GrillageModel(np.array([[0.0, 0.0], [1.0, 0.0]]), [Element(0, 0, plain_section), Element(0, 1, bad)],
                          supports=[Support(2, frozenset({"w"}))], lines={"main": (0,)})
        assert str(err.value) == ("element 0 joins a node to itself; "
                                  "non-physical section on element 1: bending stiffness -1.0; "
                                  "support references undefined node 2; line 'main' has fewer than two nodes")

    def test_unchained_line_is_refused(self, plain_section):
        """A line must follow elements node to node; the error names the
        line and the first node pair no element joins."""
        m = two_girder_template(span=20.0, girder_spacing=6.0, n_crossbeams=5,
                                girder_section=plain_section, crossbeam_section=plain_section)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(m, lines={**m.lines, "skew": (0, 1, 7)})
        assert str(err.value) == "line 'skew' is not chained by elements between the nodes at (5, 0) and (10, 6)"

    @pytest.mark.parametrize("handle", ["array", "base"])
    def test_nodes_freeze_in_the_callers_hands(self, plain_section, handle):
        """The model holds the nodes array it is given, not a copy, and
        freezes it with the array it views: neither handle the caller kept
        can move a node under the cached assembly."""
        m = simply_supported_beam_template(4.0, 2, plain_section)
        base = np.array(m.nodes)
        nodes = base if handle == "array" else base[:, :]
        model = GrillageModel(nodes=nodes, elements=m.elements, supports=m.supports,
                              lines=m.lines, deck_spacing=m.deck_spacing)
        stiffness = model.assembled[0].copy()
        with pytest.raises(ValueError, match="read-only"):
            (base if handle == "base" else nodes)[:, 0] *= 2
        assert model.nodes is nodes
        assert np.array_equal(model.nodes, m.nodes)
        assert np.array_equal(model.assembled[0], stiffness)


class TestConfigLoading:
    def test_bundled_config_builds(self):
        model = load_model_config(BRIDGE_YAML)
        assert model.span() == pytest.approx(26.84)
        assert model.nodes.shape[0] == 82

    def test_build_is_deterministic(self):
        a = load_model_config(BRIDGE_YAML)
        b = load_model_config(BRIDGE_YAML)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        assert a.elements == b.elements
        assert a.supports == b.supports

    def test_numeric_strings_accepted(self):
        # YAML 1.1 reads "210.0e9" as a string; the loader must coerce it
        cfg = yaml.safe_load(open(BRIDGE_YAML))
        assert isinstance(cfg["materials"]["steel"]["youngs_modulus"], str)
        build_model(cfg)

    def test_rejects_unknown_schema(self):
        cfg = yaml.safe_load(open(BRIDGE_YAML))
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_rejects_dangling_section_reference(self):
        cfg = yaml.safe_load(open(BRIDGE_YAML))
        cfg["geometry"]["template"]["girder_section"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            build_model(cfg)

    def test_rejects_bad_material_reference(self):
        cfg = yaml.safe_load(open(BRIDGE_YAML))
        cfg["sections"]["girder"]["material"] = "unobtainium"
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_bundled_documents_build_the_documented_values(self):
        """The model, train and random load that bridge.yaml and train.yaml
        describe, built without the document reader, equal what the reader
        builds from them, bit for bit."""
        steel = MaterialSpec(210.0e9, 0.3)
        concrete = MaterialSpec(equivalent_modulus(0.03, 210.0e9, 35.0e9), 0.2)
        girder = i_beam_section(steel, 2.04, 0.025, 0.7, 0.12, 3.65, 0.25, concrete)
        crossbeam = i_beam_section(steel, 0.4, 0.0165, 0.4, 0.027, 1.342, 0.25, concrete)
        want = two_girder_template(26.84, 7.3, 21, girder, crossbeam, girder_subdivision=2)
        model = load_model_config(BRIDGE_YAML)
        assert model.nodes.tobytes() == want.nodes.tobytes()
        assert (model.elements, model.supports) == (want.elements, want.supports)
        assert (model.lines, model.deck_spacing) == (want.lines, want.deck_spacing)

        scenario, random_load = load_scenario_config(TRAIN_YAML)
        assert scenario == TrainScenario(
            axle_offsets=(0.0, 2.7, 14.2, 16.9, 20.3675, 23.0675, 34.5675, 37.2675,
                          40.735, 43.435, 54.935, 57.635, 61.1025, 63.8025, 75.3025, 78.0025),
            axle_load=104000.0, speed=131.0 / 3.6, track_line="east", time_step=0.004,
            time_window=(0.0, 3.6), arrival_time=0.55, length=81.47,
        )
        assert random_load == RandomLoadSpec(1000.0, 1.0)


_TABLES = {"nodes": [[10, 0.0, 0.0], [11, 1.0, 0.0], [12, 2.0, 0.0]],
           "elements": [[10, 11, "beam"], [11, 12, "beam"]],
           "supports": [[10, ["w", "rx", "ry"]]],
           "lines": {"main": [10, 11, 12]},
           "deck_spacing": 1.0}


def _tables_config(**geometry):
    beam = {"bending_stiffness": 2.0e6, "torsion_stiffness": 1.0e5, "fiber_distance": 0.2}
    return {"schema_version": 1, "sections": {"beam": beam}, "geometry": {**_TABLES, **geometry}}


class TestNodeTables:
    def test_builds_like_the_template(self):
        """Node ids may be integral floats or numeric strings, coordinates
        numeric strings."""
        model = build_model(_tables_config(nodes=[[10, 0.0, 0.0], [11, "1.0e0", 0], ["12", 2, 0.0]],
                                           elements=[[10, 11, "beam"], [11.0, "12", "beam"]]))
        want = cantilever_template(2.0, 2, SectionSpec(2.0e6, 1.0e5, 0.2))
        np.testing.assert_array_equal(model.nodes, want.nodes)
        assert (model.elements, model.supports) == (want.elements, want.supports)
        assert (model.lines, model.deck_spacing) == (want.lines, want.deck_spacing)

    @pytest.mark.parametrize("geometry,message", [
        ({"nodes": [[10, 0.0, 0.0], [10, 1.0, 0.0]]}, "geometry.nodes[1] repeats node id 10"),
        ({"nodes": [[10, 0.0, 0.0], [11, 1.0]]}, "geometry.nodes[1] must be [id, x, y], got [11, 1.0]"),
        ({"nodes": [[10, 0.0, 0.0], [11, True, 0.0]]}, "geometry.nodes[1] must be a finite number, got True"),
        ({"elements": [[10, 13, "beam"]]}, "geometry.elements[0] references undefined node 13"),
        ({"elements": [[10, 11, "girder"]]}, "geometry.elements[0] names 'girder', which is not defined"),
        ({"supports": [[10, "w"]]}, "geometry.supports[0] must be [node, [dofs]], got [10, 'w']"),
        ({"supports": 10}, "geometry.supports must be a list of [node, [dofs]] rows, got 10"),
        ({"lines": {"main": [10, 11.5]}}, "geometry.lines.main must be an integer, got 11.5"),
        ({"deck_spacing": "wide"}, "geometry.deck_spacing must be a finite number, got 'wide'"),
        ({"lines": {"main": [10, 12]}},
         "line 'main' is not chained by elements between the nodes at (0, 0) and (2, 0)"),
        ({"supports": [[11, ["w", "q"]]]}, "support on the node at (1, 0) names unknown dofs ['q']"),
    ])
    def test_errors_name_their_row(self, geometry, message):
        with pytest.raises(ConfigError) as err:
            build_model(_tables_config(**geometry))
        assert str(err.value) == message

    def test_floating_model_is_refused(self):
        with pytest.raises(ConfigError, match="rigid body modes"):
            build_model(_tables_config(supports=[]))


class TestFieldReaders:
    """A number is finite and not a boolean; an integer may be written as an
    integral float or a numeric string; an absent or null key takes the
    reader's default; every error names the key's dotted path and the bad
    value."""

    @staticmethod
    def _fields(**values):
        return document({"schema_version": 1, "s": values}, "doc").mapping("s")

    def test_numbers_and_integers(self):
        s = self._fields(a="210.0e9", b=3, c="21", d=4.0, e=[1, "2.5e0"], f=None)
        assert s.number("a") == 210.0e9 and s.number("b") == 3.0
        assert s.integer("c") == 21 and s.integer("d") == 4
        assert s.numbers("e") == (1.0, 2.5)
        assert s.number("f", 7.0) == 7.0 and s.number("g", None) is None
        assert "f" not in s and "a" in s

    @pytest.mark.parametrize("reader,value,message", [
        ("number", True, "s.k must be a finite number, got True"),
        ("number", "nan", "s.k must be a finite number, got 'nan'"),
        ("number", 10**400, "s.k must be a finite number, got 1000"),
        ("number", {"x": 1}, "s.k must be a finite number, got {'x': 1}"),
        ("integer", 2.5, "s.k must be an integer, got 2.5"),
        ("integer", False, "s.k must be an integer, got False"),
        ("numbers", 3.0, "s.k must be a list of finite numbers, got 3.0"),
        ("numbers", [1.0, "x"], "s.k[1] must be a finite number, got 'x'"),
        ("mapping", [1.0], "s.k must be a mapping, got [1.0]"),
        ("number", None, "s.k is missing"),
    ])
    def test_errors_name_the_key_and_value(self, reader, value, message):
        with pytest.raises(ConfigError) as err:
            getattr(self._fields(k=value), reader)("k")
        assert str(err.value).startswith(message)

    def test_document_must_be_a_mapping_of_this_schema(self):
        with pytest.raises(ConfigError, match="doc must be a mapping"):
            document([1], "doc")
        with pytest.raises(ConfigError, match="doc: unsupported schema_version 2, expected 1"):
            document({"schema_version": 2}, "doc")
        with pytest.raises(ConfigError, match="doc: unsupported schema_version True, expected 1"):
            document({"schema_version": True}, "doc")
