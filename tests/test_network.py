import json
import math

import numpy as np
import pytest

from radialopf.engine import run
from radialopf.network import (
    Box,
    BusSpec,
    Disk,
    FeederModel,
    FeederParseError,
    FeederValidationError,
    LineSpec,
    ObjectiveCoeffs,
    PhaseSet,
    TopologyTemplate,
    feeder_to_dict,
    generate_topology,
    loads_feeder,
    phase_lift,
    phase_project,
    validate_radial,
)

TWO_BUS_DOC = {
    "buses": [
        {
            "id": 0,
            "phases": "a",
            "vmin": [1.0],
            "vmax": [1.0],
            "region": [{"type": "box", "p": [None, None], "q": [None, None]}],
            "cost": [{"alpha": 0.0, "beta": 1.0}],
        },
        {
            "id": 1,
            "phases": "a",
            "vmin": [0.9025],
            "vmax": [1.1025],
            "region": [{"type": "box", "p": [-0.1, -0.1], "q": [0.0, 0.0]}],
            "cost": [{"alpha": 0.0, "beta": 1.0}],
        },
    ],
    "lines": [
        {
            "bus": 1,
            "parent": 0,
            "z": [[{"re": 0.01, "im": 0.02}]],
        }
    ],
}


def line_model(n, phases="a"):
    return generate_topology("line", n, TopologyTemplate(phases=phases))


class TestPhaseSet:
    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            PhaseSet("ba")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhaseSet("")

    def test_subset(self):
        assert PhaseSet("ab").issubset(PhaseSet("abc"))
        assert not PhaseSet("c").issubset(PhaseSet("ab"))


class TestProjectLift:
    def test_project_worked_example(self):
        # 3-phase parent voltage restricted to phases {a, b}: the top-left block
        v = np.arange(9, dtype=complex).reshape(3, 3) + 1j
        out = phase_project(v, PhaseSet("abc"), PhaseSet("ab"))
        assert np.array_equal(out, v[:2, :2])

    def test_project_identity(self):
        v = np.eye(2, dtype=complex)
        assert np.array_equal(phase_project(v, PhaseSet("ab"), PhaseSet("ab")), v)

    def test_project_to_scalar(self):
        v = np.arange(9, dtype=complex).reshape(3, 3)
        out = phase_project(v, PhaseSet("abc"), PhaseSet("a"))
        assert out.shape == (1, 1) and out[0, 0] == v[0, 0]

    def test_project_requires_subset(self):
        with pytest.raises(ValueError):
            phase_project(np.eye(2), PhaseSet("ab"), PhaseSet("c"))

    def test_lift_worked_example(self):
        x = np.array([[2.0 + 1j]])
        out = phase_lift(x, PhaseSet("a"), PhaseSet("ab"))
        assert np.array_equal(out, np.array([[2.0 + 1j, 0], [0, 0]]))

    def test_lift_identity(self):
        x = np.eye(3, dtype=complex)
        assert np.array_equal(phase_lift(x, PhaseSet("abc"), PhaseSet("abc")), x)

    def test_lift_middle_phase(self):
        x = np.array([[5.0]])
        out = phase_lift(x, PhaseSet("b"), PhaseSet("abc"))
        expected = np.zeros((3, 3))
        expected[1, 1] = 5.0
        assert np.array_equal(out, expected)

    def test_lift_requires_superset(self):
        with pytest.raises(ValueError):
            phase_lift(np.eye(2), PhaseSet("ab"), PhaseSet("a"))

    def test_lift_after_project_masks(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            src = PhaseSet("abc")
            dst = PhaseSet(["a", "b", "c", "ab", "ac", "bc", "abc"][rng.integers(7)])
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = 0.5 * (b + b.conj().T)
            masked = phase_lift(phase_project(h, src, dst), dst, src)
            idx = dst.indices_in(src)
            expected = np.zeros_like(h)
            expected[np.ix_(idx, idx)] = h[np.ix_(idx, idx)]
            assert np.array_equal(masked, expected)
            # masking again changes nothing
            again = phase_lift(phase_project(masked, src, dst), dst, src)
            assert np.array_equal(again, masked)


class TestLoader:
    def test_minimal_two_bus(self):
        model = loads_feeder(json.dumps(TWO_BUS_DOC))
        assert len(model.buses) == 2 and len(model.lines) == 1
        assert model.bus(0).regions[0] == Box(-math.inf, math.inf, -math.inf, math.inf)

    def test_duplicate_id(self):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        doc["buses"][1]["id"] = 0
        with pytest.raises(FeederParseError, match="duplicate id"):
            loads_feeder(json.dumps(doc))

    def test_phase_nesting_error(self):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        doc["buses"][0]["phases"] = "ab"
        doc["buses"][0]["vmin"] = [1.0, 1.0]
        doc["buses"][0]["vmax"] = [1.0, 1.0]
        doc["buses"][0]["region"] = doc["buses"][0]["region"] * 2
        doc["buses"][0]["cost"] = doc["buses"][0]["cost"] * 2
        doc["buses"][1]["phases"] = "c"
        with pytest.raises(FeederValidationError, match="not nested"):
            loads_feeder(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(FeederParseError, match="line 1"):
            loads_feeder("{not json")

    def test_non_utf8_bytes_are_a_parse_error(self):
        with pytest.raises(FeederParseError, match="UTF-8"):
            loads_feeder(b"\xff\xfe{}")

    def test_disk_region(self):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        doc["buses"][1]["region"] = [{"type": "disk", "smax": 0.5}]
        model = loads_feeder(json.dumps(doc))
        assert model.bus(1).regions[0] == Disk(0.5)

    def test_round_trip(self):
        model = loads_feeder(json.dumps(TWO_BUS_DOC))
        doc = feeder_to_dict(model)
        again = loads_feeder(json.dumps(doc))
        assert json.dumps(feeder_to_dict(again), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("lines", 0, "z", 0, 0, "re"), math.nan, r"lines\[0\]\.z\[0\]\[0\]\.re"),
            (("lines", 0, "z", 0, 0, "im"), math.nan, r"lines\[0\]\.z\[0\]\[0\]\.im"),
            (("buses", 1, "region", 0, "p", 0), math.nan, r"region\[0\]\.p\[0\]"),
            (("buses", 1, "region", 0, "p", 1), math.nan, r"region\[0\]\.p\[1\]"),
            (("buses", 1, "region", 0, "q", 0), math.nan, r"region\[0\]\.q\[0\]"),
            (("buses", 1, "region", 0, "q", 1), math.nan, r"region\[0\]\.q\[1\]"),
            (("buses", 1, "region", 0, "p", 1), math.inf, r"region\[0\]\.p\[1\]"),
            (("buses", 1, "region", 0, "smax"), math.nan, r"region\[0\]\.smax"),
            (("buses", 1, "cost", 0, "alpha"), math.nan, r"cost\[0\]\.alpha"),
            (("buses", 1, "cost", 0, "beta"), math.nan, r"cost\[0\]\.beta"),
            (("buses", 1, "vmax", 0), math.inf, r"buses\[1\]\.vmax\[0\]"),
            (("buses", 1, "vmin", 0), math.nan, r"buses\[1\]\.vmin\[0\]"),
            (("buses", 1, "vmax", 0), "1.1", r"buses\[1\]\.vmax\[0\]"),
            (("buses", 0, "vmin", 0), True, r"buses\[0\]\.vmin\[0\]"),
            pytest.param(
                ("buses", 1, "vmax", 0), 10**400, r"buses\[1\]\.vmax\[0\]", id="vmax-huge-int"
            ),
            pytest.param(
                ("buses", 1, "cost", 0, "beta"), 10**400, r"cost\[0\]\.beta", id="beta-huge-int"
            ),
        ],
    )
    def test_non_finite_number_rejected(self, path, value, where):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        if path[-1] == "smax":
            doc["buses"][1]["region"] = [{"type": "disk", "smax": 0.5}]
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        match = where + r": .* is not a finite number"
        with pytest.raises(FeederParseError, match=match):
            loads_feeder(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, key",
        [
            (("buses", 0), "vmn"),
            (("buses", 1, "region", 0), "p_lo"),
            (("buses", 1, "region", 0), "s_max"),
            (("buses", 1, "cost", 0), "gamma"),
            (("lines", 0), "r"),
        ],
    )
    def test_unknown_key_rejected(self, path, key):
        # a misspelled field used to be dropped: a box written with p_lo,
        # p_hi, q_lo and q_hi loaded as an unbounded box
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        if key == "s_max":
            doc["buses"][1]["region"] = [{"type": "disk", "smax": 0.5}]
        target = doc
        for step in path:
            target = target[step]
        target[key] = 1.0
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)
        with pytest.raises(FeederParseError) as err:
            loads_feeder(json.dumps(doc))
        assert str(err.value) == f"{where.lstrip('.')}: unknown key '{key}'"

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("value", [[-0.1], [-0.2, -0.1, 0.0], None, {"lo": 0.0}])
    def test_box_bounds_must_be_a_pair(self, name, value):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        doc["buses"][1]["region"][0][name] = value
        with pytest.raises(FeederParseError) as err:
            loads_feeder(json.dumps(doc))
        assert str(err.value) == f"buses[1].region[0].{name}: expected a list of 2 bounds"

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("buses", 1, "id"), 1.7, r"buses\[1\]\.id"),
            (("buses", 1, "id"), 1.0, r"buses\[1\]\.id"),
            (("buses", 0, "id"), False, r"buses\[0\]\.id"),
            (("lines", 0, "bus"), True, r"lines\[0\]\.bus"),
            (("lines", 0, "parent"), "0", r"lines\[0\]\.parent"),
            (("lines", 0, "parent"), 0.0, r"lines\[0\]\.parent"),
        ],
    )
    def test_non_integer_id_rejected(self, path, value, where):
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(FeederParseError, match=where + r": .* is not an integer"):
            loads_feeder(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [("buses", 5), ("buses", None), ("buses", "ab"), ("lines", 3), ("lines", {})],
    )
    def test_non_list_buses_or_lines_rejected(self, key, value):
        # a number or null used to raise a bare TypeError, and a string or
        # an object was iterated as if it were the list
        doc = json.loads(json.dumps(TWO_BUS_DOC))
        doc[key] = value
        with pytest.raises(FeederParseError, match=f"^'{key}' must be a list$"):
            loads_feeder(json.dumps(doc))

    def test_generated_round_trip(self):
        for kind in ("line", "fat-tree"):
            model = generate_topology(kind, 9, TopologyTemplate(phases="abc"))
            doc = json.dumps(feeder_to_dict(model))
            again = loads_feeder(doc)
            assert json.dumps(feeder_to_dict(again)) == doc


class TestValidateRadial:
    def test_line_network_clean(self):
        assert validate_radial(line_model(5)) == []

    def test_cycle_detected(self):
        model = line_model(5)
        extra = LineSpec(2, 4, model.lines[0].z.copy())
        bad = FeederModel(model.buses, model.lines + (extra,))
        report = validate_radial(bad)
        assert any("not a tree" in v or "cycle" in v for v in report)

    def test_island_detected(self):
        model = line_model(4)
        # re-point bus 3's parent at itself's subtree: 3 -> 3 is a self loop
        lines = tuple(
            ln if ln.bus != 3 else LineSpec(3, 3, ln.z.copy()) for ln in model.lines
        )
        report = validate_radial(FeederModel(model.buses, lines))
        assert report

    def test_impedance_dimension(self):
        model = line_model(3, phases="abc")
        lines = (
            model.lines[0],
            LineSpec(2, 1, np.eye(2, dtype=complex) * 0.01),
        )
        report = validate_radial(FeederModel(model.buses, lines))
        assert any("impedance" in v for v in report)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_impedance_is_a_violation(self, value):
        # a model built in Python skips the parser's finiteness check; NaN
        # times the prefactor's zero units would spread over every row
        model = generate_topology("line", 4)
        first = model.lines[0]
        z = first.z.copy()
        z[0, 0] = value
        bad = FeederModel(model.buses, (LineSpec(first.bus, first.parent, z),) + model.lines[1:])
        expected = ["line of bus 1: impedance has a non-finite entry"]
        assert validate_radial(bad) == expected
        with pytest.raises(FeederValidationError) as info:
            run(bad)
        assert info.value.violations == expected

    def test_missing_root(self):
        model = line_model(3)
        report = validate_radial(FeederModel(model.buses[1:], model.lines[1:]))
        assert any("root" in v for v in report)


class TestGenerate:
    def test_line_is_path(self):
        model = generate_topology("line", 5)
        assert [ln.parent for ln in model.lines] == [0, 1, 2, 3]

    def test_fat_tree_depth_two(self):
        model = generate_topology("fat-tree", 7)
        assert model.children[0] == (1, 2)
        assert model.children[1] == (3, 4)
        assert model.children[2] == (5, 6)

    def test_size_one_rejected(self):
        with pytest.raises(ValueError):
            generate_topology("line", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_topology("ring", 5)

    def test_generated_always_validate(self):
        for kind in ("line", "fat-tree"):
            for size in (2, 3, 8, 17):
                for phases in ("a", "bc", "abc"):
                    model = generate_topology(
                        kind, size, TopologyTemplate(phases=phases)
                    )
                    assert validate_radial(model) == []

    def test_root_is_pinned_and_unconstrained(self):
        model = generate_topology("line", 3)
        root = model.bus(0)
        assert root.v_lo == root.v_hi
        region = root.regions[0]
        assert math.isinf(region.p_hi) and math.isinf(region.q_hi)


class TestRegionTypes:
    def test_box_bounds_ordered(self):
        with pytest.raises(ValueError):
            Box(1.0, 0.0, 0.0, 0.0)

    def test_disk_radius(self):
        with pytest.raises(ValueError):
            Disk(-1.0)

    def test_initial_points(self):
        assert Box(-2.0, -1.0, 0.0, 4.0).initial_point() == complex(-1.5, 2.0)
        assert Box(-math.inf, math.inf, 1.0, math.inf).initial_point() == complex(0, 1)
        assert Disk(3.0).initial_point() == 0j

    @pytest.mark.parametrize(
        "make, args",
        [
            (Box, (math.nan, 0.0, 0.0, 0.0)),
            (Box, (0.0, math.nan, 0.0, 0.0)),
            (Box, (0.0, 0.0, math.nan, 0.0)),
            (Box, (0.0, 0.0, 0.0, math.nan)),
            (Disk, (math.nan,)),
            (Disk, (math.inf,)),
            (ObjectiveCoeffs, (math.nan, 0.0)),
            (ObjectiveCoeffs, (math.inf, 0.0)),
            (ObjectiveCoeffs, (0.0, math.nan)),
            (ObjectiveCoeffs, (0.0, -math.inf)),
        ],
    )
    def test_nan_and_infinite_coefficients_rejected(self, make, args):
        # the loader rejects them too; a type built in code must not reach
        # the engine with them (infinite box bounds stay legal)
        with pytest.raises(ValueError):
            make(*args)

    def test_objective_requires_convexity(self):
        with pytest.raises(ValueError):
            ObjectiveCoeffs(-1.0, 0.0)

    def test_bus_voltage_bounds(self):
        with pytest.raises(ValueError):
            BusSpec(
                0,
                PhaseSet("a"),
                (0.0,),
                (1.0,),
                (Box(0, 0, 0, 0),),
                (ObjectiveCoeffs(),),
            )
