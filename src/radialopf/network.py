"""Unbalanced radial feeder model: types, validation, ingestion, generation.

A feeder is a directed tree rooted at bus 0. Every quantity is per-unit and
per-phase: a bus carrying phases ``"ab"`` has 2x2 voltage/current matrices
and length-2 injection vectors. Phase order is fixed globally as a < b < c
so matrix rows and columns mean the same thing on every agent.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PHASE_ORDER",
    "PhaseSet",
    "Box",
    "Disk",
    "ObjectiveCoeffs",
    "BusSpec",
    "LineSpec",
    "FeederModel",
    "FeederError",
    "FeederParseError",
    "FeederValidationError",
    "phase_project",
    "phase_lift",
    "load_feeder",
    "loads_feeder",
    "feeder_to_dict",
    "dump_feeder",
    "validate_radial",
    "TopologyTemplate",
    "generate_topology",
]

PHASE_ORDER = "abc"


class FeederError(Exception):
    """Base class for feeder ingestion and validation failures."""


class FeederParseError(FeederError):
    """Malformed feeder document (bad JSON or bad field content)."""


class FeederValidationError(FeederError):
    """Structurally parsed feeder that violates model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class PhaseSet:
    """Ordered subset of the phases {a, b, c}."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ValueError("phase set must be non-empty")
        seen = ""
        for ch in self.letters:
            if ch not in PHASE_ORDER:
                raise ValueError(f"unknown phase {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate phase {ch!r}")
            seen += ch
        canonical = "".join(ch for ch in PHASE_ORDER if ch in self.letters)
        if self.letters != canonical:
            raise ValueError(f"phases must be in canonical order, got {self.letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def issubset(self, other: "PhaseSet") -> bool:
        return all(ch in other.letters for ch in self.letters)

    def indices_in(self, other: "PhaseSet") -> list[int]:
        """Positions of this set's phases inside ``other`` (must contain them)."""
        if not self.issubset(other):
            raise ValueError(f"{self.letters!r} is not a subset of {other.letters!r}")
        return [other.letters.index(ch) for ch in self.letters]


def phase_project(m, src: PhaseSet, dst: PhaseSet) -> np.ndarray:
    """Principal submatrix of ``m`` (over ``src``) indexed by the phases of ``dst``."""
    m = np.asarray(m)
    if m.shape != (len(src), len(src)):
        raise ValueError(f"matrix shape {m.shape} does not match phases {src.letters!r}")
    idx = dst.indices_in(src)
    return m[np.ix_(idx, idx)]


def phase_lift(m, src: PhaseSet, dst: PhaseSet) -> np.ndarray:
    """Embed ``m`` (over ``src``) into a ``dst``-sized matrix, zero elsewhere."""
    m = np.asarray(m)
    if m.shape != (len(src), len(src)):
        raise ValueError(f"matrix shape {m.shape} does not match phases {src.letters!r}")
    idx = src.indices_in(dst)
    out = np.zeros((len(dst), len(dst)), dtype=m.dtype)
    out[np.ix_(idx, idx)] = m
    return out


@dataclass(frozen=True)
class Box:
    """Rectangular injection region: p in [p_lo, p_hi], q in [q_lo, q_hi]."""

    p_lo: float
    p_hi: float
    q_lo: float
    q_hi: float

    def __post_init__(self):
        if not (self.p_lo <= self.p_hi and self.q_lo <= self.q_hi):
            raise ValueError("box bounds must be ordered and not NaN")

    def initial_point(self) -> complex:
        """Midpoint of finite bounds, otherwise 0 clamped into the box."""

        def pick(lo: float, hi: float) -> float:
            if math.isfinite(lo) and math.isfinite(hi):
                return 0.5 * (lo + hi)
            return min(max(0.0, lo), hi)

        return complex(pick(self.p_lo, self.p_hi), pick(self.q_lo, self.q_hi))


@dataclass(frozen=True)
class Disk:
    """Half-disk injection region: p >= 0, p^2 + q^2 <= s_max^2 (inverter nameplate)."""

    s_max: float

    def __post_init__(self):
        if not (0.0 <= self.s_max < math.inf):
            raise ValueError("disk radius must be finite and nonnegative")

    def initial_point(self) -> complex:
        return 0j


InjectionRegion = Box | Disk


@dataclass(frozen=True)
class ObjectiveCoeffs:
    """Per-phase cost f(p) = alpha/2 * p^2 + beta * p; alpha >= 0 keeps it convex."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and math.isfinite(self.beta)):
            raise ValueError("cost coefficients must be finite, the quadratic one nonnegative")

    def value(self, p: float) -> float:
        return 0.5 * self.alpha * p * p + self.beta * p


@dataclass(frozen=True)
class BusSpec:
    id: int
    phases: PhaseSet
    v_lo: tuple[float, ...]
    v_hi: tuple[float, ...]
    regions: tuple[InjectionRegion, ...]
    cost: tuple[ObjectiveCoeffs, ...]

    def __post_init__(self):
        n = len(self.phases)
        for name, seq in (
            ("v_lo", self.v_lo),
            ("v_hi", self.v_hi),
            ("regions", self.regions),
            ("cost", self.cost),
        ):
            if len(seq) != n:
                raise ValueError(f"bus {self.id}: {name} must have {n} entries")
        for lo, hi in zip(self.v_lo, self.v_hi):
            if not (0.0 < lo <= hi):
                raise ValueError(f"bus {self.id}: need 0 < v_lo <= v_hi")


@dataclass(frozen=True)
class LineSpec:
    """Line from ``bus`` to its parent; phases equal the child bus's phases."""

    bus: int
    parent: int
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class FeederModel:
    """Immutable radial network; safe to share read-only across agents.

    Indexed once: ``by_id`` maps a bus id to its ``BusSpec``, ``line`` a
    bus to the ``LineSpec`` toward its parent, and ``children`` a bus to
    its children's ids, ascending."""

    buses: tuple[BusSpec, ...]
    lines: tuple[LineSpec, ...]
    by_id: dict[int, BusSpec] = field(init=False, repr=False)
    line: dict[int, LineSpec] = field(init=False, repr=False)
    children: dict[int, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        kids: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for ln in self.lines:
            if ln.parent in kids:
                kids[ln.parent].append(ln.bus)
        object.__setattr__(self, "by_id", {b.id: b for b in self.buses})
        object.__setattr__(self, "line", {ln.bus: ln for ln in self.lines})
        object.__setattr__(self, "children", {i: tuple(sorted(js)) for i, js in kids.items()})

    def __len__(self) -> int:
        return len(self.buses)

    def bus(self, i: int) -> BusSpec:
        return self.by_id[i]


def validate_radial(model: FeederModel) -> list[str]:
    """Check tree structure, phase nesting, and impedance dimensions and values.

    Returns every violation found (empty list means valid); never raises.
    """
    report: list[str] = []
    if 0 not in model.by_id:
        report.append("no root bus with id 0")

    line_children = [ln.bus for ln in model.lines]
    if len(set(line_children)) != len(line_children):
        dupes = sorted({i for i in line_children if line_children.count(i) > 1})
        report.append(f"buses {dupes} have multiple parent lines: not a tree")
    if len(model.lines) != len(model.buses) - 1:
        report.append(
            f"{len(model.lines)} lines for {len(model.buses)} buses: not a tree"
        )
    for ln in model.lines:
        if ln.bus not in model.by_id:
            report.append(f"line references unknown bus {ln.bus}")
        if ln.parent not in model.by_id:
            report.append(f"line of bus {ln.bus} references unknown parent {ln.parent}")
        if ln.bus == ln.parent:
            report.append(f"bus {ln.bus} is its own parent")

    # Reachability from the root over child links detects cycles and islands.
    if 0 in model.by_id:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in model.children.get(i, ()):
                if j in seen:
                    report.append(f"bus {j} reached twice: cycle")
                    continue
                seen.add(j)
                stack.append(j)
        missing = sorted(set(model.by_id) - seen)
        if missing:
            report.append(f"buses {missing} not reachable from root: not a tree")

    for ln in model.lines:
        child = model.by_id.get(ln.bus)
        par = model.by_id.get(ln.parent)
        if child is None or par is None:
            continue
        if not child.phases.issubset(par.phases):
            report.append(
                f"bus {ln.bus} phases {child.phases.letters!r} not nested in "
                f"parent {ln.parent} phases {par.phases.letters!r}"
            )
        n = len(child.phases)
        if ln.z.shape != (n, n):
            report.append(
                f"line of bus {ln.bus}: impedance shape {ln.z.shape} "
                f"does not match {n} phases"
            )
        elif not np.isfinite(ln.z).all():
            report.append(f"line of bus {ln.bus}: impedance has a non-finite entry")
    return report


# ---------------------------------------------------------------------------
# feeder-json ingestion and serialization
# ---------------------------------------------------------------------------


def _finite(value, context: str, error: type[Exception] = FeederParseError) -> float:
    """``float(value)`` of a JSON number; NaN, infinities, integers beyond
    the float range, strings and booleans raise ``error`` with the field's
    context."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise error(f"{context}: {value!r} is not a finite number")


def _integer(value, context: str, error: type[Exception] = FeederParseError) -> int:
    """A JSON integer; floats, strings and booleans raise ``error`` with
    the field's context."""
    if type(value) is int:
        return value
    raise error(f"{context}: {value!r} is not an integer")


def _bounds(pair, context: str) -> tuple[float, float]:
    """A box's [lo, hi] list; a null bound is unbounded."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise FeederParseError(f"{context}: expected a list of 2 bounds")
    lo, hi = pair
    return (
        -math.inf if lo is None else _finite(lo, f"{context}[0]"),
        math.inf if hi is None else _finite(hi, f"{context}[1]"),
    )


@contextmanager
def _named(context: str):
    """Raise a KeyError, TypeError or ValueError of the block as a
    ``FeederParseError`` that names the field ``context``."""
    try:
        yield
    except KeyError as exc:
        raise FeederParseError(f"{context}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FeederParseError(f"{context}: {exc}") from exc


def _known_keys(obj, keys: tuple[str, ...], context: str) -> None:
    """Reject an object with a key outside ``keys``, naming the field."""
    if not isinstance(obj, dict):
        raise FeederParseError(f"{context}: expected an object")
    for key in obj:
        if key not in keys:
            raise FeederParseError(f"{context}: unknown key {key!r}")


def _parse_region(obj, context: str) -> InjectionRegion:
    if not isinstance(obj, dict) or "type" not in obj:
        raise FeederParseError(f"{context}: region must be an object with a 'type'")
    kind = obj["type"]
    with _named(context):
        if kind == "box":
            _known_keys(obj, ("type", "p", "q"), context)
            p_lo, p_hi = _bounds(obj.get("p", [None, None]), f"{context}.p")
            q_lo, q_hi = _bounds(obj.get("q", [None, None]), f"{context}.q")
            return Box(p_lo, p_hi, q_lo, q_hi)
        if kind == "disk":
            _known_keys(obj, ("type", "smax"), context)
            return Disk(_finite(obj["smax"], f"{context}.smax"))
    raise FeederParseError(f"{context}: unknown region type {kind!r}")


def _complex_to_json(a: np.ndarray):
    """The complex array ``a`` as nested lists of {"re": x, "im": y}."""

    def entry(e):
        return [entry(f) for f in e] if isinstance(e, list) else {"re": e.real, "im": e.imag}

    return entry(a.tolist())


def _parse_complex(obj, context: str, error: type[Exception] = FeederParseError) -> np.ndarray:
    """The complex array that nested lists of {"re": x, "im": y} spell; an
    entry that is no such object, or a number ``_finite`` rejects, raises
    ``error`` naming it, as in ``context[0][1].re``."""

    def entry(e, at: str):
        if isinstance(e, list):
            return [entry(f, f"{at}[{k}]") for k, f in enumerate(e)]
        if not isinstance(e, dict) or "re" not in e or "im" not in e:
            raise error(f"{at}: expected an object with 're' and 'im'")
        return complex(*(_finite(e[key], f"{at}.{key}", error) for key in ("re", "im")))

    return np.array(entry(obj, context), dtype=complex)


def _parse_cost(obj, context: str) -> ObjectiveCoeffs:
    _known_keys(obj, ("alpha", "beta"), context)
    with _named(context):
        return ObjectiveCoeffs(
            _finite(obj["alpha"], f"{context}.alpha"), _finite(obj["beta"], f"{context}.beta")
        )


def _parse_bus(obj, k: int) -> BusSpec:
    ctx = f"buses[{k}]"
    _known_keys(obj, ("id", "phases", "vmin", "vmax", "region", "cost"), ctx)
    with _named(ctx):
        bus_id = _integer(obj["id"], f"{ctx}.id")
        phases = PhaseSet(str(obj["phases"]))
        vmin = tuple(_finite(x, f"{ctx}.vmin[{t}]") for t, x in enumerate(obj["vmin"]))
        vmax = tuple(_finite(x, f"{ctx}.vmax[{t}]") for t, x in enumerate(obj["vmax"]))
        regions = tuple(
            _parse_region(r, f"{ctx}.region[{m}]") for m, r in enumerate(obj["region"])
        )
        cost = tuple(_parse_cost(c, f"{ctx}.cost[{m}]") for m, c in enumerate(obj["cost"]))
        return BusSpec(bus_id, phases, vmin, vmax, regions, cost)


def _parse_line(obj, k: int) -> LineSpec:
    ctx = f"lines[{k}]"
    _known_keys(obj, ("bus", "parent", "z"), ctx)
    with _named(ctx):
        z = _parse_complex(obj["z"], f"{ctx}.z")
        bus, parent = (_integer(obj[key], f"{ctx}.{key}") for key in ("bus", "parent"))
        return LineSpec(bus, parent, z)


def loads_feeder(text: str | bytes) -> FeederModel:
    """Parse a feeder-json document and validate it."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FeederParseError(f"not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeederParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "buses" not in doc or "lines" not in doc:
        raise FeederParseError("document must contain 'buses' and 'lines'")
    for key in ("buses", "lines"):
        if not isinstance(doc[key], list):
            raise FeederParseError(f"'{key}' must be a list")

    buses = tuple(_parse_bus(b, k) for k, b in enumerate(doc["buses"]))
    seen: set[int] = set()
    for b in buses:
        if b.id in seen:
            raise FeederParseError(f"duplicate id {b.id}")
        seen.add(b.id)
    lines = tuple(_parse_line(ln, k) for k, ln in enumerate(doc["lines"]))

    model = FeederModel(buses, lines)
    report = validate_radial(model)
    if report:
        raise FeederValidationError(report)
    return model


def load_feeder(source) -> FeederModel:
    """Load a validated feeder from a path, byte stream, or text stream."""
    if hasattr(source, "read"):
        return loads_feeder(source.read())
    with open(source, "rb") as fh:
        return loads_feeder(fh.read())


def _bound_json(x: float):
    return None if math.isinf(x) else x


def feeder_to_dict(model: FeederModel) -> dict:
    buses = []
    for b in model.buses:
        regions = []
        for r in b.regions:
            if isinstance(r, Box):
                regions.append(
                    {
                        "type": "box",
                        "p": [_bound_json(r.p_lo), _bound_json(r.p_hi)],
                        "q": [_bound_json(r.q_lo), _bound_json(r.q_hi)],
                    }
                )
            else:
                regions.append({"type": "disk", "smax": r.s_max})
        buses.append(
            {
                "id": b.id,
                "phases": b.phases.letters,
                "vmin": list(b.v_lo),
                "vmax": list(b.v_hi),
                "region": regions,
                "cost": [{"alpha": c.alpha, "beta": c.beta} for c in b.cost],
            }
        )
    lines = [
        {
            "bus": ln.bus,
            "parent": ln.parent,
            "z": _complex_to_json(ln.z),
        }
        for ln in model.lines
    ]
    return {"buses": buses, "lines": lines}


def dump_feeder(model: FeederModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(feeder_to_dict(model), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic topologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyTemplate:
    """Per-bus defaults applied by the topology generators.

    Loads are fixed real draws with a small reactive band, scaled per phase
    to keep multi-phase feeders unbalanced. The root gets a pinned voltage
    and an unconstrained injection. Only ``phases`` is a field.
    """

    phases: str = "a"
    load_p = -0.002
    load_q_band = 0.001
    z_self = 0.002 + 0.004j
    z_mutual = 0.0005 + 0.001j
    v_lo = 0.95**2
    v_hi = 1.05**2
    root_v = 1.0
    phase_scale = (1.0, 0.8, 1.2)

    def impedance(self) -> np.ndarray:
        n = len(self.phases)
        z = np.full((n, n), self.z_mutual, dtype=complex)
        np.fill_diagonal(z, self.z_self)
        return z


def _template_bus(i: int, template: TopologyTemplate) -> BusSpec:
    phases = PhaseSet(template.phases)
    n = len(phases)
    loss = tuple(ObjectiveCoeffs(0.0, 1.0) for _ in range(n))
    if i == 0:
        pinned = tuple(template.root_v for _ in range(n))
        free = tuple(
            Box(-math.inf, math.inf, -math.inf, math.inf) for _ in range(n)
        )
        return BusSpec(0, phases, pinned, pinned, free, loss)
    scales = {ch: s for ch, s in zip(PHASE_ORDER, template.phase_scale)}
    regions = tuple(
        Box(
            template.load_p * scales[ch],
            template.load_p * scales[ch],
            -template.load_q_band,
            template.load_q_band,
        )
        for ch in phases
    )
    lo = tuple(template.v_lo for _ in range(n))
    hi = tuple(template.v_hi for _ in range(n))
    return BusSpec(i, phases, lo, hi, regions, loss)


def generate_topology(
    kind: str, size: int, template: TopologyTemplate | None = None
) -> FeederModel:
    """Build a line (maximum-diameter path) or fat-tree (complete binary tree) feeder."""
    if size < 2:
        raise ValueError("topology needs at least 2 buses")
    if template is None:
        template = TopologyTemplate()
    if kind == "line":
        parent_of = {i: i - 1 for i in range(1, size)}
    elif kind == "fat-tree":
        parent_of = {i: (i - 1) // 2 for i in range(1, size)}
    else:
        raise ValueError(f"unknown topology kind {kind!r}")

    buses = tuple(_template_bus(i, template) for i in range(size))
    z = template.impedance()
    lines = tuple(LineSpec(i, parent_of[i], z.copy()) for i in range(1, size))
    model = FeederModel(buses, lines)
    report = validate_radial(model)
    if report:  # generator bug, not user error
        raise AssertionError(f"generated topology invalid: {report}")
    return model
