"""Instance and solution data model for the recursive ring packing problem.

A ring type is an annulus (inner radius r, outer radius R) with an integer
demand.  Rings are packed into identical W x H rectangles; a smaller ring may
sit fully inside the circular hole of a larger one, recursively.  This module
holds the plain data types, the .rpa text format, the seeded random instance
generator, the geometric solution validator, and the volume lower bound.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .geometry import TOLERANCE


class MalformedInput(ValueError):
    """Raised when instance or solution text cannot be parsed."""


class InvariantViolation(ValueError):
    """Raised when parsed or constructed data breaks a model invariant."""


class InfeasibleParameters(ValueError):
    """Raised when generator parameters admit no valid radius chain."""


def _ceil_int(x: float, fuzz: float = 1e-9) -> int:
    # ceil with a guard against 2.0000000001-style float noise
    return int(math.ceil(x - fuzz))


def _fmt_len(x: float) -> str:
    """Render a length so that parsing it back reproduces the float exactly."""
    return repr(float(x))


def _fmt_size(x: float) -> str:
    # rectangle sides are usually whole numbers; keep them short
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class RingType:
    """One annulus type: hole radius, outer radius, and demanded count."""

    inner_radius: float
    outer_radius: float
    demand: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.inner_radius <= self.outer_radius):
            raise InvariantViolation(
                f"need 0 <= r <= R, got r={self.inner_radius} R={self.outer_radius}"
            )
        if self.demand < 0:
            raise InvariantViolation(f"negative demand {self.demand}")

    @property
    def material_area(self) -> float:
        return math.pi * (self.outer_radius**2 - self.inner_radius**2)


@dataclass(frozen=True)
class Instance:
    """A problem instance: rectangle size plus ring types sorted by outer radius."""

    width: float
    height: float
    types: tuple[RingType, ...]
    name: str = field(default="", compare=False)
    # permutation mapping sorted position -> position in the source text,
    # identity when the input was already sorted; excluded from equality
    source_order: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise InvariantViolation("rectangle sides must be positive and finite")
        if not self.types:
            raise InvariantViolation("instance needs at least one ring type")
        radii = [t.outer_radius for t in self.types]
        if any(a > b for a, b in zip(radii, radii[1:])):
            raise InvariantViolation("types must be sorted by outer radius")
        lim = min(self.width, self.height)
        for i, t in enumerate(self.types):
            if 2 * t.outer_radius > lim + TOLERANCE:
                raise InvariantViolation(
                    f"type {i}: outer diameter {2 * t.outer_radius} exceeds "
                    f"min(W,H)={lim}"
                )
        if self.ring_count < 1:
            raise InvariantViolation("total demand must be at least 1")

    @property
    def type_count(self) -> int:
        return len(self.types)

    @property
    def ring_count(self) -> int:
        return sum(t.demand for t in self.types)

    @property
    def demands(self) -> tuple[int, ...]:
        return tuple(t.demand for t in self.types)


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse .rpa text: first line `W H`, then one `r R D` line per type.

    `#` starts a comment line.  Types are re-sorted by outer radius when the
    input is unsorted; the original order is kept on the instance.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))
    if not rows:
        raise MalformedInput("line 1: empty input")
    head_line, head = rows[0]
    if len(head) != 2:
        raise MalformedInput(f"line {head_line}: expected `W H`, got {len(head)} tokens")
    try:
        width, height = float(head[0]), float(head[1])
    except ValueError as exc:
        raise MalformedInput(f"line {head_line}: bad number in header: {exc}") from None
    entries: list[tuple[float, float, int]] = []
    for lineno, tokens in rows[1:]:
        if len(tokens) != 3:
            raise MalformedInput(
                f"line {lineno}: expected `r R D`, got {len(tokens)} tokens"
            )
        values = []
        for col, (token, kind) in enumerate(zip(tokens, (float, float, int)), start=1):
            try:
                values.append(kind(token))
            except ValueError:
                raise MalformedInput(f"line {lineno}, column {col}: bad number") from None
        entries.append(tuple(values))
    if not entries:
        raise MalformedInput("no ring type lines")
    order = sorted(range(len(entries)), key=lambda i: (entries[i][1], i))
    types = []
    for pos in order:
        r, big_r, demand = entries[pos]
        try:
            types.append(RingType(r, big_r, demand))
        except InvariantViolation as exc:
            raise InvariantViolation(f"type {pos + 1}: {exc}") from None
    return Instance(width, height, tuple(types), name=name, source_order=tuple(order))


def write_instance(instance: Instance) -> str:
    lines = [f"{_fmt_size(instance.width)} {_fmt_size(instance.height)}"]
    for t in instance.types:
        lines.append(
            f"{_fmt_len(t.inner_radius)} {_fmt_len(t.outer_radius)} {t.demand}"
        )
    return "\n".join(lines) + "\n"


def generate_instance(
    T: int, alpha: float, beta: float, gamma: float, seed: int
) -> Instance:
    """Seeded random instance on a fixed 10 x 10 rectangle.

    The two extreme-ratio identities hold exactly on the output:
    alpha = max_t r_t / min_t R_t and beta = max(W,H) / max_t R_t.  Demands
    are drawn per type from the integer interval
    [ceil(0.8 g W H / (pi R_t^2)), floor(1.2 g W H / (pi R_t^2))], so small
    rings are demanded more often; an interval emptied by rounding clamps to
    max(1, floor of the lower endpoint).
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise ValueError("alpha, beta and gamma must be finite")
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    if beta < 2.0:
        raise ValueError("beta must be at least 2")
    if gamma < 1.0:
        raise ValueError("gamma must be at least 1")
    rng = random.Random(seed)
    width = height = 10.0
    r_max = max(width, height) / beta
    pairs: list[tuple[float, float]] = []
    if T == 1:
        # single type: alpha = r_1 / R_1, so alpha > 1 contradicts r <= R
        if alpha > 1.0 + 1e-12:
            raise InfeasibleParameters(
                f"T=1 forces r_1 = alpha * R_1 > R_1 for alpha={alpha}"
            )
        pairs.append((alpha * r_max, r_max))
    else:
        top_inner = 0.9 * r_max
        r_lo = top_inner / alpha
        if r_lo <= 0:
            raise InfeasibleParameters("degenerate radius chain")
        outers = [r_lo]
        for _ in range(T - 2):
            u = rng.random()
            outers.append(math.exp(math.log(r_lo) + u * (math.log(r_max) - math.log(r_lo))))
        outers.append(r_max)
        inners = []
        for idx, big_r in enumerate(outers):
            if idx == len(outers) - 1:
                inners.append(top_inner)
            else:
                inners.append(big_r * (0.3 + 0.6 * rng.random()))
        pairs = sorted(zip(inners, outers), key=lambda p: p[1])
    types = []
    for r, big_r in pairs:
        lo_exact = 0.8 * gamma * width * height / (math.pi * big_r**2)
        hi_exact = 1.2 * gamma * width * height / (math.pi * big_r**2)
        lo, hi = math.ceil(lo_exact), math.floor(hi_exact)
        if lo > hi:
            demand = max(1, math.floor(lo_exact))
        else:
            demand = rng.randint(lo, hi)
        types.append(RingType(min(r, big_r), big_r, demand))
    name = f"i{T}_{_fmt_size(alpha)}_{_fmt_size(beta)}_{_fmt_size(gamma)}"
    return Instance(width, height, tuple(types), name=name)


@dataclass(frozen=True)
class PlacedRing:
    """One placed ring: its type, rectangle, optional parent ring, and center."""

    type_index: int
    rectangle: int
    parent: int | None
    center_x: float
    center_y: float


@dataclass(frozen=True)
class PlacedSolution:
    rectangle_count: int
    rings: tuple[PlacedRing, ...]


BOUNDARY_X = "BoundaryX"
BOUNDARY_Y = "BoundaryY"
OVERLAP = "Overlap"
CONTAINMENT_BREACH = "ContainmentBreach"
DEMAND_SHORTFALL = "DemandShortfall"


@dataclass(frozen=True)
class Violation:
    kind: str
    rings: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...]


def validate_solution(instance: Instance, solution: PlacedSolution) -> ValidationReport:
    """Geometric feasibility check of a placed solution.

    Checks rectangle boundary containment for top-level rings, hole
    containment of each nested ring inside its parent, pairwise disjointness
    of rings that share a direct container, and exact demand coverage, each
    within geometry.TOLERANCE, the band the pattern verdicts use.
    Structural defects (bad indices, cycles, parent in another rectangle,
    child not smaller than the parent hole admits, a center that is not a
    finite number) are reported as ContainmentBreach with infinite
    magnitude rather than raising.
    """
    violations: list[Violation] = []
    rings = solution.rings
    n = len(rings)
    structural_bad: set[int] = set()

    for i, ring in enumerate(rings):
        if not (0 <= ring.type_index < instance.type_count):
            structural_bad.add(i)
            continue
        if not (math.isfinite(ring.center_x) and math.isfinite(ring.center_y)):
            structural_bad.add(i)
        if not (0 <= ring.rectangle < solution.rectangle_count):
            structural_bad.add(i)
        if ring.parent is not None:
            if not (0 <= ring.parent < n) or ring.parent == i:
                structural_bad.add(i)
            elif rings[ring.parent].rectangle != ring.rectangle:
                structural_bad.add(i)
    # cycle scan over parent links
    for i in range(n):
        seen = set()
        j: int | None = i
        while j is not None and j not in structural_bad:
            if j in seen:
                structural_bad.add(i)
                break
            seen.add(j)
            j = rings[j].parent if 0 <= j < n else None
    for i in sorted(structural_bad):
        violations.append(Violation(CONTAINMENT_BREACH, (i,), math.inf))

    ok = [i for i in range(n) if i not in structural_bad]
    radius = lambda i: instance.types[rings[i].type_index].outer_radius
    hole = lambda i: instance.types[rings[i].type_index].inner_radius

    for i in ok:
        ring = rings[i]
        big_r = radius(i)
        if ring.parent is None:
            lo_x, hi_x = big_r, instance.width - big_r
            lo_y, hi_y = big_r, instance.height - big_r
            if ring.center_x < lo_x - TOLERANCE or ring.center_x > hi_x + TOLERANCE:
                excess = max(lo_x - ring.center_x, ring.center_x - hi_x)
                violations.append(Violation(BOUNDARY_X, (i,), excess))
            if ring.center_y < lo_y - TOLERANCE or ring.center_y > hi_y + TOLERANCE:
                excess = max(lo_y - ring.center_y, ring.center_y - hi_y)
                violations.append(Violation(BOUNDARY_Y, (i,), excess))
        else:
            p = ring.parent
            d = math.hypot(ring.center_x - rings[p].center_x, ring.center_y - rings[p].center_y)
            limit = hole(p) - big_r
            if d > limit + TOLERANCE:
                violations.append(Violation(CONTAINMENT_BREACH, (i, p), d - limit))

    by_container: dict[tuple[int, int | None], list[int]] = {}
    for i in ok:
        key = (rings[i].rectangle, rings[i].parent)
        by_container.setdefault(key, []).append(i)
    for members in by_container.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                d = math.hypot(rings[i].center_x - rings[j].center_x, rings[i].center_y - rings[j].center_y)
                need = radius(i) + radius(j)
                if d < need - TOLERANCE:
                    violations.append(Violation(OVERLAP, (i, j), need - d))

    counts = [0] * instance.type_count
    for ring in rings:
        if 0 <= ring.type_index < instance.type_count:
            counts[ring.type_index] += 1
    for t, ring_type in enumerate(instance.types):
        if counts[t] != ring_type.demand:
            violations.append(
                Violation(DEMAND_SHORTFALL, (t,), abs(counts[t] - ring_type.demand))
            )

    violations.sort(key=lambda v: (v.kind, v.rings))
    return ValidationReport(feasible=not violations, violations=tuple(violations))


def volume_lower_bound(instance: Instance) -> int:
    """Material-area bound: annulus material of distinct rings never overlaps."""
    total = sum(t.demand * t.material_area for t in instance.types)
    bound = _ceil_int(total / (instance.width * instance.height))
    return max(1, bound)


def write_solution(solution: PlacedSolution) -> str:
    """Serialize: header lines, then `type rect parent x y` per ring (12 sig digits)."""
    lines = [f"rectangles {solution.rectangle_count}", f"rings {len(solution.rings)}"]
    for ring in solution.rings:
        parent = -1 if ring.parent is None else ring.parent
        lines.append(
            f"{ring.type_index} {ring.rectangle} {parent} {ring.center_x:.12g} {ring.center_y:.12g}"
        )
    return "\n".join(lines) + "\n"


def report_block(text: str, name: str) -> str | None:
    """The lines of a solve report between the first line reading `name`
    and the next line reading `end`; None when no line reads `name`."""
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == name]
    if not starts:
        return None
    block = lines[starts[0] + 1 :]
    return "\n".join(itertools.takewhile(lambda ln: ln.strip() != "end", block)) + "\n"


def parse_solution(text: str) -> PlacedSolution:
    """Parse a solution document; also accepts a solve report containing one
    (its `solution` block, see report_block)."""
    block = report_block(text, "solution")
    lines = (text if block is None else block).splitlines()
    rect_count = None
    ring_count = None
    rings: list[PlacedRing] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] in ("rectangles", "rings") and len(tokens) == 2:
            try:
                count = int(tokens[1])
            except ValueError:
                raise MalformedInput(f"line {lineno}: bad {tokens[0]} count") from None
            if tokens[0] == "rectangles":
                rect_count = count
            else:
                ring_count = count
            continue
        if len(tokens) != 5:
            raise MalformedInput(f"line {lineno}: expected `t rect parent x y`")
        try:
            t, rect, parent = int(tokens[0]), int(tokens[1]), int(tokens[2])
            x, y = float(tokens[3]), float(tokens[4])
        except ValueError:
            raise MalformedInput(f"line {lineno}: bad number") from None
        rings.append(PlacedRing(t, rect, None if parent < 0 else parent, x, y))
    if rect_count is None:
        raise MalformedInput("missing `rectangles` header")
    if ring_count is not None and ring_count != len(rings):
        raise MalformedInput(f"declared {ring_count} rings, found {len(rings)}")
    return PlacedSolution(rect_count, tuple(rings))
