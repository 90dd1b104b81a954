"""Exact feasibility testing for circle packings in disks and rectangles.

The question answered here: can k non-overlapping circles with given radii be
placed inside a container (a disk or an axis-aligned rectangle)?  Three
routes, cheapest first:

  analytic_prefilter  closed-form certificates (area bound, inradius bound,
                      k <= 3 equal circles in a disk, the Groemer-Oler
                      count bound)
  greedy_pack         left-most-lowest constructive heuristic; its Infeasible
                      is "gave up", not a proof
  verify_exact        complete spatial branch and bound over center boxes

Verdicts are exact up to a fixed band, TOLERANCE: a placement violating no
constraint by more than TOLERANCE counts as feasible, and infeasibility
pruning demands a violation certainly above it, so radii within a few parts
in 10^10 of a tight threshold may legitimately resolve either way.
model.validate_solution accepts placements within the same band.

Witness convention: every witness lists centers for the multiset expanded in
nonincreasing radius order (ties keep the multiset's ascending-radius groups
in blocks).  Disk witnesses are relative to the disk center, rectangle
witnesses use the corner-origin frame [0,W] x [0,H].

Effort is counted in search nodes, never in wall time: verify_exact stops
after `node_limit` nodes, so identical inputs explore identical trees
regardless of machine speed.  Callers that think in virtual seconds convert
at the fixed rate NODES_PER_SECOND.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNKNOWN = "Unknown"

REASON_NODES = "NodeLimit"

# virtual clock: one second of budget buys this many search nodes
NODES_PER_SECOND = 100_000

# the geometric band: every containment and separation constraint may be
# breached by this much, in the kernel and in the solution validator alike
TOLERANCE = 1e-9

# boxes thinner than this are abandoned; must stay well below TOLERANCE
BOX_FLOOR = 1e-10

_REPAIR_EVERY = 16
_REPAIR_ITERS = 60


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self) -> None:
        # radius 0 is the hole of a solid ring: it holds nothing, but exists
        if not 0.0 <= self.radius < math.inf:
            raise ValueError(f"disk radius must be >= 0 and finite, got {self.radius}")


@dataclass(frozen=True)
class Rect:
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError(
                f"rectangle sides must be positive and finite, got {self.width} x {self.height}"
            )


Container = Disk | Rect


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple[tuple[float, float], ...] | None = None
    reason: str = ""
    nodes: int = 0


def expand_multiset(multiset) -> tuple[float, ...]:
    """Flatten (radius, count) pairs to radii in nonincreasing order."""
    pairs = sorted(((float(r), int(c)) for r, c in multiset), key=lambda p: -p[0])
    radii: list[float] = []
    for r, c in pairs:
        if not 0.0 < r < math.inf:
            raise ValueError(f"radius must be positive and finite, got {r}")
        if c < 1:
            raise ValueError(f"count must be at least 1, got {c}")
        radii.extend([r] * c)
    return tuple(radii)


def _inradius(container: Container) -> float:
    if isinstance(container, Disk):
        return container.radius
    return min(container.width, container.height) / 2.0


def _area(container: Container) -> float:
    if isinstance(container, Disk):
        return math.pi * container.radius**2
    return container.width * container.height


def _violation(container: Container, radii, pts) -> float:
    """Largest constraint breach of a placement; 0 means exactly feasible."""
    worst = 0.0
    if isinstance(container, Disk):
        rho = container.radius
        for (x, y), r in zip(pts, radii):
            worst = max(worst, math.hypot(x, y) - (rho - r))
    else:
        w, h = container.width, container.height
        for (x, y), r in zip(pts, radii):
            worst = max(worst, r - x, x - (w - r), r - y, y - (h - r))
    n = len(radii)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            xj, yj = pts[j]
            worst = max(
                worst, radii[i] + radii[j] - math.hypot(xi - xj, yi - yj)
            )
    return worst


def check_placements(container: Container, radii, centers) -> bool:
    """True iff every circle is inside the container and no pair overlaps,
    each constraint relaxed by TOLERANCE."""
    if len(radii) != len(centers):
        raise ValueError("need one center per circle")
    # max() in _violation drops a NaN term, so a non-finite center must be
    # refused here or it would pass every constraint
    if not all(map(math.isfinite, itertools.chain.from_iterable(centers))):
        return False
    return _violation(container, radii, centers) <= TOLERANCE


def _circle_intersections(cx1, cy1, r1, cx2, cy2, r2):
    dx, dy = cx2 - cx1, cy2 - cy1
    d = math.hypot(dx, dy)
    if d < 1e-15:
        return []
    if d > r1 + r2 + 1e-12 or d < abs(r1 - r2) - 1e-12:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0 else 0.0
    ux, uy = dx / d, dy / d
    px, py = cx1 + a * ux, cy1 + a * uy
    return [(px - h * uy, py + h * ux), (px + h * uy, py - h * ux)]


def _greedy_candidates(container, r, placed):
    """Boundary-supported and tangent positions for the next circle."""
    cands: list[tuple[float, float]] = []
    if isinstance(container, Disk):
        m = container.radius - r
        if m < 0:
            return []
        cands.append((-m, 0.0))
        for (px, py), pr in placed:
            cands.extend(_circle_intersections(0.0, 0.0, m, px, py, pr + r))
    else:
        w, h = container.width, container.height
        if 2 * r > w or 2 * r > h:
            return []
        cands.extend(
            [(r, r), (w - r, r), (r, h - r), (w - r, h - r)]
        )
        for (px, py), pr in placed:
            reach = pr + r
            for x_wall in (r, w - r):
                d_sq = reach * reach - (x_wall - px) ** 2
                if d_sq >= 0:
                    d = math.sqrt(d_sq)
                    cands.extend([(x_wall, py - d), (x_wall, py + d)])
            for y_wall in (r, h - r):
                d_sq = reach * reach - (y_wall - py) ** 2
                if d_sq >= 0:
                    d = math.sqrt(d_sq)
                    cands.extend([(px - d, y_wall), (px + d, y_wall)])
    for a in range(len(placed)):
        (ax, ay), ar = placed[a]
        for b in range(a + 1, len(placed)):
            (bx, by), br = placed[b]
            cands.extend(
                _circle_intersections(ax, ay, ar + r, bx, by, br + r)
            )
    seen = set()
    out = []
    for x, y in cands:
        key = (round(x, 9), round(y, 9))
        if key not in seen:
            seen.add(key)
            out.append((x, y))
    return out


def _fits_beside(container, r, cand, placed) -> bool:
    """True iff no constraint term of circle `r` at `cand` exceeds
    TOLERANCE: its containment, and its separation from each placed
    circle.  The placed circles passed together when the last of them was
    placed, and their own terms have not changed, so this decides the same
    as checking the whole trial placement.  A NaN term breaches nothing,
    as in _violation."""
    x, y = cand
    tol = TOLERANCE
    if isinstance(container, Disk):
        if math.hypot(x, y) - (container.radius - r) > tol:
            return False
    else:
        w, h = container.width, container.height
        if (r - x > tol or x - (w - r) > tol
                or r - y > tol or y - (h - r) > tol):
            return False
    for (px, py), pr in placed:
        if pr + r - math.hypot(px - x, py - y) > tol:
            return False
    return True


def greedy_pack(container: Container, multiset) -> Verdict:
    """Place circles largest-first at the left-most, then lowest feasible
    candidate position.  Feasible comes with a checked witness; Infeasible
    only means the heuristic failed and proves nothing."""
    radii = expand_multiset(multiset)
    placed: list[tuple[tuple[float, float], float]] = []
    for r in radii:
        best = None
        for cand in _greedy_candidates(container, r, placed):
            if _fits_beside(container, r, cand, placed):
                if best is None or cand < best:
                    best = cand
        if best is None:
            return Verdict(INFEASIBLE, reason="greedy failed")
        placed.append((best, r))
    witness = tuple(p for p, _ in placed)
    if not check_placements(container, radii, witness):
        return Verdict(INFEASIBLE, reason="greedy failed")
    return Verdict(FEASIBLE, witness=witness, reason="greedy")


# three equal circles fit in a unit disk iff their radius is below this
THREE_IN_DISK = 2.0 * math.sqrt(3.0) - 3.0


def _count_bound(container: Container, r: float) -> float:
    """An upper bound on how many circles of radius >= r a placement within
    the TOLERANCE band can hold.

    Groemer (Math. Z. 1960) and Oler (Acta Math. 1961): if n points lie in
    a compact convex set K with pairwise distances >= d, then
    n <= (2/sqrt(3)) A(K)/d^2 + P(K)/(2d) + 1, with A the area and P the
    perimeter.  A segment of length L (A = 0, P = 2L) gives n <= L/d + 1.

    Within the band, two circles of radii >= r have centers at least
    2r - TOLERANCE apart, and each center lies in the container shrunk by
    r and grown by TOLERANCE: a disk of radius max(rho - r, 0) + TOLERANCE,
    or a rectangle of sides max(W - 2r, 0) + 2 TOLERANCE by
    max(H - 2r, 0) + 2 TOLERANCE (when 2r > W, every center has
    |x - W/2| <= TOLERANCE).  Taking d = 2r - 2 TOLERANCE only loosens the
    bound.
    """
    d = 2.0 * r - 2.0 * TOLERANCE
    if d <= 0.0:
        return math.inf
    if isinstance(container, Disk):
        a = max(container.radius - r, 0.0) + TOLERANCE
        area, perimeter = math.pi * a * a, 2.0 * math.pi * a
    else:
        a = max(container.width - 2.0 * r, 0.0) + 2.0 * TOLERANCE
        b = max(container.height - 2.0 * r, 0.0) + 2.0 * TOLERANCE
        area, perimeter = a * b, 2.0 * (a + b)
    return 2.0 / math.sqrt(3.0) * area / (d * d) + perimeter / (2.0 * d) + 1.0


def analytic_prefilter(container: Container, multiset) -> Verdict | None:
    """Closed-form certificates; None when no rule applies.

    Infeasible: total circle area above container area, a single circle
    larger than the inradius, two equal circles in a disk beyond the
    half-radius threshold, or the count bound: for some j >= 2, the j
    largest circles, all of radius >= r_j, outnumber _count_bound at r_j.
    Feasible: at most one circle that fits, or two or three equal circles
    in a disk inside the known thresholds (witnessed constructively and
    re-checked).
    """
    radii = expand_multiset(multiset) if multiset else ()
    k = len(radii)
    if k == 0:
        return Verdict(FEASIBLE, witness=(), reason="empty")
    if sum(math.pi * r * r for r in radii) > _area(container) + TOLERANCE:
        return Verdict(INFEASIBLE, reason="area bound")
    if radii[0] > _inradius(container) + TOLERANCE:
        return Verdict(INFEASIBLE, reason="inradius bound")
    equal = radii[0] == radii[-1]
    if isinstance(container, Disk) and k == 2 and equal:
        if radii[0] > container.radius / 2.0 + TOLERANCE:
            return Verdict(INFEASIBLE, reason="two-in-disk bound")
    # the bound depends on r_j alone, so in a run of equal radii the last
    # j is the strongest test
    for j in range(2, k + 1):
        last_of_run = j == k or radii[j] < radii[j - 1]
        if last_of_run and j > _count_bound(container, radii[j - 1]):
            return Verdict(INFEASIBLE, reason="count bound")
    witness = None
    if k == 1:
        r = radii[0]
        if isinstance(container, Disk):
            witness = ((0.0, 0.0),)
        else:
            witness = ((r, r),)
    elif isinstance(container, Disk) and equal and k in (2, 3):
        rho, r = container.radius, radii[0]
        m = max(rho - r, 0.0)
        if k == 2 and r <= rho / 2.0 + TOLERANCE:
            witness = ((-m, 0.0), (m, 0.0))
        elif k == 3 and r <= THREE_IN_DISK * rho + TOLERANCE:
            s = m * math.sqrt(3.0) / 2.0
            witness = ((0.0, -m), (-s, m / 2.0), (s, m / 2.0))
    if witness is not None and check_placements(container, radii, witness):
        return Verdict(FEASIBLE, witness=witness, reason="closed form")
    return None


def _root_boxes(container, radii):
    """Per-circle center boxes, or None when some circle cannot fit at all."""
    boxes = []
    if isinstance(container, Disk):
        rho = container.radius
        for r in radii:
            m = rho - r
            if m < -TOLERANCE:
                return None
            m = max(m, 0.0)
            boxes.append([-m, m, -m, m])
    else:
        w, h = container.width, container.height
        for r in radii:
            if 2 * r > w + TOLERANCE or 2 * r > h + TOLERANCE:
                return None
            boxes.append([r, max(r, w - r), r, max(r, h - r)])
    return boxes


def _origin_and_reach(container, radii):
    """Container center plus each circle's max center distance from it."""
    if isinstance(container, Disk):
        return 0.0, 0.0, [max(container.radius - r, 0.0) for r in radii]
    w, h = container.width, container.height
    reach = [
        math.hypot(max(w / 2 - r, 0.0), max(h / 2 - r, 0.0)) for r in radii
    ]
    return w / 2, h / 2, reach


def _min_norm_sq(lox, hix, loy, hiy):
    dx = 0.0 if lox <= 0.0 <= hix else min(abs(lox), abs(hix))
    dy = 0.0 if loy <= 0.0 <= hiy else min(abs(loy), abs(hiy))
    return dx * dx + dy * dy


class _Search:
    """What one verify_exact call computes once instead of at every node.

    A node holds its boxes as four lists (lox, hix, loy, hiy) plus, per
    circle, the reach bound `ub`, the midpoint (px, py) and the two box
    widths.  `changed` names the circles whose box differs from the
    parent's; the methods redo only their work.  Every float expression is
    the one the search has always evaluated, in the same order, so nodes,
    verdicts and witnesses do not move by a bit.
    """

    __slots__ = ("radii", "disk", "rho", "w", "h", "ox", "oy", "reach",
                 "nox", "noy", "pairs", "touching", "need_sum", "equal")

    def __init__(self, container, radii):
        k = len(radii)
        self.radii = radii
        self.disk = isinstance(container, Disk)
        self.ox, self.oy, self.reach = _origin_and_reach(container, radii)
        self.nox, self.noy = k * self.ox, k * self.oy
        if self.disk:
            # a disk's reach, max(rho - r, 0), is also its clamp radius
            self.rho = container.radius
        else:
            self.w, self.h = container.width, container.height
        # every pair i < j as (i, j, s, s - 1e-15, need, need * need), where
        # s = r_i + r_j and need = s - TOLERANCE; touching[c] lists the
        # pairs that include circle c
        pairs, touching, equal, need_sum = [], [[] for _ in radii], [], 0.0
        for i in range(k):
            if i + 1 < k and radii[i] == radii[i + 1]:
                equal.append((i, i + 1))
            for j in range(i + 1, k):
                s = radii[i] + radii[j]
                need = s - TOLERANCE
                pair = (i, j, s, s - 1e-15, need, need * need)
                pairs.append(pair)
                touching[i].append(pair)
                touching[j].append(pair)
                if need > 0:
                    need_sum += need * need
        self.pairs, self.touching, self.equal, self.need_sum = pairs, touching, equal, need_sum

    def order_tighten(self, lox, hix, changed) -> bool:
        """Equal-radius circles keep nondecreasing x; False on an empty box.

        Sound symmetry breaking: any placement can be renamed so that
        circles of one radius appear left to right in expansion order.
        """
        for i, j in self.equal:
            if lox[j] < lox[i]:
                lox[j] = lox[i]
                changed.add(j)
            if hix[i] > hix[j]:
                hix[i] = hix[j]
                changed.add(i)
            if lox[i] > hix[i] or lox[j] > hix[j]:
                return False
        for i, j in reversed(self.equal):
            if hix[i] > hix[j]:
                hix[i] = hix[j]
                changed.add(i)
            if lox[i] > hix[i]:
                return False
        return True

    def prune(self, lox, hix, loy, hiy, ub, changed) -> bool:
        """True when no point of the box product can be feasible (beyond
        the TOLERANCE band).  Refreshes `ub` for the changed circles and
        tests only the pairs that touch one; the parent passed the rest."""
        ox, oy, reach, tol = self.ox, self.oy, self.reach, TOLERANCE
        disk, sqrt = self.disk, math.sqrt
        for c in changed:
            lx, hx, ly, hy = lox[c], hix[c], loy[c], hiy[c]
            mn = sqrt(max(abs(lx - ox), abs(hx - ox)) ** 2 + max(abs(ly - oy), abs(hy - oy)) ** 2)
            ub[c] = min(reach[c], mn)
            if disk and sqrt(_min_norm_sq(lx, hx, ly, hy)) > reach[c] + tol:
                return True
        if len(changed) == len(ub):
            groups = (self.pairs,)  # the root: every pair once
        else:
            groups = [self.touching[c] for c in changed]
        for group in groups:
            for i, j, _, _, need, need_sq in group:
                if ub[i] + ub[j] < need:
                    return True
                mx = max(hix[i] - lox[j], hix[j] - lox[i], 0.0)
                my = max(hiy[i] - loy[j], hiy[j] - loy[i], 0.0)
                if mx * mx + my * my < need_sq:
                    return True
        if len(ub) >= 2:
            # sum over pairs of squared distances equals n*sum|p_i|^2 - |sum p_i|^2
            # about any origin; bound both terms by the boxes and reach disks
            l_sq = _min_norm_sq(sum(lox) - self.nox, sum(hix) - self.nox,
                                sum(loy) - self.noy, sum(hiy) - self.noy)
            avail = len(ub) * sum(u * u for u in ub) - l_sq
            if avail < self.need_sum:
                return True
        return False

    def midpoint(self, lox, hix, loy, hiy, px, py, changed):
        """Box centers of the changed circles, pulled into the disk."""
        for c in changed:
            x, y = (lox[c] + hix[c]) / 2.0, (loy[c] + hiy[c]) / 2.0
            if self.disk:
                m = self.reach[c]
                d = math.hypot(x, y)
                if d > m and d > 0:
                    x, y = x * m / d, y * m / d
            px[c] = x
            py[c] = y

    def fits(self, xs, ys) -> bool:
        """_violation(...) <= TOLERANCE, stopping at the first term above
        it; a NaN term breaches nothing, as there."""
        tol, hypot = TOLERANCE, math.hypot
        for i, j, s, _, _, _ in self.pairs:
            if s - hypot(xs[i] - xs[j], ys[i] - ys[j]) > tol:
                return False
        if self.disk:
            rho = self.rho
            for x, y, r in zip(xs, ys, self.radii):
                if hypot(x, y) - (rho - r) > tol:
                    return False
        else:
            w, h = self.w, self.h
            for x, y, r in zip(xs, ys, self.radii):
                if r - x > tol or x - (w - r) > tol or r - y > tol or y - (h - r) > tol:
                    return False
        return True

    def push_apart(self, px, py):
        """Separate overlapping pairs and re-clamp into the container."""
        xs, ys = list(px), list(py)
        hypot, pairs = math.hypot, self.pairs
        if self.disk:
            clamp = list(enumerate(self.reach))
        else:
            w, h = self.w, self.h
            clamp = [(i, r, w - r, h - r) for i, r in enumerate(self.radii)]
        for _ in range(_REPAIR_ITERS):
            moved = False
            for i, j, need, near, _, _ in pairs:
                dx = xs[j] - xs[i]
                dy = ys[j] - ys[i]
                d = hypot(dx, dy)
                if d >= near:
                    continue
                if d < 1e-12:
                    dx, dy, d = 1.0, 0.0, 1.0
                shift = (need - d) / 2.0 + 1e-12
                ux, uy = dx / d, dy / d
                xs[i] -= ux * shift
                ys[i] -= uy * shift
                xs[j] += ux * shift
                ys[j] += uy * shift
                moved = True
            if self.disk:
                for i, m in clamp:
                    d = hypot(xs[i], ys[i])
                    if d > m and d > 0:
                        xs[i] *= m / d
                        ys[i] *= m / d
            else:
                for i, r, fx, fy in clamp:
                    xs[i] = min(max(xs[i], r), fx)
                    ys[i] = min(max(ys[i], r), fy)
            if not moved:
                break
        return tuple(zip(xs, ys))


def verify_exact(
    container: Container,
    multiset,
    node_limit: int = 1_000_000,
    order_constraints: bool = True,
) -> Verdict:
    """Complete search: bisect center boxes, prune boxes that provably
    violate containment or some pairwise separation, accept midpoint or
    repaired placements that pass check_placements.

    Feasible always carries a checked witness.  Infeasible means the box tree
    was exhausted, which certifies that no placement stays within the
    TOLERANCE band.  Unknown means `node_limit` nodes did not settle it.
    Callers try analytic_prefilter and greedy_pack first; this search does
    not repeat them.

    Each node redoes only what its branch changed.  A child's boxes equal
    its parent's except the bisected one and any that order tightening
    moved, and the parent passed every per-box and pairwise pruning test,
    which read nothing but the boxes involved.  So those tests, run again
    on boxes that did not change, would give the same answer: only the
    pairs touching a changed box are tested, and the reach bounds,
    midpoints and widths of the other circles are carried down.  The bound
    over all pairs sums every box and is recomputed in full.  Verdicts,
    node counts and witnesses are those of the search that re-tests
    everything at every node.
    """
    if not node_limit >= 0:  # also rejects NaN
        raise ValueError(f"node_limit must be nonnegative, got {node_limit}")
    radii = expand_multiset(multiset)
    k = len(radii)
    if k == 0:
        return Verdict(FEASIBLE, witness=(), reason="empty")
    boxes = _root_boxes(container, radii)
    if boxes is None:
        return Verdict(INFEASIBLE, reason="inradius bound")
    search = _Search(container, radii)
    # a node is [lox, hix, loy, hiy, ub, px, py, width]; a stack entry is
    # (parent node, circle, side, value), the child whose box side (0 lox,
    # 1 hix, 2 loy, 3 hiy) of that circle is set to value.  Circle -1 marks
    # the root, where every circle counts as changed and fills the zeros.
    root = [*map(list, zip(*boxes)), [0.0] * k, [0.0] * k, [0.0] * k, [0.0] * (2 * k)]
    stack = [(root, -1, 0, 0.0)]
    nodes = 0
    while stack:
        if nodes >= node_limit:
            return Verdict(UNKNOWN, reason=REASON_NODES, nodes=nodes)
        parent, c, side, value = stack.pop()
        nodes += 1
        if c < 0:
            node, changed = parent, set(range(k))
        else:
            node = [v.copy() for v in parent]
            node[side][c] = value
            changed = {c}
        lox, hix, loy, hiy, ub, px, py, width = node
        if order_constraints and not search.order_tighten(lox, hix, changed):
            continue
        if search.prune(lox, hix, loy, hiy, ub, changed):
            continue
        search.midpoint(lox, hix, loy, hiy, px, py, changed)
        if search.fits(px, py):
            return Verdict(FEASIBLE, witness=tuple(zip(px, py)), reason="midpoint", nodes=nodes)
        if nodes % _REPAIR_EVERY == 1:
            fixed = search.push_apart(px, py)
            if check_placements(container, radii, fixed):
                return Verdict(FEASIBLE, witness=fixed, reason="repair", nodes=nodes)
        for i in changed:
            width[2 * i] = hix[i] - lox[i]
            width[2 * i + 1] = hiy[i] - loy[i]
        # the first widest side, x before y, as a left-to-right scan finds it
        widest = max(width)
        if not widest > BOX_FLOOR:
            continue  # below resolution floor: cannot hold an exact placement
        i, axis = divmod(width.index(widest), 2)
        lo = 2 * axis
        mid_v = (node[lo][i] + node[lo + 1][i]) / 2.0
        stack.append((node, i, lo, mid_v))
        stack.append((node, i, lo + 1, mid_v))
    return Verdict(INFEASIBLE, reason="search exhausted", nodes=nodes)
