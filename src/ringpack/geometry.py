"""Exact feasibility testing for circle packings in disks and rectangles.

The question answered here: can k non-overlapping circles with given radii be
placed inside a container (a disk or an axis-aligned rectangle)?  Three
routes, cheapest first:

  analytic_prefilter  closed-form certificates (area bound, inradius bound,
                      k <= 3 equal circles in a disk)
  greedy_pack         left-most-lowest constructive heuristic; its Infeasible
                      is "gave up", not a proof
  verify_exact        complete spatial branch and bound over center boxes

Verdicts are exact up to a tolerance band: a placement violating no
constraint by more than `tolerance` counts as feasible, and infeasibility
pruning demands a violation certainly above `tolerance`, so radii within a
few parts in 10^10 of a tight threshold may legitimately resolve either way.

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

import math
from dataclasses import dataclass

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNKNOWN = "Unknown"

REASON_NODES = "NodeLimit"

# virtual clock: one second of budget buys this many search nodes
NODES_PER_SECOND = 100_000

# boxes thinner than this are abandoned; must stay well below any tolerance
BOX_FLOOR = 1e-10

_REPAIR_EVERY = 16
_REPAIR_ITERS = 60


@dataclass(frozen=True)
class Disk:
    radius: float


@dataclass(frozen=True)
class Rect:
    width: float
    height: float


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
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
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


def check_placements(container: Container, radii, centers, tolerance: float = 1e-9) -> bool:
    """True iff every circle is inside the container and no pair overlaps,
    each constraint relaxed by `tolerance`."""
    if len(radii) != len(centers):
        raise ValueError("need one center per circle")
    return _violation(container, radii, centers) <= tolerance


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


def greedy_pack(container: Container, multiset, tolerance: float = 1e-9) -> Verdict:
    """Place circles largest-first at the left-most, then lowest feasible
    candidate position.  Feasible comes with a checked witness; Infeasible
    only means the heuristic failed and proves nothing."""
    radii = expand_multiset(multiset)
    placed: list[tuple[tuple[float, float], float]] = []
    for r in radii:
        best = None
        for cand in _greedy_candidates(container, r, placed):
            trial_radii = [pr for _, pr in placed] + [r]
            trial_pts = [p for p, _ in placed] + [cand]
            if _violation(container, trial_radii, trial_pts) <= tolerance:
                if best is None or cand < best:
                    best = cand
        if best is None:
            return Verdict(INFEASIBLE, reason="greedy failed")
        placed.append((best, r))
    witness = tuple(p for p, _ in placed)
    if not check_placements(container, radii, witness, tolerance):
        return Verdict(INFEASIBLE, reason="greedy failed")
    return Verdict(FEASIBLE, witness=witness, reason="greedy")


# three equal circles fit in a unit disk iff their radius is below this
THREE_IN_DISK = 2.0 * math.sqrt(3.0) - 3.0


def analytic_prefilter(container: Container, multiset, tolerance: float = 1e-9) -> Verdict | None:
    """Closed-form certificates; None when no rule applies.

    Infeasible: total circle area above container area, a single circle
    larger than the inradius, or two equal circles in a disk beyond the
    half-radius threshold.  Feasible: at most one circle that fits, or two or
    three equal circles in a disk inside the known thresholds (witnessed
    constructively and re-checked).
    """
    radii = expand_multiset(multiset) if multiset else ()
    k = len(radii)
    if k == 0:
        return Verdict(FEASIBLE, witness=(), reason="empty")
    if sum(math.pi * r * r for r in radii) > _area(container) + tolerance:
        return Verdict(INFEASIBLE, reason="area bound")
    if radii[0] > _inradius(container) + tolerance:
        return Verdict(INFEASIBLE, reason="inradius bound")
    equal = radii[0] == radii[-1]
    if isinstance(container, Disk) and k == 2 and equal:
        if radii[0] > container.radius / 2.0 + tolerance:
            return Verdict(INFEASIBLE, reason="two-in-disk bound")
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
        if k == 2 and r <= rho / 2.0 + tolerance:
            witness = ((-m, 0.0), (m, 0.0))
        elif k == 3 and r <= THREE_IN_DISK * rho + tolerance:
            s = m * math.sqrt(3.0) / 2.0
            witness = ((0.0, -m), (-s, m / 2.0), (s, m / 2.0))
    if witness is not None and check_placements(container, radii, witness, tolerance):
        return Verdict(FEASIBLE, witness=witness, reason="closed form")
    return None


def _root_boxes(container, radii, tolerance):
    """Per-circle center boxes, or None when some circle cannot fit at all."""
    boxes = []
    if isinstance(container, Disk):
        rho = container.radius
        for r in radii:
            m = rho - r
            if m < -tolerance:
                return None
            m = max(m, 0.0)
            boxes.append([-m, m, -m, m])
    else:
        w, h = container.width, container.height
        for r in radii:
            if 2 * r > w + tolerance or 2 * r > h + tolerance:
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


def _max_abs(lo, hi):
    return max(abs(lo), abs(hi))


def _order_tighten(boxes, radii):
    """Equal-radius circles keep nondecreasing x; returns False on an empty box.

    Sound symmetry breaking: any placement can be renamed so that circles of
    one radius appear left to right in expansion order.
    """
    n = len(radii)
    for i in range(n - 1):
        if radii[i] != radii[i + 1]:
            continue
        a, b = boxes[i], boxes[i + 1]
        if b[0] < a[0]:
            b[0] = a[0]
        if a[1] > b[1]:
            a[1] = b[1]
        if a[0] > a[1] or b[0] > b[1]:
            return False
    for i in range(n - 2, -1, -1):
        if radii[i] != radii[i + 1]:
            continue
        a, b = boxes[i], boxes[i + 1]
        if a[1] > b[1]:
            a[1] = b[1]
        if a[0] > a[1]:
            return False
    return True


def _prune(boxes, radii, container, ox, oy, reach, tolerance):
    """True when no point of the box product can be feasible (beyond the
    tolerance band)."""
    n = len(radii)
    disk = isinstance(container, Disk)
    ub = []
    for i in range(n):
        lox, hix, loy, hiy = boxes[i]
        mn = math.sqrt(
            _max_abs(lox - ox, hix - ox) ** 2 + _max_abs(loy - oy, hiy - oy) ** 2
        )
        ub.append(min(reach[i], mn))
        if disk and math.sqrt(_min_norm_sq(lox, hix, loy, hiy)) > reach[i] + tolerance:
            return True
    for i in range(n):
        for j in range(i + 1, n):
            need = radii[i] + radii[j] - tolerance
            if ub[i] + ub[j] < need:
                return True
            bx = boxes[j]
            mx = max(boxes[i][1] - bx[0], bx[1] - boxes[i][0], 0.0)
            my = max(boxes[i][3] - bx[2], bx[3] - boxes[i][2], 0.0)
            if mx * mx + my * my < need * need:
                return True
    if n >= 2:
        # sum over pairs of squared distances equals n*sum|p_i|^2 - |sum p_i|^2
        # about any origin; bound both terms by the boxes and reach disks
        slx = sum(b[0] for b in boxes) - n * ox
        shx = sum(b[1] for b in boxes) - n * ox
        sly = sum(b[2] for b in boxes) - n * oy
        shy = sum(b[3] for b in boxes) - n * oy
        l_sq = _min_norm_sq(slx, shx, sly, shy)
        avail = n * sum(u * u for u in ub) - l_sq
        need = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                s = radii[i] + radii[j] - tolerance
                if s > 0:
                    need += s * s
        if avail < need:
            return True
    return False


def _midpoint(boxes, container, radii):
    pts = []
    disk = isinstance(container, Disk)
    for (lox, hix, loy, hiy), r in zip(boxes, radii):
        x, y = (lox + hix) / 2.0, (loy + hiy) / 2.0
        if disk:
            m = max(container.radius - r, 0.0)
            d = math.hypot(x, y)
            if d > m and d > 0:
                x, y = x * m / d, y * m / d
        pts.append((x, y))
    return pts


def _push_apart(container, radii, pts, iters=_REPAIR_ITERS):
    """Separate overlapping pairs and re-clamp into the container."""
    pts = [list(p) for p in pts]
    n = len(radii)
    disk = isinstance(container, Disk)
    for _ in range(iters):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                dx = pts[j][0] - pts[i][0]
                dy = pts[j][1] - pts[i][1]
                d = math.hypot(dx, dy)
                need = radii[i] + radii[j]
                if d >= need - 1e-15:
                    continue
                if d < 1e-12:
                    dx, dy, d = 1.0, 0.0, 1.0
                shift = (need - d) / 2.0 + 1e-12
                ux, uy = dx / d, dy / d
                pts[i][0] -= ux * shift
                pts[i][1] -= uy * shift
                pts[j][0] += ux * shift
                pts[j][1] += uy * shift
                moved = True
        for i in range(n):
            r = radii[i]
            if disk:
                m = max(container.radius - r, 0.0)
                d = math.hypot(pts[i][0], pts[i][1])
                if d > m and d > 0:
                    pts[i][0] *= m / d
                    pts[i][1] *= m / d
            else:
                pts[i][0] = min(max(pts[i][0], r), container.width - r)
                pts[i][1] = min(max(pts[i][1], r), container.height - r)
        if not moved:
            break
    return tuple((p[0], p[1]) for p in pts)


def verify_exact(
    container: Container,
    multiset,
    node_limit: int = 1_000_000,
    tolerance: float = 1e-9,
    order_constraints: bool = True,
) -> Verdict:
    """Complete search: bisect center boxes, prune boxes that provably
    violate containment or some pairwise separation, accept midpoint or
    repaired placements that pass check_placements.

    Feasible always carries a checked witness.  Infeasible means the box tree
    was exhausted, which certifies that no placement stays within the
    tolerance band.  Unknown means `node_limit` nodes did not settle it.
    Callers try analytic_prefilter and greedy_pack first; this search does
    not repeat them.
    """
    if node_limit < 0 or tolerance <= 0:
        raise ValueError("node_limit must be nonnegative and tolerance positive")
    radii = expand_multiset(multiset)
    k = len(radii)
    if k == 0:
        return Verdict(FEASIBLE, witness=(), reason="empty")
    boxes = _root_boxes(container, radii, tolerance)
    if boxes is None:
        return Verdict(INFEASIBLE, reason="inradius bound")
    ox, oy, reach = _origin_and_reach(container, radii)
    nodes = 0
    stack = [boxes]
    while stack:
        if nodes >= node_limit:
            return Verdict(UNKNOWN, reason=REASON_NODES, nodes=nodes)
        boxes = stack.pop()
        nodes += 1
        if order_constraints and not _order_tighten(boxes, radii):
            continue
        if _prune(boxes, radii, container, ox, oy, reach, tolerance):
            continue
        mid = _midpoint(boxes, container, radii)
        if _violation(container, radii, mid) <= tolerance:
            return Verdict(FEASIBLE, witness=tuple(mid), reason="midpoint", nodes=nodes)
        if nodes % _REPAIR_EVERY == 1:
            fixed = _push_apart(container, radii, mid)
            if check_placements(container, radii, fixed, tolerance):
                return Verdict(FEASIBLE, witness=fixed, reason="repair", nodes=nodes)
        best_i, best_ax, best_w = -1, 0, BOX_FLOOR
        for i, (lox, hix, loy, hiy) in enumerate(boxes):
            if hix - lox > best_w:
                best_i, best_ax, best_w = i, 0, hix - lox
            if hiy - loy > best_w:
                best_i, best_ax, best_w = i, 1, hiy - loy
        if best_i < 0:
            continue  # below resolution floor: cannot hold an exact placement
        lo = boxes[best_i][2 * best_ax]
        hi = boxes[best_i][2 * best_ax + 1]
        mid_v = (lo + hi) / 2.0
        upper = [list(b) for b in boxes]
        lower = [list(b) for b in boxes]
        upper[best_i][2 * best_ax] = mid_v
        lower[best_i][2 * best_ax + 1] = mid_v
        stack.append(upper)
        stack.append(lower)
    return Verdict(INFEASIBLE, reason="search exhausted", nodes=nodes)
