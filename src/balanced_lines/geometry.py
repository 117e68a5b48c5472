"""Exact planar primitives for two-colored point sets.

All coordinates are exact rationals and every predicate is computed without
rounding: a single wrong orientation sign would silently corrupt the
combinatorial structure built on top of this module.

General position is decided here only: ``Instance.sweep_order``, one exact
pass over the C(n, 2) pairs memoised on the instance, is strict exactly in
general position; the gcd pass only lists a degenerate input's defects.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import CollinearWitnessError, FailsToSeparateError, ParityError


class Color(Enum):
    BLUE = "B"
    RED = "R"

    @property
    def weight(self) -> int:
        """+1 for blue, -1 for red."""
        return 1 if self is Color.BLUE else -1

    @property
    def opposite(self) -> "Color":
        return Color.RED if self is Color.BLUE else Color.BLUE


def _as_fraction(value) -> Fraction:
    # Floats are rejected on purpose: exactness is the whole point.
    if isinstance(value, float):
        raise TypeError("coordinates must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class ChromaticPoint:
    """A colored point with exact rational coordinates."""

    id: int
    x: Fraction
    y: Fraction
    color: Color

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "y", _as_fraction(self.y))


class Instance:
    """An even-sized two-colored point set.

    Colors are canonicalized so the majority color plays the "blue" role:
    when the raw input has more red than blue points, the roles are swapped
    internally and ``swapped`` records this. Raw colors are preserved for
    serialization, so JSON round-trips are bit-exact.
    """

    def __init__(self, points: Iterable[ChromaticPoint]):
        pts = tuple(points)
        n = len(pts)
        if n == 0 or n % 2 != 0:
            raise ParityError(f"instance must have a positive even point count, got {n}")
        if sorted(p.id for p in pts) != list(range(n)):
            raise ValueError("point ids must be 0..n-1 with no gaps or repeats")
        pts = tuple(sorted(pts, key=lambda p: p.id))
        raw_blue = sum(1 for p in pts if p.color is Color.BLUE)
        self.points = pts
        self.n = n
        self.swapped = raw_blue < n - raw_blue
        self._scaled = _scale_to_integers(pts)
        sign = -1 if self.swapped else 1
        self._weights = [sign if p.color is Color.BLUE else -sign for p in pts]

    @property
    def b(self) -> int:
        """Canonical blue count (majority color)."""
        return self._weights.count(1)

    @property
    def r(self) -> int:
        return self.n - self.b

    @property
    def delta(self) -> int:
        return (self.b - self.r) // 2

    def color_of(self, i: int) -> Color:
        """Canonical color of point i (roles swapped when the raw reds outnumber blues)."""
        c = self.points[i].color
        return c.opposite if self.swapped else c

    def weight(self, i: int) -> int:
        return self._weights[i]

    def colors(self) -> tuple[Color, ...]:
        return tuple(self.color_of(i) for i in range(self.n))

    def scaled_coords(self) -> list[tuple[int, int]]:
        """Integer coordinates after uniform positive scaling.

        Orientation signs and direction parallelism are invariant under
        scaling all coordinates by the common denominator, so predicates may
        run on plain integers.
        """
        return self._scaled

    @cached_property
    def sweep_order(self):
        """pi0 and the events' (left, right) id rows in strict order, None if degenerate."""
        return _exact_sweep(self.n, self._scaled)


def _scale_to_integers(pts: Sequence[ChromaticPoint]) -> list[tuple[int, int]]:
    denoms = set()
    for p in pts:
        denoms.add(p.x.denominator)
        denoms.add(p.y.denominator)
    lcm = math.lcm(*denoms) if denoms else 1
    return [
        (p.x.numerator * (lcm // p.x.denominator), p.y.numerator * (lcm // p.y.denominator))
        for p in pts
    ]


def orientation(p: ChromaticPoint, q: ChromaticPoint, s: ChromaticPoint) -> int:
    """Sign of the cross product (q-p) x (s-p), exactly."""
    det = (q.x - p.x) * (s.y - p.y) - (q.y - p.y) * (s.x - p.x)
    return (det > 0) - (det < 0)


def _pair_directions(coords) -> list[tuple[int, int] | None]:
    """Reduced integer direction of every pair i < j, in row-major order.

    The sign is canonical (dx > 0, or dx == 0 and dy > 0), so two pairs get
    the same entry exactly when their spanned lines are parallel or equal;
    coincident points get None.
    """
    gcd = math.gcd
    out = []
    append = out.append
    for (xi, yi), (xj, yj) in combinations(coords, 2):
        dx = xj - xi
        dy = yj - yi
        g = gcd(dx, dy)
        if not g:
            append(None)
            continue
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        append((dx // g, dy // g))
    return out


@dataclass(frozen=True)
class GeneralPositionReport:
    """Every collinear triple, parallel spanned-pair pair, and coincident pair."""

    collinear_triples: tuple[tuple[int, int, int], ...]
    parallel_pair_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    coincident_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def clean(self) -> bool:
        return not (self.collinear_triples or self.parallel_pair_pairs or self.coincident_pairs)


def validate_general_position(inst: Instance) -> GeneralPositionReport:
    """Report collinear triples, parallel spanned lines and coincident pairs.

    An empty report (general position, no parallel spanned lines) is read off
    the strict sweep order; only a degenerate input pays for the gcd pass that
    lists its defects.
    """
    if inst.sweep_order is not None:
        return GeneralPositionReport((), ())
    return _general_position_report(inst.n, _pair_directions(inst.scaled_coords()))


def _general_position_report(n: int, dirs) -> GeneralPositionReport:
    """The report for the pair directions ``_pair_directions`` gives for n points.

    Two pairs with one direction are collinear through a shared point, or
    parallel when they share none; a coincident pair is collinear with every
    third point.
    """
    coincident = []
    triples = set()
    parallels = []
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pair, d in zip(combinations(range(n), 2), dirs):
        if d is None:
            coincident.append(pair)
            triples.update(tuple(sorted((*pair, k))) for k in range(n) if k not in pair)
        else:
            buckets.setdefault(d, []).append(pair)
    for members in buckets.values():
        for x, a in enumerate(members):
            for b in members[x + 1 :]:
                shared = set(a) | set(b)
                if len(shared) == 3:
                    triples.add(tuple(sorted(shared)))
                else:
                    parallels.append((a, b))
    return GeneralPositionReport(
        collinear_triples=tuple(sorted(triples)),
        parallel_pair_pairs=tuple(sorted(parallels)),
        coincident_pairs=tuple(coincident),
    )


def _sweep_slope(coords) -> int:
    """Smallest integer k >= 0 for which the projections x + k*y are all distinct.

    u0 = (1, k) is perpendicular to line(i, j) exactly when i and j project
    equally, so this is the first k whose u0 is perpendicular to no spanned
    line. The points must be distinct; each pair then forbids at most one k.
    """
    n = len(coords)
    k = 0
    while len({x + k * y for x, y in coords}) < n:
        k += 1
    return k


def _strictly_ordered(fa, fb) -> bool | None:
    """Every event direction strictly precedes the next: True; two neighbours
    share one (a zero cross product, so the input is degenerate): None; else False."""
    ahead, behind = fa[:-1] * fb[1:], fb[:-1] * fa[1:]
    if (ahead > behind).all():
        return True
    return None if (ahead == behind).any() else False


def _exact_sweep(n: int, coords):
    """One exact pass over the pairs, as numpy arrays of Python ints.

    pi0 orders the points by projection u = x + k0*y onto u0 = (1, k0); a
    pair's event is the angle where its spanned line is perpendicular to the
    sweep. The order is strict exactly when the event directions are distinct.
    """
    if len(set(coords)) < n:
        return None
    k0 = _sweep_slope(coords)
    u = [x + k0 * y for x, y in coords]
    pi0 = sorted(range(n), key=u.__getitem__)

    # In the frame rotating u0 to the x-axis, the pair at pi0 positions p < q
    # has the normal (fa, fb) = (v_q - v_p, u_q - u_p), v = k0*x - y, with
    # fb > 0 since pi0 sorts u: event order is the order of its angles in
    # (0, pi). Float angles only presort; exact signs decide the order.
    r = np.arange(n)
    pp, qq = np.nonzero(r[:, None] < r)
    uo = np.array([u[i] for i in pi0], dtype=object)
    vo = np.array([k0 * coords[i][0] - coords[i][1] for i in pi0], dtype=object)
    try:
        uf, vf = uo.astype(float), vo.astype(float)
        order = np.arctan2(uf[qq] - uf[pp], vf[qq] - vf[pp]).argsort(kind="stable")
    except OverflowError:  # past float range the exact sort below decides alone
        order = np.arange(len(pp))
    pp, qq = pp[order], qq[order]
    fb = uo[qq] - uo[pp]
    fa = vo[qq] - vo[pp]
    if not (ordered := _strictly_ordered(fa, fb)):
        if ordered is None:  # neighbours share a direction
            return None
        # Float keys collided, mis-ordered or overflowed: sort exactly.
        exact = sorted(range(len(pp)), key=lambda e: Fraction(-fa[e], fb[e]))
        if not _strictly_ordered(fa[exact], fb[exact]):
            return None
        pp, qq = pp[exact], qq[exact]
    events = np.array(pi0, dtype=np.int32)[np.stack((pp, qq))]
    events.flags.writeable = False  # shared by every reader of the memo
    return tuple(pi0), events


def _perturb_scale(inst: Instance) -> Fraction:
    diffs = []
    pts = inst.points
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            for d in (abs(pts[i].x - pts[j].x), abs(pts[i].y - pts[j].y)):
                if d:
                    diffs.append(d)
    return min(diffs) / 2 if diffs else Fraction(1)


def perturb(inst: Instance, seed: int) -> Instance:
    """Deterministically move each coordinate by < epsilon until the report is empty.

    Epsilon starts at half the smallest nonzero coordinate difference and
    halves on every retry round; clean instances are returned unchanged.
    """
    if inst.sweep_order is not None:
        return inst
    eps = _perturb_scale(inst)
    rng = random.Random(f"perturb:{seed}")
    grain = 1 << 16
    for _ in range(64):
        moved = []
        for p in inst.points:
            dx = eps * Fraction(rng.randint(-(grain - 1), grain - 1), grain)
            dy = eps * Fraction(rng.randint(-(grain - 1), grain - 1), grain)
            moved.append(ChromaticPoint(p.id, p.x + dx, p.y + dy, p.color))
        candidate = Instance(moved)
        if candidate.sweep_order is not None:
            return candidate
        eps /= 2
    raise FailsToSeparateError("could not clear degeneracies in 64 rounds")


def halfplane_weights(inst: Instance, i: int, j: int) -> tuple[int, int]:
    """Weight sums on the two open halfplanes of line(i, j).

    Left is the side with positive orientation. Raises CollinearWitnessError
    if a third point sits on the line.
    """
    if i == j:
        raise ValueError("spanning pair must be two distinct points")
    coords = inst.scaled_coords()
    ws = inst._weights
    (xi, yi), (xj, yj) = coords[i], coords[j]
    dx, dy = xj - xi, yj - yi
    # The orientation of (i, j, k) is the sign of dets[k] - c, with dets[i] ==
    # dets[j] == c; exact Python ints, so no rounding decides a side.
    c = dx * yi - dy * xi
    dets = [dx * y - dy * x for x, y in coords]
    if dets.count(c) != 2:
        k = next(k for k, v in enumerate(dets) if v == c and k != i and k != j)
        raise CollinearWitnessError(f"point {k} is collinear with ({i}, {j})")
    left = sum([w for v, w in zip(dets, ws) if v > c])
    return left, sum(ws) - ws[i] - ws[j] - left


def instance_to_json(inst: Instance) -> str:
    """Canonical JSON with rationals as 'p/q' or integer strings."""
    pts = [
        {"id": p.id, "x": str(p.x), "y": str(p.y), "color": p.color.value}
        for p in inst.points
    ]
    return json.dumps({"points": pts}, separators=(",", ":"))


def instance_from_json(text: str) -> Instance:
    data = json.loads(text)
    pts = [
        ChromaticPoint(
            id=int(p["id"]),
            x=Fraction(p["x"]),
            y=Fraction(p["y"]),
            color=Color(p["color"]),
        )
        for p in data["points"]
    ]
    return Instance(pts)
