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
from functools import cached_property, cmp_to_key
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParamsError, CollinearWitnessError, FailsToSeparateError, ParityError


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
    # Floats are rejected on purpose: exactness is the whole point. A bool is no number.
    if isinstance(value, (float, bool)):
        raise TypeError("coordinates must be exact rationals, not floats or booleans")
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
        self._weight_sum = sum(self._weights)
        # Centre j -> left weight of line j->k for every k (filled by ``sweep_around``).
        self._lefts: dict[int, list[int | None]] = {}

    @property
    def b(self) -> int:
        """Canonical blue count (majority color)."""
        return (self.n + self._weight_sum) // 2

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


_SWEEP_BLOCK = 1 << 13  # events whose exact operands the neighbour test holds at once
_INT64_SWEEP = 1 << 59  # |u|, |v| below this: event vectors below 2^60 fit the int64 limb test
_INT64_EVENTS = 100  # fewer events: the limb test's ~25 numpy calls cost more than Python-int products
_LIMB = (1 << 30) - 1  # the low 30 bits


def _cross(p, q):
    """p[i]*q[i+1] - q[i]*p[i+1] for every i."""
    return p[:-1] * q[1:] - q[:-1] * p[1:]


def _limb_cross(fa, fb):
    """Keys with the signs of the int64 cross products _cross(fa, fb), exactly.

    Entries must lie below 2^60 in absolute value. Each splits as
    x = h*2^30 + l with h = x >> 30 in [-2^30, 2^30) and l = x & m in
    [0, 2^30), m = 2^30 - 1, so a cross product is hi*2^60 + mid*2^30 + lo
    with |hi| <= 2^61 (two high-by-high products), |mid| <= 2^62 - 2^32 (four
    high-by-low ones, each at most 2^60 - 2^30) and |lo| < 2^60. Carrying
    lo >> 30 (at most 2^30) into mid keeps |mid| < 2^62, and carrying
    mid >> 30 (at most 2^32) into hi keeps |hi| < 2^62, so nothing wraps.
    The rest, (mid & m)*2^30 + (lo & m), lies in [0, 2^60): the product is
    positive when hi > 0, negative when hi < 0, and when hi == 0 zero exactly
    when both low limbs are. Setting those limbs' bits into hi keeps that sign.
    """
    ah, al, bh, bl = fa >> 30, fa & _LIMB, fb >> 30, fb & _LIMB
    hi, mid, lo = _cross(ah, bh), _cross(ah, bl) + _cross(al, bh), _cross(al, bl)
    mid += lo >> 30
    hi += mid >> 30
    return hi | ((mid | lo) & _LIMB)


def _strictly_ordered(uo, vo, pp, qq) -> bool | None:
    """Every event direction strictly precedes the next: True; two neighbours
    share one (a zero cross product, so the input is degenerate): None; else False.
    The directions (vo[qq] - vo[pp], uo[qq] - uo[pp]) are formed a block at a
    time; consecutive blocks share one event, so every neighbour pair is
    compared. Python-int operands compare their products as they are, int64
    ones through ``_limb_cross``."""
    ordered = True
    for s in range(0, len(pp) - 1, _SWEEP_BLOCK):
        p, q = pp[s:s + _SWEEP_BLOCK + 1], qq[s:s + _SWEEP_BLOCK + 1]
        fa, fb = vo[q] - vo[p], uo[q] - uo[p]
        if fa.dtype == object:
            ahead, behind = fa[:-1] * fb[1:], fb[:-1] * fa[1:]
        else:
            ahead, behind = _limb_cross(fa, fb), 0
        if not (ahead > behind).all():
            if (ahead == behind).any():
                return None
            ordered = False
    return ordered


def _exact_sweep(n: int, coords):
    """One exact pass over the pairs, its operands formed one block at a time.

    pi0 orders the points by projection u = x + k0*y onto u0 = (1, k0); a
    pair's event is the angle where its spanned line is perpendicular to the
    sweep. The order is strict exactly when the event directions are distinct.
    When every |u| and |v| is below 2^59 and there are at least
    ``_INT64_EVENTS`` events, the operands are int64 and the neighbour test
    runs on 30-bit limbs. Past that bound (huge coordinates, perturbed inputs
    with huge denominators), which int64 cannot hold, and for a few events,
    where numpy's per-call cost dominates, they are Python ints in object
    arrays. Both decide every sign exactly.
    """
    if len(set(coords)) < n:
        return None
    k0 = _sweep_slope(coords)
    u = [x + k0 * y for x, y in coords]
    pi0 = sorted(range(n), key=u.__getitem__)

    # In the frame rotating u0 to the x-axis, the pair at pi0 positions p < q
    # has the normal (fa, fb) = (v_q - v_p, u_q - u_p), v = k0*x - y, with
    # fb > 0 since pi0 sorts u: event order is the order of its angles in
    # (0, pi). Float angles only presort, and unstably: exact signs decide
    # the order, and a strict order is unique however float ties fell.
    r = np.arange(n)
    pp, qq = np.nonzero(r[:, None] < r)
    uo, vo = [u[i] for i in pi0], [k0 * coords[i][0] - coords[i][1] for i in pi0]
    dtype = np.int64 if len(pp) >= _INT64_EVENTS and max(map(abs, uo + vo)) < _INT64_SWEEP else object
    uo, vo = np.array(uo, dtype=dtype), np.array(vo, dtype=dtype)
    try:
        uf, vf = uo.astype(float), vo.astype(float)
        with np.errstate(over="ignore"):  # an infinite difference only presorts
            order = np.arctan2(uf[qq] - uf[pp], vf[qq] - vf[pp]).argsort()
    except OverflowError:  # past float range the exact sort below decides alone
        order = np.arange(len(pp))
    pp, qq = pp[order], qq[order]
    if not (ordered := _strictly_ordered(uo, vo, pp, qq)):
        if ordered is None:  # neighbours share a direction
            return None
        # Float keys collided, mis-ordered or overflowed: sort exactly, on
        # Python ints (a Fraction of int64 scalars would wrap past 2^63).
        fa, fb = (vo[qq] - vo[pp]).tolist(), (uo[qq] - uo[pp]).tolist()
        exact = sorted(range(len(pp)), key=lambda e: Fraction(-fa[e], fb[e]))
        pp, qq = pp[exact], qq[exact]
        if not _strictly_ordered(uo, vo, pp, qq):
            return None
    events = np.array(pi0, dtype=np.int32)[np.stack((pp, qq))]
    events.flags.writeable = False  # shared by every reader of the memo
    return tuple(pi0), events


def _perturb_scale(inst: Instance) -> Fraction:
    """Half the smallest nonzero coordinate difference: a gap between sorted distinct x or y values."""
    xs, ys = sorted({p.x for p in inst.points}), sorted({p.y for p in inst.points})
    gaps = [b - a for values in (xs, ys) for a, b in zip(values, values[1:])]
    return min(gaps) / 2 if gaps else Fraction(1)


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


def _left_weights(coords, ws, centres) -> list[list[int | None]]:
    """Weight strictly left of the directed line i->j, for every centre i and every j.

    One row per centre. Entry j is None when a third point lies on line(i, j);
    entry i is unused. Each direction p_k - p_i is folded into the upper
    half-plane (angles in [0, pi)) with a sign s; k is left of i->j exactly
    when it has j's sign and a larger folded angle, or the other sign and a
    smaller one. One numpy float presort orders every row at once, O(r n log n)
    for r centres; exact cross products confirm each row's order, O(n), or replace it.
    """
    try:
        pts = np.array(coords, dtype=float)
        with np.errstate(over="ignore"):  # an infinite difference only presorts
            d = pts - pts[centres, None]
        orders = (np.arctan2(d[..., 1], d[..., 0]) % np.pi).argsort(axis=1).tolist()
    except OverflowError:  # past float range the exact check decides alone
        orders = [range(len(coords))] * len(centres)
    return [_left_row(coords, ws, i, order) for i, order in zip(centres, orders)]


def _left_row(coords, ws, i: int, order) -> list[int | None]:
    """Centre i's row of ``_left_weights``, its folded directions presorted by ``order``."""
    n = len(coords)
    if n > 2 and coords.count(coords[i]) > 1:
        return [None] * n  # a point on p_i lies on every line through it
    xi, yi = coords[i]
    folded = []
    up = 0  # weight of the kept directions (s = +1, stored as 0); the flipped ones weigh down
    for k in order:
        if k != i:
            x, y = coords[k]
            dx, dy = x - xi, y - yi
            if dy > 0 or (dy == 0 and dx > 0):
                folded.append((dx, dy, 0, k))
                up += ws[k]
            else:
                folded.append((-dx, -dy, 1, k))
    down = sum(ws) - ws[i] - up
    while True:
        # d is the kept weight minus the flipped weight so far, k included, so
        # left(i->k) is up - d for a kept k and down + d for a flipped one.
        left: list[int | None] = [None] * n
        d = 0
        pk = None
        for fx, fy, s, k in folded:
            if s:
                d -= ws[k]
                left[k] = down + d
            else:
                d += ws[k]
                left[k] = up - d
            if pk is not None:
                cross = px * fy - py * fx
                if cross < 0:
                    break
                if cross == 0:  # one folded angle: i, pk and k are collinear
                    left[pk] = left[k] = None
            px, py, pk = fx, fy, k
        else:
            return left
        # Float angles collided, misordered or overflowed: sort exactly.
        folded.sort(key=cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1]))


def sweep_around(inst: Instance, centres: Sequence[int]) -> None:
    """Memoise on inst the angular sweep around every given centre not swept yet, presorted in one batch."""
    if todo := [j for j in centres if j not in inst._lefts]:  # an empty batch would still pay the presort
        inst._lefts.update(zip(todo, _left_weights(inst.scaled_coords(), inst._weights, todo)))


def halfplane_weights(inst: Instance, i: int, j: int) -> tuple[int, int]:
    """Weight sums on the two open halfplanes of line(i, j).

    Left is the side with positive orientation. Raises CollinearWitnessError
    if a third point sits on the line. The right side of line(i, j) is the
    left side of line(j, i), read off the angular sweep around j that
    ``sweep_around`` memoises on the instance: O(n log n) for a j not swept
    yet, O(1) after. A loop over (majority, minority) pairs first sweeps
    around every minority point in one batch.
    """
    if i == j:
        raise ValueError("spanning pair must be two distinct points")
    if j not in inst._lefts:
        sweep_around(inst, [j])
    right = inst._lefts[j][i]
    if right is None:
        coords = inst.scaled_coords()
        (xi, yi), (xj, yj) = coords[i], coords[j]
        dx, dy = xj - xi, yj - yi
        # (i, j, k) is collinear when dx*y_k - dy*x_k equals i's (and j's) value.
        c = dx * yi - dy * xi
        k = next(k for k, (x, y) in enumerate(coords)
                 if k != i and k != j and dx * y - dy * x == c)
        raise CollinearWitnessError(f"point {k} is collinear with ({i}, {j})")
    ws = inst._weights
    return inst._weight_sum - ws[i] - ws[j] - right, right


def instance_to_json(inst: Instance) -> str:
    """Canonical JSON with rationals as 'p/q' or integer strings."""
    pts = [
        {"id": p.id, "x": str(p.x), "y": str(p.y), "color": p.color.value}
        for p in inst.points
    ]
    return json.dumps({"points": pts}, separators=(",", ":"))


def instance_from_json(text: str) -> Instance:
    """The instance of a JSON text; an id is an integer, a coordinate a ``p/q`` string or an integer."""
    data = json.loads(text)
    points = data.get("points") if isinstance(data, dict) else None
    if not isinstance(points, list):
        raise BadParamsError('instance JSON needs a "points" list')
    try:
        for k, p in enumerate(points):
            if not isinstance(p, dict):
                raise TypeError(f"point {k} is not an object")
            if missing := [key for key in ("id", "x", "y", "color") if key not in p]:
                raise TypeError(f"point {k} has no {missing[0]!r}")
            if type(p["id"]) is not int:  # not truncated, parsed or read off a boolean
                raise TypeError(f"point ids must be integers, got {p['id']!r}")
        pts = []
        for k, p in enumerate(points):
            try:
                color = Color(p["color"])
            except ValueError:  # this field's alone: a bad coordinate keeps its own message
                raise TypeError(f"point {k} has color {p['color']!r}, not 'B' or 'R'") from None
            pts.append(ChromaticPoint(p["id"], p["x"], p["y"], color))
    except (TypeError, ZeroDivisionError) as exc:
        raise BadParamsError(f"bad point in instance JSON: {exc}") from exc
    return Instance(pts)
