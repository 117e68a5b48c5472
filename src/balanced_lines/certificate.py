"""Certificate generation: a verified witness set of balanced transpositions.

The generator mechanizes the lower-bound proof. Case 1 (every mid-rank blue
curve crosses the delta threshold) reads two witnesses per rank straight off
the weight tracks. Case 2 builds a border curve, partitions the border-color
points into F/G/H, and scans one half-period with a charge ledger that
converts non-witness events into guaranteed witness events of other curves.
The scan is symmetric: descents pair with F, ascents with H, so each of its
rules is stated once, over a table indexed by the kind of change.
Every obligation the counting relies on is checked at runtime; failures
surface as InsufficientBorderError from the scan, which ``certify`` reports as
a ProofGapError (never expected on valid input), since the border it scans is
already a fixed point of the improvement devices.

One ``certify`` call runs in one ``_Certifier`` session, which holds what its
steps share: each color's family of rank tracks (replayed at most once per
call), the ``run_word`` steps and an element timeline. The public functions
keep their signatures; called on their own, each makes a session of its own.
Tracks are change rows (see ``curves.WeightTrack``); per-time arrays are made
only for the candidate in hand and dropped with it.
"""
from __future__ import annotations

import json
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count

import numpy as np

from . import _kernels
from .balance import BalancedWitness, WitnessSource
from .curves import (
    CurveClass,
    WeightTrack,
    classify_track,
    find_weight_changes,
    row_index,
    row_spans,
    track_all,
)
from .errors import BadParamsError, InsufficientBorderError, ProofGapError
from .geometry import Color
from .sequence import AllowableSequence


class Case(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"


@dataclass(frozen=True)
class CaseInfo:
    case: Case
    preserving_rank: int | None  # least delta-preserving mid-rank, Case 2 only


class _Certifier:
    """What the steps of one ``certify`` call share; it dies with the call.

    - ``family(color)``: the rank tracks of every point of a color, replayed
      once. The blue family serves the case split, Case 1 and the border
      seed; the border color's family is the ALL subset of maximisation; the
      other color's answers the nearest-left device by rank lookup.
    - ``tracks(ids)``: any other subset's tracks, kept until the next subset
      is asked for (consecutive rounds often share their G).
    - ``steps``: ``run_word``'s per-step ``lo``, ``hi`` and ``lw``.
    - ``where(e, t)``: an element's position and prefix weight at time t,
      from a timeline of each element's change points built off ``steps``.
    """

    def __init__(self, seq: AllowableSequence):
        self.seq = seq
        self._families: dict[Color, list[WeightTrack]] = {}
        self._subset: tuple[frozenset[int] | None, list[WeightTrack]] = (None, [])

    def family(self, color: Color) -> list[WeightTrack]:
        if color not in self._families:
            members = [v for v, c in enumerate(self.seq.colors) if c is color]
            self._families[color] = track_all(self.seq, members)
        return self._families[color]

    def tracks(self, ids) -> list[WeightTrack]:
        key = frozenset(ids)
        if self._subset[0] != key:
            self._subset = (key, track_all(self.seq, key))
        return self._subset[1]

    @cached_property
    def steps(self):
        seq = self.seq
        return _kernels.run_word(seq.pi0, seq.full_word(), seq.weights)[:3]

    @cached_property
    def _timeline(self) -> list[list[tuple[int, int, int]]]:
        """Per element, its change rows ``(time, position, prefix weight)``, time 0 first."""
        seq = self.seq
        weights = seq.weights
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(seq.n)]
        pre = 0
        for q, v in enumerate(seq.pi0):
            rows[v].append((0, q, pre))
            pre += weights[v]
        for t, p, a, b, w in zip(count(1), seq.full_word(), *self.steps):
            rows[b].append((t, p, w))
            rows[a].append((t, p + 1, w + weights[b]))
        return rows

    def where(self, e: int, t: int) -> tuple[int, int]:
        """Position and prefix weight of element e at time t, 0 <= t <= 2N."""
        rows = self._timeline[e]
        _, q, w = rows[row_index(rows, t)]
        return q, w

    def left_count(self, e: int, t: int, color: Color) -> int:
        """Points of ``color`` left of e at time t: weights are +-1, so (q +- w) / 2."""
        q, w = self.where(e, t)
        return (q + color.weight * w) // 2

    def walk(self, elems_per_time) -> list[int]:
        """Positions of one prescribed element per time, over [0, 2N)."""
        return [self.where(e, t)[0] for t, e in enumerate(elems_per_time)]


# ``certify`` sets this for its own length only, so the public steps it calls
# share its session without a new parameter; a context variable, unlike a
# module global, is never seen by another thread or task.
_ACTIVE: ContextVar[_Certifier | None] = ContextVar("certify_session", default=None)


def _session(seq: AllowableSequence) -> _Certifier:
    """The running ``certify`` call's session on seq, or a new one."""
    s = _ACTIVE.get()
    return s if s is not None and s.seq is seq else _Certifier(seq)


def _mid_rank_range(seq: AllowableSequence) -> range:
    return range(seq.delta + 1, seq.b // 2 + 1)


def classify_case(seq: AllowableSequence) -> CaseInfo:
    """Case 1 iff every blue mid-rank curve is delta-changing (vacuously if none)."""
    if seq.r == 0:
        return CaseInfo(Case.CASE1, None)
    tracks = _session(seq).family(Color.BLUE)
    for k in _mid_rank_range(seq):
        if classify_track(tracks[k - 1]) is not CurveClass.CHANGING:
            return CaseInfo(Case.CASE2, k)
    return CaseInfo(Case.CASE1, None)


# ---------------------------------------------------------------------------
# Borders


@dataclass(frozen=True)
class Border:
    """A threshold-respecting weakly continuous curve lying left of its mirror."""

    color: Color
    elements: tuple[int, ...]  # element per time over [0, 2N)

    def element_at(self, t: int) -> int:
        return self.elements[t % len(self.elements)]

    def mirror_elements(self) -> tuple[int, ...]:
        """The mirror element per time over [0, 2N): the element at t + N."""
        half = len(self.elements) // 2
        return self.elements[half:] + self.elements[:half]


def _mirror_positions(seq: AllowableSequence, bpos) -> np.ndarray:
    """Positions of the mirror elements from the border's: pi^{t+N} reverses pi^t."""
    return seq.n - 1 - np.roll(np.asarray(bpos), -seq.half_period)


def check_border(seq: AllowableSequence, border: Border) -> list[str]:
    """Independent border validity check; empty list means valid.

    Walks the permutations directly in Python rather than reusing the track
    kernels, so border acceptance never depends on the fast path.
    """
    period, n = seq.period, seq.n
    problems: list[str] = []
    if len(border.elements) != period:
        return [f"BAD_LENGTH expected {period} got {len(border.elements)}"]
    if any(seq.colors[e] is not border.color for e in set(border.elements)):
        return ["WRONG_COLOR"]
    delta = seq.delta
    weights, colors, color = seq.weights, seq.colors, border.color
    blue = color is Color.BLUE
    perm = list(seq.pi0)
    pos = [0] * n
    for q, v in enumerate(perm):
        pos[v] = q
    pre = [0] * (n + 1)
    for q in range(n):
        pre[q + 1] = pre[q] + weights[perm[q]]
    elements = border.elements
    steps = zip(elements, border.mirror_elements(), elements[1:] + elements[:1],
                seq.full_word())
    for t, (e, mirror, e_next, sp) in enumerate(steps):
        p = pos[e]
        w = pre[p]
        if w < delta if blue else w > delta:
            problems.append(f"WEIGHT t={t}")
        if not p < pos[mirror]:
            problems.append(f"MIRROR_ORDER t={t}")
        # advance to pi^{t+1}
        a, bb = perm[sp], perm[sp + 1]
        perm[sp], perm[sp + 1] = bb, a
        pos[bb], pos[a] = sp, sp + 1
        pre[sp + 1] = pre[sp] + weights[bb]
        if e_next != e:
            q1, q2 = pos[e], pos[e_next]
            lo_q, hi_q = min(q1, q2), max(q1, q2)
            for q in range(lo_q + 1, hi_q):
                if colors[perm[q]] is color:
                    problems.append(f"WEAK_CONTINUITY t={t}")
                    break
    return problems


def _nearest_left_curve(s: _Certifier, trk: WeightTrack, want: Color):
    """Per time, the nearest want-colored element strictly left of a curve.

    Returns that element and its position for each time over [0, 2N). An
    element at position q with prefix weight w has (q + w)/2 blue and
    (q - w)/2 red points on its left, so the nearest one of color ``want``
    is the ``want`` family's rank curve of that count: a lookup per change
    row of the curve, not a replay.
    """
    period = s.seq.period
    family = s.family(want)
    rows = trk.rows
    elems: list[int] = []
    qs: list[int] = []
    for (t, _, w, q), (end, *_) in zip(rows, rows[1:] + [(period,)]):
        if t >= period:
            break
        k = (q + want.weight * w) // 2
        if k == 0:
            raise ProofGapError(f"no {want.value} element left of position {q} at t={t}")
        for (_, e, _, qe), m in row_spans(family[k - 1].rows, t, end):
            elems += [e] * m
            qs += [qe] * m
    return tuple(elems), qs


def initial_border(seq: AllowableSequence, k: int) -> Border:
    """Border seeded from the delta-preserving blue rank-k curve.

    A threshold-respecting blue curve is its own border; otherwise the
    nearest-red-left curve of the blue curve is one.
    """
    if k not in _mid_rank_range(seq):
        raise BadParamsError(f"rank {k} outside the mid-rank range")
    s = _session(seq)
    trk = s.family(Color.BLUE)[k - 1]
    cls = classify_track(trk)
    if cls is CurveClass.GE_DELTA:
        border = Border(Color.BLUE, tuple(trk.fill()[0, : seq.period].tolist()))
    elif cls is CurveClass.LT_DELTA:
        border = Border(Color.RED, _nearest_left_curve(s, trk, Color.RED)[0])
    else:
        raise BadParamsError(f"blue rank {k} is delta-changing; no border seed")
    problems = check_border(seq, border)
    if problems:
        raise ProofGapError(f"seed border invalid: {problems[:3]}")
    return border


def partition_fgh(seq: AllowableSequence, border: Border):
    """Split the border-color points by position at time 0.

    F: at or left of the border element (inclusive); G: strictly between the
    border element and its mirror; H: at or right of the mirror element. Each
    part is ordered by position at time 0, so index j holds the rank-j curve's
    starting element.
    """
    c = border.color
    rank0 = {v: q for q, v in enumerate(seq.pi0)}
    gq = rank0[border.element_at(0)]
    mq = rank0[border.mirror_elements()[0]]
    if not gq < mq:
        raise ProofGapError("border is not left of its mirror at time 0")
    members = sorted((i for i in range(seq.n) if seq.colors[i] is c), key=rank0.get)
    f = tuple(v for v in members if rank0[v] <= gq)
    g = tuple(v for v in members if gq < rank0[v] < mq)
    h = tuple(v for v in members if rank0[v] >= mq)
    return f, g, h


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class ChargeLedger:
    ch_f: tuple[int, ...]
    ch_h: tuple[int, ...]
    transactions: tuple[tuple[int, str, str], ...]  # (time, source curve, charged curve)

    @property
    def total_charges(self) -> int:
        return sum(self.ch_f) + sum(self.ch_h)


@dataclass(frozen=True)
class CurveEvent:
    curve: str
    t: int  # transposition index
    kind: str  # "descent" | "ascent"
    confined: bool | None
    outcome: str  # "witness" | "charge" | "unconfined"
    pair: tuple[int, int]
    charged: str | None = None


@dataclass(frozen=True)
class Certificate:
    case: str
    target: int
    witnesses: tuple[BalancedWitness, ...]
    witness_origins: tuple[tuple[tuple[int, int], str], ...]
    border: Border | None = None
    f_set: tuple[int, ...] | None = None
    g_set: tuple[int, ...] | None = None
    h_set: tuple[int, ...] | None = None
    ledger: ChargeLedger | None = None
    events: tuple[CurveEvent, ...] = ()


class _WitnessPool:
    """Collects witnesses keyed by pair, rejecting duplicates."""

    def __init__(self, seq: AllowableSequence):
        self.seq = seq
        self.by_pair: dict[tuple[int, int], BalancedWitness] = {}
        self.origins: list[tuple[tuple[int, int], str]] = []

    def add(self, a: int, b: int, t: int, origin: str):
        pair = (min(a, b), max(a, b))
        if pair in self.by_pair:
            raise ProofGapError(f"witness pair {pair} found twice (t={t} and earlier)")
        blue, red = (a, b) if self.seq.colors[a] is Color.BLUE else (b, a)
        self.by_pair[pair] = BalancedWitness(blue, red, WitnessSource.SCAN, t, self.seq.delta)
        self.origins.append((pair, origin))
        return pair

    def sorted_witnesses(self) -> tuple[BalancedWitness, ...]:
        return tuple(self.by_pair[p] for p in sorted(self.by_pair))


def _swap(steps, t: int, member: int):
    """The step-t swap seen from ``member``: (partner, moved_right, left_weight).

    ``steps`` holds ``run_word``'s ``lo``, ``hi`` and ``lw`` lists.
    """
    lo, hi, lw = steps
    if member == lo[t]:
        return hi[t], True, lw[t]
    if member == hi[t]:
        return lo[t], False, lw[t]
    raise ProofGapError(f"change at t={t} bypassed the tracked element")


def case1_certificate(seq: AllowableSequence) -> Certificate:
    """Two witnesses per mid-rank blue curve plus the odd-b middle witness.

    With the full blue set there is no branch (ii), so every threshold change
    of a mid-rank curve is a balanced transposition; the two per-rank events
    are distinct pairs because a coincidence would force b = 2k-1.
    """
    delta, b = seq.delta, seq.b
    s = _session(seq)
    tracks, steps = s.family(Color.BLUE), s.steps
    changes = {"descent": (delta, delta - 1), "ascent": (delta - 1, delta)}
    pool = _WitnessPool(seq)
    events = []

    def witness(k: int, t: int, kind: str, mid: bool):
        """Record B_k's event at t as a witness; mid ranks must move toward the partner."""
        member = tracks[k - 1].element_at(t)
        partner, moved_right, w = _swap(steps, t, member)
        if mid and moved_right is not (kind == "descent"):
            raise ProofGapError(f"B_{k} {kind} at t={t} has the member on the wrong side")
        if seq.colors[partner] is Color.BLUE or w != delta:
            if mid:
                raise ProofGapError(f"B_{k} {kind} at t={t} is not a balanced transposition")
            raise ProofGapError(f"middle event at t={t} is not balanced")
        pair = pool.add(member, partner, t + 1, f"B{k}")
        events.append(CurveEvent(f"B{k}", t + 1, kind, None, "witness", pair))
        return pair

    for k in _mid_rank_range(seq):
        picked = []
        for kind, (from_w, to_w) in changes.items():
            ts = find_weight_changes(tracks[k - 1], from_w, to_w)
            if not ts:
                raise ProofGapError(f"B_{k} has no {kind} despite being delta-changing")
            picked.append(witness(k, ts[0], kind, mid=True))
        if picked[0] == picked[1]:
            raise ProofGapError(f"B_{k} events collapsed to one pair; forces b = 2k-1")
    if b % 2 == 1:
        k0 = (b + 1) // 2
        firsts = [
            (t, kind)
            for kind, (from_w, to_w) in changes.items()
            for t in find_weight_changes(tracks[k0 - 1], from_w, to_w)[:1]
        ]
        if not firsts:
            raise ProofGapError(f"middle curve B_{k0} never crosses the threshold")
        witness(k0, *min(firsts), mid=False)

    witnesses = pool.sorted_witnesses()
    if len(witnesses) < seq.r:
        raise ProofGapError(f"case-1 counting got {len(witnesses)} < r = {seq.r}")
    return Certificate(
        case=Case.CASE1.value,
        target=seq.r,
        witnesses=witnesses,
        witness_origins=tuple(pool.origins),
        events=tuple(events),
    )


def case2_certificate(seq: AllowableSequence, border: Border) -> Certificate:
    """Half-period F/G/H scan with the charge ledger, for a fixed border.

    The count is symmetric: F curves give witnesses at descents and H curves
    at ascents, and a deflected G descent (ascent) charges the F (H) curve it
    passed, which shows the reverse change. ``outer`` maps each kind to its
    side. Raises InsufficientBorderError when a border-dependent obligation
    fails; structural violations raise ProofGapError.
    """
    c = border.color
    delta, half = seq.delta, seq.half_period
    parts = partition_fgh(seq, border)
    f_ids, g_ids, h_ids = parts
    target = sum(len(p) for p in parts)

    s = _session(seq)
    steps = s.steps
    g_tracks = s.tracks(g_ids)  # maximisation's last round asked for the same G
    f_tracks, h_tracks = track_all(seq, f_ids), track_all(seq, h_ids)
    changes = {"descent": (delta, delta - c.weight), "ascent": (delta - c.weight, delta)}
    outer = {  # kind -> (side, ids, tracks, charges)
        "descent": ("F", frozenset(f_ids), f_tracks, [0] * len(f_ids)),
        "ascent": ("H", frozenset(h_ids), h_tracks, [0] * len(h_ids)),
    }

    def window_changes(trk, kind):
        return find_weight_changes(trk, *changes[kind], window=(0, half))

    def sandwich(t):
        """Positions of the border element and of its mirror at time t."""
        return tuple(s.where(border.element_at(u), t)[0] for u in (t, t + half))

    def swap_parts(t, member_set, member):
        if (steps[0][t] in member_set) == (steps[1][t] in member_set):
            raise ProofGapError(f"change at t={t} does not involve exactly one member")
        return _swap(steps, t, member)

    def rank_in(tracks, element, t):
        for idx, trk in enumerate(tracks):
            if trk.element_at(t) == element:
                return idx + 1
        raise ProofGapError(f"element {element} has no rank at t={t}")

    pool = _WitnessPool(seq)
    events: list[CurveEvent] = []
    transactions: list[tuple[int, str, str]] = []
    g_confined = [0] * (len(g_ids) + 1)

    g_set = frozenset(g_ids)
    for rank, trk in enumerate(g_tracks, start=1):
        name = f"G{rank}"
        for kind in changes:
            for t in window_changes(trk, kind):
                (b0, m0), (b1, m1) = sandwich(t), sandwich(t + 1)
                confined = b0 <= trk.position_at(t) <= m0 and b1 < trk.position_at(t + 1) < m1
                member = trk.element_at(t)
                partner, moved_right, w = swap_parts(t, g_set, member)
                pair = (min(member, partner), max(member, partner))
                if not confined:
                    events.append(CurveEvent(name, t + 1, kind, False, "unconfined", pair))
                    continue
                g_confined[rank] += 1
                if moved_right is (kind == "descent"):
                    if seq.colors[partner] is c or w != delta:
                        raise ProofGapError(f"G event at t={t} misclassified as balanced")
                    pool.add(member, partner, t + 1, name)
                    events.append(CurveEvent(name, t + 1, kind, True, "witness", pair))
                    continue
                side, ids, tracks, charges = outer[kind]
                if partner not in ids:
                    raise ProofGapError(f"deflected G {kind} at t={t} missed {side}")
                j = rank_in(tracks, partner, t)
                trk_j = tracks[j - 1]  # must show the reverse change
                if (trk_j.weight_at(t), trk_j.weight_at(t + 1)) != changes[kind][::-1]:
                    raise ProofGapError(f"charge target {side}{j} shows no matching change at t={t}")
                charges[j - 1] += 1
                transactions.append((t + 1, name, f"{side}{j}"))
                events.append(CurveEvent(name, t + 1, kind, True, "charge", pair, f"{side}{j}"))

    # Confined-change quotas on the G ranks (mirror-rank pairs share one quota).
    for k in range(1, len(g_ids) // 2 + 1):
        m = len(g_ids) + 1 - k
        if g_confined[k] + g_confined[m] < 2:
            raise InsufficientBorderError(
                f"G rank pair ({k}, {m}) has {g_confined[k] + g_confined[m]} confined changes",
                hint=("G", k),
            )
    if len(g_ids) % 2 == 1:
        mid = (len(g_ids) + 1) // 2
        if g_confined[mid] < 1:
            raise InsufficientBorderError(
                f"middle G rank {mid} has no confined change", hint=("G", mid)
            )

    for kind, (side, ids, tracks, charges) in outer.items():
        direction = "rightward" if kind == "descent" else "leftward"
        for j, trk in enumerate(tracks, start=1):
            ts = window_changes(trk, kind)
            if len(ts) < charges[j - 1] + 1:
                raise InsufficientBorderError(
                    f"{side}{j} has {len(ts)} {kind}s for charge {charges[j - 1]}",
                    hint=(side, j),
                )
            for t in ts:
                member = trk.element_at(t)
                partner, moved_right, w = swap_parts(t, ids, member)
                if moved_right is not (kind == "descent") or seq.colors[partner] is c or w != delta:
                    raise ProofGapError(
                        f"in-window {side}{j} {kind} at t={t} is not a {direction} swap "
                        f"with an opposite-color partner"
                    )
                pair = pool.add(member, partner, t + 1, f"{side}{j}")
                events.append(CurveEvent(f"{side}{j}", t + 1, kind, None, "witness", pair))

    witnesses = pool.sorted_witnesses()
    if len(witnesses) < target:
        raise InsufficientBorderError(
            f"scan found {len(witnesses)} witnesses for target {target}", hint=None
        )
    ch_f, ch_h = (tuple(outer[kind][3]) for kind in ("descent", "ascent"))
    return Certificate(
        case=Case.CASE2.value,
        target=target,
        witnesses=witnesses,
        witness_origins=tuple(pool.origins),
        border=border,
        f_set=f_ids,
        g_set=g_ids,
        h_set=h_ids,
        ledger=ChargeLedger(ch_f, ch_h, tuple(transactions)),
        events=tuple(events),
    )


# ---------------------------------------------------------------------------
# Border maximization


def _cyclic_runs(flags: np.ndarray) -> list[np.ndarray]:
    """Maximal cyclic runs of true entries, as index arrays in cyclic order.

    Runs are listed from the first false entry onward, so a run that wraps
    past the end comes last.
    """
    m = len(flags)
    if flags.all():
        return [np.arange(m)]
    start = int(np.argmin(flags)) + 1  # just past the first false entry
    order = np.arange(start, start + m) % m
    edges = np.diff(flags[order].astype(np.int8), prepend=0, append=0)
    return [order[b:e] for b, e in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]


def _splice(s: _Certifier, border: Border, bpos: np.ndarray, run: np.ndarray, elem, wt, pos):
    """The border with a curve written over ``run``, if that is a valid border.

    ``run`` is a cyclic run of times in cyclic order; ``elem``, ``wt`` and
    ``pos`` are the curve's elements, prefix weights and positions along it.
    The border must be valid and the curve a rank curve of a subset of the
    border's color (or the run one time long). Then within the run two
    consecutive elements are equal or adjacent, so weak continuity can fail
    only at the run's two seams, where it holds iff the two elements' counts
    of border-color points on their left differ by at most one. Mirror
    order comes from the positions. Returns ``(border, positions)``, or None
    where ``check_border`` would report a problem.
    """
    seq = s.seq
    c, period = border.color, seq.period
    if not (c.weight * (wt - seq.delta) >= 0).all():
        return None
    cpos = bpos.copy()
    cpos[run] = pos
    if not (cpos < _mirror_positions(seq, cpos)).all():
        return None
    elements = list(border.elements)
    for t, e in zip(run.tolist(), elem.tolist()):
        elements[t] = e
    if len(run) < period:
        for t in ((int(run[0]) - 1) % period, int(run[-1])):  # the steps across the seams
            e, e_next = elements[t], elements[(t + 1) % period]
            if abs(s.left_count(e_next, t + 1, c) - s.left_count(e, t + 1, c)) > 1:
                return None
    return Border(c, tuple(elements)), cpos


def _improve_once(s: _Certifier, border: Border, bpos: np.ndarray):
    """One strict improvement of the border, or None at a fixed point.

    ``bpos`` holds the border's positions over [0, 2N); an improvement comes
    back as ``(border, positions)``. Devices, per candidate curve (the G
    ranks, then every rank of the border's color): splice the border along
    each cyclic run where the curve lies at or right of it (a run spanning
    the whole period adopts the curve), or replace the border by the
    nearest-opposite-color-left curve of a threshold-avoiding curve lying
    strictly right of it. A candidate must raise the total position, which
    bounds the number of rounds, and be a valid border: ``_splice`` decides
    that for a splice, ``check_border`` for a replacement.
    """
    seq = s.seq
    c = border.color
    delta, period = seq.delta, seq.period
    g_ids = partition_fgh(seq, border)[1]
    base_sum = int(bpos.sum())

    def candidates():  # the G replay is made only when G is not empty
        if g_ids:
            yield from s.tracks(g_ids)
        yield from s.family(c)

    for trk in candidates():
        elem, wt, pos = trk.fill()[:, :period]
        rel = pos - bpos
        if not (rel > 0).any():  # no device applies
            continue
        for run in _cyclic_runs(rel >= 0):
            if (rel[run] > 0).any():
                spliced = _splice(s, border, bpos, run, elem[run], wt[run], pos[run])
                if spliced is not None and int(spliced[1].sum()) > base_sum:
                    return spliced
        if not (c.weight * (wt - delta) >= 0).any() and (rel > 0).all():
            rho, q = _nearest_left_curve(s, trk, c.opposite)
            cand, cpos = Border(c.opposite, rho), np.asarray(q)
            if (int(cpos.sum()) > base_sum and (cpos < _mirror_positions(seq, cpos)).all()
                    and not check_border(seq, cand)):
                return cand, cpos
    return None


def maximize_border(seq: AllowableSequence, start: Border) -> Border:
    """Iterate the improvement devices to a fixed point.

    The start border's positions come from the session's timeline; each
    round hands its positions to the next. Each round strictly increases the
    total position of the border, so the loop terminates within n * 2N rounds.
    """
    s = _session(seq)
    border = start
    bpos = np.asarray(s.walk(start.elements))
    for _ in range(seq.n * seq.period + 1):
        improved = _improve_once(s, border, bpos)
        if improved is None:
            return border
        border, bpos = improved
    raise ProofGapError("border improvement exceeded its termination bound")


def certify(seq: AllowableSequence) -> Certificate:
    """Produce a verified certificate of at least r distinct balanced transpositions.

    The steps share one session, dropped when the call returns.
    """
    token = _ACTIVE.set(_Certifier(seq))
    try:
        info = classify_case(seq)
        if info.case is Case.CASE1:
            return case1_certificate(seq)
        border = maximize_border(seq, initial_border(seq, info.preserving_rank))
        try:
            return case2_certificate(seq, border)
        except InsufficientBorderError as exc:
            raise ProofGapError(f"obligation failed at a fixed-point border: {exc}") from exc
    finally:
        _ACTIVE.reset(token)


# ---------------------------------------------------------------------------
# Independent verification


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self):
        return self.ok


def _replayed_swaps(seq: AllowableSequence, times) -> dict[int, tuple[int, tuple[int, ...]]]:
    """For each time t: the position of tau_t and pi^{t-1}, t taken mod 2N.

    One replay of the full word, in order of time, answers every t; it walks
    the permutation directly, sharing no code with the kernels.
    """
    period, word = seq.period, seq.full_word()
    perm = list(seq.pi0)
    out = {}
    done = 0
    for t in sorted(set(times), key=lambda t: (t - 1) % period):
        step = (t - 1) % period
        for p in word[done:step]:
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
        done = step
        out[t] = (word[step], tuple(perm))
    return out


def verify_certificate(seq: AllowableSequence, cert: Certificate) -> VerificationResult:
    """Re-check a certificate from scratch, without the incremental kernels.

    Each witness must be a balanced transposition at its time, and its origin
    must name the part and rank of its border-color member just before the
    swap (``B{k}`` over the blues in Case 1). Case 2 adds the border, the
    F/G/H split and the charge ledger, whose charges must match its
    transactions curve by curve.
    """
    diagnostics: list[str] = []
    seen = set()
    swaps = _replayed_swaps(seq, [w.t for w in cert.witnesses if w.t is not None])
    balanced = []
    for w in cert.witnesses:
        if w.pair in seen:
            diagnostics.append(f"DUPLICATE_PAIR {w.pair}")
        seen.add(w.pair)
        if w.t is None:
            diagnostics.append(f"NOT_BALANCED {w.pair}: witness carries no time")
            continue
        q, prev = swaps[w.t]
        ok = (
            tuple(sorted(prev[q : q + 2])) == w.pair
            and seq.colors[w.blue_id] is Color.BLUE
            and seq.colors[w.red_id] is Color.RED
            and sum(seq.weights[v] for v in prev[:q]) == seq.delta
            and w.left_weight == seq.delta
        )
        if ok:
            balanced.append(w)
        else:
            diagnostics.append(f"NOT_BALANCED {w.pair} at t={w.t}")
    if len(cert.witnesses) < cert.target:
        diagnostics.append(f"INSUFFICIENT_COUNT {len(cert.witnesses)} < {cert.target}")

    origin = dict(cert.witness_origins)
    part_of = None  # the origin letter of each border-color point
    if cert.case == Case.CASE1.value:
        color = Color.BLUE
        part_of = {v: "B" for v in range(seq.n) if seq.colors[v] is color}
    elif cert.border is None or cert.ledger is None:
        diagnostics.append("MISSING_CASE2_DATA")
    else:
        color = cert.border.color
        parts = (cert.f_set, cert.g_set, cert.h_set)
        if None not in parts:
            part_of = {v: name for name, ids in zip("FGH", parts) for v in ids}
        if check_border(seq, cert.border):
            diagnostics.append("BAD_BORDER")
        else:  # F/G/H must be the valid border's time-0 split, in time-0 order
            p0 = seq.pi0
            gq, mq = (p0.index(cert.border.elements[t]) for t in (0, seq.half_period))
            runs = (p0[: gq + 1], p0[gq + 1 : mq], p0[mq:])
            split = tuple(tuple(v for v in run if seq.colors[v] is color) for run in runs)
            if parts != split:
                diagnostics.append("BAD_PARTITION")
        ledger = cert.ledger
        if any(v < 0 for v in ledger.ch_f + ledger.ch_h):
            diagnostics.append("BAD_LEDGER negative charge")
        charges = Counter({f"{side}{j}": v for side, chs in (("F", ledger.ch_f), ("H", ledger.ch_h))
                           for j, v in enumerate(chs, start=1)})
        if Counter(charged for _, _, charged in ledger.transactions) != charges:
            diagnostics.append("BAD_LEDGER charge/transaction mismatch")
        fh = sum(1 for p in seen if origin.get(p, "?")[0] in ("F", "H"))
        gg = sum(1 for p in seen if origin.get(p, "?")[0] == "G")
        g_n = len(cert.g_set)
        if fh < len(cert.f_set) + len(cert.h_set) + ledger.total_charges:
            diagnostics.append("LEDGER_FH_COUNT")
        if gg < 2 * (g_n // 2) + (g_n % 2) - ledger.total_charges:
            diagnostics.append("LEDGER_G_COUNT")

    if part_of is not None:  # the origin names the member's part and its rank there at t-1
        for w in balanced:
            _, prev = swaps[w.t]
            member = w.blue_id if color is Color.BLUE else w.red_id
            name = part_of.get(member, "?")
            label = f"{name}{1 + sum(part_of.get(v) == name for v in prev[: prev.index(member)])}"
            if origin.get(w.pair) != label:
                diagnostics.append(
                    f"BAD_ORIGIN {w.pair} at t={w.t}: {origin.get(w.pair)} is not {label}"
                )
    return VerificationResult(ok=not diagnostics, diagnostics=tuple(diagnostics))


def certificate_to_json(cert: Certificate) -> str:
    """Deterministic JSON rendering for golden-file tests and the CLI."""
    payload = {
        "case": cert.case,
        "target": cert.target,
        "witnesses": [
            {
                "pair": list(w.pair),
                "blue": w.blue_id,
                "red": w.red_id,
                "t": w.t,
                "left_weight": w.left_weight,
            }
            for w in cert.witnesses
        ],
        "witness_origins": [[list(p), label] for p, label in sorted(cert.witness_origins)],
        "border": (
            None
            if cert.border is None
            else {"color": cert.border.color.value, "elements": list(cert.border.elements)}
        ),
        "f": list(cert.f_set) if cert.f_set is not None else None,
        "g": list(cert.g_set) if cert.g_set is not None else None,
        "h": list(cert.h_set) if cert.h_set is not None else None,
        "ledger": (
            None
            if cert.ledger is None
            else {
                "ch_f": list(cert.ledger.ch_f),
                "ch_h": list(cert.ledger.ch_h),
                "transactions": [list(tr) for tr in cert.ledger.transactions],
            }
        ),
        "events": [
            {
                "curve": e.curve,
                "t": e.t,
                "kind": e.kind,
                "confined": e.confined,
                "outcome": e.outcome,
                "pair": list(e.pair),
                "charged": e.charged,
            }
            for e in cert.events
        ],
    }
    return json.dumps(payload, separators=(",", ":"))
