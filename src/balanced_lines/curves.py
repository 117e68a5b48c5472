"""Rank-selector curves over an allowable sequence and their weight tracks.

A curve follows the k-th leftmost member of a fixed subset through every
permutation of the period; its weight at time t is the prefix weight strictly
left of the tracked element. Weight tracks drive both the case split and the
certificate scans.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, pairwise
from operator import itemgetter

import numpy as np

from . import _kernels
from .errors import BadParamsError, MixedColorsError, ProofGapError
from .geometry import Color
from .sequence import AllowableSequence, permutation_at, transposition_at


@dataclass(frozen=True)
class CurveSpec:
    members: frozenset[int]
    k: int

    def __post_init__(self):
        if not self.members:
            raise BadParamsError("curve subset must be nonempty")
        if not (1 <= self.k <= len(self.members)):
            raise BadParamsError(f"rank {self.k} out of range for subset of size {len(self.members)}")


class WeightTrack:
    """Curve data over one full period (times 0..2N inclusive).

    Held as the curve's change points: ``rows`` are ``(time, element, prefix
    weight, position)`` from time 0 on, each holding until the next. The first
    read of ``rows`` checks strong continuity (per-step weight change in
    {-1, 0, +1}, adjacent-or-equal positions) and periodicity. Lookups bisect
    the rows; the per-time arrays ``elem``/``wt``/``pos`` are forward-filled
    only when asked for.
    """

    def __init__(self, seq: AllowableSequence, spec: CurveSpec, changes):
        self.seq = seq
        self.spec = spec
        self.period = seq.period
        self._changes = changes

    @cached_property
    def rows(self) -> list[tuple[int, int, int, int]]:
        rows = self._changes
        self._changes = None
        # Between change points nothing moves, so checking consecutive change
        # points checks every step.
        for (_, _, w0, q0), (_, _, w1, q1) in pairwise(rows):
            if abs(w1 - w0) > 1 or abs(q1 - q0) > 1:
                raise ProofGapError("strong continuity violated; sequence is malformed")
        if rows[0][1] != rows[-1][1]:
            raise ProofGapError("track is not periodic; sequence is malformed")
        return rows

    def row_at(self, t: int) -> tuple[int, int, int, int]:
        """The change row in force at time t (taken mod 2N)."""
        return self.rows[row_index(self.rows, t % self.period)]

    def element_at(self, t: int) -> int:
        return self.row_at(t)[1]

    def weight_at(self, t: int) -> int:
        return self.row_at(t)[2]

    def position_at(self, t: int) -> int:
        return self.row_at(t)[3]

    def fill(self) -> np.ndarray:
        """Per-time (element, weight, position) over [0, 2N], built afresh: shape (3, 2N + 1)."""
        flat = np.fromiter(chain.from_iterable(self.rows), np.int64, 4 * len(self.rows))
        rows = flat.reshape(-1, 4)
        counts = np.diff(rows[:, 0], append=self.period + 1)
        return np.repeat(rows[:, 1:], counts, axis=0).T

    @cached_property
    def _columns(self) -> np.ndarray:
        return self.fill()

    @property
    def elem(self) -> np.ndarray:
        return self._columns[0]

    @property
    def wt(self) -> np.ndarray:
        return self._columns[1]

    @property
    def pos(self) -> np.ndarray:
        return self._columns[2]

    def to_csv(self) -> str:
        lines = ["time,element,weight"]
        lines += [f"{t},{int(self.elem[t])},{int(self.wt[t])}" for t in range(self.period + 1)]
        return "\n".join(lines) + "\n"


_START = itemgetter(0)  # a change row's start time


def row_index(rows, t: int) -> int:
    """Index of the change row in force at time t.

    Change rows are tuples whose first field is the time they start, in
    increasing order; each holds until the next one starts.
    """
    return bisect_right(rows, t, key=_START) - 1


def row_spans(rows, t: int, end: int):
    """``(row, length)`` for each change row in force over [t, end)."""
    i = row_index(rows, t)
    while t < end:
        stop = min(rows[i + 1][0], end) if i + 1 < len(rows) else end
        yield rows[i], stop - t
        t = stop
        i += 1


class CurveClass(Enum):
    GE_DELTA = "ge_delta"
    LT_DELTA = "lt_delta"
    LE_DELTA = "le_delta"
    GT_DELTA = "gt_delta"
    CHANGING = "changing"


def track_all(seq: AllowableSequence, members) -> list[WeightTrack]:
    """Tracks of every rank of a subset over a full period, in rank order.

    One replay of the full word logs every rank's change points; each track
    checks them on first access.
    """
    members = frozenset(members)
    member = [False] * seq.n
    for v in members:
        member[v] = True
    logs = _kernels.track_rank(seq.pi0, seq.full_word(), seq.weights, member)
    return [
        WeightTrack(seq, CurveSpec(members, k), changes)
        for k, changes in enumerate(logs, start=1)
    ]


def track(seq: AllowableSequence, spec: CurveSpec) -> WeightTrack:
    """Track of one rank curve, checked for strong continuity and periodicity."""
    trk = track_all(seq, spec.members)[spec.k - 1]
    trk.rows  # check now, not on first use
    return trk


def mirror_track(seq: AllowableSequence, spec: CurveSpec) -> WeightTrack:
    """Track of the mirror curve: same subset at the complementary rank.

    The k-th member from the left at time t-N is the (|Q|+1-k)-th from the
    left at time t, so the mirror is itself a rank curve.
    """
    return track(seq, CurveSpec(spec.members, len(spec.members) + 1 - spec.k))


def _subset_color(seq: AllowableSequence, members) -> Color:
    colors = {seq.colors[v] for v in members}
    if len(colors) != 1:
        raise MixedColorsError("curve subset mixes colors")
    return colors.pop()


def classify(seq: AllowableSequence, spec: CurveSpec) -> CurveClass:
    """Threshold classification of a monochromatic curve over a full period."""
    _subset_color(seq, spec.members)
    return classify_track(track(seq, spec))


def classify_track(trk: WeightTrack) -> CurveClass:
    """Threshold classification of a monochromatic curve's track, read off its change rows."""
    seq = trk.seq
    color = _subset_color(seq, trk.spec.members)
    sign, delta, period = color.weight, seq.delta, seq.period
    on_side = sign * (trk.rows[0][2] - delta) >= 0
    for t, _, w, _ in trk.rows:
        if t < period and (sign * (w - delta) >= 0) is not on_side:
            return CurveClass.CHANGING
    if color is Color.BLUE:
        return CurveClass.GE_DELTA if on_side else CurveClass.LT_DELTA
    return CurveClass.LE_DELTA if on_side else CurveClass.GT_DELTA


def find_weight_changes(trk: WeightTrack, from_w: int, to_w: int, window=None) -> list[int]:
    """Times t in the window with weight from_w at t and to_w at t+1.

    The window ``(lo, hi)`` is half-open and lies within [0, 2N]; the default
    is the full period. The weight moves only at a change row, so t + 1 is
    the time of a row whose predecessor holds from_w.
    """
    if abs(from_w - to_w) != 1:
        raise BadParamsError("weight changes are between consecutive values")
    lo, hi = window if window is not None else (0, trk.period)
    return [t - 1 for (_, _, w0, _), (t, _, w1, _) in pairwise(trk.rows)
            if w0 == from_w and w1 == to_w and lo < t <= hi]


@dataclass(frozen=True)
class ChangeEvent:
    """Outcome of the weight-change dichotomy at one curve event.

    ``balanced`` means branch (i): the subset member moved toward the
    opposite-color partner's side and the swap is a balanced transposition
    with exactly k-1 subset members to its left. Otherwise branch (ii): the
    member moved the other way past a same-color non-member.
    """

    t: int
    kind: str  # "descent" or "ascent"
    member: int
    partner: int
    balanced: bool
    members_left: int
    left_weight: int

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.member, self.partner), max(self.member, self.partner))


def classify_change(seq: AllowableSequence, spec: CurveSpec, t: int, kind: str) -> ChangeEvent:
    """From-scratch dichotomy check for a weight change of a rank curve.

    ``kind`` is "descent" for the change that can certify a rightward
    member/partner swap (blue: delta to delta-1; red: delta to delta+1) and
    "ascent" for its reverse. Exactly one branch of the dichotomy must hold;
    anything else raises ProofGapError.
    """
    color = _subset_color(seq, spec.members)
    delta = seq.delta
    lo_w, hi_w = (delta, delta - 1) if color is Color.BLUE else (delta, delta + 1)
    if kind == "ascent":
        lo_w, hi_w = hi_w, lo_w

    tr = transposition_at(seq, t + 1)
    in_members = [v for v in (tr.lo_id, tr.hi_id) if v in spec.members]
    if len(in_members) != 1:
        raise ProofGapError(f"weight change at t={t} does not involve exactly one member")
    member = in_members[0]
    partner = tr.hi_id if member == tr.lo_id else tr.lo_id
    member_moves_right = member == tr.lo_id

    prev = permutation_at(seq, t)
    members_left = sum(1 for v in prev[: tr.pos] if v in spec.members)

    if kind == "descent":
        balanced = member_moves_right
    else:
        balanced = not member_moves_right
    if balanced:
        if seq.colors[partner] is color:
            raise ProofGapError(f"branch (i) partner at t={t} has the member's color")
        if tr.left_weight != delta:
            raise ProofGapError(f"branch (i) swap at t={t} is not balanced")
        if members_left != spec.k - 1:
            raise ProofGapError(
                f"branch (i) at t={t}: {members_left} members left, expected {spec.k - 1}"
            )
    else:
        if seq.colors[partner] is not color or partner in spec.members:
            raise ProofGapError(f"branch (ii) partner at t={t} is not a same-color non-member")
    return ChangeEvent(
        t=t,
        kind=kind,
        member=member,
        partner=partner,
        balanced=balanced,
        members_left=members_left,
        left_weight=tr.left_weight,
    )
