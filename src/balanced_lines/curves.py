"""Rank-selector curves over an allowable sequence and their weight tracks.

A curve follows the k-th leftmost member of a fixed subset through every
permutation of the period; its weight at time t is the prefix weight strictly
left of the tracked element. A track is one int64 array of change rows, the
format of a border's rows. Tracks drive border maximisation and the Case-2
scan; the case split and Case 1 read the threshold crossings of the blue
rank curves straight off the step table (``certificate._Certifier.crossings``).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import BadParamsError, MixedColorsError, ProofGapError
from .geometry import Color
from .sequence import AllowableSequence, permutation_at, step_table, transposition_at


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
    """Curve data over one full period, as change rows.

    ``rows`` is one int64 array of ``(time, element, prefix weight,
    position)`` rows over [0, 2N), from time 0 on, each holding until the
    next; time 2N is time 0 again. Borders have the same rows, and
    ``on_grid`` reads both. ``changes`` is ``track_rank``'s array for the
    rank; the first read of ``rows`` checks strong continuity (per-step
    weight change in {-1, 0, +1}, adjacent-or-equal positions) and
    periodicity on it, its row at 2N included, and drops that row.
    """

    def __init__(self, seq: AllowableSequence, spec: CurveSpec, changes: np.ndarray):
        self.seq = seq
        self.spec = spec
        self.period = seq.period
        self._changes = changes

    @cached_property
    def rows(self) -> np.ndarray:
        rows, self._changes = self._changes, None
        # Between change points nothing moves, so checking consecutive change
        # points checks every step.
        if (np.abs(rows[1:, 2:] - rows[:-1, 2:]) > 1).any():
            raise ProofGapError("strong continuity violated; sequence is malformed")
        if rows[0, 1] != rows[-1, 1]:
            raise ProofGapError("track is not periodic; sequence is malformed")
        return rows[:-1] if rows[-1, 0] == self.period else rows

    def element_at(self, t: int) -> int:  # t, like the other reads, taken mod 2N
        return int(on_grid(self.rows, t % self.period, 1))

    def weight_at(self, t: int) -> int:
        return int(on_grid(self.rows, t % self.period, 2))

    def position_at(self, t: int) -> int:
        return int(on_grid(self.rows, t % self.period, 3))

    def to_csv(self) -> str:
        """``time,element,weight`` at every time in [0, 2N]; time 2N is row 0's."""
        rows = self.rows
        values = np.repeat(rows[:, 1:3], np.diff(rows[:, 0], append=self.period), axis=0).tolist()
        lines = ["time,element,weight"]
        lines += [f"{t},{e},{w}" for t, (e, w) in enumerate(values + values[:1])]
        return "\n".join(lines) + "\n"


def on_grid(rows: np.ndarray, times, col=slice(None)) -> np.ndarray:
    """The change rows in force at each of ``times``, or their column ``col``, as a new array.

    ``rows`` are a track's or a border's: start times first, increasing.
    """
    return rows[np.searchsorted(rows[:, 0], times, side="right") - 1, col]


class CurveClass(Enum):
    GE_DELTA = "ge_delta"
    LT_DELTA = "lt_delta"
    LE_DELTA = "le_delta"
    GT_DELTA = "gt_delta"
    CHANGING = "changing"


def track_all(seq: AllowableSequence, members, steps) -> list[WeightTrack]:
    """Tracks of every rank of a subset over a full period, in rank order.

    One ``track_rank`` off ``steps``, the sequence's ``step_table`` (lists,
    or the session's numpy columns), gives every rank's change rows; each
    track checks them on first access. An empty subset has no ranks and no
    call.
    """
    members = frozenset(members)
    member = [v in members for v in range(seq.n)]
    word, *swaps = steps
    ranks = _kernels.track_rank(seq.pi0, word, seq.weights, member, swaps) if members else []
    return [
        WeightTrack(seq, CurveSpec(members, k), changes)
        for k, changes in enumerate(ranks, start=1)
    ]


def track(seq: AllowableSequence, spec: CurveSpec) -> WeightTrack:
    """Track of one rank curve, checked for strong continuity and periodicity."""
    trk = track_all(seq, spec.members, step_table(seq))[spec.k - 1]
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
    on_side = color.weight * (trk.rows[:, 2] - seq.delta) >= 0
    if on_side.any() and not on_side.all():
        return CurveClass.CHANGING
    if color is Color.BLUE:
        return CurveClass.GE_DELTA if on_side[0] else CurveClass.LT_DELTA
    return CurveClass.LE_DELTA if on_side[0] else CurveClass.GT_DELTA


def find_weight_changes(trk: WeightTrack, from_w: int, to_w: int, window=None) -> list[int]:
    """Times t in the window with weight from_w at t and to_w at t+1.

    The window ``(lo, hi)`` is half-open and lies within [0, 2N]; the default
    is the full period. The weight moves only at a change row, so t + 1 is
    the time of a row whose predecessor holds from_w; the step from 2N - 1
    reads row 0 as the row at 2N.
    """
    if abs(from_w - to_w) != 1:
        raise BadParamsError("weight changes are between consecutive values")
    lo, hi = window if window is not None else (0, trk.period)
    rows = trk.rows
    nxt = np.concatenate((rows[1:], rows[:1]))  # each row's successor, row 0 again at 2N
    nxt[-1, 0] = trk.period
    hit = (rows[:, 2] == from_w) & (nxt[:, 2] == to_w) & (lo < nxt[:, 0]) & (nxt[:, 0] <= hi)
    return (nxt[hit, 0] - 1).tolist()


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
    "ascent" for its reverse; any other raises BadParamsError. Exactly one
    branch of the dichotomy must hold; anything else raises ProofGapError.
    """
    if kind not in ("descent", "ascent"):
        raise BadParamsError(f'kind must be "descent" or "ascent", got {kind!r}')
    color = _subset_color(seq, spec.members)
    tr = transposition_at(seq, t + 1)
    in_members = [v for v in (tr.lo_id, tr.hi_id) if v in spec.members]
    if len(in_members) != 1:
        raise ProofGapError(f"weight change at t={t} does not involve exactly one member")
    member = in_members[0]
    partner = tr.hi_id if member == tr.lo_id else tr.lo_id
    member_moves_right = member == tr.lo_id

    prev = permutation_at(seq, t)
    members_left = sum(1 for v in prev[: tr.pos] if v in spec.members)

    balanced = member_moves_right is (kind == "descent")
    if balanced:
        if seq.colors[partner] is color:
            raise ProofGapError(f"branch (i) partner at t={t} has the member's color")
        if tr.left_weight != seq.delta:
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
