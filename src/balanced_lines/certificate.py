"""Certificate generation: a verified witness set of balanced transpositions.

The generator mechanizes the lower-bound proof. Case 1 (every mid-rank blue
curve crosses the delta threshold) reads two witnesses per rank straight off
the step table: a blue rank curve crosses at a balanced step
(``balance.balanced_steps``), whose pair is the witness. Case 2 builds a
border curve, partitions the border-color points into F/G/H, and scans one
half-period with a charge ledger that converts non-witness events into
guaranteed witness events of other curves. The scan is symmetric: descents
pair with F, ascents with H, so each of its rules is stated once, over a
table indexed by the kind of change. Every obligation the counting relies
on is checked at runtime; failures surface as InsufficientBorderError from
the scan, which ``certify`` reports as a ProofGapError (never expected on
valid input), since the border it scans is already a fixed point of the
improvement devices.

Both scans only append ``CurveEvent``s: the event log is their one record.
``_certificate`` reads the witnesses, their origins and the charge ledger off
it, and the Case-2 quotas are counts over it.

One ``certify`` call runs in one ``_Certifier`` session, which validates the
sequence and holds what its phases share: the step table
(``sequence.step_table``, the call's one replay of a permutation and its
only record of the period), the blue crossings, the rank tracks of the two
subsets asked for last (Case 2 only) and the last border's change rows.
The public functions keep their signatures; called on their own, each makes
a session of its own. A track is one int64 array of change rows (``curves.WeightTrack``),
and a border from its seed to the F/G/H scan has the same rows, ``(time,
element, prefix weight, position)``, read by the same ``curves.on_grid``:
tested and spliced on merged change times, with its mirror read off the same
rows (``_mirror_on_grid``) and its counts of points on the left read off
their weights; the per-time ``Border`` is built only on return.
``element_walk`` serves only a border from outside. The checkers share none
of this: they read their own ``_ReferenceWalk``.
"""
from __future__ import annotations

import json
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, count, islice

import numpy as np

from . import _kernels
from .balance import BalancedWitness, WitnessSource, balanced_steps
from .curves import WeightTrack, find_weight_changes, on_grid, track_all
from .errors import BadParamsError, InsufficientBorderError, ProofGapError
from .geometry import Color
from .sequence import AllowableSequence, step_table, validate


class Case(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"


@dataclass(frozen=True)
class CaseInfo:
    case: Case
    preserving_rank: int | None  # least delta-preserving mid-rank, Case 2 only


class _Certifier:
    """What the phases of one ``certify`` call share; it dies with the call.

    It validates the sequence first: a malformed one raises
    ``BadParamsError("invalid sequence: <codes>")``.

    - ``steps``: the step table, built on first use; every track,
      ``crossings`` and ``step(t)`` read it, and it is the fast path's only
      record of the period. It lives here, not on the sequence, so a caller
      that keeps many sequences alive keeps no tables.
    - ``crossings``: the blue ranks' threshold crossings, for the case
      split, Case 1 and the seed rank's test (``changing(k)``).
    - ``tracks(ids)``: a subset's rank tracks, read off the table: Case 2's
      only replay of a subset. It keeps the two subsets asked for last, as a
      maximisation round asks for its G, then the border color's family.
    - ``family(color)``: ``tracks`` of a color's points: the blue family
      seeds the border, the border color's is the ALL subset of maximisation,
      and the other color's answers the nearest-left device by rank lookup.
    - ``step(t)``: the swap from pi^t to pi^{t+1}, a row of the table;
      ``swap(t, member, members)`` sees it from the one member it moves.
    - ``rows(border)``: a border's change rows, walked unless it is
      ``kept``: the last border asked for, or made by ``keep``, which builds
      a ``Border`` from rows. A border from outside enters here; the call
      raises ``BadParamsError`` on the first rule ``_border_problem`` finds
      broken, testing weak continuity into each of its element changes.
    """

    def __init__(self, seq: AllowableSequence):
        report = validate(seq)
        if not report.clean:
            raise BadParamsError(f"invalid sequence: {', '.join(report.codes)}")
        self.seq = seq
        self._recent: dict[frozenset[int], list[WeightTrack]] = {}  # newest last
        self.kept: tuple[Border | None, np.ndarray | None] = (None, None)  # border, rows

    def family(self, color: Color) -> list[WeightTrack]:
        return self.tracks(v for v, c in enumerate(self.seq.colors) if c is color)

    def tracks(self, ids) -> list[WeightTrack]:
        key = frozenset(ids)
        got = self._recent.pop(key, None)
        self._recent = dict(list(self._recent.items())[-1:])  # the oldest goes before a replay
        if got is None:
            got = track_all(self.seq, key, self.steps)
        self._recent[key] = got
        return got

    @cached_property
    def steps(self) -> tuple[list[int], list[int], list[int], list[int]]:
        return step_table(self.seq)

    @cached_property
    def crossings(self) -> dict[str, dict[int, int]]:
        """Each blue rank's first descent and first ascent: ``{kind: {rank: step}}``.

        Lemma. A rank curve of all the blues crosses the threshold exactly
        when its blue swaps with a red at prefix weight delta: two blues
        trade ranks at an unchanged weight, and a blue passing a red goes
        from lw to lw - 1 moving right (a descent) and from lw - 1 to lw
        moving left (an ascent), lw being the step's prefix weight. A blue
        at position p with prefix weight delta has (p + delta)/2 blues on
        its left. So the crossings are the table's ``balanced_steps``.
        """
        word, lo, hi, lw = self.steps
        w, delta = self.seq.weights, self.seq.delta
        firsts = {"descent": {}, "ascent": {}}
        for t in balanced_steps(self.seq, lo, hi, lw):  # a blue on the left moves right
            firsts["descent" if w[lo[t]] == 1 else "ascent"].setdefault((word[t] + delta) // 2 + 1, t)
        return firsts

    def changing(self, k: int) -> bool:
        """Whether blue rank k crosses the threshold."""
        return any(k in ts for ts in self.crossings.values())

    def step(self, t: int) -> tuple[int, int, int]:
        """(left element, right element, prefix weight) of the swap from pi^t, 0 <= t < 2N."""
        _, lo, hi, lw = self.steps
        return lo[t], hi[t], lw[t]

    def swap(self, t: int, member: int, members) -> tuple[int, bool, int]:
        """(partner, moved_right, prefix weight) of step t seen from ``member``, the member it moves."""
        lo, hi, lw = self.step(t)
        if (lo in members) == (hi in members):
            raise ProofGapError(f"change at t={t} does not involve exactly one member")
        if member != (lo if lo in members else hi):
            raise ProofGapError(f"change at t={t} bypassed the tracked element")
        return (hi, True, lw) if member == lo else (lo, False, lw)

    def rows(self, border: Border) -> np.ndarray:
        if self.kept[0] is not border:
            seq, c = self.seq, border.color
            same = {v for v, col in enumerate(seq.colors) if col is c}
            if len(border.elements) != seq.period or not same.issuperset(border.elements):
                raise BadParamsError(f"a border needs 2N = {seq.period} elements, all {c.name.lower()}")
            word, *swaps = self.steps
            pos, wt = _kernels.element_walk(seq.pi0, word, seq.weights, border.elements, swaps)
            rows = _change_rows(np.stack((np.arange(seq.period), border.elements, wt, pos), 1))
            entries = rows[rows[:, 1] != np.roll(rows[:, 1], 1), 0]  # element changes, cyclically
            if problem := _border_problem(self, c, rows, entries):
                raise BadParamsError(f"border {problem}")
            self.kept = border, rows
        return self.kept[1]

    def keep(self, color: Color, rows: np.ndarray) -> Border:
        spans = np.diff(rows[:, 0], append=self.seq.period)
        self.kept = Border(color, tuple(np.repeat(rows[:, 1], spans).tolist())), rows
        return self.kept[0]


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
    s = _session(seq)
    k = next((k for k in _mid_rank_range(seq) if not s.changing(k)), None)
    return CaseInfo(Case.CASE1 if k is None else Case.CASE2, k)


# ---------------------------------------------------------------------------
# Borders


@dataclass(frozen=True)
class Border:
    """A threshold-respecting weakly continuous curve lying left of its mirror."""

    color: Color
    elements: tuple[int, ...]  # element per time over [0, 2N)

    def mirror_elements(self) -> tuple[int, ...]:
        """The mirror element per time over [0, 2N): the element at t + N."""
        half = len(self.elements) // 2
        return self.elements[half:] + self.elements[:half]


def _change_rows(rows: np.ndarray) -> np.ndarray:
    """Rows ``(time, element, prefix weight, position)`` less those that repeat the one before."""
    return rows[np.diff(rows[:, 1:], axis=0, prepend=-1).any(axis=1)]


def _mirror_on_grid(seq: AllowableSequence, rows: np.ndarray, times) -> np.ndarray:
    """The mirror's positions at ``times``, n - 1 - pos(t + N): pi^{t+N} reverses pi^t."""
    return seq.n - 1 - on_grid(rows, (np.asarray(times) + seq.half_period) % seq.period, 3)


def _seam(s: _Certifier, c: Color, rows: np.ndarray, t: int) -> bool:
    """Weak continuity of a color-c border's rows across the step from t to u = t + 1.

    It holds iff the two elements' counts of c points on their left at u
    differ by at most one. A row at position q with prefix weight w has
    (q + c.weight * w)/2; the leaving element's moves if step t swaps it
    with a c point.
    """
    seq = s.seq
    (_, e, wt, qt), (_, _, wu, qu) = on_grid(rows, [t, (t + 1) % seq.period]).tolist()
    lo, hi, _ = s.step(t)
    moved = (e == lo and seq.colors[hi] is c) - (e == hi and seq.colors[lo] is c)
    return abs((qu + c.weight * wu) // 2 - (qt + c.weight * wt) // 2 - moved) <= 1


def _border_problem(s: _Certifier, c: Color, rows: np.ndarray, entries) -> str | None:
    """The first rule a color-c border's rows break, or None: the generator's one statement of them.

    Mirror order, pos(t) < n - 1 - pos(t + N), is read at the rows' times
    (it is N-periodic), and weak continuity (``_seam``) on the step into
    each time in ``entries``. Repeated rows change no verdict.
    """
    seq = s.seq
    if not (c.weight * (rows[:, 2] - seq.delta) >= 0).all():
        return "leaves the threshold side"
    if not (rows[:, 3] < _mirror_on_grid(seq, rows, rows[:, 0])).all():
        return "is not left of its mirror"
    if not all(_seam(s, c, rows, t) for t in ((entries - 1) % seq.period).tolist()):
        return "is not weakly continuous"
    return None


def _nearest_left_curve(s: _Certifier, trk: WeightTrack, want: Color):
    """The nearest want-colored curve strictly left of a curve, as border rows.

    An element at position q with prefix weight w has (q + w)/2 blue and
    (q - w)/2 red points on its left, so the nearest one of color ``want``
    is the ``want`` family's rank curve of that count: a lookup per change
    row of the curve, not a replay.

    Lemma. Let X be the rank-k curve of a set Q of points of color c, off
    the threshold side at every time, and Y its nearest-other-color-left
    curve. Only c points lie between Y and X, so Y is on the threshold side
    and weakly continuous. Counting weights puts at least two other-color
    points between X and a c curve left of it on the threshold side: a
    border, or X's mirror (Q's rank-(|Q|+1-k) curve) when 2k > |Q|. So if
    2k <= |Q| and Y exists, Y is a valid border, with the larger position
    sum if X is strictly right of a valid border at every time; if 2k > |Q|,
    Y breaks mirror order at every time; and no middle rank, its own mirror,
    is off the threshold side at every time.
    """
    family = s.family(want)
    rows = trk.rows
    ks = (rows[:, 3] + want.weight * rows[:, 2]) // 2
    if not ks.all():
        t, _, _, q = rows[np.argmin(ks)].tolist()  # the first row with none
        raise ProofGapError(f"no {want.value} element left of position {q} at t={t}")
    out, ends = [], np.append(rows[1:, 0], s.seq.period).tolist()
    for t, end, k in zip(rows[:, 0].tolist(), ends, ks.tolist()):
        near = family[k - 1].rows
        i, j = np.searchsorted(near[:, 0], (t + 1, end))  # its rows in force over [t, end)
        out.append(near[i - 1 : j].copy())
        out[-1][0, 0] = t
    return _change_rows(np.concatenate(out))


def initial_border(seq: AllowableSequence, k: int) -> Border:
    """Border seeded from the delta-preserving blue rank-k curve.

    A threshold-respecting blue curve is its own border; otherwise its
    nearest-red-left curve is one (the lemma of ``_nearest_left_curve``).
    The session keeps the border's rows for maximisation.
    """
    if k not in _mid_rank_range(seq):
        raise BadParamsError(f"rank {k} outside the mid-rank range")
    s = _session(seq)
    if s.changing(k):
        raise BadParamsError(f"blue rank {k} is delta-changing; no border seed")
    trk = s.family(Color.BLUE)[k - 1]
    if trk.rows[0, 2] >= seq.delta:  # on the threshold side at time 0, so throughout
        return s.keep(Color.BLUE, trk.rows)
    return s.keep(Color.RED, _nearest_left_curve(s, trk, Color.RED))


def _fgh(seq: AllowableSequence, c: Color, rows: np.ndarray):
    """``partition_fgh``'s parts for a color-c border's rows."""
    gq, mq = rows[0, 3], _mirror_on_grid(seq, rows, [0])[0]
    if not gq < mq:
        raise ProofGapError("border is not left of its mirror at time 0")
    p0 = seq.pi0
    return tuple(tuple(v for v in run if seq.colors[v] is c)
                 for run in (p0[: gq + 1], p0[gq + 1 : mq], p0[mq:]))


def partition_fgh(seq: AllowableSequence, border: Border):
    """Split the border-color points by position at time 0.

    F: at or left of the border element (inclusive); G: strictly between the
    border element and its mirror; H: at or right of the mirror element. Each
    part is ordered by position at time 0, so index j holds the rank-j curve's
    starting element. A border from outside is checked first
    (``_Certifier.rows``).
    """
    return _fgh(seq, border.color, _session(seq).rows(border))


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


def _certificate(seq: AllowableSequence, case: Case, target: int, events, **case2) -> Certificate:
    """The certificate read off a scan's event log, its one record.

    Witnesses are the witness events' pairs in pair order, origins name each
    one's curve in event order, and a pair found twice is a proof gap. In
    Case 2 (``case2``: the border and the F/G/H parts) the ledger counts the
    charge events per F/H curve and lists them as transactions.
    """
    origins = tuple((e.pair, e.curve) for e in events if e.outcome == "witness")
    times = {e.pair: e.t for e in events if e.outcome == "witness"}
    if len(times) < len(origins):
        pair = Counter(p for p, _ in origins).most_common(1)[0][0]
        raise ProofGapError(f"witness pair {pair} found twice")
    blue_red = {p: p if seq.colors[p[0]] is Color.BLUE else p[::-1] for p in sorted(times)}
    witnesses = tuple(BalancedWitness(*ids, WitnessSource.SCAN, times[p], seq.delta)
                      for p, ids in blue_red.items())
    ledger = None
    if case2:
        charges = tuple((e.t, e.curve, e.charged) for e in events if e.outcome == "charge")
        per_curve = Counter(charged for *_, charged in charges)
        ch_f, ch_h = (tuple(per_curve[f"{side}{j}"] for j in range(1, len(case2[part]) + 1))
                      for side, part in (("F", "f_set"), ("H", "h_set")))
        ledger = ChargeLedger(ch_f, ch_h, charges)
    return Certificate(case.value, target, witnesses, origins,
                       ledger=ledger, events=tuple(events), **case2)


def _witness(seq: AllowableSequence, curve: str, t: int, kind: str, confined, member: int, swap):
    """``curve``'s witness event at step t, where ``swap`` is the session's view from its member.

    A witness is branch (i) of the weight-change dichotomy: the member moves
    right at a descent and left at an ascent, past a partner of the other
    color, at left weight delta. Anything else is a proof gap.
    """
    partner, moved_right, w = swap
    if (moved_right is not (kind == "descent") or w != seq.delta
            or seq.colors[partner] is seq.colors[member]):
        raise ProofGapError(f"{curve} {kind} at t={t} is not a balanced transposition")
    pair = (min(member, partner), max(member, partner))
    return CurveEvent(curve, t + 1, kind, confined, "witness", pair)


def case1_certificate(seq: AllowableSequence) -> Certificate:
    """Two witnesses per mid-rank blue curve plus the odd-b middle witness.

    With the full blue set there is no branch (ii), so every threshold change
    of a blue curve is a balanced transposition: the session's ``crossings``
    are ``balanced_steps``, so each witness is its crossing step's pair. The
    two per-rank events are distinct pairs because a coincidence would force
    b = 2k-1, and ``_certificate`` rejects a pair found twice.
    """
    b = seq.b
    s = _session(seq)
    events = []

    def witness(k: int, t: int, kind: str):
        lo, hi, _ = s.step(t)
        events.append(CurveEvent(f"B{k}", t + 1, kind, None, "witness", (min(lo, hi), max(lo, hi))))

    for k in _mid_rank_range(seq):
        for kind, ts in s.crossings.items():
            if k not in ts:
                raise ProofGapError(f"B_{k} has no {kind} despite being delta-changing")
            witness(k, ts[k], kind)
    if b % 2 == 1:
        k0 = (b + 1) // 2
        firsts = [(ts[k0], kind) for kind, ts in s.crossings.items() if k0 in ts]
        if not firsts:
            raise ProofGapError(f"middle curve B_{k0} never crosses the threshold")
        witness(k0, *min(firsts))

    cert = _certificate(seq, Case.CASE1, seq.r, events)
    if len(cert.witnesses) < seq.r:
        raise ProofGapError(f"case-1 counting got {len(cert.witnesses)} < r = {seq.r}")
    return cert


def case2_certificate(seq: AllowableSequence, border: Border) -> Certificate:
    """Half-period F/G/H scan with the charge ledger, for a fixed border.

    The count is symmetric: F curves give witnesses at descents and H curves
    at ascents, and a deflected G descent (ascent) charges the F (H) curve it
    passed, which shows the reverse change. ``outer`` maps each kind to its
    side. A G change is confined when the curve lies between the border and
    its mirror, both read off the border's change rows at the change's two
    times. The G quotas and each outer curve's charges are counts over the
    events so far. Raises InsufficientBorderError when a border-dependent
    obligation fails; structural violations raise ProofGapError.
    """
    c, half, delta = border.color, seq.half_period, seq.delta
    s = _session(seq)
    rows = s.rows(border)  # a border from outside is checked here, first
    parts = _fgh(seq, c, rows)
    f_ids, g_ids, h_ids = parts
    target = sum(len(p) for p in parts)

    g_tracks = s.tracks(g_ids)  # maximisation's last round asked for the same G
    # Weights before and after a descent (off delta) and an ascent (back to it).
    changes = {"descent": (delta, delta - c.weight), "ascent": (delta - c.weight, delta)}
    outer = {  # kind -> (side, ids, tracks)
        "descent": ("F", frozenset(f_ids), s.tracks(f_ids)),
        "ascent": ("H", frozenset(h_ids), s.tracks(h_ids)),
    }

    def window_changes(trk, kind):
        return find_weight_changes(trk, *changes[kind], window=(0, half))

    events: list[CurveEvent] = []
    g_set = frozenset(g_ids)
    for rank, trk in enumerate(g_tracks, start=1):
        name = f"G{rank}"
        for kind in changes:
            for t in window_changes(trk, kind):
                ts = [t, t + 1]
                (b0, b1), (m0, m1) = on_grid(rows, ts, 3), _mirror_on_grid(seq, rows, ts)
                confined = b0 <= trk.position_at(t) <= m0 and b1 < trk.position_at(t + 1) < m1
                member = trk.element_at(t)
                swap = s.swap(t, member, g_set)
                partner, moved_right, _ = swap
                pair = (min(member, partner), max(member, partner))
                if not confined:
                    events.append(CurveEvent(name, t + 1, kind, False, "unconfined", pair))
                elif moved_right is (kind == "descent"):
                    events.append(_witness(seq, name, t, kind, True, member, swap))
                else:
                    side, ids, tracks = outer[kind]
                    if partner not in ids:
                        raise ProofGapError(f"deflected G {kind} at t={t} missed {side}")
                    j = 1 + [trk.element_at(t) for trk in tracks].index(partner)
                    trk_j = tracks[j - 1]  # must show the reverse change
                    if (trk_j.weight_at(t), trk_j.weight_at(t + 1)) != changes[kind][::-1]:
                        raise ProofGapError(f"charge target {side}{j} shows no matching change at t={t}")
                    events.append(CurveEvent(name, t + 1, kind, True, "charge", pair, f"{side}{j}"))

    # Confined changes per G rank and charges per F/H curve; the names never collide.
    tally = Counter(name for e in events if e.confined for name in (e.curve, e.charged) if name)
    g_n = len(g_ids)
    for k in range(1, (g_n + 1) // 2 + 1):  # mirror ranks share one quota, one change each
        ranks = {f"G{k}", f"G{g_n + 1 - k}"}
        got = sum(tally[name] for name in ranks)
        if got < len(ranks):
            raise InsufficientBorderError(
                f"G rank pair ({k}, {g_n + 1 - k}) has {got} confined changes", hint=("G", k)
            )

    for kind, (side, ids, tracks) in outer.items():
        for j, trk in enumerate(tracks, start=1):
            name = f"{side}{j}"
            ts = window_changes(trk, kind)
            if len(ts) < tally[name] + 1:
                raise InsufficientBorderError(
                    f"{name} has {len(ts)} {kind}s for charge {tally[name]}", hint=(side, j)
                )
            for t in ts:
                member = trk.element_at(t)
                events.append(_witness(seq, name, t, kind, None, member, s.swap(t, member, ids)))

    cert = _certificate(seq, Case.CASE2, target, events,
                        border=border, f_set=f_ids, g_set=g_ids, h_set=h_ids)
    if len(cert.witnesses) < target:
        raise InsufficientBorderError(
            f"scan found {len(cert.witnesses)} witnesses for target {target}", hint=None
        )
    return cert


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


def _merged_grid(rows: np.ndarray, cand: np.ndarray):
    """A candidate's rows (a track's) on its and the border's merged times.

    Returns the candidate's rows, one per merged interval, and ``rel``, its
    position less the border's there. A sort merges: ``np.unique`` would
    import ``numpy.ma``.
    """
    grid = np.sort(np.concatenate((rows[:, 0], cand[:, 0])))
    grid = grid[np.diff(grid, prepend=-1) != 0]
    merged = on_grid(cand, grid)
    merged[:, 0] = grid
    return merged, merged[:, 3] - on_grid(rows, grid, 3)


def _splice(s: _Certifier, c: Color, rows: np.ndarray, run: np.ndarray, cand: np.ndarray):
    """The border's rows with a candidate's written over ``run``, if that is a valid border.

    ``cand`` is ``_merged_grid``'s rows of the candidate and ``run`` a
    cyclic run of them, in cyclic order. The border must be valid and the
    candidate a rank curve of a subset of color c (or the run one row long).
    Then within the run consecutive elements are equal or adjacent, so weak
    continuity can fail only at its two ends, none for a whole period. Returns
    the change rows, or None where ``check_border`` would report a problem.
    """
    new = on_grid(rows, cand[:, 0])
    new[:, 0] = cand[:, 0]
    new[run] = cand[run]
    ends = [run[0], (run[-1] + 1) % len(cand)] if len(run) < len(cand) else []
    return None if _border_problem(s, c, new, cand[ends, 0]) else _change_rows(new)


def _improve_once(s: _Certifier, c: Color, rows: np.ndarray):
    """One strict improvement of the border, or None at a fixed point.

    The border, and an improvement, is a color c and rows. Per candidate
    rank-k curve of Q (the G ranks, then all of color c), on
    ``_merged_grid``'s intervals, the devices are: splice the border along
    each cyclic run where the curve is at or right of it and somewhere
    strictly right, if ``_splice`` finds that valid (a whole-period run adopts
    the curve); or, if 2k <= |Q| and the curve is off the threshold side and
    strictly right of the border throughout, take its
    nearest-opposite-color-left curve (the lemma of ``_nearest_left_curve``).
    Either raises the total position.
    """
    seq = s.seq
    g_ids = _fgh(seq, c, rows)[1]
    for tracks in (s.tracks(g_ids), s.family(c)):
        for k, trk in enumerate(tracks, start=1):
            cand, rel = _merged_grid(rows, trk.rows)
            if not (rel > 0).any():  # no device applies
                continue
            for run in _cyclic_runs(rel >= 0):
                if (rel[run] > 0).any():
                    spliced = _splice(s, c, rows, run, cand)
                    if spliced is not None:
                        return c, spliced
            if (2 * k <= len(tracks) and (rel > 0).all()
                    and not (c.weight * (cand[:, 2] - seq.delta) >= 0).any()):
                return c.opposite, _nearest_left_curve(s, trk, c.opposite)
    return None


def maximize_border(seq: AllowableSequence, start: Border) -> Border:
    """Iterate the improvement devices to a fixed point.

    Rounds hand the border on as change rows, starting from the session's (the
    seed's own, or one ``element_walk`` for a border from outside, held to a
    splice's rules, ``_border_problem``). The ``Border`` is built on return,
    and the session keeps its rows for the F/G/H scan. Each round raises the
    total position, so the loop ends within n * 2N rounds; the limit guards it.
    """
    s = _session(seq)
    color, rows = start.color, s.rows(start)
    for _ in range(seq.n * seq.period + 1):
        improved = _improve_once(s, color, rows)
        if improved is None:
            return s.kept[0] if rows is s.kept[1] else s.keep(color, rows)
        color, rows = improved
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


class _ReferenceWalk:
    """The checkers' own replay of one period, from scratch, in one pass.

    ``perm``, ``pos`` and ``pre`` hold pi^t, each element's position in it
    and its prefix weights (``pre[q]``: left of position q), from t = 0.
    Iterating yields, for t in [0, 2N), the position of the swap from pi^t,
    and makes it when asked for the next. The swaps run over ``seq.word``,
    then over its mirror n - 2 - p (pi^{t+N} reverses pi^t).
    """

    def __init__(self, seq: AllowableSequence):
        self.seq = seq
        self.perm = list(seq.pi0)
        self.pos = sorted(range(seq.n), key=self.perm.__getitem__)  # pi^0 inverted
        self.pre = list(accumulate((seq.weights[v] for v in self.perm), initial=0))

    def __iter__(self):
        seq, perm, pos, pre, weights = self.seq, self.perm, self.pos, self.pre, self.seq.weights
        for p in chain(seq.word, map((seq.n - 2).__sub__, seq.word)):
            yield p
            a, b = perm[p], perm[p + 1]
            perm[p], perm[p + 1] = b, a
            pos[a], pos[b] = p + 1, p
            pre[p + 1] = pre[p] + weights[b]


def check_border(seq: AllowableSequence, border: Border) -> list[str]:
    """Independent border validity check; empty list means valid.

    Reads a ``_ReferenceWalk``, not the track kernels, so border acceptance
    never depends on the fast path. Only ``verify_certificate`` calls it;
    generated borders are valid by construction. Weak continuity across the
    step from t is tested at pi^{t+1}: in the next round, or at time 0 for
    the last step.
    """
    period, delta = seq.period, seq.delta
    elements, colors, color = border.elements, seq.colors, border.color
    if len(elements) != period:
        return [f"BAD_LENGTH expected {period} got {len(elements)}"]
    if not set(range(seq.n)).issuperset(elements):
        return ["UNKNOWN_POINT"]
    if any(colors[e] is not color for e in set(elements)):
        return ["WRONG_COLOR"]
    sign = color.weight
    problems, last = [], []  # last: the step from 2N - 1, found at time 0
    walk = _ReferenceWalk(seq)
    perm, pos, pre = walk.perm, walk.pos, walk.pre
    for t, e_before, e, mirror, _ in zip(count(), elements[-1:] + elements, elements,
                                         border.mirror_elements(), walk):
        p = pos[e]
        if e_before != e:
            q = pos[e_before]
            if any(colors[v] is color for v in perm[min(p, q) + 1 : max(p, q)]):
                (problems if t else last).append(f"WEAK_CONTINUITY t={(t - 1) % period}")
        if sign * (pre[p] - delta) < 0:
            problems.append(f"WEIGHT t={t}")
        if not p < pos[mirror]:
            problems.append(f"MIRROR_ORDER t={t}")
    return problems + last


def _replayed_swaps(seq: AllowableSequence, times) -> dict[int, tuple[int, tuple[int, ...]]]:
    """For each time t: the position of tau_t and pi^{t-1}, t taken mod 2N.

    One ``_ReferenceWalk`` answers every t, in order of time, and stops at
    the latest.
    """
    period, walk = seq.period, _ReferenceWalk(seq)
    steps, done, out = iter(walk), 0, {}
    for t in sorted(set(times), key=lambda t: (t - 1) % period):
        if (step := (t - 1) % period) >= done:  # else t shares the last step, a period apart
            swap = next(islice(steps, step - done, None)), tuple(walk.perm)  # skips in C
            done = step + 1
        out[t] = swap
    return out


def verify_certificate(seq: AllowableSequence, cert: Certificate) -> VerificationResult:
    """Re-check a certificate from scratch, without the incremental kernels.

    Each witness must be a balanced transposition at its time, and its origin
    must name the part and rank of its border-color member just before the
    swap (``B{k}`` over the blues in Case 1). The target must be, and the
    witnesses at least, the theorem's count: r in Case 1, |F| + |G| + |H|
    in Case 2. Case 2 adds the border, the F/G/H split and the charge
    ledger, whose charges must match its transactions curve by curve.
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
    parts = (cert.f_set, cert.g_set, cert.h_set)
    if cert.case == Case.CASE1.value:  # the theorem's count
        count = seq.r
    elif None not in parts:  # the border color's points
        count = sum(len(p) for p in parts)
    else:  # MISSING_CASE2_DATA below
        count = cert.target
    if not isinstance(cert.target, int) or cert.target != count:
        diagnostics.append(f"BAD_TARGET {cert.target!r}")
    if isinstance(count, int) and len(cert.witnesses) < count:
        diagnostics.append(f"INSUFFICIENT_COUNT {len(cert.witnesses)} < {count}")

    origin = dict(cert.witness_origins)
    part_of = None  # the origin letter of each border-color point
    if cert.case == Case.CASE1.value:
        color = Color.BLUE
        part_of = {v: "B" for v in range(seq.n) if seq.colors[v] is color}
    elif cert.border is None or cert.ledger is None or None in parts:
        diagnostics.append("MISSING_CASE2_DATA")
    else:
        color = cert.border.color
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
        if not all(isinstance(tx, tuple) and len(tx) == 3 for tx in ledger.transactions):
            diagnostics.append("BAD_LEDGER malformed transaction")
        elif Counter(charged for _, _, charged in ledger.transactions) != charges:
            diagnostics.append("BAD_LEDGER charge/transaction mismatch")
        fh = sum(1 for p in seen if str(origin.get(p))[:1] in ("F", "H"))
        gg = sum(1 for p in seen if str(origin.get(p))[:1] == "G")
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
            else {"color": cert.border.color.value, "elements": cert.border.elements}
        ),
        "f": cert.f_set,
        "g": cert.g_set,
        "h": cert.h_set,
        "ledger": None if cert.ledger is None else vars(cert.ledger),
        "events": [vars(e) for e in cert.events],
    }
    return json.dumps(payload, separators=(",", ":"))
