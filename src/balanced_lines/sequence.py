"""Allowable sequences: construction from points, validation, and sampling.

An allowable sequence is stored as one half-period: the starting permutation
plus the word of adjacent-swap positions tau_1..tau_N, N = C(n, 2). All other
times follow from the half-period reversal and 2N periodicity.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from . import _kernels
from .errors import BadParamsError, DegenerateInputError
from .geometry import Color, Instance, _general_position_report, _pair_directions


class AllowableSequence:
    """Half-period representation of a two-colored allowable sequence.

    The constructor is permissive (it stores whatever shape it is given) so
    that ``validate`` can report on defective sequences; use ``validate`` to
    check the structural invariants.
    """

    def __init__(self, colors, pi0, word):
        self.colors: tuple[Color, ...] = tuple(colors)
        self.pi0: tuple[int, ...] = tuple(int(v) for v in pi0)
        self.word: tuple[int, ...] = tuple(int(v) for v in word)
        self.n = len(self.colors)
        self.weights: tuple[int, ...] = tuple(c.weight for c in self.colors)
        self.b: int = self.weights.count(1)
        self._full_word = self.word + tuple(self.n - 2 - p for p in self.word)

    @property
    def half_period(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def period(self) -> int:
        return 2 * self.half_period

    @property
    def r(self) -> int:
        return self.n - self.b

    @property
    def delta(self) -> int:
        return (self.b - self.r) // 2

    def full_word(self) -> tuple[int, ...]:
        """Word over a full period: tau_{t+N} mirrors tau_t's position."""
        return self._full_word

    def __repr__(self):
        return f"AllowableSequence(n={self.n}, b={self.b}, r={self.r})"


@dataclass(frozen=True)
class Transposition:
    """The swap between pi^{t-1} and pi^t, with its left prefix weight."""

    t: int
    pos: int
    lo_id: int
    hi_id: int
    left_weight: int

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.lo_id, self.hi_id), max(self.lo_id, self.hi_id))


def permutation_at(seq: AllowableSequence, t: int) -> tuple[int, ...]:
    """pi^t for any integer t, via periodicity and half-period reversal."""
    n2 = seq.period
    tm = t % n2 if n2 else 0
    if tm > seq.half_period:
        return tuple(reversed(permutation_at(seq, tm - seq.half_period)))
    perm = list(seq.pi0)
    for step in range(tm):
        p = seq.word[step]
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    return tuple(perm)


def transposition_at(seq: AllowableSequence, t: int) -> Transposition:
    """Recompute tau_t from scratch (independent of the incremental kernels)."""
    n2 = seq.period
    tm = (t - 1) % n2 + 1  # in [1, 2N]
    if tm <= seq.half_period:
        pos = seq.word[tm - 1]
    else:
        pos = seq.n - 2 - seq.word[tm - seq.half_period - 1]
    prev = permutation_at(seq, tm - 1)
    left_weight = sum(seq.weights[v] for v in prev[:pos])
    return Transposition(t=t, pos=pos, lo_id=prev[pos], hi_id=prev[pos + 1], left_weight=left_weight)


@dataclass(frozen=True)
class SequenceReport:
    """Structural defects of a purported allowable sequence."""

    length_mismatch: tuple[int, int] | None  # (expected, actual)
    position_errors: tuple[tuple[int, int], ...]  # (step, position)
    repeated_pairs: tuple[tuple[int, int], ...]
    not_reversed: bool
    odd_size: bool
    red_majority: bool
    bad_pi0: bool

    @property
    def clean(self) -> bool:
        return not self.codes

    @property
    def codes(self) -> tuple[str, ...]:
        out = []
        if self.bad_pi0:
            out.append("BAD_PI0")
        if self.length_mismatch is not None:
            out.append("LENGTH_MISMATCH")
        if self.position_errors:
            out.append("POSITION_RANGE")
        if self.repeated_pairs:
            out.append("REPEATED_PAIR")
        if self.not_reversed:
            out.append("NOT_REVERSED")
        if self.odd_size:
            out.append("ODD_SIZE")
        if self.red_majority:
            out.append("RED_MAJORITY")
        return tuple(out)


def validate(seq: AllowableSequence) -> SequenceReport:
    """Check pair-swaps-once, half-period reversal, position bounds, and parity."""
    n = seq.n
    expected = n * (n - 1) // 2
    bad_pi0 = sorted(seq.pi0) != list(range(n))
    length_mismatch = None if len(seq.word) == expected else (expected, len(seq.word))
    position_errors = []
    repeated = []
    not_reversed = False
    if not bad_pi0:
        perm = list(seq.pi0)
        seen = bytearray(n * n)  # pair (a, b), a < b, marks byte a*n + b
        for step, p in enumerate(seq.word, start=1):
            if not (0 <= p <= n - 2):
                position_errors.append((step, p))
                continue
            a, b = perm[p], perm[p + 1]
            key = a * n + b if a < b else b * n + a
            if seen[key]:
                repeated.append(key)
            seen[key] = 1
            perm[p], perm[p + 1] = b, a
        if length_mismatch is None and not position_errors:
            not_reversed = perm != list(reversed(seq.pi0))
    return SequenceReport(
        length_mismatch=length_mismatch,
        position_errors=tuple(position_errors),
        repeated_pairs=tuple(sorted({divmod(key, n) for key in repeated})),
        not_reversed=not_reversed,
        odd_size=n % 2 != 0,
        red_majority=seq.b < seq.r,
        bad_pi0=bad_pi0,
    )


def _sweep_slope(dirs) -> int:
    """Smallest integer k >= 0 such that u0 = (1, k) is perpendicular to no spanned line.

    u0 is perpendicular to a line of direction (dx, dy) iff dx + k*dy == 0.
    A reduced direction forbids an integer k only when dy = +-1, and then
    k = -dx*dy.
    """
    forbidden = {-dx * dy for dx, dy in dirs if dy == 1 or dy == -1}
    k = 0
    while k in forbidden:
        k += 1
    return k


def build_from_points(inst: Instance) -> AllowableSequence:
    """Rotating-sweep construction of the allowable sequence of a clean instance.

    pi0 orders the points by projection onto a deterministically chosen
    direction with all projections distinct; the word lists each pair at the
    sweep angle where its spanned line becomes perpendicular to the sweep.
    """
    n = inst.n
    coords = inst.scaled_coords()
    dirs = _pair_directions(coords)
    report = _general_position_report(n, dirs)
    if not report.clean:
        raise DegenerateInputError(
            f"instance has {len(report.collinear_triples)} collinear triple(s), "
            f"{len(report.parallel_pair_pairs)} parallel spanned pair(s), and "
            f"{len(report.coincident_pairs)} coincident pair(s)"
        )

    k0 = _sweep_slope(dirs)
    pi0 = sorted(range(n), key=lambda i: coords[i][0] + k0 * coords[i][1])

    # Each pair swaps when the sweep direction is perpendicular to its spanned
    # line. In the frame rotating u0 to the x-axis the event direction has a
    # positive y-component, so event order is the order of angles in (0, pi).
    # Float angles are only a presort key; exact signs decide the final order.
    atan2 = math.atan2
    events = []
    append = events.append
    for (i, j), (dx, dy) in zip(combinations(range(n), 2), dirs):
        # (fa, fb) is the normal (-dy, dx) in the rotated frame, turned to fb > 0.
        fb = dx + k0 * dy
        fa = k0 * dx - dy
        if fb < 0:
            fa, fb = -fa, -fb
        shift = max(fa.bit_length(), fb.bit_length()) - 52
        if shift > 0:  # keep the ratio while staying in float range
            key = atan2(fb >> shift, fa >> shift)
        else:
            key = atan2(fb, fa)
        append((key, fa, fb, i, j))
    del dirs
    events.sort(key=lambda e: e[0])

    def exactly_ordered(evs) -> bool:
        return all(a[1] * b[2] > a[2] * b[1] for a, b in zip(evs, islice(evs, 1, None)))

    if not exactly_ordered(events):
        # Float keys collided or mis-ordered: fall back to an exact sort.
        events.sort(key=lambda e: Fraction(-e[1], e[2]))
        if not exactly_ordered(events):
            raise DegenerateInputError("two spanned lines are parallel")

    ev_i = [e[3] for e in events]
    ev_j = [e[4] for e in events]
    del events
    word = _kernels.events_to_word(pi0, ev_i, ev_j)
    if word and word[-1] < 0:
        raise DegenerateInputError("sweep produced a non-adjacent swap; input is degenerate")
    return AllowableSequence(colors=inst.colors(), pi0=pi0, word=word)


def random_sequence(n: int, blue_count: int, seed) -> AllowableSequence:
    """Random abstract allowable sequence (step-uniform reduced word).

    At each step one uniformly random adjacent position whose pair has not
    yet swapped is applied; this always terminates because a permutation in
    which every adjacent pair has swapped is fully reversed.
    """
    if n < 2 or n % 2 != 0:
        raise BadParamsError(f"n must be even and >= 2, got {n}")
    if not (0 <= blue_count <= n) or blue_count < n - blue_count:
        raise BadParamsError(f"need blue_count >= red_count, got {blue_count} of {n}")
    rng = random.Random(f"seq:{seed}")
    colors = [Color.BLUE] * blue_count + [Color.RED] * (n - blue_count)
    rng.shuffle(colors)
    perm = list(range(n))
    swapped = set()
    word = []
    total = n * (n - 1) // 2
    for _ in range(total):
        eligible = [
            p for p in range(n - 1)
            if (min(perm[p], perm[p + 1]), max(perm[p], perm[p + 1])) not in swapped
        ]
        p = rng.choice(eligible)
        pair = (min(perm[p], perm[p + 1]), max(perm[p], perm[p + 1]))
        swapped.add(pair)
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
        word.append(p)
    return AllowableSequence(colors=colors, pi0=range(n), word=word)


def reverse_sequence(seq: AllowableSequence) -> AllowableSequence:
    """The time-reversed sequence: its permutation at t is permutation_at(seq, -t)."""
    n = seq.n
    word = [n - 2 - seq.word[len(seq.word) - 1 - t] for t in range(len(seq.word))]
    return AllowableSequence(colors=seq.colors, pi0=seq.pi0, word=word)


def sequence_to_text(seq: AllowableSequence) -> str:
    """Canonical text format: n, color string, pi0, then one word position per line."""
    lines = [
        str(seq.n),
        "".join(c.value for c in seq.colors),
        " ".join(str(v) for v in seq.pi0),
    ]
    lines.extend(str(p) for p in seq.word)
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> AllowableSequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise BadParamsError("sequence text needs at least n, colors, and pi0 lines")
    try:
        n = int(lines[0])
        colors = [Color(ch) for ch in lines[1].strip()]
        pi0 = [int(v) for v in lines[2].split()]
        word = [int(ln) for ln in lines[3:]]
    except ValueError as exc:
        raise BadParamsError(f"malformed sequence text: {exc}") from exc
    if len(colors) != n:
        raise BadParamsError("color line length does not match n")
    if sorted(pi0) != list(range(n)):
        raise BadParamsError("pi0 line is not a permutation of 0..n-1")
    return AllowableSequence(colors=colors, pi0=pi0, word=word)
