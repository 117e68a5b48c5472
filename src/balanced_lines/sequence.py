"""Allowable sequences: construction from points, validation, and sampling.

An allowable sequence is stored as one half-period: the starting permutation
plus the word of adjacent-swap positions tau_1..tau_N, N = C(n, 2). All other
times follow from the half-period reversal and 2N periodicity: nothing
about the full period is kept on the sequence, and ``step_table`` mirrors
the word and one replay of it into a period. ``build_from_points``
turns the exact sweep order that ``geometry`` memoises on the instance into
the word; it makes no pass over the pairs of its own.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from . import _kernels
from .errors import BadParamsError, DegenerateInputError, ProofGapError
from .geometry import Color, Instance, validate_general_position


class AllowableSequence:
    """Half-period representation of a two-colored allowable sequence.

    The constructor is permissive (it stores whatever shape it is given) so
    that ``validate`` can report on defective sequences; use ``validate`` to
    check the structural invariants. Non-integer entries raise ``BadParamsError``.
    """

    def __init__(self, colors, pi0, word):
        self.colors: tuple[Color, ...] = tuple(colors)
        try:  # an exact int passes unchanged; a numpy integer becomes one
            self.pi0: tuple[int, ...] = tuple(map(operator.index, pi0))
            self.word: tuple[int, ...] = tuple(map(operator.index, word))
        except TypeError as exc:
            raise BadParamsError(f"sequence entries must be integers: {exc}") from exc
        self.n = len(self.colors)
        self.weights: tuple[int, ...] = tuple(c.weight for c in self.colors)
        self.b: int = self.weights.count(1)

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


def step_table(seq: AllowableSequence) -> tuple[list[int], list[int], list[int], list[int]]:
    """Lists ``word``, ``lo``, ``hi``, ``lw`` over a full period; index t is the swap from pi^t.

    One ``run_word`` over the half word gives t < N. pi^{t+N} reverses pi^t,
    so step t + N swaps step t's pair back, at position n - 2 - p, with
    prefix weight sum(w) - lw - w(lo) - w(hi). Not kept on the sequence.
    """
    lo, hi, lw = _kernels.run_word(seq.pi0, seq.word, seq.weights)
    w, total = seq.weights, sum(seq.weights)
    lw += [total - x - w[a] - w[b] for a, b, x in zip(lo, hi, lw)]
    word = list(seq.word)
    word += [seq.n - 2 - p for p in word]
    return word, lo + hi, hi + lo, lw


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
    """Check pair-swaps-once, half-period reversal, position bounds, and parity.

    One walk permutes the ranks of pi0, so the pair of ranks i < j stands in order until it
    first swaps. Its order flips at each of its swaps and nowhere else, so its second swap is
    its first with the larger rank on the left: a pair swaps twice exactly when it makes such
    a descending swap. A full-length in-range word with none is clean, since each of its
    C(n, 2) swaps added an inversion, and reverse(pi0) is the one permutation with C(n, 2).
    """
    n, pi0 = seq.n, seq.pi0
    expected = n * (n - 1) // 2
    bad_pi0 = sorted(pi0) != list(range(n))
    length_mismatch = None if len(seq.word) == expected else (expected, len(seq.word))
    position_errors = ()
    descents = set()
    not_reversed = False
    if not bad_pi0:
        word = seq.word
        if word and not 0 <= min(word) <= max(word) <= n - 2:
            position_errors = tuple((s, p) for s, p in enumerate(word, start=1) if not 0 <= p <= n - 2)
            word = [p for p in word if 0 <= p <= n - 2]
        perm = list(range(n))
        for p in word:
            i, j = perm[p], perm[p + 1]
            if i > j:
                descents.add((j, i))
            perm[p], perm[p + 1] = j, i
        if length_mismatch is None and not position_errors:
            not_reversed = perm != list(range(n - 1, -1, -1))
    return SequenceReport(
        length_mismatch=length_mismatch,
        position_errors=position_errors,
        repeated_pairs=tuple(sorted({(min(pi0[i], pi0[j]), max(pi0[i], pi0[j])) for i, j in descents})),
        not_reversed=not_reversed,
        odd_size=n % 2 != 0,
        red_majority=seq.b < seq.r,
        bad_pi0=bad_pi0,
    )


def build_from_points(inst: Instance) -> AllowableSequence:
    """Rotating-sweep construction of the allowable sequence of a clean instance.

    pi0 and the word come from ``inst.sweep_order``; a degenerate input
    raises with the defect counts of ``validate_general_position``.
    """
    if (order := inst.sweep_order) is None:
        r = validate_general_position(inst)
        raise DegenerateInputError(
            f"instance has {len(r.collinear_triples)} collinear triple(s), {len(r.parallel_pair_pairs)}"
            f" parallel spanned pair(s), and {len(r.coincident_pairs)} coincident pair(s)")
    pi0, events = order
    # memoryviews yield the int32 ids as Python ints one at a time, so no
    # C(n, 2)-long list is held but the word.
    word = _kernels.events_to_word(pi0, *map(memoryview, events))
    if word and word[-1] < 0:
        # A strict event order swaps adjacent elements only, so this is a bug.
        raise ProofGapError("sweep produced a non-adjacent swap from a strict event order")
    return AllowableSequence(colors=inst.colors(), pi0=pi0, word=word)


def random_sequence(n: int, blue_count: int, seed) -> AllowableSequence:
    """Random abstract allowable sequence (step-uniform reduced word).

    At each step one uniformly random adjacent position whose pair has not
    yet swapped is applied; this always terminates because a permutation in
    which every adjacent pair has swapped is fully reversed. From the
    identity, a swap inverts its pair and no pair swaps twice, so a pair has
    not swapped exactly when it is still in increasing order.
    """
    if n < 2 or n % 2 != 0:
        raise BadParamsError(f"n must be even and >= 2, got {n}")
    if not (0 <= blue_count <= n) or blue_count < n - blue_count:
        raise BadParamsError(f"need blue_count >= red_count, got {blue_count} of {n}")
    rng = random.Random(f"seq:{seed}")
    colors = [Color.BLUE] * blue_count + [Color.RED] * (n - blue_count)
    rng.shuffle(colors)
    perm = list(range(n))
    word = []
    for _ in range(n * (n - 1) // 2):
        p = rng.choice([p for p in range(n - 1) if perm[p] < perm[p + 1]])
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
