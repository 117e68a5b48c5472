"""The two balanced-line enumerators and their correspondence check.

A balanced line is identified by its bichromatic spanning pair; the geometric
enumerator counts halfplane weights directly, the scan enumerator finds
balanced transpositions in one half-period of the allowable sequence. The two
pair sets must coincide on every clean instance. ``balanced_steps`` is the one
test of a step for balance, for the scan and for the certificate's crossings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count

from . import _kernels
from .geometry import Color, Instance, halfplane_weights, sweep_around
from .sequence import AllowableSequence, build_from_points


class WitnessSource(Enum):
    GEOMETRIC = "geometric"
    SCAN = "scan"


@dataclass(frozen=True, eq=False)
class BalancedWitness:
    """A balanced line/transposition, identified by its unordered point pair.

    Equality and hashing use only the pair, per the one-to-one correspondence
    between balanced lines and balanced transpositions.
    """

    blue_id: int
    red_id: int
    source: WitnessSource
    t: int | None
    left_weight: int

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.blue_id, self.red_id), max(self.blue_id, self.red_id))

    def __eq__(self, other):
        return isinstance(other, BalancedWitness) and self.pair == other.pair

    def __hash__(self):
        return hash(self.pair)


def enumerate_balanced_lines(inst: Instance) -> set[BalancedWitness]:
    """All bichromatic pairs whose open halfplanes both have weight delta.

    One batch sweep around every red point (an O(r n log n) numpy presort and
    O(r n) exact Python work), then an O(1) ``halfplane_weights`` call per
    pair: O(r n log n + b r), at most O(n^2 log n), in all.
    """
    delta = inst.delta
    out = set()
    blues = [i for i in range(inst.n) if inst.color_of(i) is Color.BLUE]
    reds = [i for i in range(inst.n) if inst.color_of(i) is Color.RED]
    sweep_around(inst, reds)
    for bi in blues:
        for ri in reds:
            if halfplane_weights(inst, bi, ri) == (delta, delta):
                out.add(BalancedWitness(bi, ri, WitnessSource.GEOMETRIC, None, delta))
    return out


def balanced_steps(seq: AllowableSequence, lo, hi, lw) -> list[int]:
    """Indices of the steps of columns ``lo``, ``hi``, ``lw`` swapping a blue and a red at weight delta.

    The steps at weight delta are picked out in C; only they reach the color test.
    """
    w = seq.weights
    return [t for t in compress(count(), map(seq.delta.__eq__, lw)) if w[lo[t]] != w[hi[t]]]


def scan_balanced_transpositions(seq: AllowableSequence) -> set[BalancedWitness]:
    """One half-period scan emitting every bichromatic swap with left weight delta."""
    lo, hi, lw = _kernels.run_word(seq.pi0, seq.word, seq.weights)
    out = set()
    for t in balanced_steps(seq, lo, hi, lw):
        blue, red = (lo[t], hi[t]) if seq.colors[lo[t]] is Color.BLUE else (hi[t], lo[t])
        out.add(BalancedWitness(blue, red, WitnessSource.SCAN, t + 1, seq.delta))
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    geometric: frozenset[BalancedWitness]
    scan: frozenset[BalancedWitness]

    @property
    def equal(self) -> bool:
        return {w.pair for w in self.geometric} == {w.pair for w in self.scan}


def check_correspondence(inst: Instance, seq=None, geometric=None) -> CorrespondenceReport:
    """Run both enumerators on one instance and compare their pair sets.

    ``seq`` (the instance's allowable sequence) and ``geometric`` (its
    geometric witnesses) are reused when given, and computed when not.
    """
    if geometric is None:
        geometric = enumerate_balanced_lines(inst)
    if seq is None:
        seq = build_from_points(inst)
    scan = scan_balanced_transpositions(seq)
    return CorrespondenceReport(frozenset(geometric), frozenset(scan))


def witnesses_to_json(witnesses, delta: int) -> str:
    """Witness pair set as canonical JSON, sorted for reproducible diffs."""
    pairs = sorted(w.pair for w in witnesses)
    return json.dumps(
        {"pairs": [list(p) for p in pairs], "count": len(pairs), "delta": delta},
        separators=(",", ":"),
    )
