"""Output checks that share no code with the package.

Geometry comes from exact integer cross products over the instance's own
rational coordinates, and sequence facts from a from-scratch replay of the
word. Nothing here imports ``balanced_lines``, so a fault in the package's
geometry, kernels or ``transposition_at`` cannot hide itself.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction


class CheckError(Exception):
    """A program output disagrees with the oracle."""


class PointSet:
    """An instance as plain integers: scaled coordinates and canonical weights.

    The majority color has weight +1 (the paper's blue role), so ``b >= r``
    and ``delta = (b - r) / 2`` whatever the raw color names are.
    """

    def __init__(self, instance_text: str):
        points = sorted(json.loads(instance_text)["points"], key=lambda p: int(p["id"]))
        if [int(p["id"]) for p in points] != list(range(len(points))):
            raise CheckError("instance ids are not 0..n-1")
        xs = [Fraction(p["x"]) for p in points]
        ys = [Fraction(p["y"]) for p in points]
        scale = math.lcm(*(v.denominator for v in xs + ys))
        self.x = [int(v * scale) for v in xs]
        self.y = [int(v * scale) for v in ys]
        self.n = len(points)
        raw = [p["color"] for p in points]
        major = "B" if 2 * raw.count("B") >= self.n else "R"
        self.weight = [1 if c == major else -1 for c in raw]
        self.b = self.weight.count(1)
        self.r = self.n - self.b
        self.delta = (self.b - self.r) // 2

    def sides(self, i: int, j: int) -> tuple[frozenset[int], frozenset[int]]:
        """Points strictly left and strictly right of the directed line i -> j."""
        xi, yi = self.x[i], self.y[i]
        dx, dy = self.x[j] - xi, self.y[j] - yi
        left, right = [], []
        for k, (xk, yk) in enumerate(zip(self.x, self.y)):
            if k == i or k == j:
                continue
            cross = dx * (yk - yi) - dy * (xk - xi)
            if cross == 0:
                raise CheckError(f"point {k} lies on line ({i}, {j})")
            (left if cross > 0 else right).append(k)
        return frozenset(left), frozenset(right)

    def is_balanced(self, i: int, j: int) -> bool:
        """Bichromatic pair whose open halfplanes both weigh delta.

        Sums weights in one pass rather than through ``sides``: this runs for
        every bichromatic pair of a lines-n200 instance.
        """
        if self.weight[i] == self.weight[j]:
            return False
        xi, yi = self.x[i], self.y[i]
        dx, dy = self.x[j] - xi, self.y[j] - yi
        left = right = 0
        for k, (xk, yk, wk) in enumerate(zip(self.x, self.y, self.weight)):
            if k == i or k == j:
                continue
            cross = dx * (yk - yi) - dy * (xk - xi)
            if cross > 0:
                left += wk
            elif cross < 0:
                right += wk
            else:
                raise CheckError(f"point {k} lies on line ({i}, {j})")
        return left == right == self.delta

    def bichromatic_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.weight[i] != self.weight[j]]


def _pair_output(pts: PointSet, output_text: str) -> list[tuple[int, int]]:
    """Parse a ``pairs`` JSON output and check its shape, delta and the paper's bound."""
    out = json.loads(output_text)
    pairs = [tuple(p) for p in out["pairs"]]
    if any(len(p) != 2 or not 0 <= p[0] < p[1] < pts.n for p in pairs):
        raise CheckError("a pair is not two increasing point ids")
    if pairs != sorted(set(pairs)):
        raise CheckError("pairs are not sorted and distinct")
    if out["count"] != len(pairs):
        raise CheckError(f"count {out['count']} != {len(pairs)} pairs")
    if out["delta"] != pts.delta:
        raise CheckError(f"delta {out['delta']} != {pts.delta}")
    if len(pairs) < pts.r:
        raise CheckError(f"{len(pairs)} balanced lines < min(b, r) = {pts.r}")
    return pairs


def check_pairs(instance_text: str, output_text: str, sample: int | None, seed=None) -> None:
    """Every reported pair is balanced; a seeded sample of the others is not.

    ``sample=None`` compares against the oracle's full set instead.
    """
    pts = PointSet(instance_text)
    reported = _pair_output(pts, output_text)
    for i, j in reported:
        if not pts.is_balanced(i, j):
            raise CheckError(f"reported pair ({i}, {j}) is not a balanced line")
    if sample is None:
        expected = [p for p in pts.bichromatic_pairs() if pts.is_balanced(*p)]
        if expected != reported:
            missing = sorted(set(expected) - set(reported))
            extra = sorted(set(reported) - set(expected))
            raise CheckError(f"pair set differs: missing {missing[:5]}, extra {extra[:5]}")
        return
    got = set(reported)
    others = [p for p in pts.bichromatic_pairs() if p not in got]
    for i, j in random.Random(seed).sample(others, min(sample, len(others))):
        if pts.is_balanced(i, j):
            raise CheckError(f"balanced pair ({i}, {j}) is missing from the output")


class Replay:
    """An allowable sequence replayed from its text form, over one full period.

    Swap t turns pi^(t-1) into pi^t for 1 <= t <= 2N; the second half-period
    mirrors the first, since pi^N is pi^0 reversed.
    """

    def __init__(self, sequence_text: str):
        lines = [ln for ln in sequence_text.splitlines() if ln.strip()]
        self.n = int(lines[0])
        self.colors = lines[1].strip()
        self.pi0 = [int(v) for v in lines[2].split()]
        self.word = [int(v) for v in lines[3:]]
        n, half = self.n, self.n * (self.n - 1) // 2
        if sorted(self.pi0) != list(range(n)) or len(self.colors) != n:
            raise CheckError("sequence header is not a permutation of 0..n-1 with n colors")
        if len(self.word) != half:
            raise CheckError(f"word has {len(self.word)} swaps, expected {half}")
        perm, seen = list(self.pi0), set()
        for p in self.word:
            if not 0 <= p < n - 1:
                raise CheckError(f"swap position {p} out of range")
            pair = frozenset((perm[p], perm[p + 1]))
            if pair in seen:
                raise CheckError(f"pair {sorted(pair)} swaps twice in a half-period")
            seen.add(pair)
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
        if perm != self.pi0[::-1]:
            raise CheckError("the half-period does not end in the reversed permutation")
        self.half = half

    def swaps_at(self, times) -> dict[int, tuple[int, list[int]]]:
        """For each wanted t: (position, pi^(t-1) as a list)."""
        wanted = set(times)
        if any(not 1 <= t <= 2 * self.half for t in wanted):
            raise CheckError("a witness time lies outside [1, 2N]")
        perm, found = list(self.pi0), {}
        for t in range(1, max(wanted, default=0) + 1):
            p = self.word[t - 1] if t <= self.half else self.n - 2 - self.word[t - self.half - 1]
            if t in wanted:
                found[t] = (p, list(perm))
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
        return found


def check_certificate(instance_text: str, sequence_text: str, cert_text: str,
                      verified: bool) -> None:
    """Each witness is the balanced swap at its time t; at least min(b, r) distinct ones."""
    if not verified:
        raise CheckError("verify_certificate rejected the certificate")
    pts = PointSet(instance_text)
    seq = Replay(sequence_text)
    canonical = "".join("B" if w == 1 else "R" for w in pts.weight)
    if seq.n != pts.n or seq.colors != canonical:
        raise CheckError("sequence colors are not the instance's canonical colors")
    witnesses = json.loads(cert_text)["witnesses"]
    pairs = [tuple(w["pair"]) for w in witnesses]
    if len(set(pairs)) != len(pairs):
        raise CheckError("a witness pair repeats")
    if len(pairs) < pts.r:
        raise CheckError(f"{len(pairs)} witnesses < min(b, r) = {pts.r}")
    swaps = seq.swaps_at(w["t"] for w in witnesses)
    for w in witnesses:
        blue, red, t = w["blue"], w["red"], w["t"]
        if tuple(w["pair"]) != (min(blue, red), max(blue, red)):
            raise CheckError(f"witness pair {w['pair']} does not match blue/red")
        if pts.weight[blue] != 1 or pts.weight[red] != -1:
            raise CheckError(f"witness {w['pair']} is not blue/red")
        if w["left_weight"] != pts.delta:
            raise CheckError(f"witness {w['pair']} claims left weight {w['left_weight']}")
        p, before = swaps[t]
        if {before[p], before[p + 1]} != {blue, red}:
            raise CheckError(f"swap at t={t} is ({before[p]}, {before[p + 1]}), not {w['pair']}")
        left_of_swap = frozenset(before[:p])
        if sum(pts.weight[k] for k in left_of_swap) != pts.delta:
            raise CheckError(f"swap at t={t} has left weight other than delta")
        if left_of_swap not in pts.sides(blue, red):
            raise CheckError(f"points left of the swap at t={t} are not a halfplane of its line")
        if not pts.is_balanced(blue, red):
            raise CheckError(f"witness {w['pair']} is not a balanced line")


def check_fuzz(output_text: str) -> None:
    """One trial ran and reported no failure."""
    out = json.loads(output_text)
    if out["trials"] != 1:
        raise CheckError(f"fuzz ran {out['trials']} trials, expected 1")
    if out["failures"]:
        raise CheckError(f"fuzz trial failed: {out['failures'][0]['message']}")
