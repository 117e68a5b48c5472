"""Shared fixtures and independent oracles.

The oracles recompute everything from first principles (Fraction arithmetic,
from-scratch permutation replay) so they share no code path with the
incremental implementations they check.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from balanced_lines.geometry import ChromaticPoint, Color, GeneralPositionReport, Instance
from balanced_lines.harness import separated_instance


def make_instance(rows):
    """rows: iterable of (x, y, 'B'|'R') in id order."""
    return Instance(
        ChromaticPoint(i, Fraction(x), Fraction(y), Color(c))
        for i, (x, y, c) in enumerate(rows)
    )


def far_corner_rows():
    """8 points in general position, each coordinate a float but the corners' differences past float range."""
    c = 17 * 10**307
    pts = [(-c, -c), (c, -c + 1), (c - 3, c), (-c + 5, c - 2), (1, 2), (3, -7), (-11, 5), (13, 17)]
    return [(x, y, "BR"[k % 2]) for k, (x, y) in enumerate(pts)]


@pytest.fixture
def t1():
    return make_instance([(0, 0, "B"), (1, 1, "R")])


@pytest.fixture
def t2():
    return separated_instance(3)


@pytest.fixture
def t_red_border():
    # Blues inside a red triangle: the leftmost-blue curve stays below the
    # threshold, forcing Case 2 with a red border.
    return make_instance([
        (0, 1, "B"), (1, 2, "B"), (Fraction(-1, 2), Fraction(5, 2), "B"),
        (-20, -10, "R"), (21, -11, "R"), (1, 30, "R"),
    ])


@pytest.fixture
def t_blue_border():
    # Reds strictly inside the blue hull with delta=0: the leftmost-blue curve
    # never dips below the threshold, forcing Case 2 with a blue border.
    return make_instance([
        (-100, -99, "B"), (101, -98, "B"), (99, 103, "B"), (-102, 97, "B"),
        (-1, -2, "R"), (2, -1, "R"), (1, 3, "R"), (-3, 1, "R"),
    ])


# ---------------------------------------------------------------------------
# Oracles


def oracle_halfplane(inst, i, j):
    """Direct Fraction-arithmetic halfplane weights, no scaling tricks."""
    pi, pj = inst.points[i], inst.points[j]
    left = right = 0
    for k in range(inst.n):
        if k in (i, j):
            continue
        pk = inst.points[k]
        det = (pj.x - pi.x) * (pk.y - pi.y) - (pj.y - pi.y) * (pk.x - pi.x)
        if det == 0:
            raise ValueError("collinear")
        if det > 0:
            left += inst.color_of(k).weight
        else:
            right += inst.color_of(k).weight
    return left, right


def _oracle_direction(coords, i, j):
    """Reduced integer direction from i to j with canonical sign."""
    dx = coords[j][0] - coords[i][0]
    dy = coords[j][1] - coords[i][1]
    g = math.gcd(dx, dy)
    if g:
        dx //= g
        dy //= g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def oracle_general_position(inst):
    """The general-position report, point by point and pair by pair.

    Collinear triples come from bucketing the other points by direction as
    seen from each point; parallel pairs from bucketing all pairs by direction.
    """
    coords = inst.scaled_coords()
    n = inst.n

    coincident = set()
    triples = set()
    for a in range(n):
        buckets = {}
        for j in range(n):
            if j == a:
                continue
            if coords[j] == coords[a]:
                # Coincident points: every triple through them is degenerate too.
                coincident.add((min(a, j), max(a, j)))
                for k in range(n):
                    if k not in (a, j):
                        triples.add(tuple(sorted((a, j, k))))
                continue
            buckets.setdefault(_oracle_direction(coords, a, j), []).append(j)
        for members in buckets.values():
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    triples.add(tuple(sorted((a, members[x], members[y]))))

    dir_buckets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if coords[i] == coords[j]:
                continue
            dir_buckets.setdefault(_oracle_direction(coords, i, j), []).append((i, j))
    parallels = []
    for members in dir_buckets.values():
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                a, b = members[x], members[y]
                if not (set(a) & set(b)):  # shared-point cases are collinear triples
                    parallels.append((a, b))
    return GeneralPositionReport(
        collinear_triples=tuple(sorted(triples)),
        parallel_pair_pairs=tuple(sorted(parallels)),
        coincident_pairs=tuple(sorted(coincident)),
    )


def oracle_sweep_slope(inst):
    """Smallest k >= 0 with -dx/dy != k for every spanned pair, in Fractions."""
    pts = inst.points
    forbidden = {
        Fraction(-(q.x - p.x), q.y - p.y)
        for i, p in enumerate(pts) for q in pts[i + 1:] if q.y != p.y
    }
    k = 0
    while Fraction(k) in forbidden:
        k += 1
    return k


def oracle_sweep(inst):
    """(pi0, word) of the rotating sweep, from the points' Fractions alone.

    The sweep direction starts at (1, k), k from ``oracle_sweep_slope``, and
    turns counterclockwise: at angle theta it is cos(theta)*(1, k) +
    sin(theta)*(-k, 1). Pair (i, j) swaps where that direction is
    perpendicular to d = p_j - p_i, at cot(theta) = -c/a with a = d.(1, k)
    and c = d.(-k, 1), so later events have larger c/a. Raises ValueError
    when two events share an angle or a swapped pair is not adjacent.
    """
    pts = inst.points
    n = inst.n
    k = oracle_sweep_slope(inst)
    pi0 = sorted(range(n), key=lambda i: pts[i].x + k * pts[i].y)
    events = []
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = pts[j].x - pts[i].x, pts[j].y - pts[i].y
            events.append(((-k * dx + dy) / (dx + k * dy), i, j))
    if len({key for key, _, _ in events}) < len(events):
        raise ValueError("two events at one angle")
    events.sort()
    perm = list(pi0)
    word = []
    for _, i, j in events:
        p, q = sorted((perm.index(i), perm.index(j)))
        if q != p + 1:
            raise ValueError("event pair not adjacent")
        perm[p], perm[q] = perm[q], perm[p]
        word.append(p)
    return tuple(pi0), tuple(word)


def oracle_balanced_pairs(inst):
    """Brute-force balanced-line pairs from halfplane counts."""
    delta = inst.delta
    out = set()
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            if inst.color_of(i) is inst.color_of(j):
                continue
            if oracle_halfplane(inst, i, j) == (delta, delta):
                out.add((i, j))
    return out


def oracle_validate_word(seq):
    """(position_errors, repeated_pairs, not_reversed) of ``validate``, with a set of pair tuples."""
    n = seq.n
    perm = list(seq.pi0)
    seen = set()
    position_errors = []
    repeated = []
    for step, p in enumerate(seq.word, start=1):
        if not (0 <= p <= n - 2):
            position_errors.append((step, p))
            continue
        pair = (min(perm[p], perm[p + 1]), max(perm[p], perm[p + 1]))
        if pair in seen:
            repeated.append(pair)
        seen.add(pair)
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    complete = len(seq.word) == n * (n - 1) // 2 and not position_errors
    not_reversed = complete and perm != list(reversed(seq.pi0))
    return tuple(position_errors), tuple(sorted(set(repeated))), not_reversed


def oracle_random_sequence(n, blue_count, seed):
    """(colors, word) of ``random_sequence``, keeping a set of the pairs already swapped."""
    rng = random.Random(f"seq:{seed}")
    colors = [Color.BLUE] * blue_count + [Color.RED] * (n - blue_count)
    rng.shuffle(colors)
    perm = list(range(n))
    swapped = set()
    word = []
    for _ in range(n * (n - 1) // 2):
        eligible = [
            p for p in range(n - 1)
            if (min(perm[p], perm[p + 1]), max(perm[p], perm[p + 1])) not in swapped
        ]
        p = rng.choice(eligible)
        swapped.add((min(perm[p], perm[p + 1]), max(perm[p], perm[p + 1])))
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
        word.append(p)
    return tuple(colors), tuple(word)


def oracle_border_problems(seq, border):
    """``check_border``'s problems for a border of the right length and color, from scratch."""
    perms = all_permutations(seq)
    period = seq.period
    els = border.elements
    blue = border.color is Color.BLUE
    out = []
    for t in range(period):
        perm, nxt = perms[t], perms[t + 1]
        e, e_next = els[t], els[(t + 1) % period]
        p = perm.index(e)
        w = sum(seq.weights[v] for v in perm[:p])
        if (w < seq.delta) if blue else (w > seq.delta):
            out.append(f"WEIGHT t={t}")
        if not p < perm.index(els[(t + period // 2) % period]):
            out.append(f"MIRROR_ORDER t={t}")
        if e_next != e:
            q1, q2 = sorted((nxt.index(e), nxt.index(e_next)))
            if any(seq.colors[v] is border.color for v in nxt[q1 + 1 : q2]):
                out.append(f"WEAK_CONTINUITY t={t}")
    return out


def all_permutations(seq):
    """pi^0 .. pi^{2N} by naive replay of the word and its mirrored half."""
    n = seq.n
    perms = [list(seq.pi0)]
    word2 = list(seq.word) + [n - 2 - p for p in seq.word]
    for p in word2:
        nxt = list(perms[-1])
        nxt[p], nxt[p + 1] = nxt[p + 1], nxt[p]
        perms.append(nxt)
    return perms


def oracle_scan_pairs(seq):
    """Balanced transpositions in [1, N] with per-step from-scratch weights."""
    perms = all_permutations(seq)
    delta = seq.delta
    out = set()
    for t in range(1, seq.half_period + 1):
        p = seq.word[t - 1]
        prev = perms[t - 1]
        a, b = prev[p], prev[p + 1]
        left = sum(seq.weights[v] for v in prev[:p])
        if seq.colors[a] is not seq.colors[b] and left == delta:
            out.add((min(a, b), max(a, b)))
    return out


def oracle_track(seq, members, k):
    """(element, weight) per time in [0, 2N], from scratch."""
    perms = all_permutations(seq)
    out = []
    for perm in perms:
        ranked = [v for v in perm if v in members]
        e = ranked[k - 1]
        q = perm.index(e)
        out.append((e, sum(seq.weights[v] for v in perm[:q])))
    return out


def oracle_tracks(seq, members, perms):
    """Every rank's (element, weight, position) per time in [0, 2N], from scratch.

    ``oracle_track`` for all ranks of ``members`` at once, with positions:
    the rank-k member at time t is the k-th member from the left in
    ``perms[t]`` (``all_permutations(seq)``, as one array). Returns an
    array of shape (3, 2N + 1, |members|).
    """
    perms = np.asarray(perms)
    w = np.asarray(seq.weights)[perms]
    t, q = (a.reshape(len(perms), -1) for a in np.nonzero(np.isin(perms, list(members))))
    return np.stack((perms[t, q], (np.cumsum(w, axis=1) - w)[t, q], q))


def filled(trk):
    """Per-time (element, weight, position) arrays over [0, 2N], forward-filled from ``trk.rows``.

    Each change row holds until the next one starts, the last until 2N, and
    time 2N is time 0 again. Build it once per track: it is O(2N).
    """
    return tuple(np.append(col, col[0]) for col in per_time(trk.rows, trk.period))


def per_time(rows, period):
    """Change rows as per-time columns over [0, period), each row holding until the next.

    The forward fill of a border's or a track's ``rows`` (both
    ``(time, element, prefix weight, position)``), or of any rows whose
    first column is a start time:
    the oracle for the tests of the merged-grid code, which never expands.
    """
    rows = np.asarray(rows)
    return np.repeat(rows[:, 1:], np.diff(rows[:, 0], append=period), axis=0).T
