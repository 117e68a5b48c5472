"""Hot inner loops over permutation words.

``run_word`` is the one replay primitive: it walks the permutation and its
prefix weights over a word in O(1) per step and reports each step's pair and
left prefix weight. ``sequence.step_table`` mirrors the half word and one
run over it into a period's ``word``, ``lo``, ``hi`` and ``lw``, which the
other readers of steps take: a step at position p with left element a,
right element b and prefix weight lw moves a to p + 1, at prefix weight
lw + w(b), and b to p, at lw. ``track_rank`` turns those moves into each
rank's change rows on whole arrays, so a track is O(changes), not O(2N);
``element_walk`` gives a border from outside rows in the same format.
``events_to_word`` turns the sweep's swap events into the word.
``track_rank`` is numpy over the step table's columns, lists or arrays.
The other kernels are plain Python: they take plain sequences (indexing
numpy scalars costs several times more; ``events_to_word`` takes any
iterables) and return lists. Every kernel has a caller in the package;
the from-scratch references they are tested against are ``permutation_at``
and ``transposition_at`` in ``sequence``.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np


def run_word(pi0, word, weights):
    """Replay a word; per step return (left element, right element, prefix weight).

    The prefix weight is the weight sum strictly left of the swapped pair,
    which a single adjacent swap never changes. Returns the lists ``lo``,
    ``hi`` and ``lw``.
    """
    perm = list(pi0)
    pre = list(accumulate((weights[v] for v in perm), initial=0))
    lo, hi, lw = [], [], []
    for p in word:
        a = perm[p]
        b = perm[p + 1]
        lo.append(a)
        hi.append(b)
        lw.append(pre[p])
        perm[p] = b
        perm[p + 1] = a
        pre[p + 1] = pre[p] + weights[b]
    return lo, hi, lw


def track_rank(pi0, word, weights, member, steps):
    """Follow every rank of a subset through a word, off its step table.

    ``steps`` is the step table's ``(lo, hi, lw)`` for the word, and
    ``member`` flags the subset's elements. An adjacent swap moves at
    most two rank curves: both ranks when both swapped elements are members,
    otherwise the one member that moved. A member's rank after a step is its
    rank at time 0 plus the running sum of its shifts, per element. Returns
    one int64 array per rank, left to right at time 0, of its change points
    as ``(time, element, prefix weight, position)`` rows; the first row is
    at time 0 and each holds until the next.
    """
    member = np.asarray(member, bool)
    weights = np.asarray(weights)
    pi0 = np.asarray(pi0)
    lo, hi, lw = (np.asarray(col) for col in steps)
    q = np.flatnonzero(member[pi0])
    t = np.flatnonzero(member[lo] | member[hi])  # the steps that move a member
    # One int32 row (time, element, prefix weight, position, shift), built in
    # place, per member at time 0, left to right, then two per step in t, the
    # left element's and the right one's (int32 holds any time of a word under
    # 2^31 steps, far past any step table that fits in memory). A row's shift
    # is what its step adds to its element's rank: +1 for passing a member
    # rightward, -1 leftward and 0 past a non-member; a time-0 row's is its rank.
    rows = np.empty((len(q) + 2 * len(t), 5), np.int32)
    pre = np.cumsum(weights[pi0]) - weights[pi0]
    rows[: len(q)] = np.stack((np.zeros_like(q), pi0[q], pre[q], q, np.arange(len(q))), axis=1)
    moved = rows[len(q) :].reshape(-1, 2, 5)  # per step: the left element's row, the right one's
    moved[:, :, 0] = t[:, None] + 1
    moved[:, 0, 1] = lo[t]
    moved[:, 1, 1] = hi[t]
    moved[:, 1, 2] = lw[t]
    moved[:, 0, 2] = moved[:, 1, 2] + weights[moved[:, 1, 1]]
    moved[:, 1, 3] = np.asarray(word)[t]
    moved[:, 0, 3] = moved[:, 1, 3] + 1
    inside = member[moved[:, :, 1]]
    moved[:, :, 4] = inside[:, ::-1]  # the partner is a member
    moved[:, 1, 4] *= -1
    kept = np.concatenate((np.arange(len(q)), len(q) + np.flatnonzero(inside)))  # members' rows, by time
    # Sorting on 8- or 16-bit keys makes numpy's stable sort a radix sort.
    key = np.min_scalar_type(len(member))
    order = np.argsort(rows[kept, 1].astype(key), kind="stable")  # by element, then time
    by_element = kept[order]
    shift = rows[by_element, 4]
    total = np.cumsum(shift)
    first = rows[by_element, 0] == 0  # each element's time-0 row leads its rows
    rank = np.empty_like(total)
    rank[order] = total - (total - shift)[first][np.cumsum(first) - 1]
    rows = rows.take(kept[np.argsort(rank.astype(key), kind="stable")], axis=0)[:, :4].astype(np.int64)
    starts = np.flatnonzero(rows[:, 0] == 0).tolist()
    return [rows[i:j] for i, j in zip(starts, starts[1:] + [len(rows)])]


def element_walk(pi0, word, weights, elems, steps):
    """Position and prefix weight of a prescribed element per time step.

    ``elems`` gives one element per time in [0, len(word)) (a border's 2N),
    and ``steps`` is the word's step table, as for ``track_rank``. Returns
    the lists ``pos`` and ``lw``, the columns a track's rows carry.
    """
    pos_of = [0] * len(pi0)  # each element's position and prefix weight, set by its steps
    lw_of = [0] * len(pi0)
    w = 0
    for q, v in enumerate(pi0):
        pos_of[v] = q
        lw_of[v] = w
        w += weights[v]
    pos, lw = [], []
    for e, p, a, b, w in zip(elems, word, *steps):
        pos.append(pos_of[e])
        lw.append(lw_of[e])
        pos_of[a] = p + 1
        lw_of[a] = w + weights[b]
        pos_of[b] = p
        lw_of[b] = w
    return pos, lw


def events_to_word(pi0, ev_i, ev_j):
    """Convert a sequence of swap pairs into a list of word positions.

    ``ev_i`` and ``ev_j`` may be any iterables of ints, read once, in step.
    Each event names its pair left element first: ``ev_i[s]`` must sit just
    left of ``ev_j[s]`` when its turn comes. The sweep's events meet this,
    since each pair is listed in pi0 order and swaps once. At the first
    violation the output ends with a -1 entry (the caller raises).
    """
    pos_of = [0] * len(pi0)
    for q, v in enumerate(pi0):
        pos_of[v] = q
    word = []
    for i, j in zip(ev_i, ev_j):
        pi = pos_of[i]
        if pos_of[j] != pi + 1:
            word.append(-1)
            return word
        word.append(pi)
        pos_of[i] = pi + 1
        pos_of[j] = pi
    return word
