"""Hot inner loops over permutation words.

Every kernel walks an adjacent-transposition word while maintaining the
permutation (and, where the kernel reports weights, a prefix-weight table) in
O(1) per step. There is one backend, plain Python: every kernel takes plain
sequences (lists or tuples; indexing numpy scalars costs several times more)
and returns lists. ``track_rank`` follows every rank of a subset in one
replay and logs only change points, so curve tracking costs one replay per
subset, not one per rank, and a track is O(changes), not O(2N). ``certify``
replays each color's family once per call, and reads element positions from
a timeline built off one ``run_word``, so the package no longer calls
``element_walk``; it stays as a tested standalone kernel, and
``perfbench/tracing.py`` names it and ``track_rank`` as trace targets. The
from-scratch references they are tested against are ``permutation_at`` and
``transposition_at`` in ``sequence``.
"""
from __future__ import annotations


def run_word(pi0, word, weights):
    """Replay a word; per step return (left element, right element, prefix weight).

    The prefix weight is the weight sum strictly left of the swapped pair,
    which a single adjacent swap never changes. Returns the lists ``lo``,
    ``hi``, ``lw`` and the final permutation.
    """
    perm = list(pi0)
    n = len(perm)
    pre = [0] * (n + 1)
    for q in range(n):
        pre[q + 1] = pre[q] + weights[perm[q]]
    lo = []
    hi = []
    lw = []
    for p in word:
        a = perm[p]
        b = perm[p + 1]
        lo.append(a)
        hi.append(b)
        lw.append(pre[p])
        perm[p] = b
        perm[p + 1] = a
        pre[p + 1] = pre[p] + weights[b]
    return lo, hi, lw, perm


def track_rank(pi0, word, weights, member):
    """Follow every rank of a subset through a word in one replay.

    ``member`` flags the subset's elements. An adjacent swap moves at most two
    rank curves: both ranks when both swapped elements are members, otherwise
    the one member that moved. So the replay logs only each rank's change
    points. Returns one list per rank, left to right at time 0, of
    ``(time, element, prefix weight, position)`` rows; the first row is at
    time 0 and each row holds until the next. Runs over plain Python
    sequences; pass lists, not numpy arrays.
    """
    perm = list(pi0)
    n = len(perm)
    pre = [0] * (n + 1)
    for q in range(n):
        pre[q + 1] = pre[q] + weights[perm[q]]
    rank = [-1] * n  # member element -> its 0-based rank, left to right
    logs = []
    for q, v in enumerate(perm):
        if member[v]:
            rank[v] = len(logs)
            logs.append([(0, v, pre[q], q)])
    for t, p in enumerate(word, 1):
        a = perm[p]
        b = perm[p + 1]
        perm[p] = b
        perm[p + 1] = a
        pre[p + 1] = pre[p] + weights[b]
        ka = rank[a]
        kb = rank[b]
        if ka >= 0:
            if kb >= 0:  # both members: the two ranks trade elements
                rank[a] = kb
                rank[b] = ka
                logs[ka].append((t, b, pre[p], p))
                logs[kb].append((t, a, pre[p + 1], p + 1))
            else:
                logs[ka].append((t, a, pre[p + 1], p + 1))
        elif kb >= 0:
            logs[kb].append((t, b, pre[p], p))
    return logs


def element_walk(pi0, word, elems):
    """Position of a prescribed element per time step.

    ``elems`` gives one element id per time, ``len(word) + 1`` entries.
    """
    perm = list(pi0)
    pos_of = [0] * len(perm)
    for q, v in enumerate(perm):
        pos_of[v] = q
    pos = [pos_of[elems[0]]]
    for p, e in zip(word, elems[1:]):
        a = perm[p]
        b = perm[p + 1]
        perm[p] = b
        perm[p + 1] = a
        pos_of[b] = p
        pos_of[a] = p + 1
        pos.append(pos_of[e])
    return pos


def events_to_word(pi0, ev_i, ev_j):
    """Convert a sequence of swap pairs into a list of word positions.

    Each event's pair must be adjacent when its turn comes; at the first
    violation the output ends with a -1 entry (the caller raises).
    """
    pos_of = [0] * len(pi0)
    for q, v in enumerate(pi0):
        pos_of[v] = q
    word = []
    for i, j in zip(ev_i, ev_j):
        pi = pos_of[i]
        pj = pos_of[j]
        if pj == pi + 1:
            word.append(pi)
        elif pi == pj + 1:
            word.append(pj)
        else:
            word.append(-1)
            return word
        pos_of[i] = pj
        pos_of[j] = pi
    return word
