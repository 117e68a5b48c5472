"""Hot inner loops over permutation words.

Every kernel walks an adjacent-transposition word while maintaining the
permutation and a prefix-weight table in O(1) per step. There is one backend,
plain Python: ``run_word``, ``element_walk`` and ``events_to_word`` take and
return numpy arrays, and ``track_rank`` runs over lists and follows every rank
of a subset in one replay, so curve tracking costs one replay per subset, not
one per rank. The from-scratch references they are tested against are
``permutation_at`` and ``transposition_at`` in ``sequence``.
"""
from __future__ import annotations

import numpy as np


def run_word(pi0, word, weights):
    """Replay a word; per step return (left element, right element, prefix weight).

    The prefix weight is the weight sum strictly left of the swapped pair,
    which a single adjacent swap never changes.
    """
    n = pi0.shape[0]
    m = word.shape[0]
    perm = pi0.copy()
    pre = np.zeros(n + 1, np.int64)
    for q in range(n):
        pre[q + 1] = pre[q] + weights[perm[q]]
    lo = np.empty(m, np.int64)
    hi = np.empty(m, np.int64)
    lw = np.empty(m, np.int64)
    for t in range(m):
        p = word[t]
        a = perm[p]
        b = perm[p + 1]
        lo[t] = a
        hi[t] = b
        lw[t] = pre[p]
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


def element_walk(pi0, word, weights, elems):
    """Positions and prefix weights of a prescribed element per time step.

    ``elems`` gives one element id per time (len(word)+1 entries, cyclic
    curves pass their full period).
    """
    n = pi0.shape[0]
    m = word.shape[0]
    perm = pi0.copy()
    pos_of = np.empty(n, np.int64)
    for q in range(n):
        pos_of[perm[q]] = q
    pre = np.zeros(n + 1, np.int64)
    for q in range(n):
        pre[q + 1] = pre[q] + weights[perm[q]]
    pos = np.empty(m + 1, np.int64)
    wt = np.empty(m + 1, np.int64)
    pos[0] = pos_of[elems[0]]
    wt[0] = pre[pos[0]]
    for t in range(m):
        p = word[t]
        a = perm[p]
        b = perm[p + 1]
        perm[p] = b
        perm[p + 1] = a
        pos_of[b] = p
        pos_of[a] = p + 1
        pre[p + 1] = pre[p] + weights[b]
        e = elems[t + 1]
        pos[t + 1] = pos_of[e]
        wt[t + 1] = pre[pos[t + 1]]
    return pos, wt


def events_to_word(pi0, ev_i, ev_j):
    """Convert a sequence of swap pairs into word positions.

    Each event's pair must be adjacent when its turn comes; a -1 entry in the
    output flags a violation (the caller raises).
    """
    n = pi0.shape[0]
    m = ev_i.shape[0]
    perm = pi0.copy()
    pos_of = np.empty(n, np.int64)
    for q in range(n):
        pos_of[perm[q]] = q
    word = np.empty(m, np.int64)
    for t in range(m):
        pi = pos_of[ev_i[t]]
        pj = pos_of[ev_j[t]]
        if pi > pj:
            pi, pj = pj, pi
        if pj != pi + 1:
            word[t] = -1
            return word
        word[t] = pi
        a = perm[pi]
        b = perm[pj]
        perm[pi] = b
        perm[pj] = a
        pos_of[b] = pi
        pos_of[a] = pj
    return word
