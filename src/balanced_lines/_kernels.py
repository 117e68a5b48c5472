"""Hot inner loops over permutation words.

Every kernel walks an adjacent-transposition word while maintaining the
permutation (and, where the kernel reports weights, a prefix-weight table) in
O(1) per step. There is one backend, plain Python: every kernel takes plain
sequences (lists or tuples; indexing numpy scalars costs several times more;
``events_to_word`` takes any iterables) and returns lists. ``track_rank``
follows every rank of a subset in one replay and logs only change points, so
curve tracking costs one replay per subset, not one per rank, and a track is
O(changes), not O(2N). ``certify`` replays each color's family once per call
and walks no border (its borders come with their change rows);
``element_walk`` gives a border from outside rows in the same format,
positions and prefix weights.
Every kernel has a caller in the package. The from-scratch references they
are tested against are ``permutation_at`` and ``transposition_at`` in
``sequence``.
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


def element_walk(pi0, word, weights, elems):
    """Position and prefix weight of a prescribed element per time step.

    ``elems`` gives one element id per time, ``len(word) + 1`` entries.
    Returns the lists ``pos`` and ``lw``, the columns a track's rows carry.
    """
    perm = list(pi0)
    pos_of = [0] * len(perm)
    pre = [0]
    for q, v in enumerate(perm):
        pos_of[v] = q
        pre.append(pre[q] + weights[v])
    pos = [pos_of[elems[0]]]
    lw = [pre[pos[0]]]
    for p, e in zip(word, elems[1:]):
        a = perm[p]
        b = perm[p + 1]
        perm[p] = b
        perm[p + 1] = a
        pos_of[b] = p
        pos_of[a] = p + 1
        pre[p + 1] = pre[p] + weights[b]
        pos.append(pos_of[e])
        lw.append(pre[pos_of[e]])
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
