"""Hot inner loops over permutation words.

``run_word`` is the one replay primitive: it walks the permutation and its
prefix weights over a word in O(1) per step and reports each step's pair and
left prefix weight. ``sequence.step_table`` mirrors the half word and one
run over it into a period's ``word``, ``lo``, ``hi`` and ``lw``, which the
other readers of steps take: a step at position p with left element a,
right element b and prefix weight lw moves a to p + 1, at prefix weight
lw + w(b), and b to p, at lw. ``track_rank`` logs only each rank's
change points, so a subset's tracks cost one pass and a track is O(changes),
not O(2N); ``element_walk`` gives a border from outside rows in the same
format. ``events_to_word`` turns the sweep's swap events into the word.
There is one backend, plain Python: kernels take plain sequences (indexing
numpy scalars costs several times more; ``events_to_word`` takes any
iterables) and return lists. Every kernel has a caller in the package; the
from-scratch references they are tested against are ``permutation_at`` and
``transposition_at`` in ``sequence``.
"""
from __future__ import annotations

from itertools import accumulate, count


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
    """Follow every rank of a subset through a word in one pass over its step table.

    ``steps`` is the step table's ``(lo, hi, lw)`` for the word, and
    ``member`` flags the subset's elements. An adjacent swap moves at
    most two rank curves: both ranks when both swapped elements are members,
    otherwise the one member that moved. Returns one list per rank, left to
    right at time 0, of its change points as ``(time, element, prefix weight,
    position)`` rows; the first row is at time 0 and each holds until the next.
    """
    rank = [-1] * len(pi0)  # member element -> its 0-based rank, left to right
    logs = []
    w = 0
    for q, v in enumerate(pi0):
        if member[v]:
            rank[v] = len(logs)
            logs.append([(0, v, w, q)])
        w += weights[v]
    for t, p, a, b, w in zip(count(1), word, *steps):
        ka = rank[a]
        kb = rank[b]
        if ka >= 0:
            if kb >= 0:  # both members: the two ranks trade elements
                rank[a] = kb
                rank[b] = ka
                logs[ka].append((t, b, w, p))
                logs[kb].append((t, a, w + weights[b], p + 1))
            else:
                logs[ka].append((t, a, w + weights[b], p + 1))
        elif kb >= 0:
            logs[kb].append((t, b, w, p))
    return logs


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
