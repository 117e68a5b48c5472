"""The kernels against from-scratch replays.

``transposition_at`` and ``all_permutations`` rebuild each permutation from
``pi0`` and the word, and ``oracle_track`` ranks the members of every
permutation directly, so these tests share no code with the kernels.
"""
import random

import numpy as np
import pytest

from balanced_lines import _kernels
from balanced_lines.sequence import random_sequence, step_table, transposition_at

from conftest import all_permutations, oracle_track


def sequence_arrays(seed, n=10, blue=6):
    seq = random_sequence(n, blue, seed=seed)
    word = seq.word + tuple(n - 2 - p for p in seq.word)  # the full period's, built here
    return seq.pi0, word, seq.weights, seq


def forward_fill(changes, length):
    """Per-time (element, weight, position) from a rank's change-point rows."""
    out = []
    for (t, e, w, q), nxt in zip(changes, [row[0] for row in changes[1:]] + [length]):
        out.extend([(e, w, q)] * (nxt - t))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_run_word_backends_agree(seed):
    pi0, word, weights, seq = sequence_arrays(seed)
    lo, hi, lw = _kernels.run_word(pi0, word, weights)
    for t in range(len(word)):
        tr = transposition_at(seq, t + 1)
        assert (lo[t], hi[t], lw[t]) == (tr.lo_id, tr.hi_id, tr.left_weight)


@pytest.mark.parametrize("seed", range(5))
def test_track_rank_backends_agree(seed):
    _, word, _, seq = sequence_arrays(seed)
    perms = all_permutations(seq)
    for color_weight in (1, -1):
        members = frozenset(i for i in range(seq.n) if seq.weights[i] == color_weight)
        member = [i in members for i in range(seq.n)]
        logs = _kernels.track_rank(seq.pi0, word, seq.weights, member, step_table(seq)[1:])
        assert len(logs) == len(members)
        for k, changes in enumerate(logs, start=1):
            got = forward_fill(changes, len(word) + 1)
            expected = [
                (e, w, perms[t].index(e)) for t, (e, w) in enumerate(oracle_track(seq, members, k))
            ]
            assert got == expected


@pytest.mark.parametrize("seed", range(3))
def test_element_walk_backends_agree(seed):
    pi0, word, weights, seq = sequence_arrays(seed)
    rng = random.Random(seed)
    elems = [rng.randrange(seq.n) for _ in range(len(word))]
    pos, lw = _kernels.element_walk(pi0, word, weights, elems, step_table(seq)[1:])
    perms = all_permutations(seq)
    assert pos == [perm.index(e) for perm, e in zip(perms, elems)]
    assert lw == [sum(weights[v] for v in perm[:q]) for perm, q in zip(perms, pos)]


def test_events_to_word_backends_agree():
    _, _, _, seq = sequence_arrays(0)
    # reconstruct the event list from the word, then invert it again
    perm = list(seq.pi0)
    ev = []
    for p in seq.word:
        ev.append((perm[p], perm[p + 1]))
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    ev_i = np.asarray([a for a, _ in ev], np.int64)
    ev_j = np.asarray([b for _, b in ev], np.int64)
    word = _kernels.events_to_word(seq.pi0, ev_i, ev_j)
    assert list(word) == list(seq.word)


def test_events_to_word_flags_non_adjacent():
    pi0 = np.arange(4, dtype=np.int64)
    ev_i = np.asarray([0], np.int64)
    ev_j = np.asarray([3], np.int64)
    word = _kernels.events_to_word(pi0, ev_i, ev_j)
    assert word[0] == -1
