import json

import numpy as np
import pytest

from balanced_lines.curves import (
    CurveClass,
    CurveSpec,
    classify,
    classify_change,
    classify_track,
    find_weight_changes,
    mirror_track,
    WeightTrack,
    track,
    track_all,
)
from balanced_lines.certificate import Case, classify_case
from balanced_lines.errors import BadParamsError, MixedColorsError, ProofGapError
from balanced_lines.geometry import Color
from balanced_lines.sequence import build_from_points, random_sequence, reverse_sequence

from conftest import oracle_track
from golden import make_certificates


def blue_ids(seq):
    return frozenset(i for i in range(seq.n) if seq.colors[i] is Color.BLUE)


def red_ids(seq):
    return frozenset(i for i in range(seq.n) if seq.colors[i] is Color.RED)


class TestTrack:
    def test_leftmost_of_everything_has_zero_weight(self):
        seq = random_sequence(8, 5, seed=0)
        trk = track(seq, CurveSpec(frozenset(range(seq.n)), 1))
        assert (trk.wt == 0).all()
        assert (trk.pos == 0).all()

    def test_singleton_reversal_identity(self):
        seq = random_sequence(6, 3, seed=8)
        v = 2
        trk = track(seq, CurveSpec(frozenset([v]), 1))
        n_half = seq.half_period
        assert trk.weight_at(n_half) == 2 * seq.delta - seq.weights[v] - trk.weight_at(0)

    def test_matches_oracle(self, t2):
        seq = build_from_points(t2)
        members = blue_ids(seq)
        trk = track(seq, CurveSpec(members, 2))
        expected = oracle_track(seq, members, 2)
        for t in (0, 3, 7, 11, seq.period - 1, seq.period):
            assert (trk.element_at(t), trk.weight_at(t)) == expected[t]

    def test_matches_oracle_on_random_sequences(self):
        for seed in range(10):
            seq = random_sequence(8, 5, seed=seed)
            for members in (blue_ids(seq), red_ids(seq)):
                for k in range(1, len(members) + 1):
                    trk = track(seq, CurveSpec(members, k))
                    expected = oracle_track(seq, members, k)
                    got = [(trk.element_at(t), trk.weight_at(t)) for t in range(seq.period + 1)]
                    assert got == expected

    def test_strong_continuity(self):
        for seed in range(20):
            seq = random_sequence(10, 6, seed=seed)
            for k in (1, 3, 6):
                trk = track(seq, CurveSpec(blue_ids(seq), k))
                assert np.abs(np.diff(trk.wt)).max() <= 1
                assert np.abs(np.diff(trk.pos)).max() <= 1

    def test_bad_spec(self):
        with pytest.raises(BadParamsError):
            CurveSpec(frozenset(), 1)
        with pytest.raises(BadParamsError):
            CurveSpec(frozenset([1, 2]), 3)


class TestTrackAll:
    def assert_every_rank_matches_oracle(self, seq):
        for members in (blue_ids(seq), red_ids(seq)):
            tracks = track_all(seq, members)
            assert [trk.spec.k for trk in tracks] == list(range(1, len(members) + 1))
            for trk in tracks:
                expected = oracle_track(seq, members, trk.spec.k)
                got = [(int(e), int(w)) for e, w in zip(trk.elem, trk.wt)]
                assert got == expected

    @pytest.mark.parametrize("n, blue, seed", [(8, 5, 0), (10, 5, 1), (12, 8, 2)])
    def test_case1_sequences_match_oracle(self, n, blue, seed):
        seq = random_sequence(n, blue, seed=seed)
        assert classify_case(seq).case is Case.CASE1
        self.assert_every_rank_matches_oracle(seq)

    @pytest.mark.parametrize("n, blue, seed", [(10, 6, 3), (10, 7, 32), (12, 9, 18)])
    def test_case2_sequences_match_oracle(self, n, blue, seed):
        seq = random_sequence(n, blue, seed=seed)
        assert classify_case(seq).case is Case.CASE2
        self.assert_every_rank_matches_oracle(seq)

    def test_case2_point_sets_match_oracle(self, t_red_border, t_blue_border):
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            assert classify_case(seq).case is Case.CASE2
            self.assert_every_rank_matches_oracle(seq)

    def test_empty_subset_has_no_tracks(self):
        assert track_all(random_sequence(4, 2, seed=0), ()) == []

    def test_corrupted_step_breaks_continuity(self, monkeypatch):
        # Position -1 swaps the last and the first element, which no adjacent
        # transposition does, so some blue rank jumps across the permutation.
        seq = random_sequence(8, 5, seed=0)
        word = list(seq.full_word())
        word[seq.half_period + 3] = -1
        monkeypatch.setattr(seq, "full_word", lambda: word)
        with pytest.raises(ProofGapError, match="strong continuity"):
            for trk in track_all(seq, blue_ids(seq)):
                trk.wt
        with pytest.raises(ProofGapError, match="strong continuity"):
            for k in range(1, seq.b + 1):
                track(seq, CurveSpec(blue_ids(seq), k))


class TestMirror:
    def test_element_shift(self):
        seq = random_sequence(8, 5, seed=5)
        spec = CurveSpec(blue_ids(seq), 2)
        base = track(seq, spec)
        mirror = mirror_track(seq, spec)
        for t in range(seq.period):
            assert mirror.element_at(t) == base.element_at(t - seq.half_period)

    def test_blue_weight_identity(self):
        seq = random_sequence(8, 5, seed=6)
        spec = CurveSpec(blue_ids(seq), 2)
        base = track(seq, spec)
        mirror = mirror_track(seq, spec)
        for t in range(seq.period):
            assert mirror.weight_at(t + seq.half_period) == 2 * seq.delta - 1 - base.weight_at(t)

    def test_threshold_flip(self):
        # Wherever a blue curve is at or above the threshold, its mirror is below.
        seq = random_sequence(10, 7, seed=3)
        spec = CurveSpec(blue_ids(seq), 3)
        base, mirror = track(seq, spec), mirror_track(seq, spec)
        for t in range(seq.period):
            if base.weight_at(t) >= seq.delta:
                assert mirror.weight_at(t + seq.half_period) < seq.delta

    def test_involution(self):
        seq = random_sequence(6, 4, seed=1)
        spec = CurveSpec(blue_ids(seq), 2)
        twice = mirror_track(seq, mirror_track(seq, spec).spec)
        base = track(seq, spec)
        assert (twice.elem == base.elem).all()


class TestClassify:
    def test_two_point_red(self):
        seq = random_sequence(2, 1, seed=0)
        cls = classify(seq, CurveSpec(red_ids(seq), 1))
        # delta = 0; the red curve's weight takes values 0 and 1 over a period.
        assert cls is CurveClass.CHANGING

    def test_rightmost_blue_on_separated(self, t2):
        seq = build_from_points(t2)
        cls = classify(seq, CurveSpec(blue_ids(seq), seq.b))
        trk = track(seq, CurveSpec(blue_ids(seq), seq.b))
        lo = trk.wt[: seq.period].min()
        expected = CurveClass.GE_DELTA if lo >= seq.delta else CurveClass.CHANGING
        assert cls is expected

    def test_changing_detected(self):
        seq = random_sequence(8, 5, seed=10)
        spec = CurveSpec(blue_ids(seq), 1)
        trk = track(seq, spec)
        wt = trk.wt[: seq.period]
        cls = classify(seq, spec)
        if (wt >= seq.delta).any() and (wt < seq.delta).any():
            assert cls is CurveClass.CHANGING

    def test_mixed_colors_rejected(self):
        seq = random_sequence(4, 2, seed=0)
        with pytest.raises(MixedColorsError):
            classify(seq, CurveSpec(frozenset(range(4)), 1))


class TestFindWeightChanges:
    def test_constant_track(self):
        seq = random_sequence(8, 5, seed=0)
        trk = track(seq, CurveSpec(frozenset(range(seq.n)), 1))
        assert find_weight_changes(trk, 0, 1) == []

    def test_window_semantics(self):
        seq = random_sequence(6, 4, seed=13)
        trk = track(seq, CurveSpec(blue_ids(seq), 2))
        delta = seq.delta
        all_changes = find_weight_changes(trk, delta, delta - 1)
        windowed = find_weight_changes(trk, delta, delta - 1, window=(0, 5))
        assert windowed == [t for t in all_changes if t < 5]

    def test_every_window_matches_weight_at(self):
        seq = random_sequence(8, 5, seed=2)
        delta = seq.delta
        windows = ((0, seq.period), (0, seq.half_period), (7, 19), (seq.period - 3, seq.period))
        for trk in track_all(seq, blue_ids(seq)):
            for from_w, to_w in ((delta, delta - 1), (delta - 1, delta)):
                for lo, hi in windows:
                    expected = [t for t in range(lo, hi)
                                if trk.weight_at(t) == from_w and trk.weight_at(t + 1) == to_w]
                    assert find_weight_changes(trk, from_w, to_w, window=(lo, hi)) == expected

    def test_requires_unit_step(self):
        seq = random_sequence(6, 4, seed=13)
        trk = track(seq, CurveSpec(blue_ids(seq), 2))
        with pytest.raises(BadParamsError):
            find_weight_changes(trk, 0, 2)

    def test_changing_blue_has_both_change_kinds(self):
        for seed in range(30):
            seq = random_sequence(8, 5, seed=seed)
            for k in range(1, seq.b + 1):
                spec = CurveSpec(blue_ids(seq), k)
                if classify(seq, spec) is CurveClass.CHANGING:
                    trk = track(seq, spec)
                    assert find_weight_changes(trk, seq.delta, seq.delta - 1)
                    assert find_weight_changes(trk, seq.delta - 1, seq.delta)


def filled_classify(trk, color, delta):
    """The classification read off the forward-filled weights."""
    on_side = color.weight * (trk.wt[: trk.period] - delta) >= 0
    blue = color is Color.BLUE
    if on_side.all():
        return CurveClass.GE_DELTA if blue else CurveClass.LE_DELTA
    if not on_side.any():
        return CurveClass.LT_DELTA if blue else CurveClass.GT_DELTA
    return CurveClass.CHANGING


def filled_changes(trk, from_w, to_w, lo, hi):
    """Weight changes in [lo, hi) found by comparing neighbours in the forward-filled weights."""
    wt = trk.wt
    return (lo + np.flatnonzero((wt[lo:hi] == from_w) & (wt[lo + 1 : hi + 1] == to_w))).tolist()


class TestChangeRows:
    """Reads off a track's change rows agree with its forward-filled arrays."""

    def test_golden_sequences(self):
        rows = [json.loads(line) for line in make_certificates.OUT.read_text().splitlines()]
        tracks = 0
        for row in rows[::3]:
            seq = make_certificates.build(row["entry"])
            delta, period = seq.delta, seq.period
            windows = ((0, period), (0, seq.half_period), (period // 3, period // 2),
                       (period - 1, period))
            for color, members in ((Color.BLUE, blue_ids(seq)), (Color.RED, red_ids(seq))):
                for trk in track_all(seq, members):
                    assert classify_track(trk) is filled_classify(trk, color, delta)
                    edges = {t + d for t, *_ in trk.rows for d in (-1, 0, 1)} | {period + 1}
                    for t in sorted(edges):  # each side of every change, and past the period
                        assert trk.element_at(t) == trk.elem[t % period]
                        assert trk.weight_at(t) == trk.wt[t % period]
                        assert trk.position_at(t) == trk.pos[t % period]
                    for from_w in range(delta - 2, delta + 2):
                        for to_w in (from_w - 1, from_w + 1):
                            for lo, hi in windows:
                                assert find_weight_changes(trk, from_w, to_w, window=(lo, hi)) \
                                    == filled_changes(trk, from_w, to_w, lo, hi)
                    tracks += 1
        assert tracks > 300

    @pytest.mark.parametrize("changes, message", [
        ([(0, 1, 0, 2), (4, 1, 0, 4), (9, 1, 0, 2)], "strong continuity"),  # position jumps by 2
        ([(0, 1, 0, 2), (4, 1, 2, 2), (9, 1, 0, 2)], "strong continuity"),  # weight jumps by 2
        ([(0, 1, 0, 2), (4, 2, 1, 3)], "not periodic"),
    ])
    def test_rows_are_checked_on_first_read(self, changes, message):
        seq = random_sequence(6, 4, seed=13)
        trk = WeightTrack(seq, CurveSpec(blue_ids(seq), 1), changes)
        with pytest.raises(ProofGapError, match=message):
            trk.rows


class TestChangeDichotomy:
    def test_every_change_classifies(self):
        # The change dichotomy at every threshold change of every blue curve.
        for seed in range(15):
            seq = random_sequence(8, 5, seed=seed)
            members = blue_ids(seq)
            for k in range(1, len(members) + 1):
                spec = CurveSpec(members, k)
                trk = track(seq, spec)
                for t in find_weight_changes(trk, seq.delta, seq.delta - 1):
                    ev = classify_change(seq, spec, t, "descent")
                    assert ev.balanced == (seq.colors[ev.partner] is Color.RED)
                for t in find_weight_changes(trk, seq.delta - 1, seq.delta):
                    ev = classify_change(seq, spec, t, "ascent")
                    assert ev.balanced == (seq.colors[ev.partner] is Color.RED)

    def test_full_set_changes_always_balanced(self):
        # With the whole blue set there is no same-color non-member to deflect to.
        for seed in range(15):
            seq = random_sequence(8, 6, seed=seed)
            members = blue_ids(seq)
            for k in range(1, len(members) + 1):
                spec = CurveSpec(members, k)
                trk = track(seq, spec)
                for t in find_weight_changes(trk, seq.delta, seq.delta - 1):
                    assert classify_change(seq, spec, t, "descent").balanced
                    assert classify_change(seq, spec, t, "descent").members_left == k - 1

    def test_reverse_sequence_sees_mirrored_events(self):
        # A descent of a curve at time t is an ascent of the reversed
        # sequence's curve at time -(t+1), and both classify identically.
        seq = random_sequence(6, 4, seed=19)
        rev = reverse_sequence(seq)
        members = blue_ids(seq)
        for k in range(1, len(members) + 1):
            spec = CurveSpec(members, k)
            trk = track(seq, spec)
            for t in find_weight_changes(trk, seq.delta, seq.delta - 1):
                ev = classify_change(seq, spec, t, "descent")
                rev_t = (-(t + 1)) % rev.period
                rev_ev = classify_change(rev, spec, rev_t, "ascent")
                assert {rev_ev.member, rev_ev.partner} == {ev.member, ev.partner}
                assert rev_ev.balanced == ev.balanced
                assert rev_ev.members_left == ev.members_left


class TestCsvDump:
    def test_csv_shape(self):
        seq = random_sequence(4, 2, seed=0)
        trk = track(seq, CurveSpec(blue_ids(seq), 1))
        lines = trk.to_csv().strip().splitlines()
        assert lines[0] == "time,element,weight"
        assert len(lines) == seq.period + 2
