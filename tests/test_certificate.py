import dataclasses
import json
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import balanced_lines.certificate as certificate_mod
from balanced_lines.balance import scan_balanced_transpositions
from balanced_lines.certificate import (
    Border,
    Case,
    VerificationResult,
    case1_certificate,
    case2_certificate,
    certify,
    certificate_to_json,
    check_border,
    classify_case,
    initial_border,
    maximize_border,
    partition_fgh,
    verify_certificate,
    _Certifier,
    _certificate,
    _change_rows,
    _cyclic_runs,
    _merged_grid,
    _mid_rank_range,
    _mirror_on_grid,
    _nearest_left_curve,
    _replayed_swaps,
    _splice,
)
from balanced_lines.curves import (
    CurveClass,
    CurveSpec,
    classify,
    classify_track,
    find_weight_changes,
    track,
    track_all,
)
from balanced_lines.errors import BadParamsError, InsufficientBorderError, ProofGapError
from balanced_lines.geometry import Color
from balanced_lines.harness import random_instance
from balanced_lines.sequence import (
    AllowableSequence,
    build_from_points,
    permutation_at,
    random_sequence,
    step_table,
    transposition_at,
    validate,
)

from conftest import all_permutations, filled, oracle_border_problems, oracle_tracks, per_time
from golden import make_certificates


def blue_ids(seq):
    return frozenset(i for i in range(seq.n) if seq.colors[i] is Color.BLUE)


def random_mixed_sequence(tag, n_max=12):
    rng = random.Random(tag)
    n = rng.randrange(4, n_max + 1, 2)
    b = rng.randint((n + 1) // 2, n)
    return random_sequence(n, b, seed=tag)


def recorded_replays(monkeypatch) -> list[frozenset[int]]:
    """The member set of each ``track_rank`` replay from now on, in order."""
    replayed = []
    track_rank = certificate_mod._kernels.track_rank

    def recording(pi0, word, weights, member, steps):
        replayed.append(frozenset(v for v, m in enumerate(member) if m))
        return track_rank(pi0, word, weights, member, steps)

    monkeypatch.setattr(certificate_mod._kernels, "track_rank", recording)
    return replayed


N120_ENTRIES = [  # all Case 2
    row["entry"] for row in map(json.loads, make_certificates.OUT_N120.read_text().splitlines())
]


class TestClassifyCase:
    def test_two_points(self, t1):
        seq = build_from_points(t1)
        # range [1, 0] is empty, so Case 1 vacuously
        assert classify_case(seq).case is Case.CASE1

    def test_empty_range_all_blue(self):
        seq = random_sequence(2, 2, seed=0)
        assert classify_case(seq).case is Case.CASE1

    def test_separated_runs_case1(self, t2):
        # The extreme blue curve of a separated set reaches both sides of the
        # threshold over a full period, so every mid-rank curve is changing.
        seq = build_from_points(t2)
        info = classify_case(seq)
        assert info.case is Case.CASE1

    def test_red_border_fixture_is_case2(self, t_red_border):
        seq = build_from_points(t_red_border)
        info = classify_case(seq)
        assert info.case is Case.CASE2 and info.preserving_rank == 1
        assert classify(seq, CurveSpec(blue_ids(seq), 1)) is CurveClass.LT_DELTA

    def test_blue_border_fixture_is_case2(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        info = classify_case(seq)
        assert info.case is Case.CASE2 and info.preserving_rank == 1
        assert classify(seq, CurveSpec(blue_ids(seq), 1)) is CurveClass.GE_DELTA

    def test_total_and_deterministic(self):
        for s in range(30):
            seq = random_mixed_sequence(f"case:{s}")
            assert classify_case(seq) == classify_case(seq)


class TestCrossings:
    """``_Certifier.crossings`` against the blue family's tracks.

    Each blue rank's first descent and first ascent, read off the steps at
    prefix weight delta, must be the first change of that kind that
    ``find_weight_changes`` finds on the rank's track; a rank whose track
    has none has no entry.
    """

    @staticmethod
    def assert_matches_tracks(seq, seen):
        session = _Certifier(seq)
        delta, tracks = seq.delta, session.family(Color.BLUE)
        for kind, change in (("descent", (delta, delta - 1)), ("ascent", (delta - 1, delta))):
            firsts = [find_weight_changes(trk, *change)[:1] for trk in tracks]
            assert session.crossings[kind] == {k: ts[0] for k, ts in enumerate(firsts, 1) if ts}, kind
            seen.update(bool(ts) for ts in firsts)

    def test_golden_corpus(self):
        seen = Counter()
        for row in map(json.loads, make_certificates.OUT.read_text().splitlines()):
            self.assert_matches_tracks(make_certificates.build(row["entry"]), seen)
        assert seen[True] and seen[False]

    def test_random_sequences(self):
        seen = Counter()
        for s in range(200):
            self.assert_matches_tracks(random_mixed_sequence(f"cross:{s}", n_max=16), seen)
        assert seen[True] and seen[False]


class TestInvalidSequence:
    """A certificate session validates its sequence first and refuses a malformed one."""

    def test_one_changed_word_position_is_refused(self):
        # One word position changed in each golden entry with n >= 4, of
        # both cases: validate rejects every one, and so does certify, before
        # any scan (a scan could raise ProofGapError or even certify it).
        rng = random.Random(0)
        cases = Counter()
        for row in map(json.loads, make_certificates.OUT.read_text().splitlines()):
            seq = make_certificates.build(row["entry"])
            if seq.n < 4:
                continue
            cases[row["certificate"]["case"]] += 1
            word = list(seq.word)
            i = rng.randrange(len(word))
            word[i] = rng.choice([p for p in range(seq.n - 1) if p != word[i]])
            bad = AllowableSequence(seq.colors, seq.pi0, word)
            codes = validate(bad).codes
            assert codes
            message = re.escape(f"invalid sequence: {', '.join(codes)}")
            for step in (certify, classify_case, case1_certificate):
                with pytest.raises(BadParamsError, match=f"^{message}$"):
                    step(bad)
        assert set(cases) == {Case.CASE1.value, Case.CASE2.value}

    @pytest.mark.parametrize("fixture", ["t2", "t_red_border"])
    def test_truncated_word_is_refused(self, request, fixture):
        seq = build_from_points(request.getfixturevalue(fixture))
        bad = AllowableSequence(seq.colors, seq.pi0, seq.word[:-1])
        with pytest.raises(BadParamsError, match="^invalid sequence: LENGTH_MISMATCH$"):
            certify(bad)


class TestCase1:
    def test_single_pair(self, t1):
        seq = build_from_points(t1)
        cert = case1_certificate(seq)
        assert cert.target == 1 and len(cert.witnesses) == 1

    def test_no_reds_empty_certificate(self):
        seq = random_sequence(2, 2, seed=0)
        cert = case1_certificate(seq)
        assert cert.target == 0 and len(cert.witnesses) == 0
        assert verify_certificate(seq, cert).ok

    def test_per_rank_blue_left_counts(self):
        # Each per-rank witness leaves exactly k-1 blues left of the swap,
        # recounted from scratch.
        checked = 0
        for s in range(60):
            seq = random_mixed_sequence(f"c1:{s}", n_max=10)
            if classify_case(seq).case is not Case.CASE1:
                continue
            cert = case1_certificate(seq)
            assert len(cert.witnesses) >= seq.r
            perms = all_permutations(seq)
            origin = dict(cert.witness_origins)
            for w in cert.witnesses:
                k = int(origin[w.pair][1:])
                prev = perms[(w.t - 1) % seq.period]
                pos = [q for q in range(seq.n - 1)
                       if {prev[q], prev[q + 1]} == set(w.pair)]
                assert len(pos) == 1
                blues_left = sum(
                    1 for v in prev[: pos[0]] if seq.colors[v] is Color.BLUE
                )
                assert blues_left == k - 1
                checked += 1
        assert checked > 50


class TestBorders:
    def test_initial_border_blue(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        border = initial_border(seq, 1)
        assert border.color is Color.BLUE
        assert check_border(seq, border) == []

    def test_initial_border_red(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = initial_border(seq, 1)
        assert border.color is Color.RED
        assert check_border(seq, border) == []

    def test_initial_border_refuses_ranks_without_a_seed(self):
        seq = build_from_points(random_instance(24, 24, 10**6, seed=1))
        assert classify_case(seq).case is Case.CASE1  # every mid rank is delta-changing
        for k in (seq.delta, seq.b // 2 + 1):
            with pytest.raises(BadParamsError, match=f"^rank {k} outside the mid-rank range$"):
                initial_border(seq, k)
        for k in (seq.delta + 1, seq.b // 2):
            with pytest.raises(BadParamsError, match=f"^blue rank {k} is delta-changing; no border seed$"):
                initial_border(seq, k)

    def test_seed_border_is_valid_on_the_case2_corpus(self):
        # initial_border does not check its seed: the lemma of
        # _nearest_left_curve makes it valid. The checker confirms it on
        # every Case-2 golden entry.
        for entry in TestCarriedPositions.GOLDEN_CASE2 + N120_ENTRIES:
            seq = make_certificates.build(entry)
            assert check_border(seq, initial_border(seq, classify_case(seq).preserving_rank)) == []

    def test_mirror_order_at_symmetric_times(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = initial_border(seq, 1)
        perm0 = permutation_at(seq, 0)
        half = permutation_at(seq, seq.half_period)
        mirrors = border.mirror_elements()
        assert perm0.index(border.elements[0]) < perm0.index(mirrors[0])
        assert half.index(border.elements[seq.half_period]) < half.index(mirrors[seq.half_period])
        shifted = [(t + seq.half_period) % seq.period for t in range(seq.period)]
        assert list(mirrors) == [border.elements[t] for t in shifted]

    def test_corrupted_border_rejected(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = initial_border(seq, 1)
        reds = sorted(i for i in range(seq.n) if seq.colors[i] is Color.RED)
        other = next(v for v in reds if v != border.elements[0])
        bad = Border(border.color, (other,) + border.elements[1:])
        assert check_border(seq, bad) != []

    def test_short_and_wrong_color_borders(self, t_red_border):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        border = cert.border
        blue = next(v for v in range(seq.n) if seq.colors[v] is Color.BLUE)
        short = Border(border.color, border.elements[:-1])
        wrong = Border(border.color, (blue,) + border.elements[1:])
        # Neither a point past n nor a negative index, which Python would
        # read from the end, reaches the replay.
        unknown = [Border(border.color, (v,) + border.elements[1:]) for v in (999, -1)]
        assert check_border(seq, short) == [f"BAD_LENGTH expected {seq.period} got {seq.period - 1}"]
        assert check_border(seq, wrong) == ["WRONG_COLOR"]
        assert [check_border(seq, bad) for bad in unknown] == [["UNKNOWN_POINT"]] * 2
        for bad in (short, wrong, *unknown):
            result = verify_certificate(seq, dataclasses.replace(cert, border=bad))
            assert "BAD_BORDER" in result.diagnostics

    @pytest.mark.parametrize("defect", ["one element short", "one blue element"])
    @pytest.mark.parametrize("step", [maximize_border, case2_certificate], ids=lambda f: f.__name__)
    def test_malformed_border_from_outside_is_rejected(self, step, defect):
        # A border passed in from outside is checked where the session first
        # derives its rows, before anything reads it.
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        border = certify(seq).border
        assert border.color is Color.RED
        blue = next(v for v in range(seq.n) if seq.colors[v] is Color.BLUE)
        bad = {"one element short": Border(border.color, border.elements[:-1]),
               "one blue element": Border(border.color, (blue,) + border.elements[1:])}[defect]
        with pytest.raises(BadParamsError, match=f"^a border needs 2N = {seq.period} elements, all red$"):
            step(seq, bad)

    @pytest.mark.parametrize("defect, message", [
        ("last red, then first", "border leaves the threshold side"),
        ("first red, then last", "border leaves the threshold side"),
        ("weak continuity only", "border is not weakly continuous"),
        ("rightmost blue", "border is not left of its mirror"),
    ])
    @pytest.mark.parametrize("step", [maximize_border, case2_certificate, partition_fgh],
                             ids=lambda f: f.__name__)
    def test_invalid_border_from_outside_is_rejected(self, step, defect, message):
        # A border from outside must hold the threshold side, lie left of its
        # mirror and be weakly continuous. The first two hold pi^0's last
        # (first) red point for t < N and its first (last) one after; the
        # third overwrites one time of the certified border with a red point;
        # the last is a rank curve on the threshold side, above its mirror.
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        half = seq.half_period
        reds = [v for v in seq.pi0 if seq.colors[v] is Color.RED]
        border = certify(seq).border
        borders = {
            "last red, then first": Border(Color.RED, (reds[-1],) * half + (reds[0],) * half),
            "first red, then last": Border(Color.RED, (reds[0],) * half + (reds[-1],) * half),
            "rightmost blue": Border(Color.BLUE, tuple(filled(track(seq, CurveSpec(
                blue_ids(seq), seq.b)))[0][: seq.period].tolist())),
        }
        one_point = (Border(Color.RED, border.elements[:t] + (x,) + border.elements[t + 1:])
                     for t in range(seq.period) for x in reds)
        borders["weak continuity only"] = next(
            bad for bad in one_point
            if (problems := check_border(seq, bad))
            and all(p.startswith("WEAK_CONTINUITY") for p in problems))
        assert check_border(seq, borders[defect]) != []
        with pytest.raises(BadParamsError, match=f"^{message}$"):
            step(seq, borders[defect])

    @pytest.mark.parametrize("step", [maximize_border, case2_certificate, partition_fgh],
                             ids=lambda f: f.__name__)
    def test_border_from_outside_is_continuous_across_the_wrap(self, step):
        # Overwriting time 0 of a certified border breaks weak continuity
        # only on the step from 2N - 1 into time 0: the seam test is cyclic.
        seq = build_from_points(random_instance(36, 12, 10**6, seed=11))
        border = certify(seq).border
        bad = Border(border.color, (5,) + border.elements[1:])
        assert border.color is seq.colors[5] is Color.RED
        assert check_border(seq, bad) == [f"WEAK_CONTINUITY t={seq.period - 1}"] == ["WEAK_CONTINUITY t=2255"]
        with pytest.raises(BadParamsError, match="^border is not weakly continuous$"):
            step(seq, bad)

    def test_problems_match_replay_oracle(self, t_red_border, t_blue_border):
        seen = set()
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            border = initial_border(seq, classify_case(seq).preserving_rank)
            same = [v for v in range(seq.n) if seq.colors[v] is border.color]
            rng = random.Random(seq.n)
            candidates = [border, maximize_border(seq, border)]
            for _ in range(20):  # overwrite a run of times with another same-color point
                elements = list(border.elements)
                t = rng.randrange(seq.period)
                for s in range(t, min(t + rng.randint(1, 6), seq.period)):
                    elements[s] = rng.choice(same)
                candidates.append(Border(border.color, tuple(elements)))
            for cand in candidates:
                problems = check_border(seq, cand)
                assert problems == oracle_border_problems(seq, cand)
                seen.update(p.split()[0] for p in problems)
        assert seen == {"WEIGHT", "MIRROR_ORDER", "WEAK_CONTINUITY"}

    def test_maximize_reaches_fixed_point(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = maximize_border(seq, initial_border(seq, 1))
        again = maximize_border(seq, border)
        assert again.elements == border.elements

    def test_maximize_monotone(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        start = initial_border(seq, 1)
        final = maximize_border(seq, start)
        perms = all_permutations(seq)

        def position_sum(border):
            return sum(perms[t].index(e) for t, e in enumerate(border.elements))

        assert position_sum(final) >= position_sum(start)


def replayed_positions(perms, elements):
    """Position of elements[t] in pi^t, for t over [0, 2N), from scratch."""
    return [perms[t].index(e) for t, e in enumerate(elements)]


def replayed_weights_positions(seq, perms, elements):
    """Prefix weight and position of elements[t] in pi^t, for t over [0, 2N), from scratch."""
    qs = replayed_positions(perms, elements)
    return [sum(seq.weights[v] for v in perms[t][:q]) for t, q in enumerate(qs)], qs


class TestCarriedPositions:
    """Positions handed from round to round agree with from-scratch replays."""

    GOLDEN_CASE2 = [
        row["entry"] for row in map(json.loads, make_certificates.OUT.read_text().splitlines())
        if row["certificate"]["case"] == "Case2"
    ]

    def test_seed_border_comes_with_its_replayed_positions(self, t_blue_border):
        # initial_border hands its rows to the session, so certify walks no
        # border: from the blue track's rows or from the nearest-red-left
        # lookup, their forward fill must be the seed's elements and
        # positions. Every golden seed is red.
        colors = set()
        seqs = [make_certificates.build(entry) for entry in self.GOLDEN_CASE2]
        for seq in seqs + [build_from_points(t_blue_border)]:
            session = _Certifier(seq)
            token = certificate_mod._ACTIVE.set(session)
            try:
                border = initial_border(seq, classify_case(seq).preserving_rank)
            finally:
                certificate_mod._ACTIVE.reset(token)
            assert session.kept[0] is border
            perms = all_permutations(seq)
            elements, _, positions = per_time(session.kept[1], seq.period)
            assert tuple(elements.tolist()) == border.elements
            assert list(positions) == replayed_positions(perms, border.elements)
            colors.add(border.color)
        assert colors == set(Color)

    def test_kept_border_rows_carry_prefix_weights(self):
        # Border rows have the track's format: each kept row's weight is its
        # element's prefix weight, for the seed and for the final border.
        for entry in self.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            token = certificate_mod._ACTIVE.set(session)
            try:
                seed = initial_border(seq, classify_case(seq).preserving_rank)
                kept = [session.kept[1]]
                maximize_border(seq, seed)
                kept.append(session.kept[1])
            finally:
                certificate_mod._ACTIVE.reset(token)
            for rows in kept:
                for t, e, w, q in rows.tolist():
                    perm = permutation_at(seq, t)
                    assert perm[q] == e
                    assert w == sum(seq.weights[v] for v in perm[:q]), (entry, t)

    def test_improve_once_positions_match_replay(self, monkeypatch, t_red_border, t_blue_border):
        returned = []

        def recording(session, color, rows):
            out = improve_once(session, color, rows)
            if out is not None:
                returned.append(out)
            return out

        improve_once = certificate_mod._improve_once
        monkeypatch.setattr(certificate_mod, "_improve_once", recording)
        seqs = [build_from_points(t_red_border), build_from_points(t_blue_border)]
        seqs += [make_certificates.build(entry) for entry in self.GOLDEN_CASE2]
        rounds = 0
        for seq in seqs:
            returned.clear()
            start = initial_border(seq, classify_case(seq).preserving_rank)
            final = maximize_border(seq, start)
            perms = all_permutations(seq)
            for color, rows in returned:
                assert rows[0, 0] == 0 and (np.diff(rows[:, 0]) > 0).all()
                assert (np.diff(rows[:, 1:], axis=0) != 0).any(axis=1).all()  # change rows only
                elements, _, positions = per_time(rows, seq.period)
                assert list(positions) == replayed_positions(perms, elements.tolist())
            if returned:
                color, rows = returned[-1]
                assert final == Border(color, tuple(per_time(rows, seq.period)[0].tolist()))
            else:
                assert final is start
            rounds += len(returned)
        assert rounds >= len(seqs)

    def test_nearest_left_curve_matches_replay(self):
        outcomes = set()
        for s in range(12):
            seq = random_mixed_sequence(f"nl:{s}")
            session = _Certifier(seq)
            perms = all_permutations(seq)
            for color in (Color.BLUE, Color.RED):
                ids = [i for i in range(seq.n) if seq.colors[i] is color]
                for trk in track_all(seq, ids, session.steps):
                    elem = filled(trk)[0]
                    for want in (Color.BLUE, Color.RED):
                        expected = []
                        for t in range(seq.period):
                            perm = perms[t]
                            left = [q for q in range(perm.index(int(elem[t])))
                                    if seq.colors[perm[q]] is want]
                            if not left:
                                expected = None
                                break
                            expected.append((perm[left[-1]], left[-1]))
                        if expected is None:
                            with pytest.raises(ProofGapError, match="element left of position"):
                                _nearest_left_curve(session, trk, want)
                            outcomes.add("none")
                            continue
                        rows = _nearest_left_curve(session, trk, want)
                        elements, _, positions = per_time(rows, seq.period).tolist()
                        assert list(zip(elements, positions)) == expected
                        outcomes.add("found")
        assert outcomes == {"found", "none"}

    def test_mirror_positions_are_reversed_border_positions(self, t_red_border, t_blue_border):
        # The mirror rule on rows of every time, and on the compressed change
        # rows that maximisation and the F/G/H scan hold, read at sparse times:
        # 0, N - 1, N, 2N - 1, each change time and the time before it, and
        # a random sample.
        rng = random.Random(5)
        walk = certificate_mod._kernels.element_walk
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            period, half = seq.period, seq.half_period
            border = maximize_border(seq, initial_border(seq, 1))
            word, *steps = step_table(seq)
            elements = [rng.randrange(seq.n) for _ in range(period)]
            perms = all_permutations(seq)
            times = np.arange(period)
            for cand in (border, Border(border.color, tuple(elements))):
                bpos, bwt = walk(seq.pi0, word, seq.weights, cand.elements, steps)
                assert bpos == replayed_positions(perms, cand.elements)
                mpos = replayed_positions(perms, cand.mirror_elements())
                grid = np.stack((times, cand.elements, bwt, bpos), 1)
                assert list(_mirror_on_grid(seq, grid, times)) == mpos
                rows = _change_rows(grid)
                assert len(rows) < period
                sparse = {0, half - 1, half, period - 1, *rng.sample(range(period), 20)}
                sparse |= {int(t) for t0 in rows[:, 0] for t in (t0, (t0 - 1) % period)}
                sparse = sorted(sparse)
                assert list(_mirror_on_grid(seq, rows, sparse)) == [mpos[t] for t in sparse]


def replay_nearest_left(seq, positions, want):
    """Per time, the nearest want-colored element strictly left of the given position.

    The replay the rank lookup replaced: walk every permutation and scan
    left from the position. Returns the elements and their positions.
    """
    colors = seq.colors
    perm = list(seq.pi0)
    out, qs = [], []
    for t, sp in enumerate(seq.word + tuple(seq.n - 2 - p for p in seq.word)):
        q = int(positions[t]) - 1
        while q >= 0 and colors[perm[q]] is not want:
            q -= 1
        if q < 0:
            raise ProofGapError(f"no {want.value} element left of position {positions[t]} at t={t}")
        out.append(perm[q])
        qs.append(q)
        perm[sp], perm[sp + 1] = perm[sp + 1], perm[sp]
    return tuple(out), qs


def run_times(grid, run, period):
    """The times of a cyclic run of merged-grid intervals, in cyclic order."""
    ends = grid[1:].tolist() + [period]
    return [t for i in run.tolist() for t in range(grid[i], ends[i])]


class TestFastPaths:
    """The session's fast paths against the from-scratch checks they stand in for."""

    GOLDEN_SMALL = [  # the abstract sequences and two n = 48 point sets
        row["entry"] for row in map(json.loads, make_certificates.OUT.read_text().splitlines())
        if row["entry"]["kind"] == "abstract" or row["entry"] in (
            {"kind": "points", "blue": 36, "red": 12, "seed": seed} for seed in (0, 1))
    ]

    def test_every_splice_candidate_agrees_with_check_border(self, monkeypatch):
        calls = []
        splice = certificate_mod._splice

        def recording(session, c, rows, run, cand):
            out = splice(session, c, rows, run, cand)
            calls.append((c, rows, run, cand, out))
            return out

        monkeypatch.setattr(certificate_mod, "_splice", recording)
        verdicts = set()
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            calls.clear()
            certify(seq)
            perms = all_permutations(seq)
            for c, rows, run, cand_rows, out in calls:
                elements = per_time(rows, seq.period)[0]
                times = run_times(cand_rows[:, 0], run, seq.period)
                elements[times] = per_time(cand_rows, seq.period)[0][times]
                cand = Border(c, tuple(elements.tolist()))
                assert (out is None) == bool(check_border(seq, cand))
                if out is not None:
                    spliced, _, positions = per_time(out, seq.period)
                    assert tuple(spliced.tolist()) == cand.elements
                    assert list(positions) == replayed_positions(perms, cand.elements)
                verdicts.add(out is None)
        assert verdicts == {True, False}

    def test_one_point_runs_agree_with_check_border(self):
        # Overwrite a valid border with one point of its color over one or
        # three times: every such run on the abstract Case-2 corpus, and 30
        # random one-time runs on each Case-2 point set. Weak continuity
        # breaks at either seam alone, or at both.
        seen = set()
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            border = certify(seq).border
            session = _Certifier(seq)
            perms = all_permutations(seq)
            grid = np.arange(seq.period)  # a grid of single times refines any rows
            rows = np.stack((grid, border.elements, *replayed_weights_positions(seq, perms, border.elements)), 1)
            same = [v for v in range(seq.n) if seq.colors[v] is border.color]
            if entry["kind"] == "abstract":
                runs = [(t, length, x) for length in (1, 3) for t in range(seq.period) for x in same]
            else:
                rng = random.Random(seq.n)
                runs = [(rng.randrange(seq.period), 1, rng.choice(same)) for _ in range(30)]
            for t0, length, x in runs:
                run = [(t0 + i) % seq.period for i in range(length)]
                qs = [perms[t].index(x) for t in run]
                ws = [sum(seq.weights[v] for v in perms[t][:q]) for t, q in zip(run, qs)]
                cand = np.zeros((seq.period, 4), np.int64)  # read on the run only
                cand[:, 0] = grid
                cand[run, 1:] = np.stack(([x] * length, ws, qs), 1)
                out = _splice(session, border.color, rows, np.array(run), cand)
                elements = list(border.elements)
                for t in run:
                    elements[t] = x
                problems = check_border(seq, Border(border.color, tuple(elements)))
                assert (out is None) == bool(problems), (entry, run, x, problems)
                seams = {f"WEAK_CONTINUITY t={(run[0] - 1) % seq.period}": "WEAK_CONTINUITY at entry",
                         f"WEAK_CONTINUITY t={run[-1]}": "WEAK_CONTINUITY at exit"}
                if problems and all(p in seams for p in problems):
                    seen.update(seams[p] + (" only" if len(problems) == 1 else "") for p in problems)
                seen.update({p.split()[0] for p in problems} or {"valid"})
        assert seen >= {"valid", "WEIGHT", "MIRROR_ORDER", "WEAK_CONTINUITY at entry only",
                        "WEAK_CONTINUITY at exit only"}

    def test_row_test_agrees_with_forward_fill(self, monkeypatch):
        # Every candidate of every maximisation round on the Case-2 corpus
        # (the round's G ranks, then its color's family) against forward
        # fills of its rows and the border's: on the merged grid it holds the
        # candidate's values and its position less the border's at every
        # time, so it gives the same verdict (strictly right somewhere), the
        # same cyclic runs, and for each run the same spliced border. A
        # wrong verdict only changes the cost, so the golden certificates
        # cannot catch it.
        rounds = []
        improve_once = certificate_mod._improve_once

        def recording(session, c, rows):
            rounds.append((session, c, rows))
            return improve_once(session, c, rows)

        monkeypatch.setattr(certificate_mod, "_improve_once", recording)
        seen = Counter()
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            period = seq.period
            rounds.clear()
            certify(seq)
            oracle = {}  # a track's forward-filled arrays over [0, 2N), built once
            for session, c, rows in rounds:
                b_elem, b_wt, b_pos = per_time(rows, period)
                g_ids = partition_fgh(seq, Border(c, tuple(b_elem.tolist())))[1]
                for trk in session.tracks(g_ids) + session.family(c):
                    if trk not in oracle:
                        oracle[trk] = np.stack(filled(trk))[:, :period]
                    c_elem, c_wt, c_pos = oracle[trk]
                    cand, rel = _merged_grid(rows, trk.rows)
                    grid = cand[:, 0]
                    assert grid[0] == 0 and (np.diff(grid) > 0).all()
                    on_grid = per_time(np.column_stack((cand, rel)), period)
                    assert (on_grid == np.stack((c_elem, c_wt, c_pos, c_pos - b_pos))).all(), entry
                    assert (rel > 0).any() == (c_pos > b_pos).any()
                    if not (rel > 0).any():
                        seen["skipped"] += 1
                        continue
                    seen["kept"] += 1
                    runs = _cyclic_runs(rel >= 0)
                    expected = loop_cyclic_runs((c_pos >= b_pos).tolist())
                    assert [run_times(grid, run, period) for run in runs] == expected, entry
                    for run in runs:
                        if not (rel[run] > 0).any():
                            continue
                        out = _splice(session, c, rows, run, cand)
                        seen["invalid" if out is None else "spliced"] += 1
                        if out is not None:
                            times = run_times(grid, run, period)
                            spliced = np.stack((b_elem, b_wt, b_pos))
                            spliced[:, times] = c_elem[times], c_wt[times], c_pos[times]
                            assert (per_time(out, period) == spliced).all(), entry
        assert set(seen) == {"skipped", "kept", "invalid", "spliced"}

    def test_splice_reads_mirror_order_off_the_positions(self, t_red_border):
        # No splice tried on the corpus breaks mirror order alone, so hand
        # _splice a border's own element with a position at its mirror's.
        seq = build_from_points(t_red_border)
        border = certify(seq).border
        session = _Certifier(seq)
        perms = all_permutations(seq)
        bwt, bpos = replayed_weights_positions(seq, perms, border.elements)
        grid = np.arange(seq.period)  # a grid of single times refines any rows
        rows = np.stack((grid, border.elements, bwt, bpos), 1)
        mpos = _mirror_on_grid(seq, rows, grid)
        run = np.array([3])
        assert _splice(session, border.color, rows, run, rows) is not None
        at_mirror = rows.copy()
        at_mirror[:, 3] = mpos
        assert _splice(session, border.color, rows, run, at_mirror) is None

    def test_nearest_left_rank_lookup_matches_replay(self):
        outcomes = set()
        for entry in self.GOLDEN_SMALL:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            for color in (Color.BLUE, Color.RED):
                for trk in session.family(color):
                    pos = filled(trk)[2]
                    for want in (Color.BLUE, Color.RED):
                        try:
                            expected = replay_nearest_left(seq, pos, want)
                        except ProofGapError as exc:
                            with pytest.raises(ProofGapError) as got:
                                _nearest_left_curve(session, trk, want)
                            assert str(got.value) == str(exc)
                            outcomes.add("none")
                            continue
                        rows = _nearest_left_curve(session, trk, want)
                        elements, _, positions = per_time(rows, seq.period).tolist()
                        assert (tuple(elements), positions) == expected
                        outcomes.add("found")
        assert outcomes == {"found", "none"}


class TestNearestLeftLemma:
    """The lemma of ``_nearest_left_curve``, against ``check_border``.

    Every curve off the threshold side at every time, of each color's whole
    family and of three random subsets of it, on the small corpus's Case-2
    golden entries and 300 random abstract sequences (n up to 24): its
    nearest other-color curve on the left is a valid border below the
    middle rank and breaks mirror order at every time above it. The
    generator trusts this instead of checking.
    """

    def test_nearest_left_border_is_valid_exactly_below_the_middle_rank(self):
        corpora = {
            "golden": [make_certificates.build(entry) for entry in TestCarriedPositions.GOLDEN_CASE2],
            "random": [random_mixed_sequence(f"lemma:{s}", n_max=24) for s in range(300)],
        }
        outcomes = Counter()
        for corpus, seqs in corpora.items():
            for i, seq in enumerate(seqs):
                rng = random.Random(i)
                session = _Certifier(seq)
                for c in Color:
                    family = [v for v in range(seq.n) if seq.colors[v] is c]
                    subsets = [family] + [rng.sample(family, rng.randint(1, len(family)))
                                          for _ in range(3) if family]
                    for ids in subsets:
                        for k, trk in enumerate(track_all(seq, ids, session.steps), start=1):
                            if classify_track(trk) in (CurveClass.LT_DELTA, CurveClass.GT_DELTA):
                                outcomes[corpus, self.outcome(seq, session, trk, c, k, len(ids))] += 1
        assert set(outcomes) == {(corpus, kind) for corpus in corpora
                                 for kind in ("valid", "mirror order", "none on the left")}

    @staticmethod
    def outcome(seq, session, trk, c, k, size):
        """Check the lemma on one off-side rank-k curve of a subset of ``size`` c points."""
        assert 2 * k != size + 1, "a middle rank is off the threshold side everywhere"
        try:
            rows = _nearest_left_curve(session, trk, c.opposite)
        except ProofGapError:  # never above the middle rank
            assert 2 * k <= size
            return "none on the left"
        rho = tuple(per_time(rows, seq.period)[0].tolist())
        problems = check_border(seq, Border(c.opposite, rho))
        if 2 * k <= size:
            assert problems == []
            return "valid"
        assert problems == [f"MIRROR_ORDER t={t}" for t in range(seq.period)]
        return "mirror order"


def loop_cyclic_runs(flags):
    """Maximal cyclic runs of true flags, one index at a time from the first false one."""
    m = len(flags)
    if all(flags):
        return [list(range(m))]
    runs, current = [], []
    start = flags.index(False)
    for off in range(1, m + 1):
        i = (start + off) % m
        if flags[i]:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def test_cyclic_runs_match_loop():
    rng = random.Random(11)
    for _ in range(1000):
        p = rng.random()
        flags = [rng.random() < p for _ in range(rng.randint(1, 40))]
        got = [run.tolist() for run in _cyclic_runs(np.asarray(flags))]
        assert got == loop_cyclic_runs(flags), flags


class TestPartition:
    def test_partition_counts(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        border = maximize_border(seq, initial_border(seq, 1))
        f, g, h = partition_fgh(seq, border)
        assert len(f) + len(g) + len(h) == seq.b
        assert set(f) | set(g) | set(h) == set(blue_ids(seq))

    def test_border_endpoints_in_f_and_h(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        border = maximize_border(seq, initial_border(seq, 1))
        f, g, h = partition_fgh(seq, border)
        assert border.elements[0] in f
        assert border.mirror_elements()[0] in h

    def test_red_border_partitions_reds(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = maximize_border(seq, initial_border(seq, 1))
        f, g, h = partition_fgh(seq, border)
        members = set(f) | set(g) | set(h)
        assert members == {i for i in range(seq.n) if seq.colors[i] is Color.RED}


class TestCase2:
    def test_blue_border_yields_b_witnesses(self, t_blue_border):
        seq = build_from_points(t_blue_border)
        border = maximize_border(seq, initial_border(seq, 1))
        cert = case2_certificate(seq, border)
        assert cert.target == seq.b
        assert len(cert.witnesses) >= seq.b
        assert verify_certificate(seq, cert).ok

    def test_red_border_yields_r_witnesses(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = maximize_border(seq, initial_border(seq, 1))
        cert = case2_certificate(seq, border)
        assert cert.target == seq.r
        assert len(cert.witnesses) >= seq.r
        assert verify_certificate(seq, cert).ok

    def test_every_witness_reverifies(self, t_red_border):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        perms = all_permutations(seq)
        for w in cert.witnesses:
            prev = perms[(w.t - 1) % seq.period]
            pos = next(q for q in range(seq.n - 1)
                       if {prev[q], prev[q + 1]} == set(w.pair))
            assert seq.colors[prev[pos]] is not seq.colors[prev[pos + 1]]
            assert sum(seq.weights[v] for v in prev[:pos]) == seq.delta

    def test_claim_ledger_inequalities(self, t_blue_border, t_red_border):
        for inst in (t_blue_border, t_red_border):
            seq = build_from_points(inst)
            cert = certify(seq)
            if cert.case != Case.CASE2.value:
                continue
            origin = dict(cert.witness_origins)
            f_cnt = sum(1 for p, o in origin.items() if o.startswith("F"))
            h_cnt = sum(1 for p, o in origin.items() if o.startswith("H"))
            g_cnt = sum(1 for p, o in origin.items() if o.startswith("G"))
            led = cert.ledger
            assert f_cnt + h_cnt >= len(cert.f_set) + len(cert.h_set) + led.total_charges
            g_n = len(cert.g_set)
            assert g_cnt >= 2 * (g_n // 2) + (g_n % 2) - led.total_charges

    @pytest.mark.parametrize("side, kinds, b, r, seed", [
        ("F", "descents", 27, 9, 5),  # F1 carries two charges
        ("H", "ascents", 18, 6, 7),  # H1 carries one charge
    ])
    def test_starved_outer_curve_names_its_obligation(self, monkeypatch, side, kinds, b, r, seed):
        # Hide every in-window change of one outer part; its first curve then
        # fails its witness-plus-charges obligation with a fixed message.
        seq = build_from_points(random_instance(b, r, 10**6, seed=seed))
        cert = certify(seq)
        ids, charges = (
            (cert.f_set, cert.ledger.ch_f) if side == "F" else (cert.h_set, cert.ledger.ch_h)
        )
        assert charges[0] > 0
        real = certificate_mod.find_weight_changes

        def starved(trk, from_w, to_w, window=None):
            if window is not None and trk.spec.members == frozenset(ids):
                return []
            return real(trk, from_w, to_w, window)

        monkeypatch.setattr(certificate_mod, "find_weight_changes", starved)
        with pytest.raises(InsufficientBorderError) as exc:
            case2_certificate(seq, cert.border)
        assert str(exc.value) == f"{side}1 has 0 {kinds} for charge {charges[0]}"
        assert exc.value.hint == (side, 1)


    def test_starved_g_rank_pair_names_its_obligation(self, monkeypatch):
        # Hide every in-window change of G's rank pair (2, 3); that pair then
        # fails its confined-change quota with a fixed message.
        seq = build_from_points(random_instance(36, 12, 10**6, seed=0))
        cert = certify(seq)
        assert len(cert.g_set) == 4
        real = certificate_mod.find_weight_changes

        def starved(trk, from_w, to_w, window=None):
            if (window is not None and trk.spec.members == frozenset(cert.g_set)
                    and trk.spec.k in (2, 3)):
                return []
            return real(trk, from_w, to_w, window)

        monkeypatch.setattr(certificate_mod, "find_weight_changes", starved)
        with pytest.raises(InsufficientBorderError) as exc:
            case2_certificate(seq, cert.border)
        assert str(exc.value) == "G rank pair (2, 3) has 0 confined changes"
        assert exc.value.hint == ("G", 2)


class TestEventLog:
    """The scans only log events; ``_certificate`` reads the certificate off them."""

    def test_ledger_counts_the_charge_events(self):
        charged = 0
        for entry in TestCarriedPositions.GOLDEN_CASE2 + N120_ENTRIES:
            cert = certify(make_certificates.build(entry))
            charges = [e for e in cert.events if e.outcome == "charge"]
            assert cert.ledger.transactions == tuple((e.t, e.curve, e.charged) for e in charges)
            for side, chs in (("F", cert.ledger.ch_f), ("H", cert.ledger.ch_h)):
                for j, v in enumerate(chs, start=1):
                    assert v == sum(e.charged == f"{side}{j}" for e in charges), (entry, side, j)
            charged += bool(charges)
        assert charged >= 5

    @pytest.mark.parametrize("fixture", ["t1", "t_red_border"])
    def test_a_pair_found_twice_is_a_proof_gap(self, request, fixture):
        seq = build_from_points(request.getfixturevalue(fixture))
        cert = certify(seq)
        case2 = {} if cert.case == Case.CASE1.value else dict(
            border=cert.border, f_set=cert.f_set, g_set=cert.g_set, h_set=cert.h_set)
        rebuilt = _certificate(seq, Case(cert.case), cert.target, cert.events, **case2)
        assert rebuilt == cert
        first = next(e for e in cert.events if e.outcome == "witness")
        again = dataclasses.replace(first, curve="X1", t=first.t + seq.period)
        with pytest.raises(ProofGapError, match=re.escape(f"witness pair {first.pair} found twice")):
            _certificate(seq, Case(cert.case), cert.target, [*cert.events, again], **case2)


class TestCase2Properties:
    """Fresh Case-2 inputs at b:r = 3:1 and n from 24 to 40.

    The golden corpus pins Case 2 at fixed seeds only (n <= 80); these draw
    new sequences and point sets and check every Case-2 certificate.
    """

    @staticmethod
    def check(seq):
        assume(classify_case(seq).case is Case.CASE2)
        cert = certify(seq)
        result = verify_certificate(seq, cert)
        assert result.ok, result.diagnostics
        pairs = {w.pair for w in cert.witnesses}
        assert pairs <= {w.pair for w in scan_balanced_transpositions(seq)}
        assert len(pairs) >= seq.r

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 10), st.integers(0, 10**6))
    def test_abstract_sequences(self, r, seed):
        self.check(random_sequence(4 * r, 3 * r, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 10), st.integers(0, 10**6))
    def test_point_sets(self, r, seed):
        self.check(build_from_points(random_instance(3 * r, r, 10**6, seed=seed)))


def test_swap_reads_one_step_from_the_member():
    session = _Certifier(random_sequence(6, 4, seed=0))
    lo, hi, lw = session.step(0)  # left element, right element, prefix weight of one step
    other = min({0, 1, 2, 3} - {lo, hi})
    assert session.swap(0, lo, {lo, other}) == (hi, True, lw)
    assert session.swap(0, hi, {hi}) == (lo, False, lw)
    with pytest.raises(ProofGapError, match=r"^change at t=0 bypassed the tracked element$"):
        session.swap(0, other, {lo, other})
    with pytest.raises(ProofGapError, match=r"^change at t=0 does not involve exactly one member$"):
        session.swap(0, lo, {lo, hi})


@pytest.fixture
def running():
    """``start(seq)`` opens a session that the public steps share, as ``certify`` does.

    Every session it opened is closed when the test ends.
    """
    tokens = []

    def start(seq):
        session = _Certifier(seq)
        tokens.append(certificate_mod._ACTIVE.set(session))
        return session

    yield start
    for token in reversed(tokens):
        certificate_mod._ACTIVE.reset(token)


class TestProofGaps:
    """Each proof-gap check of the generator fires, word for word, on the fact it guards.

    No valid input reaches these raises, so each test tampers with one fact
    of a running session: a row of ``steps``, an entry of ``crossings``, or
    ``_improve_once`` made to improve for ever. Before a row of ``steps`` is
    changed, the session reads the border's rows and the G and F tracks, so
    that the F/G/H scan alone sees the change.
    """

    CASE1_ODD = {"kind": "abstract", "n": 8, "blue": 5, "seed": 3}  # mid-rank 2, middle rank 3
    CASE2_SMALL = {"kind": "abstract", "n": 10, "blue": 6, "seed": 3}  # G = (4, 5)
    CHARGED = {"kind": "points", "blue": 36, "red": 12, "seed": 1}  # G1 charges F1 at t=969

    @staticmethod
    def g_step(running, entry, outcome):
        """The F/G/H scan's first G event with ``outcome``, in a session ready for tampering.

        Returns the sequence, the certificate, the session, the event's step
        t, the index into ``steps`` of the column holding the step's G member
        and that of its partner.
        """
        seq = make_certificates.build(entry)
        cert = certify(seq)
        event = next(e for e in cert.events if e.curve[0] == "G" and e.outcome == outcome)
        session = running(seq)
        session.rows(cert.border)
        session.tracks(cert.g_set)
        session.tracks(cert.f_set)
        t = event.t - 1
        lo, hi, _ = session.step(t)
        cols = (1, 2) if lo in cert.g_set else (2, 1)
        return seq, cert, session, t, *cols

    def test_witness_off_delta_is_not_a_balanced_transposition(self, running):
        seq, cert, session, t, _, _ = self.g_step(running, self.CASE2_SMALL, "witness")
        session.steps[3][t] += 2  # the step's prefix weight
        event = next(e for e in cert.events if e.t == t + 1)
        with pytest.raises(ProofGapError, match=rf"^{event.curve} {event.kind} at t={t} "
                                                r"is not a balanced transposition$"):
            case2_certificate(seq, cert.border)

    def test_step_moving_no_member_is_a_proof_gap(self, running):
        seq, cert, session, t, g_col, p_col = self.g_step(running, self.CASE2_SMALL, "witness")
        partner = session.steps[p_col][t]
        session.steps[g_col][t] = next(  # the G member becomes another blue
            v for v in range(seq.n) if seq.colors[v] is Color.BLUE and v != partner)
        with pytest.raises(ProofGapError,
                           match=rf"^change at t={t} does not involve exactly one member$"):
            case2_certificate(seq, cert.border)

    def test_step_moving_another_member_bypassed_the_tracked_element(self, running):
        seq, cert, session, t, g_col, _ = self.g_step(running, self.CASE2_SMALL, "witness")
        member = session.steps[g_col][t]
        session.steps[g_col][t] = next(v for v in cert.g_set if v != member)
        with pytest.raises(ProofGapError, match=rf"^change at t={t} bypassed the tracked element$"):
            case2_certificate(seq, cert.border)

    def test_deflection_past_no_f_point_missed_f(self, running):
        seq, cert, session, t, _, p_col = self.g_step(running, self.CHARGED, "charge")
        assert session.steps[p_col][t] in cert.f_set
        session.steps[p_col][t] = next(v for v in range(seq.n) if seq.colors[v] is Color.BLUE)
        with pytest.raises(ProofGapError, match=rf"^deflected G descent at t={t} missed F$"):
            case2_certificate(seq, cert.border)

    def test_charge_target_that_does_not_move_shows_no_change(self, running):
        seq, cert, session, t, _, p_col = self.g_step(running, self.CHARGED, "charge")
        at_t = [trk.element_at(t) for trk in session.tracks(cert.f_set)]
        other = next(v for v in at_t if v != session.steps[p_col][t])
        session.steps[p_col][t] = other
        j = 1 + at_t.index(other)
        with pytest.raises(ProofGapError,
                           match=rf"^charge target F{j} shows no matching change at t={t}$"):
            case2_certificate(seq, cert.border)

    @pytest.mark.parametrize("kind", ["descent", "ascent"])
    def test_changing_rank_without_a_crossing_is_a_proof_gap(self, running, kind):
        seq = make_certificates.build(self.CASE1_ODD)
        session = running(seq)
        assert classify_case(seq).case is Case.CASE1 and list(_mid_rank_range(seq)) == [2]
        del session.crossings[kind][2]
        with pytest.raises(ProofGapError, match=rf"^B_2 has no {kind} despite being delta-changing$"):
            case1_certificate(seq)

    def test_middle_curve_without_a_crossing_is_a_proof_gap(self, running):
        seq = make_certificates.build(self.CASE1_ODD)
        session = running(seq)
        for ts in session.crossings.values():
            ts.pop(3, None)
        with pytest.raises(ProofGapError, match=r"^middle curve B_3 never crosses the threshold$"):
            case1_certificate(seq)

    def test_endless_improvement_hits_the_termination_bound(self, monkeypatch):
        seq = make_certificates.build(self.CASE2_SMALL)
        monkeypatch.setattr(certificate_mod, "_improve_once", lambda s, c, rows: (c, rows))
        with pytest.raises(ProofGapError,
                           match=r"^border improvement exceeded its termination bound$"):
            certify(seq)


class TestHalfPeriodSession:
    """The session's step table replays one half-period and mirrors it: pi^{t+N} = reverse(pi^t)."""

    def test_steps_match_transposition_at(self):
        for entry in TestFastPaths.GOLDEN_SMALL:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            for t in range(seq.period):
                tr = transposition_at(seq, t + 1)
                assert session.step(t) == (tr.lo_id, tr.hi_id, tr.left_weight), (entry, t)
                assert session.swap(t, tr.lo_id, {tr.lo_id}) == (tr.hi_id, True, tr.left_weight)
                assert session.swap(t, tr.hi_id, {tr.hi_id}) == (tr.lo_id, False, tr.left_weight)

    def test_row_counts_match_permutation_at(self):
        # An element at position q with prefix weight w has (q + c.weight * w)/2
        # points of color c on its left: the count _splice's seam test and
        # _nearest_left_curve read off rows. Every row of every family track.
        for entry in TestFastPaths.GOLDEN_SMALL:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            perms = {}
            for family in Color:
                for trk in session.family(family):
                    for t, e, w, q in trk.rows.tolist():
                        perm = perms.setdefault(t, permutation_at(seq, t))
                        assert perm[q] == e
                        for color in Color:
                            left = sum(seq.colors[v] is color for v in perm[:q])
                            assert (q + color.weight * w) // 2 == left, (entry, t, q, color)

    def test_keeps_the_two_subsets_asked_for_last(self, monkeypatch):
        replayed = recorded_replays(monkeypatch)
        seq = build_from_points(random_instance(9, 5, 10**6, seed=3))
        session = _Certifier(seq)
        a, b, c = frozenset({0, 1}), frozenset({2, 3, 4}), blue_ids(seq)
        first = session.tracks(a)
        assert session.tracks(b) is session.tracks(b) and session.tracks(a) is first
        assert session.family(Color.BLUE) is session.tracks(c)  # a family is a subset
        assert session.tracks(a) is first
        assert replayed == [a, b, c]
        session.tracks(b)  # asked for before a and c, so dropped
        assert replayed == [a, b, c, b]

    def test_replays_the_half_word_once(self, monkeypatch):
        words = []
        run_word = certificate_mod._kernels.run_word

        def recording(pi0, word, weights):
            words.append(tuple(word))
            return run_word(pi0, word, weights)

        monkeypatch.setattr(certificate_mod._kernels, "run_word", recording)
        seq = build_from_points(random_instance(9, 5, 10**6, seed=3))
        session = _Certifier(seq)
        session.step(seq.period - 1)
        session.step(0)
        assert words == [seq.word]

    def test_every_replayed_subset_matches_oracle_tracks(self, monkeypatch):
        # Every subset a Case-2 certify reads off the step table (both
        # families, each round's G, and F and H), every rank at every time of
        # the period, mirrored half included, against ranks taken from
        # scratch in each permutation.
        replayed = []
        track_rank = certificate_mod._kernels.track_rank

        def recording(pi0, word, weights, member, steps):
            logs = track_rank(pi0, word, weights, member, steps)
            replayed.append((frozenset(v for v, m in enumerate(member) if m), logs))
            return logs

        monkeypatch.setattr(certificate_mod._kernels, "track_rank", recording)
        subsets = 0
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            replayed.clear()
            seq = make_certificates.build(entry)
            assert certify(seq).case == Case.CASE2.value
            perms = np.array(all_permutations(seq))
            for members, logs in replayed:
                got = np.stack([per_time(rows, seq.period + 1) for rows in logs], axis=2)
                assert np.array_equal(got, oracle_tracks(seq, members, perms)), (entry, sorted(members))
            subsets += len(replayed)
        assert subsets > 3 * len(TestCarriedPositions.GOLDEN_CASE2)


class TestCertify:
    def test_t1_one_witness(self, t1):
        seq = build_from_points(t1)
        cert = certify(seq)
        assert cert.case == Case.CASE1.value and len(cert.witnesses) == 1

    def test_witnesses_subset_of_scan(self):
        for s in range(40):
            seq = random_mixed_sequence(f"sub:{s}")
            cert = certify(seq)
            scan_pairs = {w.pair for w in scan_balanced_transpositions(seq)}
            assert {w.pair for w in cert.witnesses} <= scan_pairs
            assert len(cert.witnesses) >= seq.r

    def test_fuzzed_sequences(self):
        for s in range(150):
            seq = random_mixed_sequence(f"fz:{s}")
            cert = certify(seq)
            result = verify_certificate(seq, cert)
            assert result.ok, result.diagnostics

    def test_failed_obligation_is_proof_gap(self, monkeypatch, t_red_border):
        # The maximized border is a fixed point, so a failed Case-2 obligation
        # there leaves nothing to improve: certify reports a proof gap.
        def insufficient(seq, border):
            raise InsufficientBorderError("planted shortfall", hint=("G", 1))

        monkeypatch.setattr(certificate_mod, "case2_certificate", insufficient)
        seq = build_from_points(t_red_border)
        expected = "obligation failed at a fixed-point border: planted shortfall"
        with pytest.raises(ProofGapError, match=expected):
            certify(seq)

    def test_one_replay_per_color_family_and_nothing_left_behind(self, monkeypatch):
        # Within one certify call the steps share one session: run_word runs
        # once, for the step table, and each color's family is read off the
        # table at most once. No border is walked: the seed border comes with
        # its change rows, and maximisation hands the final border's to the
        # F/G/H scan. The session, table included, is gone when the call
        # returns and nothing is cached on the sequence.
        replays = []
        kernels = certificate_mod._kernels
        track_rank, run_word, element_walk = kernels.track_rank, kernels.run_word, kernels.element_walk

        def counting_track_rank(pi0, word, weights, member, steps):
            replays.append(frozenset(v for v, m in enumerate(member) if m))
            return track_rank(pi0, word, weights, member, steps)

        def counting_run_word(pi0, word, weights):
            replays.append("run_word")
            return run_word(pi0, word, weights)

        def counting_element_walk(pi0, word, weights, elems, steps):
            replays.append("element_walk")
            return element_walk(pi0, word, weights, elems, steps)

        monkeypatch.setattr(kernels, "track_rank", counting_track_rank)
        monkeypatch.setattr(kernels, "run_word", counting_run_word)
        monkeypatch.setattr(kernels, "element_walk", counting_element_walk)
        cases = set()
        for b, r, seed in ((24, 24, 1), (36, 12, 0), (27, 9, 5)):
            seq = build_from_points(random_instance(b, r, 10**6, seed=seed))
            before = dict(vars(seq))
            replays.clear()
            cert = certify(seq)
            cases.add(cert.case)
            families = [frozenset(v for v in range(seq.n) if seq.colors[v] is c) for c in Color]
            assert replays.count("run_word") == 1
            assert all(replays.count(f) <= 1 for f in families)
            if cert.case == Case.CASE1.value:
                assert replays == ["run_word"]  # the step table; no track
            else:
                assert replays.count("element_walk") == 0
            assert certificate_mod._ACTIVE.get() is None
            assert verify_certificate(seq, cert).ok
            assert vars(seq) == before
        assert cases == {Case.CASE1.value, Case.CASE2.value}

    def test_builds_a_per_time_border_at_most_twice(self, monkeypatch):
        # Maximisation holds the border as change rows: a Case-2 certify
        # builds the seed's Border and, if any round improved it, the
        # returned one, however many rounds it takes.
        built, rounds = [], []
        border_type, improve_once = certificate_mod.Border, certificate_mod._improve_once

        def counting_border(*args):
            built.append(args)
            return border_type(*args)

        def counting_rounds(*args):
            rounds.append(args)
            return improve_once(*args)

        monkeypatch.setattr(certificate_mod, "Border", counting_border)
        monkeypatch.setattr(certificate_mod, "_improve_once", counting_rounds)
        most = 0
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            built.clear()
            rounds.clear()
            cert = certify(make_certificates.build(entry))
            assert len(built) == (1 if len(rounds) == 1 else 2), entry
            assert cert.border.elements == built[-1][1]
            most = max(most, len(rounds))
        assert most > 2

    def test_scans_the_kept_border_on_its_rows(self, monkeypatch):
        # The F/G/H scan reads the final border's positions and its mirror's
        # off the change rows the session kept: it expands nothing per time
        # and walks no border.
        calls = []
        repeat, walk = np.repeat, certificate_mod._kernels.element_walk
        golden = {json.dumps(row["entry"], sort_keys=True): row["certificate"]
                  for row in map(json.loads, make_certificates.OUT.read_text().splitlines())}
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            token = certificate_mod._ACTIVE.set(session)
            try:
                border = maximize_border(seq, initial_border(seq, classify_case(seq).preserving_rank))
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(np, "repeat", lambda *a, **k: calls.append("repeat") or repeat(*a, **k))
                    m.setattr(certificate_mod._kernels, "element_walk",
                              lambda *a: calls.append("element_walk") or walk(*a))
                    cert = case2_certificate(seq, border)
            finally:
                certificate_mod._ACTIVE.reset(token)
            assert session.kept[0] is border
            assert calls == [], entry
            assert json.loads(certificate_to_json(cert)) == golden[json.dumps(entry, sort_keys=True)]

    def test_no_subset_replayed_twice_in_a_call(self, monkeypatch):
        # Each maximisation round asks for its G and then the border color's
        # family, and the session keeps the two subsets asked for last: no
        # family, G, F or H is read off the table twice in one call.
        replayed = recorded_replays(monkeypatch)
        borders = set()
        for entry in TestCarriedPositions.GOLDEN_CASE2 + N120_ENTRIES:
            replayed.clear()
            borders.add(certify(make_certificates.build(entry)).border.color)
            assert Counter(replayed).most_common(1)[0][1] == 1, entry
        assert borders == set(Color)

    def test_no_replay_of_an_empty_subset(self, monkeypatch):
        # Four Case-2 golden entries end with an empty G: its tracks are an
        # empty list, made without a replay of the word.
        members = []
        track_rank = certificate_mod._kernels.track_rank

        def recording(pi0, word, weights, member, steps):
            members.append(sum(member))
            return track_rank(pi0, word, weights, member, steps)

        monkeypatch.setattr(certificate_mod._kernels, "track_rank", recording)
        empty_g = 0
        for entry in TestCarriedPositions.GOLDEN_CASE2 + N120_ENTRIES:
            members.clear()
            empty_g += not certify(make_certificates.build(entry)).g_set
            assert members and 0 not in members, entry
        assert empty_g == 4

    def test_no_offside_curve_right_of_final_border(self, t_red_border, t_blue_border):
        # No threshold-avoiding curve at a mirror-sandwiched rank (k at most
        # half the family, the only ranks the counting uses) lies strictly
        # right of the final border; the replacement device would fire there.
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            cert = certify(seq)
            border = cert.border
            bpos = np.array(replayed_positions(all_permutations(seq), border.elements))
            c = border.color
            f, g, h = partition_fgh(seq, border)
            families = [tuple(sorted(set(f) | set(g) | set(h)))]
            if g:
                families.append(g)
            for ids in families:
                for k in range(1, len(ids) // 2 + 1):
                    _, wt, pos = filled(track(seq, CurveSpec(frozenset(ids), k)))
                    wt = wt[: seq.period]
                    off = (wt < seq.delta).all() if c is Color.BLUE else (wt > seq.delta).all()
                    strictly_right = (pos[: seq.period] > bpos[: seq.period]).all()
                    assert not (off and strictly_right)


class TestVerifier:
    def test_accepts_genuine(self, t_red_border):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        assert verify_certificate(seq, cert).ok

    def test_a_rejection_is_false(self):
        assert not bool(VerificationResult(False, ("X",)))
        assert bool(VerificationResult(True, ()))

    def test_duplicate_pair_detected(self, t2):
        seq = build_from_points(t2)
        cert = certify(seq)
        tampered = cert.__class__(
            case=cert.case,
            target=cert.target,
            witnesses=cert.witnesses + (cert.witnesses[0],),
            witness_origins=cert.witness_origins,
            events=cert.events,
        )
        result = verify_certificate(seq, tampered)
        assert not result.ok
        assert any(d.startswith("DUPLICATE_PAIR") for d in result.diagnostics)

    def test_tampered_left_weight_detected(self, t2):
        seq = build_from_points(t2)
        cert = certify(seq)
        w = cert.witnesses[0]
        fake = w.__class__(w.blue_id, w.red_id, w.source, w.t + 1, w.left_weight)
        tampered = cert.__class__(
            case=cert.case,
            target=cert.target,
            witnesses=(fake,) + cert.witnesses[1:],
            witness_origins=cert.witness_origins,
            events=cert.events,
        )
        result = verify_certificate(seq, tampered)
        assert not result.ok
        assert any(d.startswith("NOT_BALANCED") for d in result.diagnostics)

    def test_swapped_colors_detected(self, t_red_border):
        # The pair and its time still name a balanced swap, but the witness
        # calls its red point blue and its blue point red.
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        w, *rest = cert.witnesses
        swapped = dataclasses.replace(w, blue_id=w.red_id, red_id=w.blue_id)
        assert swapped.pair == w.pair
        result = verify_certificate(seq, dataclasses.replace(cert, witnesses=(swapped, *rest)))
        assert result.diagnostics == (f"NOT_BALANCED {w.pair} at t={w.t}",)

    def test_short_count_detected(self, t2):
        seq = build_from_points(t2)
        cert = certify(seq)
        tampered = cert.__class__(
            case=cert.case,
            target=cert.target,
            witnesses=cert.witnesses[:1],
            witness_origins=cert.witness_origins[:1],
            events=cert.events,
        )
        result = verify_certificate(seq, tampered)
        assert any(d.startswith("INSUFFICIENT_COUNT") for d in result.diagnostics)

    @pytest.mark.parametrize("seed", [5, 7])
    def test_partition_must_be_the_borders_time0_split(self, seed):
        seq = build_from_points(random_instance(27, 9, 10**6, seed=seed))
        cert = certify(seq)
        assert cert.case == Case.CASE2.value and cert.g_set
        assert verify_certificate(seq, cert).ok
        by_pos = seq.pi0.index
        f, g, h = cert.f_set, cert.g_set, cert.h_set
        moved = {  # one point moved to another part, each part kept in time-0 order
            "F to H": (f[:-1], g, tuple(sorted(h + f[-1:], key=by_pos))),
            "G to F": (tuple(sorted(f + g[:1], key=by_pos)), g[1:], h),
        }
        for label, (f2, g2, h2) in moved.items():
            tampered = dataclasses.replace(cert, f_set=f2, g_set=g2, h_set=h2)
            result = verify_certificate(seq, tampered)
            assert "BAD_PARTITION" in result.diagnostics, label

    def test_witness_without_time_detected(self, t_red_border):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        w, *rest = cert.witnesses
        tampered = dataclasses.replace(cert, witnesses=(dataclasses.replace(w, t=None), *rest))
        result = verify_certificate(seq, tampered)
        assert result.diagnostics == (f"NOT_BALANCED {w.pair}: witness carries no time",)

    @pytest.mark.parametrize("field", ["border", "ledger", "f_set", "g_set", "h_set"])
    def test_missing_case2_data_detected(self, t_red_border, field):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        assert cert.case == Case.CASE2.value
        result = verify_certificate(seq, dataclasses.replace(cert, **{field: None}))
        assert result.diagnostics == ("MISSING_CASE2_DATA",)

    def test_negative_charge_detected(self):
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        cert = certify(seq)
        assert cert.ledger.ch_f == (1, 0, 0, 0)
        negative = dataclasses.replace(cert.ledger, ch_f=(1, -1, 0, 0))
        result = verify_certificate(seq, dataclasses.replace(cert, ledger=negative))
        assert result.diagnostics == ("BAD_LEDGER negative charge",
                                      "BAD_LEDGER charge/transaction mismatch")

    @pytest.mark.parametrize("seed, parts, diagnostic", [
        (5, "FH", "LEDGER_FH_COUNT"),  # no F/H witness to spare
        (9, "G", "LEDGER_G_COUNT"),  # no G witness to spare
    ])
    def test_part_count_short_by_one_detected(self, seed, parts, diagnostic):
        # Drop one witness of the parts (and its origin) from a certificate
        # with none to spare there but some in all.
        seq = build_from_points(random_instance(36, 12, 10**6, seed=seed))
        cert = certify(seq)
        assert verify_certificate(seq, cert).ok and len(cert.witnesses) > cert.target
        origin = dict(cert.witness_origins)
        drop = next(w.pair for w in cert.witnesses if origin[w.pair][0] in parts)
        tampered = dataclasses.replace(
            cert,
            witnesses=tuple(w for w in cert.witnesses if w.pair != drop),
            witness_origins=tuple((p, o) for p, o in cert.witness_origins if p != drop),
        )
        assert verify_certificate(seq, tampered).diagnostics == (diagnostic,)

    @pytest.mark.parametrize("bad", ["", None])
    def test_malformed_origin_label_detected(self, bad):
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        cert = certify(seq)
        (pair, label), *rest = cert.witness_origins
        result = verify_certificate(seq, dataclasses.replace(cert, witness_origins=((pair, bad), *rest)))
        t = next(w.t for w in cert.witnesses if w.pair == pair)
        assert not result.ok
        assert f"BAD_ORIGIN {pair} at t={t}: {bad} is not {label}" in result.diagnostics

    def test_malformed_transaction_detected(self):
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        cert = certify(seq)
        (t, source, charged), *rest = cert.ledger.transactions
        ledger = dataclasses.replace(cert.ledger, transactions=((t, charged), *rest))
        result = verify_certificate(seq, dataclasses.replace(cert, ledger=ledger))
        assert result.diagnostics == ("BAD_LEDGER malformed transaction",)

    def test_missing_target_detected(self):
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        cert = certify(seq)
        assert cert.case == Case.CASE2.value
        result = verify_certificate(seq, dataclasses.replace(cert, target=None))
        assert result.diagnostics == ("BAD_TARGET None",)

    def test_forged_empty_case1_certificate_detected(self):
        # A target of 0 and no witnesses agree with each other; the count is
        # the theorem's, r = 24.
        seq = build_from_points(random_instance(24, 24, 10**6, seed=1))
        cert = certify(seq)
        assert cert.case == Case.CASE1.value and seq.r == 24
        forged = dataclasses.replace(cert, target=0, witnesses=(), witness_origins=(), events=())
        assert verify_certificate(seq, forged).diagnostics == ("BAD_TARGET 0", "INSUFFICIENT_COUNT 0 < 24")

    def test_case2_target_is_the_size_of_the_parts(self):
        seq = build_from_points(random_instance(36, 12, 10**6, seed=1))
        cert = certify(seq)
        assert cert.case == Case.CASE2.value
        assert cert.target == len(cert.f_set) + len(cert.g_set) + len(cert.h_set)
        result = verify_certificate(seq, dataclasses.replace(cert, target=cert.target - 1))
        assert result.diagnostics == (f"BAD_TARGET {cert.target - 1}",)

    def test_charge_moved_between_f_curves_detected(self):
        seq = build_from_points(random_instance(27, 9, 10**6, seed=5))
        cert = certify(seq)
        assert cert.ledger.ch_f == (2, 0, 0)
        moved = dataclasses.replace(cert.ledger, ch_f=(1, 1, 0))
        result = verify_certificate(seq, dataclasses.replace(cert, ledger=moved))
        assert result.diagnostics == ("BAD_LEDGER charge/transaction mismatch",)

    def test_relabelled_g_origin_detected(self):
        relabelled = 0
        for i in range(6):
            seq = build_from_points(random_instance(36, 12, 10**6, seed=7000 + i))
            cert = certify(seq)
            if cert.case != Case.CASE2.value:
                continue
            origins = list(cert.witness_origins)
            j = next(j for j, (_, label) in enumerate(origins) if label.startswith("G"))
            pair, label = origins[j]
            origins[j] = (pair, "F1")
            result = verify_certificate(seq, dataclasses.replace(cert, witness_origins=tuple(origins)))
            t = next(w.t for w in cert.witnesses if w.pair == pair)
            assert f"BAD_ORIGIN {pair} at t={t}: F1 is not {label}" in result.diagnostics
            relabelled += 1
        assert relabelled == 5

    def test_case1_origin_names_the_blue_rank(self):
        seq = build_from_points(random_instance(24, 24, 10**6, seed=1))
        cert = certify(seq)
        assert cert.case == Case.CASE1.value and verify_certificate(seq, cert).ok
        (pair, label), *rest = cert.witness_origins
        wrong = f"B{int(label[1:]) + 1}"
        tampered = dataclasses.replace(cert, witness_origins=((pair, wrong), *rest))
        t = next(w.t for w in cert.witnesses if w.pair == pair)
        result = verify_certificate(seq, tampered)
        assert result.diagnostics == (f"BAD_ORIGIN {pair} at t={t}: {wrong} is not {label}",)

    def test_replay_stops_at_the_latest_time(self, monkeypatch):
        made = []

        class CountingWalk(certificate_mod._ReferenceWalk):
            def __iter__(self):
                for p in super().__iter__():
                    made.append(p)
                    yield p

        monkeypatch.setattr(certificate_mod, "_ReferenceWalk", CountingWalk)
        seq = random_sequence(8, 5, seed=0)
        swaps = _replayed_swaps(seq, [3, 7 + seq.period, 3 - seq.period])
        assert len(made) == 7  # steps 0 .. 6; time t is the step from pi^{t-1}
        assert swaps[3] == swaps[3 - seq.period] == (made[2], permutation_at(seq, 2))
        assert swaps[7 + seq.period] == (made[6], permutation_at(seq, 6))

    def test_single_replay_matches_transposition_at(self):
        # Every golden witness time, and the same times moved by -1, +1, a
        # period and minus three periods; the swap, the permutation before it
        # and the verifier's NOT_BALANCED verdicts agree with per-witness
        # from-scratch replays.
        rows = [json.loads(line) for line in make_certificates.OUT.read_text().splitlines()]
        n120 = [json.loads(line) for line in make_certificates.OUT_N120.read_text().splitlines()]
        checked = 0
        for row in rows + n120:
            seq = make_certificates.build(row["entry"])
            times = [w["t"] for w in row["certificate"]["witnesses"]]
            shifts = (0, -1, 1, seq.period, -3 * seq.period)
            moved = [t + shifts[i % len(shifts)] for i, t in enumerate(times)]
            if row in n120:  # per-witness replays at n = 120 are slow; sample them
                times, moved = times[::4], moved[1::4]
            swaps = _replayed_swaps(seq, times + moved)
            for t in times + moved:
                q, prev = swaps[t]
                tr = transposition_at(seq, t)
                assert (q, prev[q], prev[q + 1]) == (tr.pos, tr.lo_id, tr.hi_id)
                assert sum(seq.weights[v] for v in prev[:q]) == tr.left_weight
                assert prev == permutation_at(seq, t - 1)
                checked += 1
        assert checked > 1300
        for row in rows[::7]:
            seq = make_certificates.build(row["entry"])
            cert = certify(seq)
            witnesses = tuple(dataclasses.replace(w, t=w.t + (i % 3) - 1)
                              for i, w in enumerate(cert.witnesses))
            result = verify_certificate(seq, dataclasses.replace(cert, witnesses=witnesses))
            expected = []
            for w in witnesses:
                tr = transposition_at(seq, w.t)
                if not (tr.pair == w.pair and tr.left_weight == seq.delta):
                    expected.append(f"NOT_BALANCED {w.pair} at t={w.t}")
            assert [d for d in result.diagnostics if d.startswith("NOT_BALANCED")] == expected


class TestCertificateJson:
    def test_deterministic(self, t_red_border):
        seq = build_from_points(t_red_border)
        a = certificate_to_json(certify(seq))
        b = certificate_to_json(certify(seq))
        assert a == b
        data = json.loads(a)
        assert data["case"] == "Case2"
        assert data["border"]["color"] == "R"
        assert len(data["witnesses"]) == data["target"] == 3
