import dataclasses
import json
import random

import numpy as np
import pytest

import balanced_lines.certificate as certificate_mod
from balanced_lines.balance import scan_balanced_transpositions
from balanced_lines.certificate import (
    Border,
    Case,
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
    _cyclic_runs,
    _mirror_positions,
    _nearest_left_curve,
    _replayed_swaps,
    _splice,
    _swap,
)
from balanced_lines.curves import CurveClass, CurveSpec, classify, track, track_all
from balanced_lines.errors import InsufficientBorderError, ProofGapError
from balanced_lines.geometry import Color
from balanced_lines.harness import random_instance
from balanced_lines.sequence import (
    build_from_points,
    permutation_at,
    random_sequence,
    transposition_at,
)

from conftest import all_permutations, oracle_border_problems
from golden import make_certificates


def blue_ids(seq):
    return frozenset(i for i in range(seq.n) if seq.colors[i] is Color.BLUE)


def random_mixed_sequence(tag, n_max=12):
    rng = random.Random(tag)
    n = rng.randrange(4, n_max + 1, 2)
    b = rng.randint((n + 1) // 2, n)
    return random_sequence(n, b, seed=tag)


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

    def test_mirror_order_at_symmetric_times(self, t_red_border):
        seq = build_from_points(t_red_border)
        border = initial_border(seq, 1)
        perm0 = permutation_at(seq, 0)
        half = permutation_at(seq, seq.half_period)
        mirrors = border.mirror_elements()
        assert perm0.index(border.element_at(0)) < perm0.index(mirrors[0])
        assert half.index(border.element_at(seq.half_period)) < half.index(mirrors[seq.half_period])
        assert list(mirrors) == [border.element_at(t + seq.half_period) for t in range(seq.period)]

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
        assert check_border(seq, short) == [f"BAD_LENGTH expected {seq.period} got {seq.period - 1}"]
        assert check_border(seq, wrong) == ["WRONG_COLOR"]
        for bad in (short, wrong):
            result = verify_certificate(seq, dataclasses.replace(cert, border=bad))
            assert "BAD_BORDER" in result.diagnostics

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


class TestCarriedPositions:
    """Positions handed from round to round agree with from-scratch replays."""

    GOLDEN_CASE2 = [
        row["entry"] for row in map(json.loads, make_certificates.OUT.read_text().splitlines())
        if row["certificate"]["case"] == "Case2"
    ]

    def test_improve_once_positions_match_replay(self, monkeypatch, t_red_border, t_blue_border):
        returned = []

        def recording(session, border, bpos):
            out = improve_once(session, border, bpos)
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
            for border, positions in returned:
                assert list(positions) == replayed_positions(perms, border.elements)
            assert final == (returned[-1][0] if returned else start)
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
                for trk in track_all(seq, ids):
                    for want in (Color.BLUE, Color.RED):
                        expected = []
                        for t in range(seq.period):
                            perm = perms[t]
                            left = [q for q in range(perm.index(int(trk.elem[t])))
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
                        elements, positions = _nearest_left_curve(session, trk, want)
                        assert list(zip(elements, positions)) == expected
                        outcomes.add("found")
        assert outcomes == {"found", "none"}

    def test_mirror_positions_are_reversed_border_positions(self, t_red_border, t_blue_border):
        rng = random.Random(5)
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            border = maximize_border(seq, initial_border(seq, 1))
            elements = [rng.randrange(seq.n) for _ in range(seq.period)]
            walk = _Certifier(seq).walk
            for cand in (border, Border(border.color, tuple(elements))):
                bpos = walk(cand.elements)
                assert bpos == replayed_positions(all_permutations(seq), cand.elements)
                assert list(_mirror_positions(seq, bpos)) == walk(cand.mirror_elements())


def replay_nearest_left(seq, positions, want):
    """Per time, the nearest want-colored element strictly left of the given position.

    The replay the rank lookup replaced: walk every permutation and scan
    left from the position. Returns the elements and their positions.
    """
    colors = seq.colors
    perm = list(seq.pi0)
    out, qs = [], []
    for t, sp in enumerate(seq.full_word()):
        q = int(positions[t]) - 1
        while q >= 0 and colors[perm[q]] is not want:
            q -= 1
        if q < 0:
            raise ProofGapError(f"no {want.value} element left of position {positions[t]} at t={t}")
        out.append(perm[q])
        qs.append(q)
        perm[sp], perm[sp + 1] = perm[sp + 1], perm[sp]
    return tuple(out), qs


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

        def recording(session, border, bpos, run, elem, wt, pos):
            out = splice(session, border, bpos, run, elem, wt, pos)
            calls.append((border, run.tolist(), elem.tolist(), out))
            return out

        monkeypatch.setattr(certificate_mod, "_splice", recording)
        verdicts = set()
        for entry in TestCarriedPositions.GOLDEN_CASE2:
            seq = make_certificates.build(entry)
            calls.clear()
            certify(seq)
            perms = all_permutations(seq)
            for border, run, elem, out in calls:
                elements = list(border.elements)
                for t, e in zip(run, elem):
                    elements[t] = e
                cand = Border(border.color, tuple(elements))
                assert (out is None) == bool(check_border(seq, cand))
                if out is not None:
                    assert out[0] == cand
                    assert list(out[1]) == replayed_positions(perms, cand.elements)
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
            bpos = np.asarray(replayed_positions(perms, border.elements))
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
                out = _splice(session, border, bpos, np.array(run), np.array([x] * length),
                              np.array(ws), np.array(qs))
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

    def test_splice_reads_mirror_order_off_the_positions(self, t_red_border):
        # No splice tried on the corpus breaks mirror order alone, so hand
        # _splice a border's own element with a position at its mirror's.
        seq = build_from_points(t_red_border)
        border = certify(seq).border
        session = _Certifier(seq)
        bpos = np.asarray(session.walk(border.elements))
        mpos = _mirror_positions(seq, bpos)
        t = 3
        run, elem = np.array([t]), np.array([border.elements[t]])
        wt = np.array([session.where(border.elements[t], t)[1]])
        assert _splice(session, border, bpos, run, elem, wt, bpos[run]) is not None
        assert _splice(session, border, bpos, run, elem, wt, mpos[run]) is None

    def test_nearest_left_rank_lookup_matches_replay(self):
        outcomes = set()
        for entry in self.GOLDEN_SMALL:
            seq = make_certificates.build(entry)
            session = _Certifier(seq)
            for color in (Color.BLUE, Color.RED):
                for trk in session.family(color):
                    for want in (Color.BLUE, Color.RED):
                        try:
                            expected = replay_nearest_left(seq, trk.pos, want)
                        except ProofGapError as exc:
                            with pytest.raises(ProofGapError) as got:
                                _nearest_left_curve(session, trk, want)
                            assert str(got.value) == str(exc)
                            outcomes.add("none")
                            continue
                        assert _nearest_left_curve(session, trk, want) == expected
                        outcomes.add("found")
        assert outcomes == {"found", "none"}


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
        assert border.element_at(0) in f
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


def test_swap_reads_one_step_from_the_member():
    steps = ([4], [7], [2])  # run_word's lo, hi, lw for one step
    assert _swap(steps, 0, 4) == (7, True, 2)
    assert _swap(steps, 0, 7) == (4, False, 2)
    with pytest.raises(ProofGapError, match=r"^change at t=0 bypassed the tracked element$"):
        _swap(steps, 0, 5)


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
        # Within one certify call the steps share one session: each color's
        # family is replayed at most once, and so is run_word. The session
        # is gone when the call returns and nothing is cached on the sequence.
        replays = []
        track_rank, run_word = certificate_mod._kernels.track_rank, certificate_mod._kernels.run_word

        def counting_track_rank(pi0, word, weights, member):
            replays.append(frozenset(v for v, m in enumerate(member) if m))
            return track_rank(pi0, word, weights, member)

        def counting_run_word(pi0, word, weights):
            replays.append("run_word")
            return run_word(pi0, word, weights)

        monkeypatch.setattr(certificate_mod._kernels, "track_rank", counting_track_rank)
        monkeypatch.setattr(certificate_mod._kernels, "run_word", counting_run_word)
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
                assert replays == [families[0], "run_word"]  # the blue family, then the steps
            assert certificate_mod._ACTIVE.get() is None
            assert vars(seq) == before
        assert cases == {Case.CASE1.value, Case.CASE2.value}

    def test_no_offside_curve_right_of_final_border(self, t_red_border, t_blue_border):
        # No threshold-avoiding curve at a mirror-sandwiched rank (k at most
        # half the family, the only ranks the counting uses) lies strictly
        # right of the final border; the replacement device would fire there.
        for inst in (t_red_border, t_blue_border):
            seq = build_from_points(inst)
            cert = certify(seq)
            border = cert.border
            bpos = _Certifier(seq).walk(border.elements)
            c = border.color
            f, g, h = partition_fgh(seq, border)
            families = [tuple(sorted(set(f) | set(g) | set(h)))]
            if g:
                families.append(g)
            for ids in families:
                for k in range(1, len(ids) // 2 + 1):
                    trk = track(seq, CurveSpec(frozenset(ids), k))
                    wt = trk.wt[: seq.period]
                    off = (wt < seq.delta).all() if c is Color.BLUE else (wt > seq.delta).all()
                    strictly_right = (trk.pos[: seq.period] > bpos[: seq.period]).all()
                    assert not (off and strictly_right)


class TestVerifier:
    def test_accepts_genuine(self, t_red_border):
        seq = build_from_points(t_red_border)
        cert = certify(seq)
        assert verify_certificate(seq, cert).ok

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
