import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_lines.balance import (
    check_correspondence,
    enumerate_balanced_lines,
    scan_balanced_transpositions,
    witnesses_to_json,
)
from balanced_lines.errors import CollinearWitnessError
from balanced_lines.geometry import Color, validate_general_position
from balanced_lines.harness import random_instance
from balanced_lines.sequence import build_from_points, random_sequence

from conftest import all_permutations, make_instance, oracle_balanced_pairs, oracle_scan_pairs


class TestEnumerate:
    def test_two_points(self, t1):
        witnesses = enumerate_balanced_lines(t1)
        assert {w.pair for w in witnesses} == {(0, 1)}
        w = next(iter(witnesses))
        assert t1.color_of(w.blue_id) is Color.BLUE
        assert t1.color_of(w.red_id) is Color.RED

    def test_all_blue_empty(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "B")])
        assert enumerate_balanced_lines(inst) == set()
        assert min(inst.b, inst.r) == 0

    def test_separated_three(self, t2):
        witnesses = enumerate_balanced_lines(t2)
        assert {w.pair for w in witnesses} == oracle_balanced_pairs(t2)
        assert len(witnesses) == 3

    @pytest.mark.parametrize("rows, message", [
        # Blue 0 and blue 2 coincide: the first pair already fails.
        ([(0, 0, "B"), (5, 1, "R"), (0, 0, "B"), (2, 7, "R")], "point 2 is collinear with (0, 1)"),
        # Blue 2 sits on red 5, which blue 0 reaches before blue 2 is a centre.
        ([(0, 0, "B"), (5, 1, "R"), (3, 8, "B"), (2, 7, "R"), (-4, 6, "B"), (3, 8, "R")],
         "point 2 is collinear with (0, 5)"),
        # Points 1..4 lie on y = x; blue 0 is clear of them.
        ([(0, 5, "B"), (1, 1, "R"), (2, 2, "B"), (3, 3, "R"), (4, 4, "B"), (9, 0, "R")],
         "point 3 is collinear with (2, 1)"),
        # Points 1, 3 and 4 lie on y = 0.
        ([(7, 1, "B"), (0, 0, "R"), (2, 9, "B"), (5, 0, "B"), (-3, 0, "R"), (4, -6, "R")],
         "point 4 is collinear with (3, 1)"),
    ])
    def test_degenerate_input_names_first_collinear_point(self, rows, message):
        # The first failing pair in blue-major order, and its smallest third point.
        with pytest.raises(CollinearWitnessError) as exc:
            enumerate_balanced_lines(make_instance(rows))
        assert str(exc.value) == message

    def test_parallel_spanned_lines_still_enumerate(self):
        inst = make_instance([(0, 0, "B"), (4, 0, "R"), (1, 3, "B"), (5, 3, "R"), (2, 7, "R"),
                              (-3, 5, "B")])
        report = validate_general_position(inst)
        assert report.parallel_pair_pairs and not report.collinear_triples
        pairs = {w.pair for w in enumerate_balanced_lines(inst)}
        assert pairs == oracle_balanced_pairs(inst) == {(0, 1), (2, 3), (4, 5)}


class TestScan:
    def test_two_points(self, t1):
        seq = build_from_points(t1)
        witnesses = scan_balanced_transpositions(seq)
        assert len(witnesses) == 1
        w = next(iter(witnesses))
        assert w.t == 1 and w.left_weight == 0

    def test_monochromatic_empty(self):
        seq = random_sequence(2, 2, seed=0)
        assert scan_balanced_transpositions(seq) == set()

    def test_count_meets_lower_bound(self):
        for seed in range(50):
            seq = random_sequence(8, 5, seed=seed)
            witnesses = scan_balanced_transpositions(seq)
            assert len(witnesses) >= seq.r == 3
            assert {w.pair for w in witnesses} == oracle_scan_pairs(seq)

    def test_witness_left_weight_is_delta(self):
        seq = random_sequence(10, 7, seed=4)
        for w in scan_balanced_transpositions(seq):
            assert w.left_weight == seq.delta
            assert seq.colors[w.blue_id] is Color.BLUE
            assert seq.colors[w.red_id] is Color.RED

    def test_mirror_swap_also_balanced(self):
        # The same pair's swap in (N, 2N] has left weight delta as well.
        seq = random_sequence(8, 5, seed=21)
        perms = all_permutations(seq)
        witnessed = {w.pair: w.t for w in scan_balanced_transpositions(seq)}
        word2 = list(seq.word) + [seq.n - 2 - p for p in seq.word]
        for t in range(seq.half_period + 1, seq.period + 1):
            p = word2[t - 1]
            prev = perms[t - 1]
            pair = (min(prev[p], prev[p + 1]), max(prev[p], prev[p + 1]))
            if pair in witnessed:
                left = sum(seq.weights[v] for v in prev[:p])
                assert left == seq.delta


class TestCorrespondence:
    def test_two_points(self, t1):
        report = check_correspondence(t1)
        assert report.equal
        assert {w.pair for w in report.geometric} == {(0, 1)}

    def test_separated(self, t2):
        report = check_correspondence(t2)
        assert report.equal
        assert len(report.geometric) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_fuzzed_instances(self, seed):
        import random

        rng = random.Random(f"corr:{seed}")
        n = rng.randrange(2, 13, 2)
        r = rng.randint(0, n // 2)
        inst = random_instance(n - r, r, 50, seed=seed)
        report = check_correspondence(inst)
        assert report.equal
        assert {w.pair for w in report.geometric} == oracle_balanced_pairs(inst)

    @pytest.mark.parametrize("b, r", [(100, 100), (120, 80)])
    def test_lines_benchmark_shapes(self, b, r):
        # The n=200 shapes of the `lines-n200` benchmark workload.
        report = check_correspondence(random_instance(b, r, 10**6, seed=1))
        assert report.equal and len(report.geometric) >= r

    def test_oracle_at_n40(self):
        inst = random_instance(24, 16, 10**6, seed=3)
        assert {w.pair for w in enumerate_balanced_lines(inst)} == oracle_balanced_pairs(inst)


class TestWitnessJson:
    def test_sorted_and_stable(self, t2):
        witnesses = enumerate_balanced_lines(t2)
        text = witnesses_to_json(witnesses, t2.delta)
        data = json.loads(text)
        assert data["count"] == 3 and data["delta"] == 0
        assert data["pairs"] == sorted(data["pairs"])
        assert witnesses_to_json(witnesses, t2.delta) == text
