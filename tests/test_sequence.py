import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balanced_lines.geometry as geometry_mod
from balanced_lines.errors import BadParamsError, DegenerateInputError, ProofGapError
from balanced_lines.geometry import Color, _sweep_slope, perturb, validate_general_position
from balanced_lines.harness import random_instance
from balanced_lines.sequence import (
    AllowableSequence,
    build_from_points,
    permutation_at,
    random_sequence,
    reverse_sequence,
    sequence_from_text,
    sequence_to_text,
    step_table,
    transposition_at,
    validate,
)
from balanced_lines.balance import scan_balanced_transpositions

from conftest import (
    all_permutations,
    make_instance,
    oracle_general_position,
    oracle_random_sequence,
    oracle_sweep,
    oracle_sweep_slope,
    oracle_validate_word,
)
from golden import make_certificates


def counting_fractions(monkeypatch):
    """Record every ``Fraction`` the sweep makes; only its exact sort makes any."""
    made = []
    monkeypatch.setattr(geometry_mod, "Fraction", lambda *a: made.append(a) or Fraction(*a))
    return made


def small_bound_draws():
    """300 point rows at bounds 1 to 3, shifted by 0, 10**17 or 10**400.

    Small bounds make degenerate draws; a shift keeps every verdict and
    word but rounds the float keys together (10**17) or past range (10**400).
    """
    rng = random.Random(5)
    draws = []
    for k in range(300):
        bound, n = rng.randint(1, 3), 2 * rng.randint(1, 4)
        shift = (0, 10**17, 10**400)[k % 3]
        draws.append([(shift + Fraction(rng.randint(-bound, bound), d),
                       shift + Fraction(rng.randint(-bound, bound), d), "BR"[i % 2])
                      for i, d in enumerate(rng.choices((1, 2, 3), k=n))])
    return draws


def degenerate_message(inst):
    report = validate_general_position(inst)
    return (
        f"instance has {len(report.collinear_triples)} collinear triple(s), "
        f"{len(report.parallel_pair_pairs)} parallel spanned pair(s), and "
        f"{len(report.coincident_pairs)} coincident pair(s)"
    )


small_coords = st.integers(1, 3).flatmap(
    lambda den: st.integers(-5 * den, 5 * den).map(lambda num: Fraction(num, den))
)


class TestBuildFromPoints:
    def test_two_points(self, t1):
        seq = build_from_points(t1)
        assert seq.n == 2
        assert sorted(seq.pi0) == [0, 1]
        assert seq.word == (0,)

    def test_triangle(self):
        inst = make_instance([(0, 0, "B"), (4, 1, "R"), (1, 3, "B"), (9, 17, "R")])
        seq = build_from_points(inst)
        assert len(seq.word) == 6
        assert validate(seq).clean

    def test_separated_word_length(self, t2):
        seq = build_from_points(t2)
        assert len(seq.word) == 15
        assert validate(seq).clean

    def test_degenerate_refused(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")])
        with pytest.raises(DegenerateInputError):
            build_from_points(inst)

    def test_swap_step_has_pair_adjacent(self, t2):
        # Each word step swaps the pair whose spanned line is perpendicular to
        # the sweep at that moment; the pair must be adjacent just before.
        seq = build_from_points(t2)
        perms = all_permutations(seq)
        for t in range(1, seq.half_period + 1):
            prev, cur = perms[t - 1], perms[t]
            p = seq.word[t - 1]
            assert prev[p] == cur[p + 1] and prev[p + 1] == cur[p]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_instances_build_valid_sequences(self, seed):
        inst = random_instance(3, 3, 30, seed=seed)
        seq = build_from_points(inst)
        assert validate(seq).clean

    def test_sub_float_angle_gaps_sorted_exactly(self, monkeypatch):
        # Two spanned directions differing by ~1e-61 radians collide as float
        # keys; the exact-sign fallback must still order the sweep correctly.
        big = 10**30
        inst = make_instance([
            (0, 0, "B"), (big, 1, "B"), (5, 7, "R"), (5 + 2 * big + 1, 9, "R"),
        ])
        made = counting_fractions(monkeypatch)
        seq = build_from_points(inst)
        assert validate(seq).clean
        assert made  # the exact sort ran

    @pytest.mark.parametrize("rows", [
        [(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")],  # a collinear triple
        [(0, 0, "B"), (1, 2, "R"), (5, 0, "B"), (6, 2, "R")],  # two parallel pairs
    ], ids=["collinear", "parallel"])
    def test_equal_float_neighbours_are_degenerate_without_exact_sort(self, monkeypatch, rows):
        inst = make_instance(rows)
        made = counting_fractions(monkeypatch)
        assert inst.sweep_order is None and made == []
        assert not oracle_general_position(inst).clean

    def test_non_adjacent_swap_is_a_proof_gap(self):
        # A strict order swaps adjacent elements only; a corrupted memo is a bug, not bad input.
        inst = random_instance(4, 4, 50, seed=3)
        pi0, events = inst.sweep_order
        events = events.copy()
        events[:, [0, -1]] = events[:, [-1, 0]]
        inst.sweep_order = (pi0, events)
        with pytest.raises(ProofGapError, match="non-adjacent swap"):
            build_from_points(inst)


class TestSweepAgainstOracle:
    """The one-pass sweep against ``oracle_sweep``, a Fraction-keyed order built from scratch."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda half: st.lists(st.tuples(small_coords, small_coords), min_size=2 * half, max_size=2 * half)
    ))
    def test_small_coordinates(self, xy):
        inst = make_instance([(x, y, "BR"[i % 2]) for i, (x, y) in enumerate(xy)])
        if oracle_general_position(inst).clean:
            seq = build_from_points(inst)
            assert (seq.pi0, seq.word) == oracle_sweep(inst)
        else:
            with pytest.raises(DegenerateInputError) as exc:
                build_from_points(inst)
            assert str(exc.value) == degenerate_message(inst)

    @pytest.mark.parametrize("rows", [
        [(0, 0, "B"), (0, 0, "R"), (1, 2, "B"), (3, 1, "R")],  # a coincident pair
        [(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")],  # a collinear triple
        # 0-1 and 2-3 are parallel with opposite projection signs: 1 projects
        # past 0, but 3 projects short of 2, so their i < j vectors point apart
        [(0, 0, "B"), (1, 2, "R"), (5, 0, "B"), (4, -2, "R"), (9, 7, "B"), (-3, 8, "R")],
    ], ids=["coincident", "collinear", "parallel-opposite"])
    def test_degenerate_kinds_report_their_counts(self, rows):
        inst = make_instance(rows)
        report = validate_general_position(inst)
        assert not report.clean and report == oracle_general_position(inst)
        with pytest.raises(DegenerateInputError) as exc:
            build_from_points(inst)
        assert str(exc.value) == degenerate_message(inst)

    def test_past_float_range(self):
        rng = random.Random(11)
        big = 10**400
        for n in (2, 4, 8):
            inst = make_instance([
                (rng.randint(-big, big), big + rng.randint(-big // 3, big // 3), "BR"[i % 2])
                for i in range(n)
            ])
            assert oracle_general_position(inst).clean
            seq = build_from_points(inst)
            assert (seq.pi0, seq.word) == oracle_sweep(inst)
            assert validate(seq).clean

    def test_clean_build_makes_no_gcd_pass(self, monkeypatch):
        directions = []
        real = geometry_mod._pair_directions

        def counting(coords):
            directions.append(1)
            return real(coords)

        monkeypatch.setattr(geometry_mod, "_pair_directions", counting)
        for seed in range(4):
            build_from_points(random_instance(6, 6, 10**6, seed=seed))
            build_from_points(random_instance(12, 4, 2, seed=seed))
        assert directions == []
        with pytest.raises(DegenerateInputError):
            build_from_points(make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")]))
        assert directions == [1]

    def test_validated_build_makes_one_exact_pass(self, monkeypatch):
        # Passes count from generation on: an accepted draw brings its sweep,
        # and each rejected draw (bound 2 rejects many) makes one of its own.
        passes, directions = [], []
        real_sweep = geometry_mod._exact_sweep
        monkeypatch.setattr(geometry_mod, "_exact_sweep", lambda n, c: passes.append(c) or real_sweep(n, c))
        real = geometry_mod._pair_directions
        monkeypatch.setattr(geometry_mod, "_pair_directions", lambda c: directions.append(1) or real(c))
        insts = [random_instance(6, 6, 10**6, seed=seed) for seed in range(4)]
        insts += [random_instance(12, 4, 2, seed=seed) for seed in range(4)]
        generated = len(passes)
        assert generated > len(insts)  # some draws were rejected
        for inst in insts:
            assert passes.count(inst.scaled_coords()) == 1
            assert validate_general_position(inst).clean
            seq = build_from_points(inst)
            assert (seq.pi0, seq.word) == oracle_sweep(inst)
        assert len(passes) == generated and directions == []

    def test_perturb_tests_candidates_by_the_sweep(self, monkeypatch):
        directions = []
        real = geometry_mod._pair_directions
        monkeypatch.setattr(geometry_mod, "_pair_directions", lambda c: directions.append(1) or real(c))
        inst = make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R"), (0, 5, "B"), (5, 5, "R")])
        moved = perturb(inst, seed=0)
        assert moved is not inst and moved.sweep_order is not None
        assert directions == []
        assert oracle_general_position(moved).clean

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda bound: st.integers(1, 4).flatmap(
        lambda half: st.lists(
            st.tuples(st.integers(1, 3), st.integers(-bound, bound), st.integers(-bound, bound)),
            min_size=2 * half, max_size=2 * half))))
    def test_verdicts_agree_at_small_bounds(self, rows):
        def fresh():
            return make_instance([(Fraction(x, d), Fraction(y, d), "BR"[i % 2])
                                  for i, (d, x, y) in enumerate(rows)])

        validated = fresh()
        clean = validate_general_position(validated).clean
        gcd_clean = geometry_mod._general_position_report(
            validated.n, geometry_mod._pair_directions(validated.scaled_coords())).clean
        assert clean == gcd_clean == oracle_general_position(validated).clean
        if clean:
            expected = oracle_sweep(validated)
            for inst in (validated, fresh()):
                seq = build_from_points(inst)
                assert (seq.pi0, seq.word) == expected

    def test_golden_corpus_needs_small_slopes(self):
        # The coord_bound entries of the golden sweep corpus start off u0 = (1, 0).
        from golden import make_sweeps

        slopes = {
            oracle_sweep_slope(make_sweeps.instance(entry))
            for entry in make_sweeps.corpus() if "coord_bound" in entry
        }
        assert slopes == {1, 2}


class TestSweepSlope:
    def test_matches_fraction_rule(self):
        # Small grids with many pairs one row apart forbid the small slopes.
        rng = random.Random(7)
        slopes = []
        for _ in range(600):
            n = rng.choice((4, 6, 8, 10))
            inst = make_instance([
                (rng.randint(-6, 6), rng.randint(-2, 2), "BR"[i % 2]) for i in range(n)
            ])
            coords = inst.scaled_coords()
            if len(set(coords)) < n:
                continue
            k = _sweep_slope(coords)
            assert k == oracle_sweep_slope(inst)
            slopes.append(k)
        assert len(slopes) >= 300 and max(slopes) >= 3

    @pytest.mark.parametrize("seed", range(20))
    def test_pi0_sorts_by_the_chosen_slope(self, seed):
        inst = random_instance(4, 4, 3, seed=seed)
        k = oracle_sweep_slope(inst)
        pts = inst.points
        expected = sorted(range(inst.n), key=lambda i: pts[i].x + k * pts[i].y)
        assert list(build_from_points(inst).pi0) == expected


class TestSweepBlocks:
    """The sweep forms its exact operands a block of events at a time; tiny
    blocks put a block edge between every few neighbour pairs."""

    # A coincident pair, a collinear triple, and parallel pairs pointing apart.
    DEGENERATE = [
        [(0, 0, "B"), (0, 0, "R"), (1, 2, "B"), (3, 1, "R")],
        [(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")],
        [(0, 0, "B"), (1, 2, "R"), (5, 0, "B"), (4, -2, "R"), (9, 7, "B"), (-3, 8, "R")],
    ]

    @staticmethod
    def order(inst):
        """The sweep memo as plain lists, None if degenerate."""
        order = inst.sweep_order
        return order and (order[0], order[1].tolist())

    def test_golden_sweep_corpus(self, monkeypatch):
        # n = 500 spans 16 default blocks in test_golden; here n <= 120 keeps it quick.
        from golden import make_sweeps

        for entry in make_sweeps.corpus():
            n = entry["blue"] + entry["red"]
            if n > 120:
                continue
            default = make_sweeps.instance(entry)
            seq = build_from_points(default)
            if n <= 40:
                assert (seq.pi0, seq.word) == oracle_sweep(default)
            for block in (1, 2, 3):
                with monkeypatch.context() as m:
                    m.setattr(geometry_mod, "_SWEEP_BLOCK", block)
                    inst = make_sweeps.instance(entry)
                    assert self.order(inst) == self.order(default)
                    blocked = build_from_points(inst)
                assert (blocked.pi0, blocked.word) == (seq.pi0, seq.word)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("rows", DEGENERATE, ids=["coincident", "collinear", "parallel-opposite"])
    def test_degenerate_kinds(self, monkeypatch, block, rows):
        monkeypatch.setattr(geometry_mod, "_SWEEP_BLOCK", block)
        inst = make_instance(rows)
        assert inst.sweep_order is None
        assert validate_general_position(inst) == oracle_general_position(inst)
        with pytest.raises(DegenerateInputError) as exc:
            build_from_points(inst)
        assert str(exc.value) == degenerate_message(inst)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_small_bound_draws(self, monkeypatch, block):
        draws = small_bound_draws()
        defaults = [self.order(make_instance(rows)) for rows in draws]
        insts = [make_instance(rows) for rows in draws]
        monkeypatch.setattr(geometry_mod, "_SWEEP_BLOCK", block)
        made = counting_fractions(monkeypatch)
        exact = degenerate = 0
        for inst, default in zip(insts, defaults):
            before = len(made)
            assert self.order(inst) == default
            exact += len(made) > before
            if default is None:
                degenerate += 1
                assert not oracle_general_position(inst).clean
            else:
                seq = build_from_points(inst)
                assert (seq.pi0, seq.word) == oracle_sweep(inst)
        assert exact and 0 < degenerate < len(draws)  # both verdicts, and the exact sort, were reached

    @pytest.mark.parametrize("mode", ["reversed", "shuffled"])
    def test_presort_only_speeds_the_sweep_up(self, monkeypatch, mode):
        # Float keys that propose a wrong order (through a proxy for the
        # sweep's numpy) change no verdict and no word: the exact test
        # rejects the proposal and the Fraction sort decides alone.
        draws = small_bound_draws()
        defaults = [self.order(make_instance(rows)) for rows in draws]
        sets = [(30, 10, 10**6, 1), (12, 4, 2, 3)]
        expected = [oracle_sweep(random_instance(*args[:3], seed=args[3])) for args in sets]

        class BadKeys:
            rng = np.random.default_rng(0)

            def __getattr__(self, name):
                return getattr(np, name)

            def arctan2(self, y, x):
                keys = np.arctan2(y, x)
                return -keys if mode == "reversed" else self.rng.permutation(keys)

        monkeypatch.setattr(geometry_mod, "np", BadKeys())
        made = counting_fractions(monkeypatch)
        for rows, default in zip(draws, defaults):
            inst = make_instance(rows)
            assert self.order(inst) == default
            if default is not None:
                seq = build_from_points(inst)
                assert (seq.pi0, seq.word) == oracle_sweep(inst)
        for args, want in zip(sets, expected):
            before = len(made)
            seq = build_from_points(random_instance(*args[:3], seed=args[3]))
            assert (seq.pi0, seq.word) == want and len(made) > before


def test_sweep_and_build_memory_per_event():
    # Traced peak per event at n = 500; the whole-column sweep took about
    # 206 B and its build, listing both id rows at once, about 68 B.
    events = 500 * 499 // 2

    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1] / events
        finally:
            tracemalloc.stop()

    inst = random_instance(250, 250, 10**6, seed=1)  # swept while drawn, not yet built
    assert peak(geometry_mod._exact_sweep, inst.n, inst.scaled_coords()) < 100
    assert peak(build_from_points, inst) < 50


def limb_spy(monkeypatch):
    """Record the length of every block the int64 limb test decides."""
    blocks = []
    real = geometry_mod._limb_cross
    monkeypatch.setattr(geometry_mod, "_limb_cross", lambda fa, fb: blocks.append(len(fa)) or real(fa, fb))
    return blocks


class TestLimbSweep:
    """The int64 neighbour test: the limb kernel against Python ints, and
    sweeps on both sides of its 2^59 gate against ``oracle_sweep``."""

    GATE = 1 << 59

    @staticmethod
    def assert_limb_signs(rows):
        # Every neighbour pair of the (fa, fb) rows, against Python ints.
        fa = np.array([a for a, _ in rows], dtype=np.int64)
        fb = np.array([b for _, b in rows], dtype=np.int64)
        keys = geometry_mod._limb_cross(fa, fb)
        want = [(a * d > b * c) - (a * d < b * c) for (a, b), (c, d) in zip(rows, rows[1:])]
        assert np.sign(keys).tolist() == want
        return want

    def test_limb_boundaries(self):
        edges = [2**60 - 1, -(2**60 - 1), 2**30, -2**30, 2**30 - 1, -(2**30 - 1), 2**31, 1, -1, 0]
        rows = [row for a, b, c, d in itertools.product(edges, repeat=4) for row in ((a, b), (c, d))]
        signs = self.assert_limb_signs(rows)
        assert {-1, 0, 1} <= set(signs)

    def test_limb_equal_products(self):
        # (x*s, y*s) and (x*t, y*t) are parallel: a*d == b*c at every size.
        rng = random.Random(3)
        rows = [(2**30, 2**31), (2**29, 2**30), (2**60 - 1, 2**60 - 1), (-(2**60 - 1), -(2**60 - 1))]
        for _ in range(2000):
            bits = rng.choice((1, 15, 29))
            x, y = (rng.choice((-1, 1)) * rng.randint(1, 2**30) for _ in range(2))
            s, t = (rng.choice((-1, 1)) * rng.randint(1, 2**bits) for _ in range(2))
            rows += [(x * s, y * s), (x * t, y * t)]
        signs = self.assert_limb_signs(rows)
        assert set(signs[::2]) == {0}

    @pytest.mark.parametrize("bits", [3, 30, 45, 59, 60])
    def test_limb_random_values(self, bits):
        rng = random.Random(bits)
        top = 2**bits - 1
        self.assert_limb_signs([(rng.randint(-top, top), rng.randint(-top, top)) for _ in range(20000)])

    def gate_rows(self, side, axis, extra=()):
        """16 points (with ``extra``) whose largest |u| or |v| is 2^59 - 1 or 2^59.

        Distinct x values make the sweep slope 0, so u = x and v = -y.
        """
        rng = random.Random(f"{side}:{axis}")
        rows = list(extra)
        xs = rng.sample(range(-2**57, 2**57), 16 - len(rows) - 1)
        rows += [(x, rng.randint(-2**57, 2**57), "BR"[i % 2]) for i, x in enumerate(xs)]
        far = self.GATE - 1 if side == "int64" else self.GATE
        rows.append((far, 5, "R") if axis == "u" else (3, -far, "R"))
        return [(x, y, "BR"[i % 2]) for i, (x, y, _) in enumerate(rows)]

    @pytest.mark.parametrize("block", [1, 3, 1 << 13])
    @pytest.mark.parametrize("axis", ["u", "v"])
    @pytest.mark.parametrize("side", ["int64", "object"])
    def test_both_sides_of_the_gate(self, monkeypatch, side, axis, block):
        monkeypatch.setattr(geometry_mod, "_SWEEP_BLOCK", block)
        blocks = limb_spy(monkeypatch)
        inst = make_instance(self.gate_rows(side, axis))
        coords = inst.scaled_coords()
        assert geometry_mod._sweep_slope(coords) == 0
        assert max(max(abs(x), abs(y)) for x, y in coords) == self.GATE - (side == "int64")
        assert oracle_general_position(inst).clean
        seq = build_from_points(inst)
        assert (seq.pi0, seq.word) == oracle_sweep(inst)
        assert bool(blocks) == (side == "int64")

    @pytest.mark.parametrize("axis", ["u", "v"])
    @pytest.mark.parametrize("side", ["int64", "object"])
    def test_parallel_pair_on_both_sides_of_the_gate(self, monkeypatch, side, axis):
        # 0-1 and 2-3 are parallel; scaled by 2^54, they stay under 2^57.
        parallel = [(0, 0), (1, 2), (5, 0), (4, -2), (-3, 8), (-5, 7)]
        extra = [(x * 2**54, y * 2**54, "B") for x, y in parallel]
        blocks = limb_spy(monkeypatch)
        inst = make_instance(self.gate_rows(side, axis, extra))
        assert inst.sweep_order is None
        assert bool(blocks) == (side == "int64")
        report = validate_general_position(inst)
        assert report == oracle_general_position(inst) and ((0, 1), (2, 3)) in report.parallel_pair_pairs

    def test_limb_verdicts_at_small_bounds(self, monkeypatch):
        # 16 distinct points on small grids, many of them degenerate: every
        # verdict and word through the limb test against the oracles.
        blocks = limb_spy(monkeypatch)
        rng = random.Random(9)
        verdicts = set()
        for k in range(60):
            bound = (4, 6, 12, 40)[k % 4]
            cells = rng.sample(range((2 * bound + 1) ** 2), 16)
            rows = [(c % (2 * bound + 1) - bound, c // (2 * bound + 1) - bound, "BR"[i % 2])
                    for i, c in enumerate(cells)]
            inst = make_instance(rows)
            clean = inst.sweep_order is not None
            verdicts.add(clean)
            assert clean == oracle_general_position(inst).clean
            if clean:
                seq = build_from_points(inst)
                assert (seq.pi0, seq.word) == oracle_sweep(inst)
        assert verdicts == {True, False} and len(blocks) >= 60

    def test_exact_sort_on_python_ints_just_under_the_gate(self, monkeypatch):
        # Shuffled float keys (through a proxy for the sweep's numpy) send
        # every int64 sweep to the Fraction sort. Its keys must be made of
        # Python ints: int64 cross-multiplications would wrap past 2^63.
        rng = random.Random(57)
        sets = [[(rng.randint(-2**57, 2**57), rng.randint(-2**57, 2**57), "BR"[i % 2]) for i in range(n)]
                for n in (16, 20, 24)]
        insts = [make_instance(rows) for rows in sets]
        expected = [oracle_sweep(inst) for inst in insts]

        class ShuffledKeys:
            rng = np.random.default_rng(0)

            def __getattr__(self, name):
                return getattr(np, name)

            def arctan2(self, y, x):
                return self.rng.permutation(np.arctan2(y, x))

        monkeypatch.setattr(geometry_mod, "np", ShuffledKeys())
        blocks = limb_spy(monkeypatch)
        made = counting_fractions(monkeypatch)
        for inst, want in zip(insts, expected):
            before = len(made)
            seq = build_from_points(inst)
            assert (seq.pi0, seq.word) == want and len(made) > before
        assert len(blocks) == 6 and all(type(a) is int for args in made for a in args)


class TestFullWord:
    @pytest.mark.parametrize("make", [
        lambda: build_from_points(random_instance(5, 3, 10**6, seed=4)),
        lambda: random_sequence(8, 5, seed=6),
        lambda: reverse_sequence(random_sequence(10, 6, seed=2)),
        lambda: sequence_from_text(sequence_to_text(random_sequence(6, 4, seed=1))),
    ], ids=["built", "random", "reversed", "text"])
    def test_matches_the_eager_definition(self, make):
        # The step table's word column; nothing about it is kept on the sequence.
        seq = make()
        before = dict(vars(seq))
        expected = seq.word + tuple(seq.n - 2 - p for p in seq.word)
        assert tuple(step_table(seq)[0]) == expected
        assert vars(seq) == before


class TestStepTable:
    """``step_table`` against ``transposition_at`` at every time of the period, mirrored half included."""

    @staticmethod
    def assert_matches_transposition_at(seq):
        word, lo, hi, lw = step_table(seq)
        assert len(word) == len(lo) == len(hi) == len(lw) == seq.period
        for t in range(seq.period):
            tr = transposition_at(seq, t + 1)
            assert (word[t], lo[t], hi[t], lw[t]) == (tr.pos, tr.lo_id, tr.hi_id, tr.left_weight), t

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sequences(self, seed):
        n = 2 + 2 * (seed % 8)
        self.assert_matches_transposition_at(random_sequence(n, n - seed % (n // 2 + 1), seed=seed))

    def test_golden_point_sets(self):
        entries = [row["entry"] for row in map(json.loads, make_certificates.OUT.read_text().splitlines())
                   if row["entry"]["kind"] == "points"]
        assert len(entries) == 24
        for entry in entries:
            self.assert_matches_transposition_at(make_certificates.build(entry))


class TestPermutationAt:
    def test_time_zero(self, t2):
        seq = build_from_points(t2)
        assert permutation_at(seq, 0) == seq.pi0

    def test_half_period_reversal(self, t2):
        seq = build_from_points(t2)
        n_half = seq.half_period
        assert permutation_at(seq, n_half) == tuple(reversed(seq.pi0))

    def test_full_period(self, t2):
        seq = build_from_points(t2)
        assert permutation_at(seq, seq.period) == seq.pi0

    def test_negative_times(self):
        seq = random_sequence(6, 3, seed=11)
        for t in range(-2 * seq.period, 2 * seq.period):
            assert permutation_at(seq, t) == permutation_at(seq, t + seq.period)
            assert permutation_at(seq, t + seq.half_period) == tuple(
                reversed(permutation_at(seq, t))
            )

    def test_agrees_with_naive_replay(self):
        seq = random_sequence(8, 5, seed=3)
        perms = all_permutations(seq)
        for t in range(seq.period + 1):
            assert permutation_at(seq, t) == tuple(perms[t])


class TestValidate:
    def test_build_output_clean(self, t2):
        assert validate(build_from_points(t2)).clean

    def test_repeated_pair_named(self):
        # word [0, 0] swaps the same pair twice
        seq = AllowableSequence([Color.BLUE, Color.RED], [0, 1], [0, 0])
        report = validate(seq)
        assert "REPEATED_PAIR" in report.codes
        assert (0, 1) in report.repeated_pairs

    def test_length_mismatch(self):
        seq = AllowableSequence([Color.BLUE, Color.RED], [0, 1], [])
        report = validate(seq)
        assert "LENGTH_MISMATCH" in report.codes

    def test_position_out_of_range(self):
        seq = AllowableSequence(
            [Color.BLUE, Color.BLUE, Color.RED, Color.RED], [0, 1, 2, 3], [0, 5, 1, 0, 1, 2]
        )
        assert "POSITION_RANGE" in validate(seq).codes

    def test_red_majority_flagged(self):
        seq = AllowableSequence([Color.RED, Color.RED], [0, 1], [0])
        assert "RED_MAJORITY" in validate(seq).codes

    def test_bad_pi0_flagged(self):
        # A pi0 that is no permutation stops the word checks; only the length is read.
        seq = AllowableSequence([Color.BLUE, Color.RED], [0, 0], [0])
        assert validate(seq).codes == ("BAD_PI0",)
        short = AllowableSequence([Color.BLUE, Color.RED], [1, 2], [])
        assert validate(short).codes == ("BAD_PI0", "LENGTH_MISMATCH")

    def test_odd_size_flagged(self):
        # The word reverses three points, but the theorem needs n even.
        seq = AllowableSequence([Color.BLUE, Color.BLUE, Color.RED], [0, 1, 2], [0, 1, 0])
        assert validate(seq).codes == ("ODD_SIZE",)

    def test_corrupted_words_match_set_oracle(self):
        seen_codes = set()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.choice((2, 4, 6, 8))
            base = random_sequence(n, n // 2 + rng.choice((0, n // 4)), seed=seed)
            pi0 = list(base.pi0)
            rng.shuffle(pi0)
            word = list(base.word)
            kind = seed % 5
            if kind in (0, 4):  # extra steps, which repeat pairs
                for _ in range(rng.randint(1, 3)):
                    word.insert(rng.randrange(len(word) + 1), rng.choice(word))
            if kind in (1, 4):  # positions out of range
                for _ in range(rng.randint(1, 3)):
                    word[rng.randrange(len(word))] = rng.choice((-1, n - 1, n + 3))
            if kind in (2, 4):  # truncated word
                del word[rng.randrange(len(word)):]
            if kind == 3:  # one step moved to another position: full length, not reversed
                word[rng.randrange(len(word))] = rng.randrange(n - 1)
            seq = AllowableSequence(base.colors, pi0, word)
            report = validate(seq)
            assert (report.position_errors, report.repeated_pairs, report.not_reversed) == (
                oracle_validate_word(seq)
            ), seed
            seen_codes.update(report.codes)
        assert {"REPEATED_PAIR", "POSITION_RANGE", "LENGTH_MISMATCH", "NOT_REVERSED"} <= seen_codes

    def test_every_short_word_matches_set_oracle(self):
        # Every word of length 5, C(4, 2) = 6 and 7 over positions 0..2 from every pi0, and
        # every word of length 6 over positions -1..3 from two pi0: the one rank walk lists
        # the defects the oracle finds, wrong lengths and out-of-range positions included,
        # and calls a word clean only where the oracle finds none.
        colors = [Color.BLUE, Color.BLUE, Color.RED, Color.RED]
        cases = [(pi0, word) for pi0 in itertools.permutations(range(4))
                 for length in (5, 6, 7) for word in itertools.product(range(3), repeat=length)]
        cases += [(pi0, word) for pi0 in ((0, 1, 2, 3), (2, 0, 3, 1))
                  for word in itertools.product(range(-1, 4), repeat=6)]
        clean = 0
        for pi0, word in cases:
            seq = AllowableSequence(colors, pi0, word)
            report = validate(seq)
            found = oracle_validate_word(seq)
            assert (report.position_errors, report.repeated_pairs, report.not_reversed) == found
            assert report.clean == (found == ((), (), False) and len(word) == 6)
            clean += report.clean
        assert clean == 26 * 16  # the 16 reduced words of the longest permutation of S_4

    def test_few_steps_at_large_n_allocate_little(self):
        # Three steps at n = 4000 are reported in O(n) memory: no n x n table of pairs.
        n = 4000
        seq = AllowableSequence([Color.BLUE] * n, range(n), [0, 1, 1])
        tracemalloc.start()
        try:
            report = validate(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.codes == ("LENGTH_MISMATCH", "REPEATED_PAIR")
        assert report.repeated_pairs == ((0, 2),)
        assert peak < 1 << 20, peak


class TestConstructor:
    def test_numpy_integers_become_ints(self):
        seq = AllowableSequence([Color.BLUE, Color.RED], np.array([1, 0], dtype=np.int64),
                                np.array([0], dtype=np.int64))
        assert seq.pi0 == (1, 0) and seq.word == (0,)
        assert all(type(v) is int for v in seq.pi0 + seq.word)
        assert validate(seq).clean

    @pytest.mark.parametrize("pi0, word", [([0, 1], [0.0]), ([0, 1], ["0"]), ([0.0, 1], [0])])
    def test_non_integer_entries_raise(self, pi0, word):
        # A float or a string is no position: refused, not truncated or parsed.
        with pytest.raises(BadParamsError, match="must be integers"):
            AllowableSequence([Color.BLUE, Color.RED], pi0, word)


class TestRandomSequence:
    def test_two_elements(self):
        for seed in range(5):
            assert random_sequence(2, 1, seed=seed).word == (0,)

    def test_four_elements_valid(self):
        seq = random_sequence(4, 2, seed=0)
        assert len(seq.word) == 6
        assert validate(seq).clean

    def test_many_samples_all_valid(self):
        for seed in range(1000):
            assert validate(random_sequence(8, 5, seed=seed)).clean

    def test_deterministic(self):
        a = random_sequence(10, 6, seed=42)
        b = random_sequence(10, 6, seed=42)
        assert a.word == b.word and a.colors == b.colors

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            random_sequence(5, 3, seed=0)
        with pytest.raises(BadParamsError):
            random_sequence(6, 2, seed=0)

    def test_weight_sum_is_twice_delta(self):
        seq = random_sequence(10, 7, seed=1)
        assert sum(seq.weights) == 2 * seq.delta

    def test_matches_swapped_set_generator(self):
        for n in range(2, 41, 2):
            for blue in sorted({n // 2, (3 * n + 3) // 4, n}):
                for seed in range(3):
                    seq = random_sequence(n, blue, seed=seed)
                    assert (seq.colors, seq.word) == oracle_random_sequence(n, blue, seed), (n, blue)


class TestReverseSequence:
    def test_reverse_matches_negated_time(self):
        seq = random_sequence(6, 4, seed=9)
        rev = reverse_sequence(seq)
        for t in range(seq.period):
            assert permutation_at(rev, t) == permutation_at(seq, -t)

    def test_involution(self):
        seq = random_sequence(8, 4, seed=2)
        back = reverse_sequence(reverse_sequence(seq))
        for t in range(seq.period):
            assert permutation_at(back, t) == permutation_at(seq, t)

    def test_two_points(self):
        seq = random_sequence(2, 1, seed=0)
        assert reverse_sequence(seq).word == (0,)

    def test_balanced_pairs_preserved(self):
        seq = random_sequence(8, 5, seed=77)
        rev = reverse_sequence(seq)
        assert validate(rev).clean
        pairs = {w.pair for w in scan_balanced_transpositions(seq)}
        rev_pairs = {w.pair for w in scan_balanced_transpositions(rev)}
        assert pairs == rev_pairs


class TestTranspositionAt:
    def test_matches_naive(self):
        seq = random_sequence(6, 3, seed=5)
        perms = all_permutations(seq)
        for t in range(1, seq.period + 1):
            tr = transposition_at(seq, t)
            prev = perms[t - 1]
            assert prev[tr.pos] == tr.lo_id and prev[tr.pos + 1] == tr.hi_id
            assert tr.left_weight == sum(seq.weights[v] for v in prev[: tr.pos])


class TestTextFormat:
    def test_round_trip(self):
        seq = random_sequence(8, 6, seed=13)
        text = sequence_to_text(seq)
        again = sequence_from_text(text)
        assert again.colors == seq.colors
        assert again.pi0 == seq.pi0
        assert again.word == seq.word
        assert sequence_to_text(again) == text

    @pytest.mark.parametrize("text, message", [
        ("4\nBBRR\n", "sequence text needs at least n, colors, and pi0 lines"),
        ("four\nBBRR\n0 1 2 3\n", "malformed sequence text"),
        ("4\nBBXR\n0 1 2 3\n", "malformed sequence text"),
        ("4\nBBRR\n0 1 2 3\n0\nx\n", "malformed sequence text"),
        ("4\nBBR\n0 1 2 3\n", "color line length does not match n"),
        ("4\nBBRR\n0 1 1 3\n", "pi0 line is not a permutation of 0..n-1"),
    ])
    def test_refusals(self, text, message):
        with pytest.raises(BadParamsError, match=f"^{message}"):
            sequence_from_text(text)

    def test_layout(self):
        seq = random_sequence(2, 1, seed=0)
        assert sequence_to_text(seq) == "2\nBR\n0 1\n0\n" or sequence_to_text(seq) == "2\nRB\n0 1\n0\n"
