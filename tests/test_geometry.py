import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balanced_lines.geometry as geometry_mod
from balanced_lines.balance import enumerate_balanced_lines
from balanced_lines.errors import BadParamsError, CollinearWitnessError, FailsToSeparateError, ParityError
from balanced_lines.geometry import (
    ChromaticPoint,
    Color,
    Instance,
    halfplane_weights,
    instance_from_json,
    instance_to_json,
    orientation,
    perturb,
    validate_general_position,
)
from balanced_lines.harness import random_instance
from balanced_lines.sequence import build_from_points

from conftest import far_corner_rows, make_instance, oracle_general_position, oracle_halfplane


def pt(x, y, c="B", i=0):
    return ChromaticPoint(i, Fraction(x), Fraction(y), Color(c))


class TestOrientation:
    def test_counterclockwise(self):
        assert orientation(pt(0, 0), pt(1, 0, i=1), pt(0, 1, i=2)) == 1

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 1, i=1), pt(2, 2, i=2)) == 0

    def test_clockwise(self):
        assert orientation(pt(0, 0), pt(0, 1, i=1), pt(1, 0, i=2)) == -1

    @given(st.tuples(*[st.integers(-50, 50) for _ in range(6)]))
    def test_antisymmetry(self, coords):
        ax, ay, bx, by, cx, cy = coords
        p, q, s = pt(ax, ay), pt(bx, by, i=1), pt(cx, cy, i=2)
        assert orientation(p, q, s) == -orientation(q, p, s)


class TestInstance:
    def test_odd_size_rejected(self):
        with pytest.raises(ParityError):
            Instance([pt(0, 0)])

    def test_gapped_ids_rejected(self):
        with pytest.raises(ValueError):
            Instance([pt(0, 0, i=0), pt(1, 1, i=2)])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ChromaticPoint(0, 0.5, Fraction(1), Color.BLUE)

    def test_color_canonicalization(self):
        inst = make_instance([(0, 0, "R"), (1, 1, "R"), (2, 5, "R"), (5, 2, "B")])
        assert inst.swapped
        assert inst.b == 3 and inst.r == 1 and inst.delta == 1
        assert inst.color_of(0) is Color.BLUE  # raw red plays the blue role
        assert inst.color_of(3) is Color.RED

    def test_delta_nonnegative(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "R")])
        assert (inst.b, inst.r, inst.delta) == (1, 1, 0)


    def test_scaled_coords_are_the_fraction_products(self):
        # Negative values, large coprime denominators and integers mixed: the
        # coordinates scaled by the lcm of all denominators, as Fraction products.
        rng = random.Random(3)
        for trial in range(200):
            n = rng.choice((2, 4, 6))
            dens = [1, 7, 10**9 + 7, 2**61 - 1, rng.randint(1, 10**30)]
            rows = [
                (Fraction(rng.randint(-10**40, 10**40), rng.choice(dens)),
                 Fraction(rng.randint(-99, 99), rng.choice(dens)), "BR"[i % 2])
                for i in range(n)
            ]
            inst = make_instance(rows)
            lcm = 1
            for x, y, _ in rows:
                for v in (x, y):
                    lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
            expected = [(int(x * lcm), int(y * lcm)) for x, y, _ in rows]
            assert all(x * lcm == int(x * lcm) and y * lcm == int(y * lcm) for x, y, _ in rows)
            assert inst.scaled_coords() == expected, trial


class TestValidation:
    def test_two_points_clean(self):
        report = validate_general_position(make_instance([(0, 0, "B"), (1, 1, "R")]))
        assert report.clean

    def test_collinear_triple_found(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")])
        report = validate_general_position(inst)
        assert (0, 1, 2) in report.collinear_triples

    def test_parallel_pairs_found(self):
        inst = make_instance([(0, 0, "B"), (1, 0, "B"), (0, 1, "R"), (1, 1, "R")])
        report = validate_general_position(inst)
        assert report.parallel_pair_pairs
        assert ((0, 1), (2, 3)) in report.parallel_pair_pairs

    def test_coincident_pair_is_dirty(self):
        inst = make_instance([(1, 1, "B"), (1, 1, "R")])
        report = validate_general_position(inst)
        assert not report.clean
        assert report.coincident_pairs == ((0, 1),)

    def test_perturb_separates_coincident_points(self):
        inst = make_instance([(1, 1, "B"), (1, 1, "R")])
        fixed = perturb(inst, seed=2)
        assert validate_general_position(fixed).clean

    def test_rational_coordinates_detected_exactly(self):
        # Collinear only in exact arithmetic: y = x/3 through three points.
        inst = make_instance([
            (0, 0, "B"), (1, Fraction(1, 3), "R"), (2, Fraction(2, 3), "B"), (7, 1, "R"),
        ])
        report = validate_general_position(inst)
        assert (0, 1, 2) in report.collinear_triples

    def test_float_differences_past_float_range_stay_silent(self):
        # Each coordinate is a float, but the far corners' differences
        # overflow the sweep's float presort; the exact test decides alone.
        rows = far_corner_rows()
        assert max(abs(x) for x, _, _ in rows) < float(np.finfo(float).max) < rows[1][0] - rows[0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_general_position(make_instance(rows)).clean
            seq = build_from_points(make_instance(rows))
        assert seq.n == 8 and len(seq.word) == 28


def small_grid_instance(rng):
    """2-10 points on a grid of at most 5 x 5 cells, some on half-cells."""
    n = rng.choice((2, 4, 6, 8, 10))
    side = rng.randint(1, 4)
    den = rng.choice((1, 2))
    return make_instance([
        (Fraction(rng.randint(0, side * den), den), Fraction(rng.randint(0, side * den), den),
         rng.choice("BR"))
        for _ in range(n)
    ])


class TestValidationAgainstOracle:
    def test_random_small_grids(self):
        rng = random.Random(20261018)
        seen = {"clean": 0, "collinear": 0, "parallel": 0, "coincident": 0, "four_on_a_line": 0}
        for _ in range(2400):
            inst = small_grid_instance(rng)
            report = validate_general_position(inst)
            assert report == oracle_general_position(inst)
            triples = set(report.collinear_triples)
            seen["clean"] += report.clean
            seen["collinear"] += bool(triples)
            seen["parallel"] += bool(report.parallel_pair_pairs)
            seen["coincident"] += bool(report.coincident_pairs)
            seen["four_on_a_line"] += any(
                (a, b, c) in triples and (a, b, d) in triples
                for (a, b), (c, d) in report.parallel_pair_pairs
            )
        assert min(seen.values()) >= 100, seen

    def test_four_points_on_one_line(self):
        inst = make_instance([(0, 0, "B"), (1, 2, "R"), (2, 4, "B"), (3, 6, "R"), (1, 0, "B"), (0, 5, "R")])
        report = validate_general_position(inst)
        assert report == oracle_general_position(inst)
        assert {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)} <= set(report.collinear_triples)
        assert {((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))} <= set(report.parallel_pair_pairs)

    def test_coincident_points_among_others(self):
        inst = make_instance([(1, 1, "B"), (4, 2, "R"), (1, 1, "B"), (0, 5, "R")])
        report = validate_general_position(inst)
        assert report == oracle_general_position(inst)
        assert report.coincident_pairs == ((0, 2),)
        assert {(0, 1, 2), (0, 2, 3)} <= set(report.collinear_triples)


class TestPerturb:
    def test_identity_on_clean(self, t1):
        assert perturb(t1, seed=5) is t1

    def test_repairs_parallel_square(self):
        inst = make_instance([(0, 0, "B"), (1, 0, "B"), (0, 1, "R"), (1, 1, "R")])
        fixed = perturb(inst, seed=9)
        assert validate_general_position(fixed).clean
        for old, new in zip(inst.points, fixed.points):
            assert old.color is new.color and old.id == new.id

    def test_deterministic(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")])
        a = perturb(inst, seed=3)
        b = perturb(inst, seed=3)
        assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]

    def test_moves_are_small(self):
        inst = make_instance([(0, 0, "B"), (1, 0, "B"), (0, 1, "R"), (1, 1, "R")])
        fixed = perturb(inst, seed=9)
        for old, new in zip(inst.points, fixed.points):
            assert abs(new.x - old.x) < Fraction(1, 2)
            assert abs(new.y - old.y) < Fraction(1, 2)

    def test_scale_matches_pairwise_definition(self):
        # The smallest gap of sorted distinct values equals the smallest nonzero difference
        # over all pairs, with repeated x, repeated y, coincident points and no gap at all.
        def pairwise(inst):
            diffs = [d for p, q in itertools.combinations(inst.points, 2)
                     for d in (abs(p.x - q.x), abs(p.y - q.y)) if d]
            return min(diffs) / 2 if diffs else Fraction(1)

        rng = random.Random(27)
        fixed = [
            [(1, 0, "B"), (1, 5, "R"), (3, 2, "B"), (4, 2, "R")],
            [(2, 2, "B"), (2, 2, "R"), (Fraction(7, 3), 0, "B"), (9, 1, "R")],
            [(5, 5, "B"), (5, 5, "R"), (5, 5, "B"), (5, 5, "R")],
        ]
        for rows in fixed + [
            [(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))), rng.randint(-2, 2), "BR"[i % 2])
             for i in range(rng.choice((2, 4, 6, 8)))]
            for _ in range(300)
        ]:
            inst = make_instance(rows)
            assert geometry_mod._perturb_scale(inst) == pairwise(inst), rows
        assert geometry_mod._perturb_scale(make_instance(fixed[2])) == 1

    def test_gives_up_after_64_rounds(self, monkeypatch):
        # With every draw refused, each of the 64 rounds fails and perturb gives up.
        monkeypatch.setattr(geometry_mod, "_exact_sweep", lambda n, coords: None)
        inst = make_instance([(0, 0, "B"), (1, 0, "B"), (0, 1, "R"), (1, 1, "R")])
        with pytest.raises(FailsToSeparateError, match=r"^could not clear degeneracies in 64 rounds$"):
            perturb(inst, seed=9)


def _oracle_or_witness(inst, i, j):
    """oracle_halfplane's pair, or the message naming the smallest point on line(i, j)."""
    try:
        return oracle_halfplane(inst, i, j)
    except ValueError:
        pi, pj = inst.points[i], inst.points[j]
        k = next(k for k, pk in enumerate(inst.points) if k not in (i, j)
                 and (pj.x - pi.x) * (pk.y - pi.y) == (pj.y - pi.y) * (pk.x - pi.x))
        return f"point {k} is collinear with ({i}, {j})"


def _assert_every_pair_matches_oracle(inst):
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j:
                try:
                    got = halfplane_weights(inst, i, j)
                except CollinearWitnessError as exc:
                    got = str(exc)
                assert got == _oracle_or_witness(inst, i, j), (i, j)


class TestHalfplaneWeights:
    def test_two_points(self, t1):
        assert halfplane_weights(t1, 0, 1) == (0, 0)
        # With no third point, even a coincident pair has two empty sides.
        assert halfplane_weights(make_instance([(3, 4, "B"), (3, 4, "R")]), 0, 1) == (0, 0)

    def test_one_point_spans_no_line(self, t1):
        with pytest.raises(ValueError, match=r"^spanning pair must be two distinct points$"):
            halfplane_weights(t1, 1, 1)

    def test_rational_coordinates_match_oracle(self):
        # Non-integer coordinates with distinct denominators, raw reds in the
        # majority (so canonical weights are swapped), every ordered pair.
        inst = make_instance([
            (Fraction(1, 3), Fraction(-2, 7), "R"), (Fraction(-5, 2), Fraction(1, 9), "R"),
            (Fraction(7, 4), Fraction(11, 5), "B"), (Fraction(-3, 8), Fraction(-13, 6), "R"),
            (Fraction(9, 10), Fraction(4, 3), "R"), (Fraction(-1, 11), Fraction(17, 4), "B"),
        ])
        assert inst.swapped
        for i in range(inst.n):
            for j in range(inst.n):
                if i != j:
                    assert halfplane_weights(inst, i, j) == oracle_halfplane(inst, i, j)
        for seed in range(3):
            rng = random.Random(f"rational:{seed}")
            inst = make_instance([
                (Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                 Fraction(rng.randint(-60, 60), rng.randint(1, 9)), c)
                for c in "RRRRRRRBBB"
            ])
            assert inst.swapped
            _assert_every_pair_matches_oracle(inst)

    def test_coincident_points_raise(self):
        inst = make_instance([(0, 0, "B"), (5, 1, "R"), (0, 0, "B"), (2, 7, "R")])
        with pytest.raises(CollinearWitnessError, match=r"^point 2 is collinear with \(0, 1\)$"):
            halfplane_weights(inst, 0, 1)
        with pytest.raises(CollinearWitnessError, match=r"^point 1 is collinear with \(0, 2\)$"):
            halfplane_weights(inst, 0, 2)
        # A point on the centre lies on every line through it, sorted next to
        # the centre's other directions or not.
        _assert_every_pair_matches_oracle(inst)
        _assert_every_pair_matches_oracle(make_instance(
            [(0, 0, "B"), (5, 1, "R"), (3, 8, "B"), (2, 7, "R"), (-4, 6, "B"), (3, 8, "R")]))

    def test_error_names_first_collinear_point(self):
        # Points 1, 2, 3 and 4 all lie on y = x; point 0 does not.
        inst = make_instance([(0, 5, "B"), (1, 1, "R"), (2, 2, "B"), (3, 3, "R"), (4, 4, "B"),
                              (9, 0, "R")])
        with pytest.raises(CollinearWitnessError, match=r"^point 1 is collinear with \(4, 2\)$"):
            halfplane_weights(inst, 4, 2)
        with pytest.raises(CollinearWitnessError, match=r"^point 2 is collinear with \(3, 1\)$"):
            halfplane_weights(inst, 3, 1)

    def test_quad_with_balanced_diagonal(self):
        # Both off-diagonal points on one side, one of each color.
        inst = make_instance([(0, 0, "B"), (4, 0, "R"), (1, 1, "B"), (2, 1, "R")])
        assert halfplane_weights(inst, 0, 1) == (0, 0)

    def test_asymmetric_split(self, t_blue_border):
        # Some bichromatic pair splits unevenly; implementation must agree
        # with the independent oracle on it.
        inst = t_blue_border
        uneven = [
            (i, j)
            for i in range(inst.n)
            for j in range(i + 1, inst.n)
            if inst.color_of(i) is not inst.color_of(j)
            and oracle_halfplane(inst, i, j) != (inst.delta, inst.delta)
        ]
        assert uneven
        for i, j in uneven:
            assert halfplane_weights(inst, i, j) == oracle_halfplane(inst, i, j)

    def test_collinear_witness_raises(self):
        inst = make_instance([(0, 0, "B"), (1, 1, "R"), (2, 2, "B"), (5, 0, "R")])
        with pytest.raises(CollinearWitnessError):
            halfplane_weights(inst, 0, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_past_float_range_matches_oracle(self, seed):
        # (x, y) -> (B*x + y, B*y - x) keeps every orientation sign, and the
        # directions from each centre no longer convert to floats.
        big = 10**400
        inst = random_instance(5, 3, 50, seed=seed)
        huge = make_instance([(big * p.x + p.y, big * p.y - p.x, p.color.value)
                              for p in inst.points])
        xs = [x for x, _ in huge.scaled_coords()]
        with pytest.raises(OverflowError):
            float(max(xs) - min(xs))
        _assert_every_pair_matches_oracle(huge)

    def test_float_angle_ties_fall_back_to_exact_order(self):
        # From point 0, points 1 and 2 (and 3, folded) tie as float angles, in
        # id order against the exact order.
        e = 10**17
        assert math.atan2(1, e) == math.atan2(1, e + 1) == math.atan2(1, e + 2)
        inst = make_instance([(0, 0, "B"), (e, 1, "R"), (e + 1, 1, "B"), (-e - 2, -1, "R"),
                              (5, -7, "R"), (-2, 9, "B")])
        assert validate_general_position(inst).collinear_triples == ()
        _assert_every_pair_matches_oracle(inst)

    def test_points_level_with_or_plumb_to_a_centre(self):
        # Pairs (0, 1) and (2, 3) are horizontal, (1, 4) and (0, 5) vertical:
        # every centre on them sees another point exactly left, right, above
        # or below it, on the fold boundary dy = 0 or on dx = 0.
        inst = make_instance([(0, 0, "B"), (5, 0, "R"), (1, 3, "R"), (-2, 3, "B"),
                              (5, -4, "B"), (0, 7, "R")])
        assert validate_general_position(inst).collinear_triples == ()
        _assert_every_pair_matches_oracle(inst)
        # Three points on one horizontal and three on one vertical line.
        inst = make_instance([(0, 0, "B"), (5, 0, "R"), (-3, 0, "R"), (0, 4, "B"),
                              (0, -6, "R"), (2, 9, "B")])
        assert (0, 1, 2) in validate_general_position(inst).collinear_triples
        _assert_every_pair_matches_oracle(inst)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_weight_identity_on_random_instances(self, seed):
        inst = random_instance(3, 1, 10, seed=seed)
        total = 2 * inst.delta
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                left, right = halfplane_weights(inst, i, j)
                assert left + right == total - inst.weight(i) - inst.weight(j)
                assert (left, right) == oracle_halfplane(inst, i, j)


def _oracle_left_row(coords, ws, i):
    """Left weight of line i->j for every j from every cross product; None on a collinear third point."""
    (xi, yi), row = coords[i], [None] * len(coords)
    for j, (xj, yj) in enumerate(coords):
        crosses = {k: (xj - xi) * (y - yi) - (yj - yi) * (x - xi)
                   for k, (x, y) in enumerate(coords) if k not in (i, j)}
        if j != i and 0 not in crosses.values():
            row[j] = sum(ws[k] for k, c in crosses.items() if c > 0)
    return row


def _assert_batch_rows_match(inst):
    """The batch sweep around every point equals its one-centre sweeps and the oracle's rows."""
    coords, ws = inst.scaled_coords(), inst._weights
    every = list(range(inst.n))
    batch = geometry_mod._left_weights(coords, ws, every)
    assert batch == [geometry_mod._left_weights(coords, ws, [i])[0] for i in every]
    assert batch == [_oracle_left_row(coords, ws, i) for i in every]
    # A subset of the centres, in another order, gets the same rows.
    odd = every[1::2][::-1]
    assert geometry_mod._left_weights(coords, ws, odd) == [batch[i] for i in odd]
    return batch


class TestBatchSweep:
    def test_random_sets(self):
        for seed in range(6):
            _assert_batch_rows_match(random_instance(7, 5, 10**6, seed=seed))
            _assert_batch_rows_match(random_instance(4, 4, 20, seed=seed))
        rng = random.Random(29)
        for _ in range(200):  # small grids: collinear, parallel and coincident points
            _assert_batch_rows_match(small_grid_instance(rng))

    def test_float_ties_and_fold_boundary(self):
        e = 10**17
        _assert_batch_rows_match(make_instance([(0, 0, "B"), (e, 1, "R"), (e + 1, 1, "B"),
                                                (-e - 2, -1, "R"), (5, -7, "R"), (-2, 9, "B")]))
        _assert_batch_rows_match(make_instance([(0, 0, "B"), (5, 0, "R"), (1, 3, "R"), (-2, 3, "B"),
                                                (5, -4, "B"), (0, 7, "R")]))
        _assert_batch_rows_match(make_instance([(0, 0, "B"), (5, 0, "R"), (-3, 0, "R"), (0, 4, "B"),
                                                (0, -6, "R"), (2, 9, "B")]))

    def test_coincident_centre_gives_an_all_none_row(self):
        inst = make_instance([(0, 0, "B"), (5, 1, "R"), (0, 0, "B"), (2, 7, "R")])
        batch = _assert_batch_rows_match(inst)
        assert batch[0] == batch[2] == [None] * 4
        two = _assert_batch_rows_match(make_instance([(3, 4, "B"), (3, 4, "R")]))
        assert two == [[None, 0], [0, None]]

    def test_past_float_range(self):
        big = 10**400
        for seed in range(3):
            inst = random_instance(5, 3, 50, seed=seed)
            huge = make_instance([(big * p.x + p.y, big * p.y - p.x, p.color.value) for p in inst.points])
            with pytest.raises(OverflowError):
                np.array(huge.scaled_coords(), dtype=float)
            _assert_batch_rows_match(huge)

    def test_float_differences_past_float_range(self):
        # Every coordinate converts to a float, but far corners differ by more
        # than the largest float, so their differences overflow to inf, and
        # near points differ by less than an ulp, so theirs round to zero:
        # the float keys tie and misorder, and the exact pass must catch it.
        far, rng = 17 * 10**307, random.Random(308)
        inst = make_instance([(sx * far + rng.randint(-99, 99), sy * far + rng.randint(-99, 99), "BR"[k % 2])
                              for k, (sx, sy) in enumerate([(1, 1), (-1, -1), (1, -1), (-1, 1)] * 2)])
        pts = np.array(inst.scaled_coords(), dtype=float)
        with np.errstate(over="ignore"):
            d = pts - pts[:, None]
        assert np.isinf(d).any() and (d == 0).all(axis=2).sum() > inst.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the presort's overflow stays silent
            _assert_batch_rows_match(inst)

    def test_no_centres_and_no_reds(self):
        inst = random_instance(3, 3, 10**6, seed=1)
        assert geometry_mod._left_weights(inst.scaled_coords(), inst._weights, []) == []
        geometry_mod.sweep_around(inst, [])
        assert inst._lefts == {}
        geometry_mod.sweep_around(inst, [1, 4])
        row = inst._lefts[1]
        geometry_mod.sweep_around(inst, [4, 1, 0])  # only centre 0 is new
        assert inst._lefts[1] is row and sorted(inst._lefts) == [0, 1, 4]
        blue = make_instance([(0, 0, "B"), (4, 1, "B"), (1, 5, "B"), (-3, 2, "B")])
        assert blue.r == 0 and enumerate_balanced_lines(blue) == set()
        assert blue._lefts == {}

    def test_degenerate_sets_raise_for_the_first_pair(self):
        # enumerate_balanced_lines names the first (blue, red) pair in
        # blue-major order that has a third point on its line, and that
        # line's smallest third point; a set without one enumerates as the oracle does.
        rng = random.Random(2029)
        raised = 0
        for _ in range(300):
            inst = small_grid_instance(rng)
            blues = [i for i in range(inst.n) if inst.color_of(i) is Color.BLUE]
            reds = [i for i in range(inst.n) if inst.color_of(i) is Color.RED]
            first = next((w for b in blues for r in reds
                          if isinstance(w := _oracle_or_witness(inst, b, r), str)), None)
            if first is None:
                pairs = {w.pair for w in enumerate_balanced_lines(inst)}
                assert pairs == {tuple(sorted((b, r))) for b in blues for r in reds
                                 if oracle_halfplane(inst, b, r) == (inst.delta, inst.delta)}
                continue
            with pytest.raises(CollinearWitnessError) as exc:
                enumerate_balanced_lines(inst)
            assert str(exc.value) == first
            raised += 1
        assert raised >= 50


class TestJsonRoundTrip:
    def test_bit_exact(self):
        inst = make_instance([
            (Fraction(3, 2), Fraction(-7, 3), "B"), (0, 1, "R"),
            (Fraction(-5, 4), 2, "B"), (10, Fraction(1, 7), "R"),
        ])
        text = instance_to_json(inst)
        again = instance_to_json(instance_from_json(text))
        assert text == again

    def test_schema(self, t1):
        data = json.loads(instance_to_json(t1))
        assert data == {"points": [
            {"id": 0, "x": "0", "y": "0", "color": "B"},
            {"id": 1, "x": "1", "y": "1", "color": "R"},
        ]}

    def test_strings_and_integers_parse_exactly_and_floats_are_refused(self):
        points = [{"id": 0, "x": "3/2", "y": -7, "color": "B"}, {"id": 1, "x": 4, "y": "0.25", "color": "R"}]
        inst = instance_from_json(json.dumps({"points": points}))
        assert [(p.x, p.y) for p in inst.points] == [(Fraction(3, 2), -7), (4, Fraction(1, 4))]
        assert all(type(c) is Fraction for p in inst.points for c in (p.x, p.y))
        points[1]["y"] = 0.25
        with pytest.raises(BadParamsError, match="not floats"):
            instance_from_json(json.dumps({"points": points}))

    def test_swapped_instance_keeps_raw_colors(self):
        inst = make_instance([(0, 0, "R"), (1, 1, "R"), (2, 5, "R"), (5, 2, "B")])
        text = instance_to_json(inst)
        assert text.count('"R"') == 3
        assert instance_to_json(instance_from_json(text)) == text
