import dataclasses

import pytest

from balanced_lines import balance as balance_mod
from balanced_lines import certificate as certificate_mod
from balanced_lines import harness as harness_mod
from balanced_lines.balance import enumerate_balanced_lines
from balanced_lines.certificate import VerificationResult
from balanced_lines.errors import BadParamsError, ProofGapError
from balanced_lines.geometry import instance_from_json, validate_general_position
from balanced_lines.harness import (
    Check,
    FuzzConfig,
    FuzzMode,
    fuzz,
    random_instance,
    render_svg,
    separated_instance,
)
from balanced_lines.sequence import build_from_points, sequence_from_text, sequence_to_text, validate

from conftest import oracle_balanced_pairs


class TestRandomInstance:
    def test_minimal(self):
        inst = random_instance(1, 1, 10, seed=0)
        assert inst.n == 2 and validate_general_position(inst).clean

    def test_three_three_meets_bound(self):
        inst = random_instance(3, 3, 100, seed=1)
        assert len(enumerate_balanced_lines(inst)) >= 3

    def test_deterministic(self):
        a = random_instance(4, 2, 50, seed=9)
        b = random_instance(4, 2, 50, seed=9)
        assert [(p.x, p.y, p.color) for p in a.points] == [
            (p.x, p.y, p.color) for p in b.points
        ]

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            random_instance(1, 2, 10, seed=0)
        with pytest.raises(BadParamsError):
            random_instance(2, 1, 10, seed=0)

    def test_exhaustion_on_degenerate_grid(self):
        # A zero-size grid puts every point at the origin; no retry can help.
        from balanced_lines.errors import GenerationExhaustedError

        with pytest.raises(GenerationExhaustedError):
            random_instance(1, 1, 0, seed=0)


class TestSeparatedInstance:
    def test_shape(self):
        inst = separated_instance(1)
        assert inst.b == inst.r == 1
        assert len(oracle_balanced_pairs(inst)) == 1

    def test_attainment_small(self):
        for k in (1, 2, 3, 4):
            inst = separated_instance(k)
            assert validate_general_position(inst).clean
            assert len(oracle_balanced_pairs(inst)) == k

    def test_needs_a_point_of_each_color(self):
        with pytest.raises(BadParamsError, match=r"^k must be >= 1$"):
            separated_instance(0)

    def test_separated_by_vertical_line(self):
        inst = separated_instance(5)
        for p in inst.points[:5]:
            assert p.x < 0
        for p in inst.points[5:]:
            assert p.x > 0


class TestFuzz:
    def test_points_mode_clean(self):
        config = FuzzConfig(trials=60, seed=5, mode=FuzzMode.POINTS, n_max=8)
        report = fuzz(config)
        assert report.ok and report.trials_run == 60

    def test_abstract_mode_with_certificates(self):
        config = FuzzConfig(
            trials=40, seed=6, mode=FuzzMode.ABSTRACT_SEQ, n_max=10,
            checks=frozenset({Check.THEOREM, Check.CERTIFICATE}),
        )
        report = fuzz(config)
        assert report.ok

    def test_separated_mode(self):
        config = FuzzConfig(trials=10, seed=7, mode=FuzzMode.SEPARATED, n_max=10)
        report = fuzz(config)
        assert report.ok

    def test_deterministic(self):
        config = FuzzConfig(trials=25, seed=11, mode=FuzzMode.POINTS, n_max=8)
        assert fuzz(config) == fuzz(config)

    def test_injected_mutant_caught_with_repro(self, monkeypatch):
        # A scan that ignores colors must trip the correspondence check.
        def color_blind_scan(seq):
            from balanced_lines.balance import BalancedWitness, WitnessSource
            from balanced_lines import _kernels

            lo, hi, lw = _kernels.run_word(seq.pi0, seq.word, seq.weights)
            out = set()
            for t in range(len(lo)):
                if lw[t] == seq.delta:
                    out.add(BalancedWitness(int(lo[t]), int(hi[t]),
                                            WitnessSource.SCAN, t + 1, seq.delta))
            return out

        monkeypatch.setattr(balance_mod, "scan_balanced_transpositions", color_blind_scan)
        config = FuzzConfig(trials=30, seed=3, mode=FuzzMode.POINTS, n_max=10,
                            checks=frozenset({Check.CORRESPONDENCE}))
        report = fuzz(config)
        assert not report.ok
        failure = report.failures[0]
        assert failure.check == "correspondence"
        # the repro blob alone reproduces the failing input
        inst = instance_from_json(failure.repro)
        assert validate_general_position(inst).clean

    def test_abstract_repro_parses(self):
        config = FuzzConfig(trials=5, seed=1, mode=FuzzMode.ABSTRACT_SEQ, n_max=8,
                            checks=frozenset({Check.THEOREM}))
        fuzz(config)  # no failures expected; build a repro manually instead
        from balanced_lines.sequence import random_sequence, sequence_to_text

        seq = random_sequence(8, 5, seed=4)
        again = sequence_from_text(sequence_to_text(seq))
        assert validate(again).clean

    def test_bad_config(self):
        with pytest.raises(BadParamsError):
            FuzzConfig(trials=0, seed=0)
        with pytest.raises(BadParamsError):
            FuzzConfig(trials=1, seed=0, n_min=3, n_max=9)

    def test_n_min_above_n_max(self):
        with pytest.raises(BadParamsError, match=r"^n_min exceeds n_max$"):
            FuzzConfig(trials=1, seed=0, n_min=6, n_max=4)


class TestTrialFailures:
    # Each kind of failure a trial records names the trial, the check and
    # what failed, and its repro alone rebuilds the trial's input. The
    # package's own steps never fail, so each test plants a failing one.

    @staticmethod
    def fuzz(monkeypatch, mode, check, patches):
        """Fuzz four trials with harness bindings replaced; the first patch records each sequence."""
        seen = []
        (first, record), *rest = patches.items()
        monkeypatch.setattr(harness_mod, first, lambda seq, *args: record(seen.append(seq) or seq, *args))
        for name, fake in rest:
            monkeypatch.setattr(harness_mod, name, fake)
        config = FuzzConfig(trials=4, seed=2, mode=mode, n_min=6, n_max=10, checks=frozenset({check}))
        return fuzz(config).failures, seen

    @staticmethod
    def assert_records(failures, mode, expected, seen):
        assert expected and [(f.trial, f.check, f.message) for f in failures] == expected
        for f in failures:
            if mode is FuzzMode.ABSTRACT_SEQ:
                again = sequence_from_text(f.repro)
            else:
                again = build_from_points(instance_from_json(f.repro))
            assert sequence_to_text(again) == sequence_to_text(seen[f.trial])

    def test_theorem_failure(self, monkeypatch):
        mode = FuzzMode.ABSTRACT_SEQ
        failures, seen = self.fuzz(monkeypatch, mode, Check.THEOREM,
                                   {"scan_balanced_transpositions": lambda seq: set()})
        expected = [(i, "theorem", f"0 balanced < r = {seq.r}") for i, seq in enumerate(seen) if seq.r]
        self.assert_records(failures, mode, expected, seen)

    def test_verification_failure(self, monkeypatch):
        mode = FuzzMode.POINTS
        failures, seen = self.fuzz(monkeypatch, mode, Check.CERTIFICATE, {
            "verify_certificate": lambda seq, cert: VerificationResult(False, ("PLANTED a", "PLANTED b")),
        })
        expected = [(i, "certificate", "PLANTED a; PLANTED b") for i in range(len(seen))]
        self.assert_records(failures, mode, expected, seen)

    def test_certificate_short_of_r(self, monkeypatch):
        # A verifier that accepts a certificate with no witnesses: the trial
        # still counts them against r.
        mode = FuzzMode.ABSTRACT_SEQ
        failures, seen = self.fuzz(monkeypatch, mode, Check.CERTIFICATE, {
            "certify": lambda seq: dataclasses.replace(certificate_mod.certify(seq), witnesses=()),
            "verify_certificate": lambda seq, cert: VerificationResult(True, ()),
        })
        expected = [(i, "certificate", f"certificate has 0 < r = {seq.r}")
                    for i, seq in enumerate(seen) if seq.r]
        self.assert_records(failures, mode, expected, seen)

    def test_raised_exception(self, monkeypatch):
        def gap(seq):
            raise ProofGapError("planted gap")

        mode = FuzzMode.SEPARATED
        failures, seen = self.fuzz(monkeypatch, mode, Check.CERTIFICATE, {"certify": gap})
        expected = [(i, "certificate", "ProofGapError: planted gap") for i in range(len(seen))]
        self.assert_records(failures, mode, expected, seen)


class TestRenderSvg:
    def test_two_points_one_line(self, t1):
        svg = render_svg(t1, enumerate_balanced_lines(t1))
        assert svg.count("<circle") == 2
        assert svg.count("<line") == 1
        assert "b=1 r=1 delta=0 balanced=1" in svg

    def test_separated(self, t2):
        svg = render_svg(t2, enumerate_balanced_lines(t2))
        assert svg.count("<circle") == 6
        assert svg.count("<line") == 3

    def test_empty_witnesses(self, t2):
        svg = render_svg(t2, set())
        assert svg.count("<line") == 0
        assert svg.count("<circle") == 6

    def test_deterministic(self, t2):
        wit = enumerate_balanced_lines(t2)
        assert render_svg(t2, wit) == render_svg(t2, wit)
