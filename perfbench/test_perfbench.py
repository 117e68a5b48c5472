"""Tests of the benchmark itself: the oracle rejects corrupted outputs, the
tracer leaves the package as it found it, the speed meter scales spans and
restores the timer, and BENCHMARK.json matches run.py.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import oracle
import run
import speed
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bl():
    return run.import_package()


def _instance(bl, b, r, seed):
    return bl.instance_to_json(bl.random_instance(b, r, 1000, seed=seed))


def _pairs_output(bl, text):
    inst = bl.instance_from_json(text)
    return bl.witnesses_to_json(bl.enumerate_balanced_lines(inst), inst.delta)


def _with_pairs(output, pairs):
    out = json.loads(output)
    out["pairs"], out["count"] = [list(p) for p in sorted(pairs)], len(pairs)
    return json.dumps(out)


@pytest.mark.parametrize("shape, red_majority", [((8, 8), False), ((12, 4), False), ((11, 5), True)])
def test_pair_checks_accept_program_output(bl, shape, red_majority):
    text = _instance(bl, *shape, seed=3)
    if red_majority:
        text = text.replace('"B"', '"X"').replace('"R"', '"B"').replace('"X"', '"R"')
    output, _ = WORKLOADS["scan-n500"].run(bl, text)
    oracle.check_pairs(text, output, None)
    oracle.check_pairs(text, output, 1000, "s")
    assert output == _pairs_output(bl, text)


def test_pair_checks_reject_dropped_or_added_pair(bl):
    text = _instance(bl, 10, 6, seed=5)
    output = _pairs_output(bl, text)
    pairs = [tuple(p) for p in json.loads(output)["pairs"]]
    pts = oracle.PointSet(text)
    unbalanced = next(p for p in pts.bichromatic_pairs() if p not in pairs)
    dropped = _with_pairs(output, pairs[1:])
    added = _with_pairs(output, pairs + [unbalanced])
    with pytest.raises(oracle.CheckError, match="differs"):
        oracle.check_pairs(text, dropped, None)
    with pytest.raises(oracle.CheckError, match="missing"):
        oracle.check_pairs(text, dropped, 10**6, "s")  # the sample covers every pair
    for sample in (None, 10):
        with pytest.raises(oracle.CheckError, match="not a balanced line"):
            oracle.check_pairs(text, added, sample, "s")


def test_pair_checks_reject_wrong_delta_or_count(bl):
    text = _instance(bl, 10, 6, seed=5)
    output = json.loads(_pairs_output(bl, text))
    with pytest.raises(oracle.CheckError, match="delta"):
        oracle.check_pairs(text, json.dumps({**output, "delta": output["delta"] + 1}), None)
    with pytest.raises(oracle.CheckError, match="count"):
        oracle.check_pairs(text, json.dumps({**output, "count": output["count"] + 1}), None)


@pytest.fixture(scope="module", params=[(12, 4), (10, 10), (9, 3)])
def certified(bl, request):
    text = _instance(bl, *request.param, seed=7)
    output, (seq, verified) = WORKLOADS["certify-n48"].run(bl, text)
    return text, bl.sequence_to_text(seq), output, verified


def test_certificate_check_accepts_program_output(certified):
    oracle.check_certificate(*certified)


def _corrupt(cert_text, change):
    cert = json.loads(cert_text)
    change(cert["witnesses"])
    return json.dumps(cert)


@pytest.mark.parametrize("change, message", [
    (lambda ws: ws[0].update(t=ws[0]["t"] + 1), "swap at t=|outside"),
    (lambda ws: ws[-1].update(t=ws[-1]["t"] - 1), "swap at t=|outside"),
    (lambda ws: ws.append(dict(ws[0])), "repeats"),
    (lambda ws: ws[0].update(left_weight=ws[0]["left_weight"] + 1), "left weight"),
    (lambda ws: ws[0].update(blue=ws[0]["red"], red=ws[0]["blue"]), "not blue/red"),
])
def test_certificate_check_rejects_corrupted_witness(certified, change, message):
    text, seq_text, cert_text, verified = certified
    with pytest.raises(oracle.CheckError, match=message):
        oracle.check_certificate(text, seq_text, _corrupt(cert_text, change), verified)


def test_certificate_check_rejects_too_few_witnesses(certified):
    text, seq_text, cert_text, verified = certified
    r = oracle.PointSet(text).r
    too_few = _corrupt(cert_text, lambda ws: ws.__delitem__(slice(r - 1, None)))
    with pytest.raises(oracle.CheckError, match="witnesses < min"):
        oracle.check_certificate(text, seq_text, too_few, verified)


def test_certificate_check_rejects_unverified_or_foreign_sequence(bl, certified):
    text, seq_text, cert_text, _ = certified
    with pytest.raises(oracle.CheckError, match="verify_certificate"):
        oracle.check_certificate(text, seq_text, cert_text, False)
    pts = oracle.PointSet(text)
    other = bl.build_from_points(bl.random_instance(pts.b, pts.r, 1000, seed=8))
    with pytest.raises(oracle.CheckError):
        oracle.check_certificate(text, bl.sequence_to_text(other), cert_text, True)


def test_replay_rejects_malformed_words():
    good = "4\nBBRR\n0 1 2 3\n0\n1\n2\n0\n1\n0\n"
    oracle.Replay(good)
    with pytest.raises(oracle.CheckError, match="twice"):
        oracle.Replay("4\nBBRR\n0 1 2 3\n0\n0\n2\n0\n1\n0\n")
    with pytest.raises(oracle.CheckError, match="expected 6"):
        oracle.Replay("4\nBBRR\n0 1 2 3\n0\n1\n2\n")
    with pytest.raises(oracle.CheckError, match="out of range"):
        oracle.Replay("4\nBBRR\n0 1 2 3\n0\n1\n3\n0\n1\n0\n")


def test_fuzz_check(bl):
    output, _ = WORKLOADS["fuzz-n12"].run(bl, json.dumps({"mode": "points", "seed": 4, "n": 8}))
    oracle.check_fuzz(output)
    failed = json.dumps({"trials": 1, "failures": [{"message": "boom"}]})
    with pytest.raises(oracle.CheckError, match="boom"):
        oracle.check_fuzz(failed)
    with pytest.raises(oracle.CheckError, match="trials"):
        oracle.check_fuzz(json.dumps({"trials": 2, "failures": []}))


def test_inputs_follow_the_seed(bl):
    make = WORKLOADS["fuzz-n12"].make_inputs
    assert make(bl, 1) == make(bl, 1) != make(bl, 2)
    assert len(make(bl, 1)) == len(set(make(bl, 1)))


def test_tracer_counts_and_restores(bl):
    import balanced_lines.balance as balance
    import balanced_lines.geometry as geometry
    text = _instance(bl, 6, 4, seed=2)
    inst = bl.instance_from_json(text)
    originals = (bl.enumerate_balanced_lines, balance.halfplane_weights, geometry.halfplane_weights)
    tracer = Tracer()
    tracer.install()
    assert bl.enumerate_balanced_lines is not originals[0]
    mark = tracer.mark()
    span = tracer.open("round")
    seq = bl.build_from_points(inst)
    bl.enumerate_balanced_lines(inst)
    bl.certify(seq)
    tracer.close(span)
    summary = tracer.summarize(mark)
    tracer.uninstall()
    assert (bl.enumerate_balanced_lines, balance.halfplane_weights,
            geometry.halfplane_weights) == originals
    assert summary["geometry.halfplane_weights.calls"] == 6 * 4
    assert summary["balance.enumerate_balanced_lines.calls"] == 1
    assert summary["sequence.build_from_points.calls"] == 1
    assert summary["_kernels.events_to_word.calls"] == 1
    assert summary["_kernels.steps"] >= 10 * 9 // 2
    for name in ("sequence.build_from_points", "certificate.certify", "round"):
        assert 0 <= summary[name + ".self_s"] <= summary[name + ".total_s"]
    assert summary["round.self_s"] < summary["round.total_s"]


def test_speed_meter_scales_spans_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter(interval_s=0.01)
    with meter:
        mark = meter.mark()
        deadline = perf_counter() + 0.2
        while perf_counter() < deadline:
            pass
        span = meter.span(mark)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert span.end - span.first >= 5  # samples were taken during the span
    assert 0 < span.wall_s < 0.2  # the meter's own time is not counted
    window = meter.samples[span.first - 1:span.end + 1]
    factor = statistics.mean(speed.REFERENCE_S / s for s in window)
    assert meter.scaled(span) == pytest.approx(span.wall_s * factor)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-n12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no package" in proc.stderr
