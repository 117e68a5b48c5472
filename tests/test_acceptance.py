"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import balanced_lines
from balanced_lines.balance import enumerate_balanced_lines, scan_balanced_transpositions
from balanced_lines.certificate import Case, case1_certificate, certify, classify_case, verify_certificate
from balanced_lines.curves import CurveSpec, classify_change, find_weight_changes, mirror_track, track
from balanced_lines.geometry import Color
from balanced_lines.harness import random_instance, separated_instance
from balanced_lines.sequence import build_from_points, random_sequence

from conftest import all_permutations, oracle_balanced_pairs

TRIALS = 10_000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def points_corpus():
    """Criteria 1 and 3 share this sweep: 10,000 seeded clean instances."""
    # warm the kernels so the timed loop measures the algorithm, not the JIT
    scan_balanced_transpositions(random_sequence(4, 2, seed=0))
    build_from_points(random_instance(2, 2, 50, seed=0))

    count_failures = []
    correspondence_failures = []
    t0 = time.perf_counter()
    for i in range(TRIALS):
        rng = random.Random(f"acceptance1:{i}")
        n = rng.randrange(2, 13, 2)
        r = rng.randint(0, n // 2)
        inst = random_instance(n - r, r, 50, seed=rng.getrandbits(48))
        geo = {w.pair for w in enumerate_balanced_lines(inst)}
        if len(geo) < inst.r:
            count_failures.append(i)
        scan = {w.pair for w in scan_balanced_transpositions(build_from_points(inst))}
        if geo != scan:
            correspondence_failures.append(i)
    elapsed = time.perf_counter() - t0
    return count_failures, correspondence_failures, elapsed


@pytest.fixture(scope="module")
def abstract_corpus():
    """Criterion 4 sweep; also collects every Case-2 certificate for criterion 5."""
    scan_balanced_transpositions(random_sequence(4, 2, seed=0))
    failures = []
    case2_certs = []
    for i in range(TRIALS):
        rng = random.Random(f"acceptance4:{i}")
        n = rng.randrange(2, 13, 2)
        blue = rng.randint((n + 1) // 2, n)
        seq = random_sequence(n, blue, seed=rng.getrandbits(48))
        try:
            if len(scan_balanced_transpositions(seq)) < seq.r:
                failures.append((i, "scan below r"))
                continue
            cert = certify(seq)
            result = verify_certificate(seq, cert)
            if not result.ok or len(cert.witnesses) < seq.r:
                failures.append((i, "; ".join(result.diagnostics) or "count"))
            elif cert.case == Case.CASE2.value:
                case2_certs.append((seq, cert))
        except Exception as exc:  # noqa: BLE001
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return failures, case2_certs


def test_criterion_1_lower_bound_at_scale(points_corpus):
    count_failures, _, elapsed = points_corpus
    ok = not count_failures and elapsed < 60.0
    report(1, ok, f"{TRIALS} instances, {len(count_failures)} below min(b,r), {elapsed:.1f}s")


def test_criterion_2_attainment():
    bad = []
    for k in range(1, 9):
        inst = separated_instance(k)
        expected = oracle_balanced_pairs(inst)
        got = {w.pair for w in enumerate_balanced_lines(inst)}
        if len(expected) != k or got != expected:
            bad.append(k)
    report(2, not bad, f"separated k=1..8 give exactly k balanced lines (bad: {bad})")


def test_criterion_3_correspondence(points_corpus):
    _, correspondence_failures, _ = points_corpus
    report(3, not correspondence_failures,
           f"geometric/scan pair sets identical on {TRIALS} instances "
           f"({len(correspondence_failures)} mismatches)")


def test_criterion_4_generalized_configurations(abstract_corpus):
    failures, case2_certs = abstract_corpus
    report(4, not failures,
           f"{TRIALS} abstract sequences certified and verified "
           f"({len(failures)} failures, {len(case2_certs)} Case-2 certificates)")


def test_criterion_5_curve_property_suites(abstract_corpus, t_red_border, t_blue_border):
    violations = []

    # Strong continuity, mirror identity, and the change dichotomy over a
    # dedicated corpus of abstract and point-built sequences.
    corpus = []
    for i in range(400):
        rng = random.Random(f"acceptance5:{i}")
        n = rng.randrange(4, 13, 2)
        blue = rng.randint((n + 1) // 2, n)
        corpus.append(random_sequence(n, blue, seed=rng.getrandbits(48)))
    corpus.append(build_from_points(t_red_border))
    corpus.append(build_from_points(t_blue_border))
    corpus.append(build_from_points(separated_instance(4)))

    for seq in corpus:
        delta = seq.delta
        for color in (Color.BLUE, Color.RED):
            members = frozenset(i for i in range(seq.n) if seq.colors[i] is color)
            if not members:
                continue
            down = -1 if color is Color.BLUE else 1
            for k in range(1, len(members) + 1):
                spec = CurveSpec(members, k)
                trk = track(seq, spec)  # raises on strong-continuity violation
                if color is Color.BLUE:
                    mt = mirror_track(seq, spec)
                    for t in range(seq.period):
                        if mt.weight_at(t + seq.half_period) != 2 * delta - 1 - trk.weight_at(t):
                            violations.append("mirror identity")
                for t in find_weight_changes(trk, delta, delta + down):
                    classify_change(seq, spec, t, "descent")  # raises unless dichotomy holds
                for t in find_weight_changes(trk, delta + down, delta):
                    classify_change(seq, spec, t, "ascent")

    # Per-curve charge quotas in every Case-2 certificate seen
    # by the criterion-4 sweep.
    _, case2_certs = abstract_corpus
    extra = [build_from_points(t_red_border), build_from_points(t_blue_border)]
    case2 = list(case2_certs) + [(s, certify(s)) for s in extra]
    for seq, cert in case2:
        if cert.case != Case.CASE2.value:
            continue
        by_curve = {}
        for pair, origin in cert.witness_origins:
            by_curve.setdefault(origin, set()).add(pair)
        for j, charge in enumerate(cert.ledger.ch_f, start=1):
            if len(by_curve.get(f"F{j}", ())) < charge + 1:
                violations.append(f"descent quota at F{j}")
        for i, charge in enumerate(cert.ledger.ch_h, start=1):
            if len(by_curve.get(f"H{i}", ())) < charge + 1:
                violations.append(f"ascent quota at H{i}")

    report(5, not violations,
           f"strong continuity, mirror identity, change dichotomy, charge quotas "
           f"({len(corpus)} sequences, {len(case2)} Case-2 certs, "
           f"{len(violations)} violations)")


def test_criterion_6_case1_counting():
    checked = 0
    bad = []
    for i in range(800):
        rng = random.Random(f"acceptance6:{i}")
        n = rng.randrange(2, 13, 2)
        blue = rng.randint((n + 1) // 2, n)
        seq = random_sequence(n, blue, seed=rng.getrandbits(48))
        if classify_case(seq).case is not Case.CASE1:
            continue
        cert = case1_certificate(seq)
        per_rank = {}
        for pair, origin in cert.witness_origins:
            per_rank.setdefault(origin, []).append(pair)
        perms = all_permutations(seq)
        mid = range(seq.delta + 1, seq.b // 2 + 1)
        for k in mid:
            if len(per_rank.get(f"B{k}", [])) < 2:
                bad.append((i, k, "fewer than two witnesses"))
        for origin, pairs in per_rank.items():
            k = int(origin[1:])
            for pair in pairs:
                w = next(x for x in cert.witnesses if x.pair == pair)
                prev = perms[(w.t - 1) % seq.period]
                pos = next(q for q in range(seq.n - 1)
                           if {prev[q], prev[q + 1]} == set(pair))
                blues_left = sum(1 for v in prev[:pos] if seq.colors[v] is Color.BLUE)
                if blues_left != k - 1:
                    bad.append((i, k, f"blue-left {blues_left}"))
        if len(cert.witnesses) < seq.r:
            bad.append((i, None, "total below r"))
        checked += 1
    report(6, checked > 400 and not bad,
           f"{checked} Case-1 inputs, per-rank pairs with exact blue-left counts "
           f"({len(bad)} violations)")


def test_criterion_7_performance():
    inst = random_instance(250, 250, 10**6, seed=2024)
    # warm the kernels outside the timed section
    build_from_points(random_instance(2, 2, 50, seed=0))
    t0 = time.perf_counter()
    seq = build_from_points(inst)
    witnesses = scan_balanced_transpositions(seq)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0 and len(witnesses) >= 250 and len(seq.word) == 500 * 499 // 2
    report(7, ok,
           f"n=500 build+scan {elapsed:.2f}s (< 5s), {len(witnesses)} witnesses, "
           f"word stores {len(seq.word)} swaps")


def test_criterion_8_cli_determinism(tmp_path):
    # The CLI runs from tmp_path, where a relative PYTHONPATH (e.g. "src")
    # resolves to nothing; point the child at the package this process imported.
    package_root = str(Path(balanced_lines.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    inst_path = tmp_path / "inst.json"
    seq_cmds = [
        ("gen", "--blue", "4", "--red", "2", "--seed", "11", "--out", str(inst_path)),
        ("lines", str(inst_path)),
        ("scan", str(inst_path)),
        ("certify", str(inst_path)),
        ("fuzz", "--trials", "15", "--nmax", "8", "--seed", "5", "--mode", "abstract",
         "--checks", "theorem,certificate"),
        ("render", str(inst_path), "--out", str(tmp_path / "plot.svg")),
    ]
    written = {"gen": inst_path, "render": tmp_path / "plot.svg"}

    def run_cli(cmd):
        """(stdout, written file) on success, else (None, (command, exit code, last stderr line))."""
        proc = subprocess.run(
            [sys.executable, "-m", "balanced_lines.cli", *cmd],
            capture_output=True, env=env, cwd=str(tmp_path), check=False,
        )
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            return None, (cmd[0], proc.returncode, lines[-1] if lines else "")
        path = written.get(cmd[0])
        return (proc.stdout, path.read_bytes() if path else b""), None

    mismatches = []
    for cmd in seq_cmds:
        result1, failure1 = run_cli(cmd)
        result2, failure2 = run_cli(cmd)
        failures = [f for f in (failure1, failure2) if f]
        if failures:
            mismatches.extend(failures)
        elif result1 != result2:
            mismatches.append(cmd[0])
    report(8, not mismatches,
           f"byte-identical stdout/files across repeated runs (mismatches: {mismatches})")
