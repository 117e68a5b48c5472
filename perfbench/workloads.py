"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs one operation per input
through the calls the matching CLI command makes (instance JSON text in,
output JSON text out), and checks every output with ``oracle``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import oracle

# Random point sets need a wide coordinate range: at the CLI's default of 50,
# generation cannot find a clean instance from about n = 100.
COORD_BOUND = 10**6
FUZZ_CHECKS = ("correspondence", "theorem", "certificate")
FUZZ_TRIALS_PER_MODE = 498  # a multiple of len(FUZZ_SIZES)
FUZZ_SIZES = (2, 4, 6, 8, 10, 12)
SCAN_SAMPLE = 200  # unreported bichromatic pairs checked per scan-n500 instance


class OpFailed(Exception):
    """The pipeline stopped the way the CLI would with a non-zero exit."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[Any, int], list[str]]
    run: Callable[[Any, str], tuple[str, Any]]  # (output JSON, data the check needs)
    check: Callable[[Any, str, str, Any, str], None]


def _point_sets(shapes):
    """Instances for (b, r) shapes; input i is `balanced-lines gen --seed seed*1000+i`."""
    def make(bl, seed):
        return [
            bl.instance_to_json(bl.random_instance(b, r, COORD_BOUND, seed=seed * 1000 + i))
            for i, (b, r) in enumerate(shapes)
        ]
    return make


def _certify_sets(case2_shape, case2_count, case1_shape, case1_count):
    """Case-2 sets, then Case-1 sets; input j is drawn as `gen --seed seed*1000+i`.

    Draws of the Case-2 shape that turn out Case 1 are skipped: at b:r = 3:1
    and n = 48 they are from 1 in 12 to 1 in 3 of the draws, depending on the
    seed, and a Case-1 set costs a third of a Case-2 one, so their number
    would set run_s more than the program does.
    """
    def make(bl, seed):
        texts, i = [], 0
        while len(texts) < case2_count:
            inst = bl.random_instance(*case2_shape, COORD_BOUND, seed=seed * 1000 + i)
            i += 1
            if bl.classify_case(bl.build_from_points(inst)).case is bl.Case.CASE2:
                texts.append(bl.instance_to_json(inst))
        for i in range(i, i + case1_count):
            texts.append(bl.instance_to_json(
                bl.random_instance(*case1_shape, COORD_BOUND, seed=seed * 1000 + i)))
        return texts
    return make


def _scan(bl, text):
    inst = bl.instance_from_json(text)
    if not bl.validate_general_position(inst).clean:
        raise OpFailed("instance is not in general position")
    seq = bl.build_from_points(inst)
    report = bl.validate(seq)
    if not report.clean:
        raise OpFailed(f"invalid sequence: {', '.join(report.codes)}")
    return bl.witnesses_to_json(bl.scan_balanced_transpositions(seq), seq.delta), None


def _check_scan(bl, text, output, aux, sample_seed):
    oracle.check_pairs(text, output, SCAN_SAMPLE, sample_seed)


def _lines(bl, text):
    inst = bl.instance_from_json(text)
    return bl.witnesses_to_json(bl.enumerate_balanced_lines(inst), inst.delta), None


def _check_lines(bl, text, output, aux, sample_seed):
    oracle.check_pairs(text, output, None)


def _certify(bl, text):
    seq = bl.build_from_points(bl.instance_from_json(text))
    report = bl.validate(seq)
    if not report.clean:
        raise OpFailed(f"invalid sequence: {', '.join(report.codes)}")
    cert = bl.certify(seq)
    verified = bl.verify_certificate(seq, cert).ok
    return bl.certificate_to_json(cert), (seq, verified)


def _check_certify(bl, text, output, aux, sample_seed):
    seq, verified = aux
    oracle.check_certificate(text, bl.sequence_to_text(seq), output, verified)


def _fuzz_inputs(bl, seed):
    # n cycles through 2, 4, ..., 12 rather than being drawn, so that every
    # seed has the same mix of sizes; a trial's cost grows steeply with n.
    return [
        json.dumps({"mode": mode, "seed": seed * 1000 + i, "n": FUZZ_SIZES[i % len(FUZZ_SIZES)]})
        for mode in ("points", "abstract", "separated")
        for i in range(FUZZ_TRIALS_PER_MODE)
    ]


def _fuzz(bl, text):
    spec = json.loads(text)
    config = bl.FuzzConfig(
        trials=1,
        seed=spec["seed"],
        mode=bl.FuzzMode(spec["mode"]),
        n_min=spec["n"],
        n_max=spec["n"],
        checks=frozenset(bl.Check(c) for c in FUZZ_CHECKS),
    )
    report = bl.fuzz(config)
    payload = {
        "trials": report.trials_run,
        "failures": [
            {"trial": f.trial, "check": f.check, "message": f.message, "repro": f.repro}
            for f in report.failures
        ],
    }
    return json.dumps(payload, separators=(",", ":")), None


def _check_fuzz(bl, text, output, aux, sample_seed):
    oracle.check_fuzz(output)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-n500", _point_sets([(250, 250), (300, 200)]), _scan, _check_scan),
        Workload("lines-n200", _point_sets([(100, 100), (120, 80)]), _lines, _check_lines),
        # A Case-2 set's cost varies by about 0.4 of its mean from one set to
        # the next, so a round must hold many of them for run_s to hardly
        # depend on the seed; hence n = 48. The 30 Case-2 (3:1) and 55 Case-1
        # (1:1) sets split run_s about evenly and put op_p50_s among the
        # Case-1 sets.
        Workload(
            "certify-n48",
            _certify_sets((36, 12), 30, (24, 24), 55),
            _certify,
            _check_certify,
        ),
        Workload("fuzz-n12", _fuzz_inputs, _fuzz, _check_fuzz),
    )
}
