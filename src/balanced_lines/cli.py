"""Command-line interface.

Exit codes: 0 on success, 1 when a check fails, 2 on input errors, 3 on
internal errors (a ``ProofGapError``: a step the theorem guarantees failed on
validated input, which only a bug in this package can cause). All output is
deterministic for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .balance import (
    enumerate_balanced_lines,
    scan_balanced_transpositions,
    witnesses_to_json,
)
from .certificate import certificate_to_json, certify, verify_certificate
from .errors import BalancedLinesError, GenerationExhaustedError, ProofGapError
from .geometry import instance_from_json, instance_to_json, validate_general_position
from .harness import (
    Check,
    FuzzConfig,
    FuzzMode,
    fuzz,
    random_instance,
    render_svg,
    separated_instance,
)
from .sequence import build_from_points, sequence_from_text, validate


def _load_instance(path: str):
    return instance_from_json(Path(path).read_text())


def _load_sequence(args):
    """The sequence of ``--seq`` or the instance file; None, its defects on stderr, if invalid."""
    if getattr(args, "seq", None):
        seq = sequence_from_text(Path(args.seq).read_text())
    elif not args.file:
        raise BalancedLinesError("provide an instance file or --seq")
    else:
        seq = build_from_points(_load_instance(args.file))
    report = validate(seq)
    if not report.clean:
        print(f"invalid sequence: {', '.join(report.codes)}", file=sys.stderr)
        return None
    return seq


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    if args.separated:
        if args.blue != args.red:
            print("--separated requires --blue == --red", file=sys.stderr)
            return 2
        inst = separated_instance(args.blue)
    elif args.seed is None:
        print("--seed is required unless --separated", file=sys.stderr)
        return 2
    else:
        try:
            inst = random_instance(args.blue, args.red, args.coord_bound, seed=args.seed)
        except GenerationExhaustedError as exc:
            print(f"error: {exc}; raise --coord-bound to leave the points more room",
                  file=sys.stderr)
            return 2
    _emit(instance_to_json(inst), args.out)
    return 0


def _cmd_validate(args) -> int:
    inst = _load_instance(args.file)
    report = validate_general_position(inst)
    payload = {
        "clean": report.clean,
        "collinear_triples": [list(t) for t in report.collinear_triples],
        "parallel_pair_pairs": [[list(a), list(b)] for a, b in report.parallel_pair_pairs],
        "coincident_pairs": [list(p) for p in report.coincident_pairs],
    }
    _emit(json.dumps(payload, separators=(",", ":")), None)
    return 0 if report.clean else 1


def _cmd_lines(args) -> int:
    inst = _load_instance(args.file)
    witnesses = enumerate_balanced_lines(inst)
    _emit(witnesses_to_json(witnesses, inst.delta), args.json)
    return 0


def _cmd_scan(args) -> int:
    if (seq := _load_sequence(args)) is None:
        return 2
    witnesses = scan_balanced_transpositions(seq)
    _emit(witnesses_to_json(witnesses, seq.delta), args.json)
    return 0


def _cmd_certify(args) -> int:
    if (seq := _load_sequence(args)) is None:
        return 2
    cert = certify(seq)
    result = verify_certificate(seq, cert)
    _emit(certificate_to_json(cert), args.json)
    if not result.ok:
        print("; ".join(result.diagnostics), file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    kwargs = {}
    if args.checks:
        kwargs["checks"] = frozenset(Check(c) for c in args.checks.split(","))
    config = FuzzConfig(
        trials=args.trials,
        seed=args.seed,
        mode=FuzzMode(args.mode),
        n_min=args.nmin,
        n_max=args.nmax,
        **kwargs,
    )
    report = fuzz(config)
    payload = {
        "trials": report.trials_run,
        "failures": [
            {"trial": f.trial, "check": f.check, "message": f.message, "repro": f.repro}
            for f in report.failures
        ],
    }
    _emit(json.dumps(payload, separators=(",", ":")), None)
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    inst = _load_instance(args.file)
    witnesses = enumerate_balanced_lines(inst)
    _emit(render_svg(inst, witnesses), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balanced-lines",
        description="Balanced lines of two-colored planar point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance as JSON")
    p.add_argument("--blue", type=int, required=True)
    p.add_argument("--red", type=int, required=True)
    p.add_argument("--seed", type=int, help="required unless --separated, which reads none")
    p.add_argument("--separated", action="store_true")
    p.add_argument("--coord-bound", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="report general-position defects")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lines", help="geometric balanced-line enumeration")
    p.add_argument("file")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("scan", help="balanced transpositions of the allowable sequence")
    p.add_argument("file", nargs="?")
    p.add_argument("--seq", help="sequence text file instead of an instance")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("certify", help="produce and verify a witness certificate")
    p.add_argument("file", nargs="?")
    p.add_argument("--seq")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("fuzz", help="randomized theorem checking")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in FuzzMode], default="points")
    p.add_argument("--nmin", type=int, default=2)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checks", help="comma-separated: correspondence,theorem,certificate")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("render", help="SVG of an instance and its balanced lines")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProofGapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (BalancedLinesError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
