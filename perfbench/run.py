"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan-n500 --seed 1 --seconds 25 --trace 0

Set-up imports the package from ``src/`` next to this directory and makes the
workload's inputs from the seed; it is repeated and its median reported. The
timed section is a round: one operation per input. Rounds repeat until the
next one would end after ``--seconds``. Outputs are checked once per input
against ``oracle``, and every later round must reproduce them byte for byte.
The end-to-end times are scaled to a reference machine speed by ``speed``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones (median over rounds; counts must repeat exactly), plus the tracing
overhead. Human-readable notes go to stderr; the last stdout line is the
result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from oracle import CheckError
from speed import SpeedMeter
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MAX_TRACED_ROUNDS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# metric -> summary key from Tracer.summarize over one traced round. Metric
# names must start with a letter or digit, so `_kernels` appears as `kernels`.
PER_LAYER = {
    "geometry.instance_from_json_s": "geometry.instance_from_json.total_s",
    "geometry.validate_general_position_s": "geometry.validate_general_position.total_s",
    "sequence.build_from_points_s": "sequence.build_from_points.self_s",
    "sequence.validate_s": "sequence.validate.total_s",
    "kernels.events_to_word_s": "_kernels.events_to_word.total_s",
    "kernels.run_word_s": "_kernels.run_word.total_s",
    "kernels.track_rank_s": "_kernels.track_rank.total_s",
    "kernels.element_walk_s": "_kernels.element_walk.total_s",
    "balance.enumerate_balanced_lines_s": "balance.enumerate_balanced_lines.total_s",
    "balance.scan_balanced_transpositions_s": "balance.scan_balanced_transpositions.total_s",
    "certificate.classify_case_s": "certificate.classify_case.total_s",
    "certificate.case1_certificate_s": "certificate.case1_certificate.total_s",
    "certificate.case2_certificate_s": "certificate.case2_certificate.total_s",
    "certificate.maximize_border_s": "certificate.maximize_border.total_s",
    "certificate.check_border_s": "certificate.check_border.total_s",
    "certificate.verify_certificate_s": "certificate.verify_certificate.total_s",
    "harness.fuzz_s": "harness.fuzz.self_s",
    "harness.random_instance_s": "harness.random_instance.total_s",
    "geometry.halfplane_weights_calls": "geometry.halfplane_weights.calls",
    "sequence.build_from_points_calls": "sequence.build_from_points.calls",
    "balance.enumerate_balanced_lines_calls": "balance.enumerate_balanced_lines.calls",
    "curves.track_calls": "curves.track.calls",
    "kernels.steps": "_kernels.steps",
    "certificate.case2_certificate_calls": "certificate.case2_certificate.calls",
    "certificate.case2_certificate_retries": "certificate.case2_certificate.InsufficientBorderError",
}
# Generation is set-up work everywhere but fuzz-n12, so this one metric
# covers the traced set-up plus one round.
SETUP_AND_ROUND = {"harness.random_instance_s"}
PER_LAYER_UNITS = {name: ("s" if name.endswith("_s") else "count") for name in PER_LAYER}
PER_LAYER_UNITS["trace.overhead_s"] = "s"


class PackageMissing(Exception):
    pass


def import_package():
    """Import ``balanced_lines`` afresh from this checkout's ``src/``, never from elsewhere."""
    package_dir = SRC / "balanced_lines"
    if not (package_dir / "__init__.py").is_file():
        raise PackageMissing(f"no package at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "balanced_lines" or m.startswith("balanced_lines.")]:
        del sys.modules[name]
    bl = importlib.import_module("balanced_lines")
    if Path(bl.__file__).resolve().parent != package_dir.resolve():
        raise PackageMissing(f"imported balanced_lines from {bl.__file__}, not {package_dir}")
    return bl


class Runner:
    """Runs rounds over fixed inputs; keeps first outputs."""

    def __init__(self, workload, bl, inputs):
        self.workload, self.bl, self.inputs = workload, bl, inputs
        self.outputs: list = [None] * len(inputs)
        self.aux: list = [None] * len(inputs)
        self.attempted = self.failed = 0
        self.changed: set[int] = set()  # inputs whose output differed between rounds

    def round(self, tracer=None, meter=None):
        """Run every input once; return the wall time and, with a meter, each operation's span."""
        round_start = perf_counter()
        op_spans = []
        for i, text in enumerate(self.inputs):
            span = tracer.open("op") if tracer else None
            mark = meter.mark() if meter else None
            try:
                output, aux = self.workload.run(self.bl, text)
            except Exception:  # a failed operation is counted, and the run goes on
                output = aux = None
                self.failed += 1
                print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            if meter:
                op_spans.append(meter.span(mark))
            if tracer:
                tracer.close(span)
            self.attempted += 1
            if output is None:
                continue
            if self.outputs[i] is None:
                self.outputs[i], self.aux[i] = output, aux
            elif output != self.outputs[i]:
                self.changed.add(i)
        return perf_counter() - round_start, op_spans

    def check(self, seed: int) -> bool:
        ok = not self.changed
        if self.changed:
            print(f"outputs changed between rounds for inputs {sorted(self.changed)}",
                  file=sys.stderr)
        for i, text in enumerate(self.inputs):
            if self.outputs[i] is None:
                continue
            try:
                self.workload.check(self.bl, text, self.outputs[i], self.aux[i],
                                    f"{self.workload.name}:{seed}:{i}")
            except (CheckError, KeyError, TypeError, ValueError) as exc:
                ok = False
                print(f"input {i}: output rejected: {exc!r}", file=sys.stderr)
        return ok


def run_plain(workload, seed, seconds):
    meter = SpeedMeter()
    setups, walls, rounds = [], [], []
    with meter:
        for _ in range(SETUP_REPEATS):
            mark = meter.mark()
            bl = import_package()
            inputs = workload.make_inputs(bl, seed)
            setups.append(meter.span(mark))
        runner = Runner(workload, bl, inputs)
        deadline = perf_counter() + seconds
        while True:
            wall, op_spans = runner.round(meter=meter)
            walls.append(wall)
            rounds.append(op_spans)
            if perf_counter() + statistics.median(walls) > deadline:
                break
    round_s = [sum(meter.scaled(span) for span in op_spans) for op_spans in rounds]
    print(f"{workload.name}: {len(inputs)} operation(s) a round, round times "
          f"{[round(r, 3) for r in walls]} s wall, {[round(r, 3) for r in round_s]} s scaled; "
          f"mean speed factor {meter.factor():.3f} over {len(meter.samples)} samples",
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(meter.scaled(span) for span in setups),
        "run_s": statistics.median(round_s),
        "op_p50_s": statistics.median(meter.scaled(span) for op_spans in rounds for span in op_spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runner, metrics, END_TO_END, True


def run_traced(workload, seed, seconds):
    bl = import_package()
    tracer = Tracer()
    tracer.install()
    setup_mark = tracer.mark()
    span = tracer.open("setup")
    inputs = workload.make_inputs(bl, seed)
    tracer.close(span)
    setup = tracer.summarize(setup_mark)
    tracer.uninstall()

    runner = Runner(workload, bl, inputs)
    deadline = perf_counter() + seconds
    plain, traced, summaries = [], [], []
    while True:
        plain.append(runner.round()[0])
        tracer.install()
        mark = tracer.mark()
        span = tracer.open("round")
        traced.append(runner.round(tracer)[0])
        tracer.close(span)
        summaries.append(tracer.summarize(mark))
        tracer.uninstall()
        next_pair = statistics.median(plain) + statistics.median(traced)
        if len(traced) >= MAX_TRACED_ROUNDS or perf_counter() + next_pair > deadline:
            break
    print(f"{workload.name}: untraced round times {[round(r, 3) for r in plain]} s, "
          f"traced {[round(r, 3) for r in traced]} s", file=sys.stderr)

    metrics, counts_repeat = {}, True
    for metric, key in PER_LAYER.items():
        values = [s.get(key, 0) for s in summaries]
        if PER_LAYER_UNITS[metric] == "count":
            counts_repeat &= len(set(values)) == 1
            metrics[metric] = values[0]
        else:
            metrics[metric] = statistics.median(values)
        if metric in SETUP_AND_ROUND:
            metrics[metric] += setup.get(key, 0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if not counts_repeat:
        print("call counts differ between traced rounds", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json",
                 {"workload": workload.name, "seed": seed})
    return runner, metrics, PER_LAYER_UNITS, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    try:
        runner, metrics, units, counts_repeat = run(workload, args.seed, args.seconds)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = runner.check(args.seed) and counts_repeat
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
