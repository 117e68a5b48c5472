"""Spans and counts around the package's public functions, from outside it.

``Tracer.install`` replaces each target function by a wrapper in every
``balanced_lines`` module that holds it (``from .x import f`` makes a second
binding), and ``uninstall`` puts the originals back, so traced and untraced
rounds run the same code. Spans live in memory until ``write``.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, kind). "span" records a span, "count" only counts calls
# (too many, too short for a span each), "steps" also adds len(args[1]), the
# word or event list a kernel replays, to the `_kernels.steps` count.
TARGETS = (
    ("geometry", "instance_from_json", "span"),
    ("geometry", "validate_general_position", "span"),
    ("geometry", "halfplane_weights", "count"),
    ("sequence", "build_from_points", "span"),
    ("sequence", "validate", "span"),
    ("_kernels", "events_to_word", "steps"),
    ("_kernels", "run_word", "steps"),
    ("_kernels", "track_rank", "steps"),
    ("_kernels", "element_walk", "steps"),
    ("balance", "enumerate_balanced_lines", "span"),
    ("balance", "scan_balanced_transpositions", "span"),
    ("curves", "track", "span"),
    ("certificate", "classify_case", "span"),
    ("certificate", "case1_certificate", "span"),
    ("certificate", "case2_certificate", "span"),
    ("certificate", "maximize_border", "span"),
    ("certificate", "check_border", "span"),
    ("certificate", "certify", "span"),
    ("certificate", "verify_certificate", "span"),
    ("harness", "random_instance", "span"),
    ("harness", "fuzz", "span"),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "balanced_lines" or name.startswith("balanced_lines.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, kind):
        counts = self.counts

        if kind == "count":
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            counts[name + ".calls"] += 1
            if kind == "steps":
                counts["_kernels.steps"] += len(args[1])
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                self.close(idx)
        return spanned

    def install(self) -> None:
        modules = _package_modules()
        for module, func, kind in TARGETS:
            original = getattr(sys.modules[f"balanced_lines.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, kind)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter]:
        """Where the next phase starts: span index and a copy of the counts."""
        return len(self.start), Counter(self.counts)

    def summarize(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per name: total and self seconds, plus every count, since a mark.

        Self time is a span's duration minus its direct children's durations;
        spans nest, and one thread runs them, so children never overlap.
        """
        first, counts_then = since
        dur = [self.end[i] - self.start[i] for i in range(first, len(self.start))]
        own = list(dur)
        for i in range(first, len(self.start)):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= dur[i - first]
        out: dict[str, float] = Counter()
        for i in range(first, len(self.start)):
            name = self.names[self.span_name[i]]
            out[name + ".total_s"] += dur[i - first]
            out[name + ".self_s"] += own[i - first]
        out.update(self.counts - counts_then)
        return out

    def write(self, path, meta: dict) -> None:
        spans = [
            [self.names[self.span_name[i]], self.parent[i],
             round(self.start[i] - self._t0, 7), round(self.end[i] - self._t0, 7)]
            for i in range(len(self.start))
        ]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": spans, "counts": dict(self.counts)}, fh)
