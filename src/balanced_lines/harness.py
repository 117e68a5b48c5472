"""Instance and sequence generators, the fuzz driver, and SVG rendering."""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

from .balance import check_correspondence, enumerate_balanced_lines, scan_balanced_transpositions
from .certificate import certify, verify_certificate
from .errors import BadParamsError, GenerationExhaustedError
from .geometry import ChromaticPoint, Color, Instance, instance_to_json
from .sequence import build_from_points, random_sequence, sequence_to_text


def random_instance(b: int, r: int, coord_bound: int, seed) -> Instance:
    """Clean random instance with rational coordinates in the given square.

    Resamples until the sweep order is strict (general position); the
    accepted instance keeps it for its build. Deterministic per seed.
    """
    if not (b >= r >= 0) or (b + r) % 2 != 0 or b + r < 2:
        raise BadParamsError(f"need b >= r >= 0 with b+r even and >= 2, got ({b}, {r})")
    rng = random.Random(f"inst:{seed}")
    n = b + r
    for _ in range(512):
        colors = [Color.BLUE] * b + [Color.RED] * r
        rng.shuffle(colors)
        pts = []
        for i in range(n):
            den = rng.randint(1, 16)
            x = Fraction(rng.randint(-coord_bound * den, coord_bound * den), den)
            den = rng.randint(1, 16)
            y = Fraction(rng.randint(-coord_bound * den, coord_bound * den), den)
            pts.append(ChromaticPoint(i, x, y, colors[i]))
        inst = Instance(pts)
        if inst.sweep_order is not None:
            return inst
    raise GenerationExhaustedError(
        f"no clean instance after 512 attempts (b={b}, r={r}, coord_bound={coord_bound})"
    )


@cache
def _sidon_prefix(m: int) -> tuple[int, ...]:
    """First m terms of the greedy sequence with all pairwise sums distinct."""
    terms: list[int] = []
    sums = set()
    v = 1
    while len(terms) < m:
        new_sums = {v + u for u in terms} | {2 * v}
        if not (new_sums & sums):
            terms.append(v)
            sums |= new_sums
        v += 1
    return tuple(terms)


def separated_instance(k: int) -> Instance:
    """k blue and k red points separated by the vertical axis.

    Points sit on one parabola (so no three are collinear) at x-values with
    pairwise-distinct sums (so no two spanned lines are parallel). The
    construction is deterministic.
    """
    if k < 1:
        raise BadParamsError("k must be >= 1")
    s = _sidon_prefix(2 * k)
    shift = s[k - 1] + s[k]  # strictly between doubled blue and red x-values
    xs = [2 * v - shift for v in s]
    pts = [
        ChromaticPoint(i, Fraction(x), Fraction(x) ** 2,
                       Color.BLUE if i < k else Color.RED)
        for i, x in enumerate(xs)
    ]
    return Instance(pts)


class FuzzMode(Enum):
    POINTS = "points"
    ABSTRACT_SEQ = "abstract"
    SEPARATED = "separated"


class Check(Enum):
    CORRESPONDENCE = "correspondence"
    THEOREM = "theorem"
    CERTIFICATE = "certificate"


@dataclass(frozen=True)
class FuzzConfig:
    trials: int
    seed: int
    mode: FuzzMode = FuzzMode.POINTS
    n_min: int = 2
    n_max: int = 12
    checks: frozenset[Check] = frozenset({Check.CORRESPONDENCE, Check.THEOREM})

    def __post_init__(self):
        if self.trials < 1 or self.n_min < 2 or self.n_min % 2 or self.n_max % 2:
            raise BadParamsError("need trials >= 1 and even bounds with n_min >= 2")
        if self.n_min > self.n_max:
            raise BadParamsError("n_min exceeds n_max")


@dataclass(frozen=True)
class FuzzFailure:
    trial: int
    check: str
    message: str
    repro: str  # serialized instance JSON or sequence text


@dataclass(frozen=True)
class FuzzReport:
    trials_run: int
    failures: tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_trial(config: FuzzConfig, index: int) -> list[FuzzFailure]:
    rng = random.Random(f"fuzz:{config.seed}:{index}")
    inst = seq = None
    if config.mode is FuzzMode.POINTS:
        n = rng.randrange(config.n_min, config.n_max + 1, 2)
        r = rng.randint(0, n // 2)
        inst = random_instance(n - r, r, 50, seed=rng.getrandbits(48))
    elif config.mode is FuzzMode.SEPARATED:
        inst = separated_instance(rng.randint(max(1, config.n_min // 2), config.n_max // 2))
    else:
        n = rng.randrange(config.n_min, config.n_max + 1, 2)
        blue = rng.randint((n + 1) // 2, n)
        seq = random_sequence(n, blue, seed=rng.getrandbits(48))

    # Build the sequence and enumerate the lines at most once per trial.
    checks = config.checks
    geometric = None
    if inst is not None:
        if checks & {Check.CORRESPONDENCE, Check.CERTIFICATE}:
            seq = build_from_points(inst)
        if checks & {Check.CORRESPONDENCE, Check.THEOREM}:
            geometric = enumerate_balanced_lines(inst)

    failed = []  # (check, message)
    if Check.CORRESPONDENCE in checks and inst is not None:
        report = check_correspondence(inst, seq, geometric)
        if not report.equal:
            failed.append((Check.CORRESPONDENCE, f"geometric {sorted(w.pair for w in report.geometric)} != "
                                                 f"scan {sorted(w.pair for w in report.scan)}"))
    if Check.THEOREM in checks:
        if inst is not None:
            count, floor = len(geometric), inst.r
        else:
            count, floor = len(scan_balanced_transpositions(seq)), seq.r
        if count < floor:
            failed.append((Check.THEOREM, f"{count} balanced < r = {floor}"))
    if Check.CERTIFICATE in checks:
        try:
            cert = certify(seq)
            result = verify_certificate(seq, cert)
            if not result.ok:
                failed.append((Check.CERTIFICATE, "; ".join(result.diagnostics)))
            elif len(cert.witnesses) < seq.r:
                failed.append((Check.CERTIFICATE, f"certificate has {len(cert.witnesses)} < r = {seq.r}"))
        except Exception as exc:  # noqa: BLE001 - failures are data, not crashes
            failed.append((Check.CERTIFICATE, f"{type(exc).__name__}: {exc}"))
    if not failed:
        return []
    repro = sequence_to_text(seq) if inst is None else instance_to_json(inst)
    return [FuzzFailure(index, check.value, message, repro) for check, message in failed]


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run seeded trials; failures carry full repro inputs.

    Trial seeds derive from (config.seed, index), so any sharding or
    reordering of trials produces the same per-trial results.
    """
    failures: list[FuzzFailure] = []
    for index in range(config.trials):
        failures.extend(_run_trial(config, index))
    return FuzzReport(trials_run=config.trials, failures=tuple(failures))


# ---------------------------------------------------------------------------
# SVG rendering

_VIEW = 640.0
_MARGIN = 48.0


def render_svg(inst: Instance, witnesses) -> str:
    """Points plus the balanced lines through witness pairs, in a fixed viewport."""
    xs = [p.x for p in inst.points]
    ys = [p.y for p in inst.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    scale = (_VIEW - 2 * _MARGIN) / float(span)
    x0, y0 = float(min(xs)), float(min(ys))

    def sx(v: Fraction) -> float:
        return _MARGIN + (float(v) - x0) * scale

    def sy(v: Fraction) -> float:
        return _VIEW - _MARGIN - (float(v) - y0) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW:.0f}" '
        f'height="{_VIEW:.0f}" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">',
        f'<rect width="{_VIEW:.0f}" height="{_VIEW:.0f}" fill="white"/>',
    ]
    pairs = sorted(w.pair for w in witnesses)
    for (i, j) in pairs:
        x1, y1 = sx(inst.points[i].x), sy(inst.points[i].y)
        x2, y2 = sx(inst.points[j].x), sy(inst.points[j].y)
        dx, dy = x2 - x1, y2 - y1
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
        ex, ey = dx / norm * 2 * _VIEW, dy / norm * 2 * _VIEW
        out.append(
            f'<line x1="{x1 - ex:.2f}" y1="{y1 - ey:.2f}" x2="{x2 + ex:.2f}" '
            f'y2="{y2 + ey:.2f}" stroke="#888888" stroke-width="1"/>'
        )
    for p in inst.points:
        fill = "#1f6feb" if inst.color_of(p.id) is Color.BLUE else "#d1242f"
        out.append(
            f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="5" fill="{fill}"/>'
        )
    out.append(
        f'<text x="{_MARGIN:.0f}" y="24" font-family="monospace" font-size="14">'
        f"b={inst.b} r={inst.r} delta={inst.delta} balanced={len(pairs)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
