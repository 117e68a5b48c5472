"""Write the golden sweep corpus used by ``tests/test_golden.py``.

Usage: PYTHONPATH=src python tests/golden/make_sweeps.py

Builds the allowable sequence of every corpus instance with the rotating
sweep and writes one JSON line per entry: the entry, the sha256 of its
``sequence_to_text`` and the sha256 of its ``scan`` JSON
(``witnesses_to_json`` of ``scan_balanced_transpositions``). Hashes keep the
n = 500 words (124,750 positions each) out of the repository. Regenerate
only when a change to the sweep's output is intended.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from balanced_lines import (
    build_from_points,
    random_instance,
    scan_balanced_transpositions,
    sequence_to_text,
    witnesses_to_json,
)

OUT = Path(__file__).with_name("sweeps.jsonl")
COORD_BOUND = 10**6


def corpus():
    """Entries at n = 12, 40, 120, 500, each at b = r and at b:r = 3:1.

    The last entries use a small ``coord_bound``, so that the sweep slope k0
    is 1 or 2 rather than 0 (12 points in [-2, 2]^2 at seed 32 need k0 = 2;
    40 points do not fit in general position there, so they use [-10, 10]^2).
    """
    for n, seeds in ((12, range(4)), (40, range(3)), (120, range(2)), (500, range(1))):
        for blue in (n // 2, 3 * n // 4):
            for seed in seeds:
                yield {"blue": blue, "red": n - blue, "seed": seed}
    for n, bound, seeds in ((12, 2, (0, 32)), (40, 10, (0, 2))):
        for blue in (n // 2, 3 * n // 4):
            for seed in seeds:
                yield {"blue": blue, "red": n - blue, "seed": seed, "coord_bound": bound}


def instance(entry):
    """The entry's point set; ``coord_bound`` defaults to ``COORD_BOUND``."""
    bound = entry.get("coord_bound", COORD_BOUND)
    return random_instance(entry["blue"], entry["red"], bound, seed=entry["seed"])


def digests(entry) -> dict[str, str]:
    inst = instance(entry)
    seq = build_from_points(inst)
    scan = witnesses_to_json(scan_balanced_transpositions(seq), seq.delta)
    return {
        "sequence_sha256": hashlib.sha256(sequence_to_text(seq).encode()).hexdigest(),
        "scan_sha256": hashlib.sha256(scan.encode()).hexdigest(),
    }


def main():
    lines = [
        json.dumps({"entry": entry, **digests(entry)}, separators=(",", ":"))
        for entry in corpus()
    ]
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} entries to {OUT}")


if __name__ == "__main__":
    main()
