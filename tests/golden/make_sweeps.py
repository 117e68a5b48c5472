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
    """Entries at n = 12, 40, 120, 500, each at b = r and at b:r = 3:1."""
    for n, seeds in ((12, range(4)), (40, range(3)), (120, range(2)), (500, range(1))):
        for blue in (n // 2, 3 * n // 4):
            for seed in seeds:
                yield {"blue": blue, "red": n - blue, "seed": seed}


def digests(entry) -> dict[str, str]:
    inst = random_instance(entry["blue"], entry["red"], COORD_BOUND, seed=entry["seed"])
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
