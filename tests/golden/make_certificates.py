"""Write the golden certificate corpus used by ``tests/test_golden.py``.

Usage: PYTHONPATH=src python tests/golden/make_certificates.py

Certifies every corpus entry and writes one JSON line per entry: the entry
and its certificate. The small corpus goes to ``certificates.jsonl``; six
n = 120 Case-2 point sets (b:r = 90:30) go to ``certificates_n120.jsonl``.
Two n = 200 point sets (b:r = 150:50) are pinned by the sha256 of their
certificate JSON only; the script prints those digests.
``certificate_to_json`` is compact JSON of plain ints, strings, booleans and
nulls, so ``json.dumps(row["certificate"], separators=(",", ":"))`` gives back
its exact text; the golden test compares that text byte for byte. Regenerate
only when a change to the certificate output is intended.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from balanced_lines import (
    build_from_points,
    certificate_to_json,
    certify,
    random_instance,
    random_sequence,
    verify_certificate,
)

OUT = Path(__file__).with_name("certificates.jsonl")
OUT_N120 = Path(__file__).with_name("certificates_n120.jsonl")
COORD_BOUND = 10**6


def corpus():
    """Corpus entries; each says how to rebuild its sequence (see ``build``)."""
    for n in range(2, 13, 2):
        for seed in range(8):
            blue = n - seed % (n // 2 + 1)
            yield {"kind": "abstract", "n": n, "blue": blue, "seed": seed}
    # Random abstract sequences this small are nearly all Case 1; these are Case 2.
    for n, blue, seed in ((10, 6, 3), (10, 6, 32), (10, 7, 32), (12, 8, 5), (12, 9, 18), (12, 9, 26)):
        yield {"kind": "abstract", "n": n, "blue": blue, "seed": seed}
    for b, r, seeds in ((36, 12, range(11)), (24, 24, range(11)), (60, 20, (1, 2))):
        for seed in seeds:
            yield {"kind": "points", "blue": b, "red": r, "seed": seed}
    # Every Case-2 entry above has a red border; these three have a blue one.
    for n, blue, seed in ((8, 4, 1050), (12, 6, 598), (14, 7, 64)):
        yield {"kind": "abstract", "n": n, "blue": blue, "seed": seed}


def corpus_n120():
    for seed in range(1, 7):
        yield {"kind": "points", "blue": 90, "red": 30, "seed": seed}


def corpus_n200():
    for seed in (1, 2):
        yield {"kind": "points", "blue": 150, "red": 50, "seed": seed}


def certificate_sha256(entry):
    """sha256 of the entry's certificate JSON, which must verify."""
    seq = build(entry)
    cert = certify(seq)
    assert verify_certificate(seq, cert).ok, entry
    return hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()


def build(entry):
    if entry["kind"] == "abstract":
        return random_sequence(entry["n"], entry["blue"], seed=entry["seed"])
    inst = random_instance(entry["blue"], entry["red"], COORD_BOUND, seed=entry["seed"])
    return build_from_points(inst)


def write(path, entries):
    lines = []
    for entry in entries:
        seq = build(entry)
        cert = certify(seq)
        assert verify_certificate(seq, cert).ok, entry
        text = certificate_to_json(cert)
        payload = json.loads(text)
        assert json.dumps(payload, separators=(",", ":")) == text, entry
        lines.append(json.dumps({"entry": entry, "certificate": payload}, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} entries to {path}")


def main():
    write(OUT, corpus())
    write(OUT_N120, corpus_n120())
    for entry in corpus_n200():
        print(f"certificate sha256 of {entry}: {certificate_sha256(entry)}")


if __name__ == "__main__":
    main()
