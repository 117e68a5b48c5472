"""Check the large byte-identity digests that are too slow for the test suite.

Usage: PYTHONPATH=src python tests/golden/large_digests.py

Recomputes, through the same builders as the golden scripts, the sha256 of
the certificate JSON of two Case-2 point sets, n = 500 and n = 1000 (b:r =
3:1, seed 1, ``random_instance(b, r, 10**6, seed)``), and the sequence-text
and scan-JSON sha256s of the n = 500 set, and compares each with its full
digest below, recorded at commit b2d983e. It also hashes the n = 500 set's
``lines`` JSON (``witnesses_to_json`` of ``enumerate_balanced_lines``) and
compares it with the same scan digest: the two enumerators agree byte for
byte. Prints one line per digest and exits 1 if any differs. It takes about
half a minute, most of it the n = 1000 ``certify``.
"""
from __future__ import annotations

import hashlib
import sys
import time

from make_certificates import certificate_sha256
from make_sweeps import digests, instance

from balanced_lines import enumerate_balanced_lines, witnesses_to_json

CERTIFICATES = [  # (entry, certificate-JSON sha256)
    ({"kind": "points", "blue": 375, "red": 125, "seed": 1},
     "d22dd063c9fb52e9f09f05ea9eb39ca3c3371ffac0adb64d7835f2cb3f628c43"),
    ({"kind": "points", "blue": 750, "red": 250, "seed": 1},
     "d69ffd2c9d2f986d5a30d7282da96d359f3aa057759fde76a5c8dfd5b20316b4"),
]
SWEEPS = [  # (entry, make_sweeps digests)
    ({"blue": 375, "red": 125, "seed": 1}, {
        "sequence_sha256": "dbcfaf40870a4819da578da83dc3b080a05642189406a0ade0f600c59b6a80fc",
        "scan_sha256": "4a81da997d9ebae1f12242f02bf860e7dbbd78d1a3f4eec945c6750c142912a9",
    }),
]


def lines_sha256(entry) -> str:
    """sha256 of the entry's ``lines`` JSON, which must equal its scan JSON."""
    inst = instance(entry)
    return hashlib.sha256(witnesses_to_json(enumerate_balanced_lines(inst), inst.delta).encode()).hexdigest()


def main() -> int:
    checks = [(f"certify {e}", lambda e=e: {"certificate_sha256": certificate_sha256(e)},
               {"certificate_sha256": want}) for e, want in CERTIFICATES]
    checks += [(f"scan {e}", lambda e=e: digests(e), want) for e, want in SWEEPS]
    checks += [(f"lines {e}", lambda e=e: {"scan_sha256": lines_sha256(e)},
                {"scan_sha256": want["scan_sha256"]}) for e, want in SWEEPS]
    failed = 0
    for label, compute, want in checks:
        start = time.perf_counter()
        got = compute()
        seconds = time.perf_counter() - start
        for key, digest in want.items():
            ok = got[key] == digest
            failed += not ok
            print(f"{'ok  ' if ok else 'DIFF'} {label} {key} {got[key]} ({seconds:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
