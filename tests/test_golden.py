"""Certificates stay byte-identical on a fixed corpus.

``golden/certificates.jsonl`` holds one certificate per corpus entry, written
by ``golden/make_certificates.py`` at commit 52b4d6a. Every refactor of the
certificate pipeline must reproduce each of them exactly.
"""
import json

import pytest

from balanced_lines.certificate import certificate_to_json, certify, verify_certificate
from golden.make_certificates import OUT, build

ROWS = [json.loads(line) for line in OUT.read_text().splitlines()]


def test_corpus_covers_both_cases():
    cases = {(row["entry"]["kind"], row["certificate"]["case"]) for row in ROWS}
    assert cases == {(kind, case) for kind in ("abstract", "points") for case in ("Case1", "Case2")}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(str(v) for v in row["entry"].values()))
def test_certificate_json_is_byte_identical(row):
    seq = build(row["entry"])
    cert = certify(seq)
    assert certificate_to_json(cert) == json.dumps(row["certificate"], separators=(",", ":"))
    assert verify_certificate(seq, cert).ok
