"""Certificates and sweeps stay byte-identical on fixed corpora.

``golden/certificates.jsonl`` holds one certificate per corpus entry, written
by ``golden/make_certificates.py`` at commit 52b4d6a;
``golden/certificates_n120.jsonl`` holds six n = 120 Case-2 certificates,
written by the same script at commit 897acd2. ``N200_SHA256`` pins the
certificate-JSON sha256 of two n = 200 Case-2 point sets, as the script
prints it, recorded at commit 17daeaa. ``golden/sweeps.jsonl``
holds the sha256 of each entry's sequence text and scan JSON, written by
``golden/make_sweeps.py`` at commit 87d057d; the entries with a
``coord_bound``, whose sweeps start at slope k0 = 1 or 2, were added by the
same script at commit e57cf5c. The three abstract entries at the end of the
certificate corpus, the only Case-2 certificates in it with a blue border,
were appended by the same script at commit e758583. Every refactor of the sweep or the
certificate pipeline must reproduce each of them exactly. The geometric
enumerator finds the same pairs as the scan, so for every sweep entry the
``lines`` JSON must hash to the stored scan digest too.
"""
import hashlib
import json

import pytest

from balanced_lines import enumerate_balanced_lines, witnesses_to_json
from balanced_lines.certificate import certificate_to_json, certify, verify_certificate
from golden import make_certificates, make_sweeps

ROWS = [json.loads(line) for line in make_certificates.OUT.read_text().splitlines()]
N120_ROWS = [json.loads(line) for line in make_certificates.OUT_N120.read_text().splitlines()]
SWEEP_ROWS = [json.loads(line) for line in make_sweeps.OUT.read_text().splitlines()]
N200_SHA256 = {  # random_instance(150, 50, 10**6, seed) by seed
    1: "b15378eb84050f3184ccb3209b52b4311c10ffb36bab9354369e571ebf8a8036",
    2: "65fc1e2eb277886e8c3c1fd235a4f45a1c99eb14499e39be69bb218a883c101d",
}


def test_corpus_covers_both_cases():
    cases = {(row["entry"]["kind"], row["certificate"]["case"]) for row in ROWS}
    assert cases == {(kind, case) for kind in ("abstract", "points") for case in ("Case1", "Case2")}


@pytest.mark.parametrize(
    "row", ROWS + N120_ROWS, ids=lambda row: "-".join(str(v) for v in row["entry"].values())
)
def test_certificate_json_is_byte_identical(row):
    seq = make_certificates.build(row["entry"])
    cert = certify(seq)
    assert certificate_to_json(cert) == json.dumps(row["certificate"], separators=(",", ":"))
    assert verify_certificate(seq, cert).ok


def test_corpus_has_a_case2_border_of_each_color():
    colors = {row["certificate"]["border"]["color"] for row in ROWS if row["certificate"]["case"] == "Case2"}
    assert colors == {"B", "R"}


def test_n120_corpus_is_case2():
    assert [row["entry"]["seed"] for row in N120_ROWS] == list(range(1, 7))
    assert {row["certificate"]["case"] for row in N120_ROWS} == {"Case2"}


@pytest.mark.parametrize("entry", make_certificates.corpus_n200(), ids=lambda e: f"seed{e['seed']}")
def test_n200_certificate_sha256(entry):
    assert make_certificates.certificate_sha256(entry) == N200_SHA256[entry["seed"]]


def test_sweep_corpus_sizes():
    assert {row["entry"]["blue"] + row["entry"]["red"] for row in SWEEP_ROWS} == {12, 40, 120, 500}


@pytest.mark.parametrize("row", SWEEP_ROWS, ids=lambda row: "-".join(str(v) for v in row["entry"].values()))
def test_sweep_and_scan_are_byte_identical(row):
    assert make_sweeps.digests(row["entry"]) == {
        "sequence_sha256": row["sequence_sha256"],
        "scan_sha256": row["scan_sha256"],
    }


@pytest.mark.parametrize("row", SWEEP_ROWS, ids=lambda row: "-".join(str(v) for v in row["entry"].values()))
def test_lines_json_matches_scan_digest(row):
    inst = make_sweeps.instance(row["entry"])
    lines = witnesses_to_json(enumerate_balanced_lines(inst), inst.delta)
    assert hashlib.sha256(lines.encode()).hexdigest() == row["scan_sha256"]
