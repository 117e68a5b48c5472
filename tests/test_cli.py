import json
import warnings

import pytest

from balanced_lines.cli import main
from balanced_lines.errors import ProofGapError

from conftest import far_corner_rows


POINT0 = {"id": 0, "x": "0", "y": "0", "color": "B"}
POINT1 = {"id": 1, "x": "1", "y": "1", "color": "R"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_random(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--blue", "3", "--red", "3", "--seed", "4",
                         "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 6

    def test_separated(self, capsys):
        code, out, _ = run(capsys, "gen", "--blue", "2", "--red", "2", "--seed", "0",
                           "--separated")
        assert code == 0
        assert json.loads(out)["points"][0]["color"] == "B"

    def test_separated_reads_no_seed(self, capsys):
        code, out, err = run(capsys, "gen", "--blue", "2", "--red", "2", "--separated")
        assert code == 0 and err == ""
        assert run(capsys, "gen", "--blue", "2", "--red", "2", "--seed", "9", "--separated") == (0, out, "")

    def test_random_requires_seed(self, capsys):
        code, out, err = run(capsys, "gen", "--blue", "3", "--red", "3")
        assert code == 2 and out == "" and "--seed" in err

    def test_separated_requires_equal_counts(self, capsys):
        code, _, err = run(capsys, "gen", "--blue", "3", "--red", "2", "--seed", "0",
                           "--separated")
        assert code == 2

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--blue", "1", "--red", "2", "--seed", "0")
        assert code == 2 and "error" in err

    def test_exhausted_generation_hints_coord_bound(self, capsys):
        # With a zero bound every point lands on the origin, so no draw is clean.
        code, out, err = run(capsys, "gen", "--blue", "1", "--red", "1", "--seed", "0",
                             "--coord-bound", "0")
        assert code == 2 and out == ""
        assert "coord_bound=0" in err and "raise --coord-bound" in err


class TestPipelines:
    @pytest.fixture
    def instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run(capsys, "gen", "--blue", "3", "--red", "3", "--seed", "1",
            "--separated", "--out", str(path))
        return str(path)

    def test_validate_clean(self, capsys, instance_file):
        code, out, _ = run(capsys, "validate", instance_file)
        assert code == 0 and json.loads(out)["clean"]

    @pytest.mark.parametrize("command", ["validate", "scan"])
    def test_float_range_corners_print_no_warning(self, capsys, tmp_path, command):
        # The sweep's float presort overflows on these corners' differences;
        # nothing of it reaches stderr.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"points": [{"id": k, "x": str(x), "y": str(y), "color": c}
                                               for k, (x, y, c) in enumerate(far_corner_rows())]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "") and json.loads(out)

    def test_validate_dirty_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [
            {"id": 0, "x": "0", "y": "0", "color": "B"},
            {"id": 1, "x": "1", "y": "1", "color": "R"},
            {"id": 2, "x": "2", "y": "2", "color": "B"},
            {"id": 3, "x": "5", "y": "0", "color": "R"},
        ]}))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert json.loads(out)["collinear_triples"] == [[0, 1, 2]]

    def test_lines_collinear_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [
            {"id": 0, "x": "0", "y": "0", "color": "B"},
            {"id": 1, "x": "1", "y": "1", "color": "R"},
            {"id": 2, "x": "2", "y": "2", "color": "B"},
            {"id": 3, "x": "5", "y": "0", "color": "R"},
        ]}))
        code, out, err = run(capsys, "lines", str(path))
        assert code == 2 and out == ""
        assert err == "error: point 2 is collinear with (0, 1)\n"

    def test_lines_and_scan_agree(self, capsys, instance_file):
        code1, out1, _ = run(capsys, "lines", instance_file)
        code2, out2, _ = run(capsys, "scan", instance_file)
        assert code1 == code2 == 0
        assert json.loads(out1)["pairs"] == json.loads(out2)["pairs"]

    def test_scan_seq_file(self, capsys, tmp_path):
        from balanced_lines.sequence import random_sequence, sequence_to_text

        path = tmp_path / "seq.txt"
        path.write_text(sequence_to_text(random_sequence(8, 5, seed=2)))
        code, out, _ = run(capsys, "scan", "--seq", str(path))
        assert code == 0
        assert json.loads(out)["count"] >= 3

    def test_certify(self, capsys, instance_file):
        code, out, _ = run(capsys, "certify", instance_file)
        assert code == 0
        data = json.loads(out)
        assert data["case"] in ("Case1", "Case2")
        assert len(data["witnesses"]) >= data["target"]

    def test_certify_seq(self, capsys, tmp_path):
        from balanced_lines.sequence import random_sequence, sequence_to_text

        path = tmp_path / "seq.txt"
        path.write_text(sequence_to_text(random_sequence(10, 6, seed=8)))
        code, out, _ = run(capsys, "certify", "--seq", str(path))
        assert code == 0

    def test_certify_proof_gap_is_internal_error(self, capsys, monkeypatch, instance_file):
        # certify runs on validated input only, so a proof gap is a bug, not bad input.
        import balanced_lines.cli as cli

        def broken_certify(seq):
            raise ProofGapError("planted gap")

        monkeypatch.setattr(cli, "certify", broken_certify)
        code, out, err = run(capsys, "certify", instance_file)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: planted gap")

    @pytest.mark.parametrize("command", ["scan", "certify"])
    def test_repeated_pair_seq_exit_2(self, capsys, tmp_path, command):
        # Pair (0, 1) swaps at steps 1 and 2; with the word at full length a
        # repeated pair always leaves another unswapped, so the end is not reversed.
        path = tmp_path / "seq.txt"
        path.write_text("4\nBBRR\n0 1 2 3\n0\n0\n1\n0\n2\n1\n")
        code, out, err = run(capsys, command, "--seq", str(path))
        assert code == 2 and out == ""
        assert err == "invalid sequence: REPEATED_PAIR, NOT_REVERSED\n"

    @pytest.mark.parametrize("command", ["scan", "certify"])
    def test_odd_size_seq_exit_2(self, capsys, tmp_path, command):
        # The word reverses three points, but the theorem needs n even.
        path = tmp_path / "seq.txt"
        path.write_text("3\nBBR\n0 1 2\n0\n1\n0\n")
        code, out, err = run(capsys, command, "--seq", str(path))
        assert code == 2 and out == ""
        assert err == "invalid sequence: ODD_SIZE\n"

    def test_certify_failed_verification_exits_1(self, capsys, monkeypatch, instance_file):
        # The certificate is still written; the verifier's diagnostics go to stderr.
        import dataclasses

        import balanced_lines.cli as cli

        def short(seq):
            cert = real(seq)
            return dataclasses.replace(cert, witnesses=cert.witnesses[1:])

        real = cli.certify
        monkeypatch.setattr(cli, "certify", short)
        code, out, err = run(capsys, "certify", instance_file)
        assert code == 1
        data = json.loads(out)
        assert len(data["witnesses"]) == data["target"] - 1
        assert err == f"INSUFFICIENT_COUNT {data['target'] - 1} < {data['target']}\n"

    def test_scan_non_adjacent_sweep_swap_exits_3(self, capsys, monkeypatch, instance_file):
        # A strict sweep order swaps adjacent elements only, so a non-adjacent
        # swap is an internal fault: plant one by swapping two events.
        import balanced_lines.geometry as geometry_mod

        real = geometry_mod._exact_sweep

        def swapped(n, coords):
            pi0, events = real(n, coords)
            events = events.copy()
            events[:, [0, -1]] = events[:, [-1, 0]]
            return pi0, events

        monkeypatch.setattr(geometry_mod, "_exact_sweep", swapped)
        code, out, err = run(capsys, "scan", instance_file)
        assert code == 3 and out == ""
        assert err.startswith("internal error: sweep produced a non-adjacent swap")

    def test_certify_failed_obligation_exits_3(self, capsys, monkeypatch, tmp_path):
        import balanced_lines.certificate as certificate_mod
        from balanced_lines.errors import InsufficientBorderError
        from balanced_lines.sequence import random_sequence, sequence_to_text

        def insufficient(seq, border):
            raise InsufficientBorderError("planted shortfall", hint=None)

        monkeypatch.setattr(certificate_mod, "case2_certificate", insufficient)
        path = tmp_path / "seq.txt"
        path.write_text(sequence_to_text(random_sequence(10, 6, seed=3)))  # a Case-2 sequence
        code, out, err = run(capsys, "certify", "--seq", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: obligation failed at a fixed-point border")

    def test_render(self, capsys, tmp_path, instance_file):
        out = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "render", instance_file, "--out", str(out))
        assert code == 0
        svg = out.read_text()
        assert svg.count("<circle") == 6 and svg.count("<line") == 3

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "lines", "/nonexistent.json")
        assert code == 2

    def test_empty_seq_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run(capsys, "scan", "--seq", str(path))
        assert code == 2 and "error" in err

    def test_no_input_exit_2(self, capsys):
        code, _, err = run(capsys, "scan")
        assert code == 2

    def test_float_coordinate_exit_2(self, capsys, tmp_path):
        # 0.1 has no exact binary value; it is refused, not read as 3602879701896397/2^55.
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"points": [
            {"id": 0, "x": 0.1, "y": "0", "color": "B"},
            {"id": 1, "x": "1", "y": "1", "color": "R"},
        ]}))
        code, out, err = run(capsys, "scan", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not floats" in err

    @pytest.mark.parametrize("field, value, message", [
        ("id", 1.9, "ids must be integers"), ("id", "1", "ids must be integers"),
        ("id", True, "ids must be integers"), ("x", True, "not floats or booleans"),
        ("y", "1/0", "Fraction(1, 0)"),
    ])
    def test_bad_id_or_coordinate_exit_2(self, capsys, tmp_path, field, value, message):
        # Refused, not truncated to 1, parsed from the string, read as 1 or left to a traceback.
        points = [{"id": 0, "x": "0", "y": "0", "color": "B"}, {"id": 1, "x": "1", "y": "1", "color": "R"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": points}))
        assert run(capsys, "lines", str(path))[0] == 0
        points[1][field] = value
        path.write_text(json.dumps({"points": points}))
        code, out, err = run(capsys, "lines", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad point in instance JSON: ") and message in err

    @pytest.mark.parametrize("doc, message", [
        ({"dots": [POINT0, POINT1]}, 'instance JSON needs a "points" list'),
        ([POINT0, POINT1], 'instance JSON needs a "points" list'),
        ({"points": [POINT0, list(POINT1.values())]}, "bad point in instance JSON: point 1 is not an object"),
        *[({"points": [POINT0, {k: v for k, v in POINT1.items() if k != key}]},
           f"bad point in instance JSON: point 1 has no {key!r}") for key in POINT1],
    ], ids=["no-points", "bare-list", "point-not-object", "no-id", "no-x", "no-y", "no-color"])
    def test_missing_points_or_key_exit_2(self, capsys, tmp_path, doc, message):
        # Named by point and key, not left as a bare KeyError or a list-index TypeError.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lines", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("index, color", [(0, "G"), (1, "b"), (1, None), (0, ["B"])])
    def test_unknown_color_exit_2(self, capsys, tmp_path, index, color):
        # Named by point and value, under the same prefix as every other bad point.
        points = [dict(POINT0), dict(POINT1)]
        points[index]["color"] = color
        path = tmp_path / "color.json"
        path.write_text(json.dumps({"points": points}))
        code, out, err = run(capsys, "lines", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bad point in instance JSON: point {index} has color {color!r}, not 'B' or 'R'\n"


class TestFuzzCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "20", "--nmax", "8",
                           "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert data == {"trials": 20, "failures": []}

    def test_mode_and_checks(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "10", "--nmax", "8",
                           "--seed", "3", "--mode", "abstract",
                           "--checks", "theorem,certificate")
        assert code == 0
