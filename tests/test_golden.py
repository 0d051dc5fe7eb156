"""Seeded records equal the committed golden files (see ``golden.py``)."""
import json

from golden import CLI_FILE, LIBRARY_FILE, cli_records, library_lines


def test_seeded_records_match_golden():
    assert cli_records() == json.loads(CLI_FILE.read_text(encoding="utf-8"))
    expected = LIBRARY_FILE.read_text(encoding="utf-8").splitlines()
    got = library_lines()
    assert len(got) == len(expected)
    mismatches = [(want, have) for want, have in zip(expected, got) if want != have]
    assert not mismatches, f"{len(mismatches)} reports differ, first: {mismatches[0]}"
