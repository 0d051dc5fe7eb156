import pytest

from aeqslearn import parse_relation
from aeqslearn.errors import (LengthMismatch, MalformedRelationFile,
                              OddLengthForEq)
from aeqslearn.relations import parse_relation_text


class TestBuiltins:
    def test_balanced(self):
        r = parse_relation("balanced", 2)
        assert {x for x in ("00", "01", "10", "11") if r.contains(x)} == {"01", "10"}

    def test_balanced_odd_length_is_empty(self):
        assert parse_relation("balanced", 3).size == 0

    def test_eq(self):
        r = parse_relation("eq", 2)
        assert {x for x in ("00", "01", "10", "11") if r.contains(x)} == {"00", "11"}

    def test_eq_needs_even_length(self):
        with pytest.raises(OddLengthForEq):
            parse_relation("eq", 3)

    def test_none_and_all(self):
        assert parse_relation("none", 3).size == 0
        assert parse_relation("all", 3).size == 8

    def test_parity_even(self):
        r = parse_relation("parity-even", 3)
        assert {x for x in ("000", "011", "101", "110") if r.contains(x)} \
            == {"000", "011", "101", "110"}
        assert r.size == 4

    def test_majority(self):
        r = parse_relation("majority", 3)
        assert r.size == 4
        assert r.contains("111") and r.contains("011")
        assert not r.contains("001")

    def test_unknown_source(self):
        with pytest.raises(MalformedRelationFile, match="builtin"):
            parse_relation("made-up", 2)


class TestRelationFiles:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("# accepted strings\nn=3\n010\n# another comment\n111\n")
        r = parse_relation(str(path), 3)
        assert r.size == 2 and r.contains("010") and r.contains("111")

    def test_missing_header(self):
        with pytest.raises(MalformedRelationFile, match="n="):
            parse_relation_text("010\n")

    def test_bad_header(self):
        with pytest.raises(MalformedRelationFile, match="line 1"):
            parse_relation_text("n=abc\n010\n")

    def test_wrong_length_line(self):
        with pytest.raises(LengthMismatch, match="line 2"):
            parse_relation_text("n=3\n0101\n")

    def test_non_bit_characters(self):
        with pytest.raises(MalformedRelationFile, match="line 2"):
            parse_relation_text("n=3\n01x\n")

    def test_duplicates_rejected(self):
        with pytest.raises(MalformedRelationFile, match="duplicate"):
            parse_relation_text("n=2\n01\n01\n")

    def test_length_must_match_request(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("n=2\n01\n")
        with pytest.raises(LengthMismatch):
            parse_relation(str(path), 3)

    def test_empty_relation_file(self):
        assert parse_relation_text("n=2\n").size == 0

    def test_length_is_bounded_before_allocation(self):
        # 2^18 membership bits are the walk's bound; n = 19 and beyond are refused
        assert parse_relation_text("n=18\n").n == 18
        for n in (19, 40):
            with pytest.raises(ValueError, match=f"n={n} gives"):
                parse_relation_text(f"n={n}\n")
            with pytest.raises(ValueError, match=f"n={n} gives"):
                parse_relation("balanced", n)
