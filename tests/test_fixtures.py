import importlib.util
from pathlib import Path

import pytest

from signrank.core import SignPattern, condense, load_pattern
from signrank.errors import FixtureCorrupt, SignRankError
from signrank.fixtures import (
    A0_KNOWN_MIN_RANK,
    A0_KNOWN_RATIONAL_MIN_RANK,
    Provenance,
    derive_perles_check,
    export_fixtures,
    fixture,
    fixture_names,
    selfcheck,
)
from signrank.geometry import encode_configuration, load_configuration
from signrank.pattern import is_sns

from conftest import corrupt_perles, lift_p5, reverse_l6


class TestStoredPatterns:
    def test_a0_row_four(self):
        assert fixture("A0").payload.row(3) == (1, 1, 0, 1, 1, 1, 1, 0, 0)

    def test_a0_shape_and_zeros(self):
        A0 = fixture("A0").payload
        assert (A0.m, A0.n) == (9, 9)
        assert A0.count_zeros() == 28
        assert all(A0.row(i).count(0) == 3 for i in range(8))
        assert A0.row(8).count(0) == 4

    def test_a0_condensed(self):
        A0 = fixture("A0").payload
        assert condense(A0).condensed == A0

    def test_a0_sns_block(self):
        A0 = fixture("A0").payload
        assert is_sns(A0.submatrix((3, 4, 5), (6, 7, 8)))

    def test_a0_metadata(self):
        assert A0_KNOWN_MIN_RANK == 3
        assert A0_KNOWN_RATIONAL_MIN_RANK == 4
        assert "not machine-verified" in fixture("A0").note

    def test_a1_a2(self):
        assert fixture("A1").payload == SignPattern(["+++", "-++", "-0+"])
        assert fixture("A2").payload == SignPattern(["+++", "-++", "+0-"])
        assert fixture("A1").payload.entries[2][1] == 0

    def test_fig21_pattern(self):
        assert fixture("fig21_pattern").payload == SignPattern(["+++", "+00", "-0-"])

    def test_unknown_name(self):
        with pytest.raises(SignRankError):
            fixture("nope")

    def test_provenance_split(self):
        assert fixture("A0").provenance is Provenance.LITERATURE
        assert fixture("perles_config").provenance is Provenance.DERIVED


class TestDerivedConfigurations:
    def test_fig21_config_encodes_to_pattern(self):
        assert encode_configuration(fixture("fig21_config").payload) == fixture(
            "fig21_pattern"
        ).payload

    def test_perles_shape(self):
        C = fixture("perles_config").payload
        assert C.num_points == 9 and C.num_hyperplanes == 9
        assert C.field_d == 5

    def test_perles_check_passes(self):
        assert derive_perles_check() == ("perles_config", "encodes to A0 entry for entry")

    def test_selfcheck_pairs(self):
        assert selfcheck() == (
            derive_perles_check(),
            ("sns", "A0 rows 4,5,6 / cols 7,8,9 is sign-nonsingular"),
            ("fig21_config", "encodes to fig21_pattern entry for entry"),
        )

    def test_selfcheck_not_sns_names_a0(self, monkeypatch):
        monkeypatch.setattr("signrank.pattern.is_sns", lambda S: False)
        with pytest.raises(FixtureCorrupt, match="A0 rows"):
            selfcheck()

    @pytest.mark.parametrize("edit", [lift_p5, reverse_l6])
    def test_corrupt_perles_raises(self, monkeypatch, edit):
        corrupt_perles(monkeypatch, edit)
        with pytest.raises(FixtureCorrupt, match="perles_config"):
            derive_perles_check()

    def test_derive_perles_tool(self, capsys):
        pytest.importorskip("sympy")
        path = Path(__file__).resolve().parent.parent / "tools" / "derive_perles.py"
        spec = importlib.util.spec_from_file_location("derive_perles", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.main() == 0
        assert "encoding equals A0 entry-for-entry: OK" in capsys.readouterr().out

    def test_perles_equals_a0(self):
        assert encode_configuration(fixture("perles_config").payload) == fixture("A0").payload


class TestExport:
    def test_roundtrip(self, tmp_path):
        written = export_fixtures(tmp_path)
        assert len(written) == len(fixture_names())
        assert load_pattern(tmp_path / "A0.pat") == fixture("A0").payload
        assert load_configuration(tmp_path / "perles_config.json") == fixture(
            "perles_config"
        ).payload
        assert load_configuration(tmp_path / "fig21_config.json") == fixture(
            "fig21_config"
        ).payload
