"""Container validation, harmonization, ratio estimates, and CSV round trips."""
from __future__ import annotations

import io
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrobust.exceptions import CsvParseError, DegenerateInstrumentError
from ivrobust.summary_data import (
    SummarySet,
    VariantAssociation,
    harmonize,
    ratio_estimates,
    read_csv,
    write_csv,
)

from _helpers import make_set, random_set


class TestVariantAssociation:
    def test_rejects_nonpositive_se(self):
        with pytest.raises(ValueError):
            VariantAssociation("rs1", 0.1, 0.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            VariantAssociation("rs1", 0.1, 0.01, 0.0, -0.05)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VariantAssociation("rs1", float("nan"), 0.01, 0.0, 0.05)
        with pytest.raises(ValueError):
            VariantAssociation("rs1", 0.1, 0.01, float("inf"), 0.05)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            VariantAssociation("", 0.1, 0.01, 0.0, 0.05)


class TestSummarySet:
    def test_duplicate_ids_rejected(self):
        v = VariantAssociation("rs1", 0.1, 0.01, 0.0, 0.05)
        with pytest.raises(ValueError):
            SummarySet((v, v))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SummarySet(())

    def test_harmonized_flag_checked(self):
        v = VariantAssociation("rs1", -0.1, 0.01, 0.0, 0.05)
        with pytest.raises(ValueError):
            SummarySet((v,), harmonized=True)

    def test_array_views_are_copies(self):
        s = make_set([0.1, 0.2], [0.01, 0.01], [0.01, 0.02], [0.05, 0.05])
        a = s.beta_x
        a[0] = 99.0
        assert s.beta_x[0] == 0.1

    def test_from_arrays(self):
        s = SummarySet.from_arrays(
            beta_x=[0.1, 0.2], se_x=[0.01, 0.02], beta_y=[0.01, 0.02], se_y=[0.05, 0.04]
        )
        assert s.j == 2
        assert s.ids == ("v1", "v2")


class TestHarmonize:
    def test_flips_both_betas(self):
        s = make_set([-0.05], [0.01], [0.02], [0.05])
        h = harmonize(s)
        v = h.variants[0]
        assert v.beta_x == 0.05
        assert v.beta_y == -0.02
        assert v.se_x == 0.01
        assert v.se_y == 0.05

    def test_zero_beta_x_kept_unflipped(self):
        s = make_set([0.0, 0.1], [0.01, 0.01], [0.03, 0.01], [0.05, 0.05])
        h = harmonize(s)
        assert h.variants[0].beta_x == 0.0
        assert h.variants[0].beta_y == 0.03

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_set(rng)
            once = harmonize(s)
            twice = harmonize(once)
            assert once == twice
            assert once.harmonized

    def test_ratio_estimates_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_set(rng)
            r0 = ratio_estimates(s)
            r1 = ratio_estimates(harmonize(s))
            np.testing.assert_array_equal(r0.theta, r1.theta)
            np.testing.assert_array_equal(r0.variance, r1.variance)


class TestRatioEstimates:
    def test_worked_values(self):
        s = make_set([0.1], [0.01], [0.02], [0.05])
        r = ratio_estimates(s)
        assert r.theta[0] == pytest.approx(0.2, rel=1e-15)
        assert r.variance[0] == pytest.approx(0.25, rel=1e-15)

    def test_zero_beta_x_raises_with_variant_name(self):
        s = make_set([0.1, 0.0], [0.01, 0.01], [0.02, 0.01], [0.05, 0.05])
        with pytest.raises(DegenerateInstrumentError, match="v2"):
            ratio_estimates(s)


CSV_TEXT = "id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02,0.05\nrs2,0.2,0.01,0.02,0.05\nrs3,0.3,0.02,0.09,0.05\n"


class TestCsv:
    def test_read_basic(self):
        s = read_csv(io.StringIO(CSV_TEXT))
        assert s.j == 3
        assert s.ids == ("rs1", "rs2", "rs3")
        assert s.beta_x.tolist() == [0.1, 0.2, 0.3]
        assert not s.harmonized

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        s = random_set(rng, j=9)
        path = tmp_path / "vars.csv"
        write_csv(s, path)
        back = read_csv(path)
        assert back == s

    def test_nonpositive_se_reports_row(self):
        bad = "id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02,0.05\nrs2,0.2,0.01,0.02,0\n"
        with pytest.raises(CsvParseError, match="row 3"):
            read_csv(io.StringIO(bad))

    def test_non_numeric_reports_row(self):
        bad = "id,beta_x,se_x,beta_y,se_y\nrs1,x,0.01,0.02,0.05\n"
        with pytest.raises(CsvParseError, match="row 2"):
            read_csv(io.StringIO(bad))

    def test_duplicate_id_reports_row(self):
        bad = "id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02,0.05\nrs1,0.2,0.01,0.02,0.05\n"
        with pytest.raises(CsvParseError, match="row 3"):
            read_csv(io.StringIO(bad))

    def test_missing_column(self):
        bad = "id,beta_x,se_x,beta_y\nrs1,0.1,0.01,0.02\n"
        with pytest.raises(CsvParseError, match="se_y"):
            read_csv(io.StringIO(bad))

    def test_wrong_field_count_reports_row(self):
        bad = "id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02\n"
        with pytest.raises(CsvParseError, match="row 2"):
            read_csv(io.StringIO(bad))

    def test_header_only_rejected(self):
        with pytest.raises(CsvParseError, match="no variants"):
            read_csv(io.StringIO("id,beta_x,se_x,beta_y,se_y\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(CsvParseError, match="header"):
            read_csv(io.StringIO(""))


@st.composite
def summary_columns(draw):
    j = draw(st.integers(1, 30))
    magnitude = st.floats(1e-6, 1e3) | st.sampled_from([0.0, -0.0])
    beta_x = [draw(magnitude) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(j)]
    se = st.floats(1e-10, 1e2)
    columns = {
        "beta_x": beta_x,
        "se_x": draw(st.lists(se, min_size=j, max_size=j)),
        "beta_y": draw(st.lists(st.floats(-1e3, 1e3), min_size=j, max_size=j)),
        "se_y": draw(st.lists(se, min_size=j, max_size=j)),
    }
    alphabet = string.ascii_letters + string.digits + "_:.-"
    ids = draw(st.none() | st.lists(st.text(alphabet, min_size=1, max_size=8),
                                    min_size=j, max_size=j, unique=True))
    return columns, ids


class TestColumnarProperties:
    @settings(max_examples=150, deadline=None)
    @given(summary_columns())
    def test_round_trip_harmonize_and_rows(self, drawn):
        columns, ids = drawn
        s = SummarySet.from_arrays(**columns, ids=ids)
        buf = io.StringIO()
        write_csv(s, buf)
        buf.seek(0)
        assert read_csv(buf) == s

        h = harmonize(s)
        assert h.harmonized and np.all(h.beta_x >= 0.0)
        assert harmonize(h) == h
        np.testing.assert_array_equal(h.se_x, s.se_x)
        np.testing.assert_array_equal(h.se_y, s.se_y)
        if np.all(s.beta_x != 0.0):
            r0, r1 = ratio_estimates(s), ratio_estimates(h)
            np.testing.assert_array_equal(r0.theta, r1.theta)
            np.testing.assert_array_equal(r0.variance, r1.variance)
        else:
            for t in (s, h):
                with pytest.raises(DegenerateInstrumentError):
                    ratio_estimates(t)

        for t in (s, h):
            rows = t.variants
            assert tuple(v.id for v in rows) == t.ids
            for name in ("beta_x", "se_x", "beta_y", "se_y"):
                assert [getattr(v, name) for v in rows] == getattr(t, name).tolist()
            assert SummarySet(rows, harmonized=t.harmonized) == t

    @settings(max_examples=50, deadline=None)
    @given(summary_columns())
    def test_stored_columns_read_only(self, drawn):
        columns, ids = drawn
        source = {name: np.array(col) for name, col in columns.items()}
        s = SummarySet.from_arrays(**source, ids=ids)
        before = s.beta_x
        source["beta_x"][0] = 123.0
        copy = s.beta_x
        copy[0] = 456.0
        np.testing.assert_array_equal(s.beta_x, before)
        for t in (s, harmonize(s)):
            for col in t._cols:
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[0] = 1.0


HEADER = "id,beta_x,se_x,beta_y,se_y\n"


class TestCsvRowNumbers:
    @pytest.mark.parametrize("bad_row, message", [
        ("rs2,nan,0.01,0.02,0.05", "row 4: variant 'rs2': beta_x must be finite, got nan"),
        ("rs2,0.2,0.01,inf,0.05", "row 4: variant 'rs2': beta_y must be finite, got inf"),
        ("rs2,0.2,0.01,0.02,-inf", "row 4: variant 'rs2': se_y must be finite, got -inf"),
        ("rs2,0.2,0.0,0.02,0.05", "row 4: variant 'rs2': se_x must be > 0, got 0.0"),
        ("rs2,0.2,0.01,0.02,0", "row 4: variant 'rs2': se_y must be > 0, got 0.0"),
        (",0.2,0.01,0.02,0.05", "row 4: variant id must be a non-empty string, got ''"),
        ("rs1,0.2,0.01,0.02,0.05", "row 4: duplicate variant id 'rs1'"),
        ("rs1,0.2,0.0,nan,0.05", "row 4: duplicate variant id 'rs1'"),
    ])
    def test_reports_first_bad_row(self, bad_row, message):
        # the blank line 3 still counts, and the bad line 4 comes before a bad line 6
        text = HEADER + "rs1,0.1,0.01,0.02,0.05\n\n" + bad_row + "\nrs3,0.3,0.01,0.02,0.05\n"
        for tail in ("", "rs4,0.1,0.0,0.02,0.05\n", "rs4,x,0.01,0.02,0.05\n",
                     "rs4,0.1,0.01\n"):
            with pytest.raises(CsvParseError) as exc:
                read_csv(io.StringIO(text + tail))
            assert str(exc.value) == message

    def test_parse_error_after_valid_rows(self):
        text = HEADER + "rs1,0.1,0.01,0.02,0.05\nrs2,0.1,0.01,zz,0.05\n"
        with pytest.raises(CsvParseError, match=r"^row 3: non-numeric value 'zz' for beta_y$"):
            read_csv(io.StringIO(text))

    def test_messages_match_row_constructor(self):
        with pytest.raises(ValueError) as exc:
            SummarySet.from_arrays([0.1, 0.2], [0.01, 0.01], [0.0, np.nan], [0.05, 0.05],
                                   ids=["a", "b"])
        assert str(exc.value) == "variant 'b': beta_y must be finite, got nan"
        with pytest.raises(ValueError, match="duplicate variant id 'a'"):
            SummarySet.from_arrays([0.1, 0.2], [0.01, 0.01], [0.0, 0.0], [0.05, 0.05],
                                   ids=["a", "a"])
        with pytest.raises(ValueError, match="harmonized set"):
            SummarySet.from_arrays([-0.1], [0.01], [0.0], [0.05], harmonized=True)
        with pytest.raises(ValueError, match="2 ids for 1 variants"):
            SummarySet.from_arrays([0.1], [0.01], [0.0], [0.05], ids=["a", "b"])
