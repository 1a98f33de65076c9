"""Container validation, harmonization, ratio estimates, and CSV round trips."""
from __future__ import annotations

import io
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrobust import summary_data
from ivrobust.exceptions import CsvParseError, DegenerateInstrumentError
from ivrobust.summary_data import (
    SummarySet,
    _parse_csv,
    _read_blocks,
    harmonize,
    ratio_estimates,
    read_csv,
    write_csv,
)

from _helpers import make_set, random_set


class TestVariantRules:
    @pytest.mark.parametrize("columns, ids, message", [
        ((0.1, 0.0, 0.0, 0.05), None, "variant 'v1': se_x must be > 0, got 0.0"),
        ((0.1, 0.01, 0.0, -0.05), None, "variant 'v1': se_y must be > 0, got -0.05"),
        ((float("nan"), 0.01, 0.0, 0.05), None, "variant 'v1': beta_x must be finite, got nan"),
        ((0.1, 0.01, float("inf"), 0.05), None, "variant 'v1': beta_y must be finite, got inf"),
        ((0.1, 0.01, 0.0, 0.05), [""], "variant id must be a non-empty string, got ''"),
    ])
    def test_each_rule_has_its_message(self, columns, ids, message):
        with pytest.raises(ValueError) as exc:
            SummarySet(*([c] for c in columns), ids=ids)
        assert str(exc.value) == message


class TestSummarySet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate variant id 'rs1'"):
            SummarySet([0.1] * 2, [0.01] * 2, [0.0] * 2, [0.05] * 2, ids=["rs1", "rs1"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one variant"):
            SummarySet([], [], [], [])

    def test_harmonized_flag_checked(self):
        with pytest.raises(ValueError, match="negative exposure association"):
            SummarySet([-0.1], [0.01], [0.0], [0.05], harmonized=True)

    def test_array_views_are_copies(self):
        s = make_set([0.1, 0.2], [0.01, 0.01], [0.01, 0.02], [0.05, 0.05])
        a = s.beta_x
        a[0] = 99.0
        assert s.beta_x[0] == 0.1

    def test_from_columns(self):
        s = SummarySet(
            beta_x=[0.1, 0.2], se_x=[0.01, 0.02], beta_y=[0.01, 0.02], se_y=[0.05, 0.04]
        )
        assert s.j == len(s) == 2
        assert s.ids == ("v1", "v2")
        assert s.__eq__((s.ids, s._cols)) is NotImplemented and s != "v1"


class TestHarmonize:
    def test_flips_both_betas(self):
        s = make_set([-0.05], [0.01], [0.02], [0.05])
        h = harmonize(s)
        assert h.beta_x[0] == 0.05
        assert h.beta_y[0] == -0.02
        assert h.se_x[0] == 0.01
        assert h.se_y[0] == 0.05

    def test_zero_beta_x_kept_unflipped(self):
        s = make_set([0.0, 0.1], [0.01, 0.01], [0.03, 0.01], [0.05, 0.05])
        h = harmonize(s)
        assert h.beta_x[0] == 0.0
        assert h.beta_y[0] == 0.03

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

    def test_unexpected_column_reports_row_one(self):
        bad = "id,beta_x,se_x,beta_y,se_y,pval\nrs1,0.1,0.01,0.02,0.05,0.3\n"
        with pytest.raises(CsvParseError, match=r"^row 1: unexpected column\(s\) pval$"):
            read_csv(io.StringIO(bad))

    def test_header_only_rejected(self):
        with pytest.raises(CsvParseError, match="no variants"):
            read_csv(io.StringIO("id,beta_x,se_x,beta_y,se_y\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(CsvParseError, match="header"):
            read_csv(io.StringIO(""))

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_field_past_size_limit_reports_row(self, tmp_path, source):
        # csv.reader raises _csv.Error on a field longer than csv.field_size_limit()
        text = ("id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02,0.05\n"
                + "r" * 200_000 + ",0.2,0.01,0.02,0.05\n")
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvParseError, match=r"^row 3: field larger than field limit"):
            read_csv(path if source == "path" else io.StringIO(text))

    def test_fault_before_an_overlong_field_reported_first(self):
        text = ("id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.02,0\n"
                + "r" * 200_000 + ",0.2,0.01,0.02,0.05\n")
        with pytest.raises(CsvParseError, match=r"^row 2: .*se_y must be > 0"):
            read_csv(io.StringIO(text))

    def test_overlong_header_reports_row_one(self):
        with pytest.raises(CsvParseError, match=r"^row 1: field larger than field limit"):
            read_csv(io.StringIO("i" * 200_000 + ",beta_x,se_x,beta_y,se_y\n"))


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
        s = SummarySet(**columns, ids=ids)
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
            columns = [getattr(t, name) for name in ("beta_x", "se_x", "beta_y", "se_y")]
            assert SummarySet(*columns, ids=t.ids, harmonized=t.harmonized) == t

    @settings(max_examples=50, deadline=None)
    @given(summary_columns())
    def test_stored_columns_read_only(self, drawn):
        columns, ids = drawn
        source = {name: np.array(col) for name, col in columns.items()}
        s = SummarySet(**source, ids=ids)
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

    def test_constructor_messages(self):
        with pytest.raises(ValueError) as exc:
            SummarySet([0.1, 0.2], [0.01, 0.01], [0.0, np.nan], [0.05, 0.05], ids=["a", "b"])
        assert str(exc.value) == "variant 'b': beta_y must be finite, got nan"
        with pytest.raises(ValueError, match="duplicate variant id 'a'"):
            SummarySet([0.1, 0.2], [0.01, 0.01], [0.0, 0.0], [0.05, 0.05], ids=["a", "a"])
        with pytest.raises(ValueError, match="harmonized set"):
            SummarySet([-0.1], [0.01], [0.0], [0.05], harmonized=True)
        with pytest.raises(ValueError, match="2 ids for 1 variants"):
            SummarySet([0.1], [0.01], [0.0], [0.05], ids=["a", "b"])
        with pytest.raises(ValueError, match="must be equal-length 1-d sequences"):
            SummarySet([0.1, 0.2], [0.01], [0.0, 0.0], [0.05, 0.05])


    @pytest.mark.parametrize("row", [
        "rs2,nan,0.01,0.02,0.05", "rs2,0.2,inf,0.02,0.05", "rs2,0.2,0.01,-inf,0.05",
        "rs2,0.2,0.01,0.02,nan", "rs2,0.2,0.0,0.02,0.05", "rs2,0.2,-0.01,nan,0.05",
        "rs2,0.2,0.01,0.02,-0.0", "rs2,0.2,-1,0.02,0", ",0.2,0.01,0.02,0.05",
        "rs1,0.2,0.0,nan,0.05",
    ])
    def test_reader_reports_the_constructor_message(self, row, tmp_path):
        # one statement of the variant rules: the reader adds only the row number
        lines = ["rs1,0.1,0.01,0.02,0.05", row]
        ids, *columns = zip(*(line.split(",") for line in lines))
        with pytest.raises(ValueError) as built:
            SummarySet(*([float(v) for v in col] for col in columns), ids=ids)
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n", encoding="utf-8")
        for source in (path, io.StringIO(path.read_text(encoding="utf-8"))):
            with pytest.raises(CsvParseError) as read:
                read_csv(source)
            assert str(read.value) == f"row 3: {built.value}"


# cells of a generated CSV: the valid forms (padding, "1_0", unicode ids), the
# forms only the row walker reads (quotes; "\r\n" line ends below) and, in
# texts that may be invalid, the faults the walker reports
_VALID_VALUE = st.floats(-5.0, 5.0).map(repr) | st.sampled_from(
    ["0.1", " 0.25 ", "-3e-2", "1_0", "+.5", "0", "-0.0"])
_VALID_SE = st.floats(1e-6, 1.0).map(repr) | st.sampled_from(["0.05", " 0.02", "2_5e-3"])
_VALID_ID = st.sampled_from(["rs{}", " rs{} ", "r\u00e9s{}", "{}"])
_QUOTED_VALUE = _VALID_VALUE | st.just('"0.5"')
_QUOTED_ID = _VALID_ID | st.sampled_from(['"rs,{}"', '"rs""{}"'])
_VALUE = _QUOTED_VALUE | st.sampled_from(["nan", "inf", "-inf", "x", "", "1e400"])
_SE = _VALID_SE | st.sampled_from(["0", "-0.01", "nan", "inf", "se", '"0.03"'])
_ID = st.integers(1, 60).map("rs{}".format) | st.sampled_from(
    ["rs1", " rs7 ", "", "  ", '"rs,8"', '"rs""9"', "rs\t10", '"rs12"', "13", "0.5"])
_HEADER = HEADER.rstrip("\n")


@st.composite
def csv_texts(draw):
    # half the texts have valid rows by construction, the rest may hold any fault
    valid = draw(st.booleans())
    quoted = draw(st.booleans())
    header = draw(st.sampled_from(
        [_HEADER] * 6 + [" id , beta_x,se_x,beta_y,se_y ", '"id",beta_x,se_x,beta_y,se_y',
                         "id,beta_x,se_y,beta_y,se_x", "", "id,beta_x"]))
    lines = [header]
    kinds = ["row"] * 8 + ["blank"] + ([] if valid else ["space", "short", "long"])
    for k in range(draw(st.integers(1 if valid else 0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append("  ")
        elif valid:
            vid = draw(_QUOTED_ID if quoted else _VALID_ID).format(k)
            value = _QUOTED_VALUE if quoted else _VALID_VALUE
            lines.append(",".join([vid, draw(value), draw(_VALID_SE), draw(value),
                                   draw(_VALID_SE)]))
        else:
            cells = [draw(_ID), draw(_VALUE), draw(_SE), draw(_VALUE), draw(_SE)]
            if kind == "short":
                cells.pop(draw(st.integers(0, 4)))
            elif kind == "long":
                cells.append(draw(_VALUE))
            lines.append(",".join(cells))
    if valid and not any(lines[1:]):
        lines.append("rs0,0.1,0.01,0.02,0.05")
    if draw(st.integers(0, 5)) == 0:  # 4 then 6 numeric fields: 10 in all, wrongly split
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = ["900,0.1,0.01,0.02", "901,0.1,0.01,0.02,0.05,0.3"]
    endings = ["\n"] * 9 + ["\r\n"] if draw(st.booleans()) else ["\n"]
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path):
    try:
        return read(path)
    except CsvParseError as exc:
        return str(exc)


def _walk(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return _parse_csv(fh)


def _blocks(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return _read_blocks(fh)


def _large_rows(j):
    rng = np.random.default_rng(j)
    return [f"rs{i},{rng.normal()!r},{rng.uniform(0.01, 0.1)!r},{rng.normal()!r},"
            f"{rng.uniform(0.01, 0.1)!r}" for i in range(j)]


class TestCsvFastPath:
    """The block reader against the row walker: same set, or the same error."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fast") / "set.csv"

    @pytest.mark.parametrize("block", [7, 64, summary_data._BLOCK_CHARS])
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_outcome_as_walker(self, path, block, text):
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(summary_data, "_BLOCK_CHARS", block):
            expected = _outcome(_walk, path)
            assert _outcome(read_csv, path) == expected
            fast = _blocks(path)
        # the block reader covers every valid file without quotes or "\r", and nothing else
        plain = isinstance(expected, SummarySet) and '"' not in text and "\r" not in text
        assert (fast is not None) == plain
        if plain:
            assert fast == expected

    def test_existing_cases_through_a_path(self, path):
        rows = "rs1,0.1,0.01,0.02,0.05\n\nrs2,0.2,0.01,0.02,0\nrs3,0.3,0.01,0.02,0.05\n"
        for text in (CSV_TEXT, HEADER + rows, HEADER + "rs1,0.1,0.01,0.02\n", HEADER,
                     HEADER + "rs1,0.1,0.01,zz,0.05\n", "", "id,beta_x,se_x,beta_y\n"):
            path.write_text(text, encoding="utf-8", newline="")
            assert _outcome(read_csv, path) == _outcome(_walk, path)

    @pytest.mark.parametrize("bad_row, message", [
        ("bad,0.1,0.01,0.02,0", "se_y must be > 0, got 0.0"),
        ("bad,0.1,0.01,oops,0.05", "non-numeric value 'oops' for beta_y"),
        ("bad,0.1,0.01,0.02", "expected 5 fields, got 4"),
        ("rs1,0.1,0.01,0.02,0.05", "duplicate variant id 'rs1'"),
    ])
    def test_fault_in_second_block_reports_its_row(self, path, bad_row, message):
        rows = _large_rows(6_000)
        at = 4_500  # past the first block of a default-sized read
        assert len("\n".join(rows[:at])) > summary_data._BLOCK_CHARS
        rows[at] = bad_row
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as exc:
            read_csv(path)
        row = at + 2  # the header is row 1
        assert str(exc.value).startswith(f"row {row}: ")
        assert message in str(exc.value)
        assert str(exc.value) == _outcome(_walk, path)

    @pytest.mark.parametrize("first_id, reader", [("rs1", "_read_blocks"),
                                                  ('"rs,1"', "_parse_csv")])
    def test_byte_order_mark_ignored(self, path, first_id, reader):
        # spreadsheet "CSV UTF-8" files start with a BOM; a quoted id sends the
        # file to the row walker, which re-reads it from the start
        text = HEADER + first_id + ",0.1,0.01,0.02,0.05\nrs2,0.2,0.01,0.03,0.05\n"
        path.write_text(text, encoding="utf-8", newline="")
        plain = read_csv(path)
        path.write_text(text, encoding="utf-8-sig", newline="")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        real = getattr(summary_data, reader)
        with mock.patch.object(summary_data, reader, side_effect=real) as used:
            assert read_csv(path) == plain
        assert used.called
        assert plain.ids[0] == first_id.strip('"')

    def test_large_file_round_trips(self, path):
        path.write_text(HEADER + "\n".join(_large_rows(8_000)) + "\n", encoding="utf-8")
        assert path.stat().st_size > 2 * summary_data._BLOCK_CHARS
        s = _blocks(path)
        assert s is not None and s == _walk(path) and s.j == 8_000
        copy = path.with_name("copy.csv")
        write_csv(s, copy)
        assert read_csv(copy) == s
        assert copy.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")
