import re
import tracemalloc

import pytest

from quasilab import (
    GroupSpecError,
    TableFormatError,
    cyclic,
    format_table,
    parse_group_spec,
    parse_table_text,
    read_table,
    subtraction_quasigroup,
    write_table,
)


def test_round_trip(tmp_path):
    q = subtraction_quasigroup(cyclic(5))
    path = tmp_path / "q.tbl"
    write_table(path, q, comments=["round trip"])
    again = read_table(path)
    assert again == q
    assert "# round trip" in path.read_text()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\norder 2   # trailing\n0 1\n\n1 0  # done\n"
    q = parse_table_text(text)
    assert q.to_lists() == [[0, 1], [1, 0]]


def test_format_errors():
    with pytest.raises(TableFormatError):
        parse_table_text("")
    with pytest.raises(TableFormatError):
        parse_table_text("size 2\n0 1\n1 0\n")
    with pytest.raises(TableFormatError):
        parse_table_text("order two\n0 1\n1 0\n")
    with pytest.raises(TableFormatError):
        parse_table_text("order 0\n")
    with pytest.raises(TableFormatError):
        parse_table_text("order 2\n0 1\n")               # missing row
    with pytest.raises(TableFormatError):
        parse_table_text("order 2\n0 1\n1 0\n0 1\n")     # extra row
    with pytest.raises(TableFormatError):
        parse_table_text("order 2\n0 x\n1 0\n")
    with pytest.raises(TableFormatError):
        parse_table_text("order 2\n0 1 1\n1 0\n")


def test_latin_violations_surface_from_parser():
    from quasilab import NotLatin

    with pytest.raises(NotLatin):
        parse_table_text("order 2\n0 1\n0 1\n")


def test_group_specs():
    assert parse_group_spec("Z4").order == 4
    k4 = parse_group_spec("z2XZ2")
    assert k4.label == "Z2xZ2"
    assert k4.factors == (2, 2)
    assert parse_group_spec("Z3xZ9").order == 27


def test_group_spec_errors():
    for bad in ("Z0", "Q8", "Z2x", "x", "", "Z-3", "Z2*Z2"):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


def test_input_that_python_cannot_read_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.tbl"
    path.write_bytes(b"order 1\n\xff\n")
    with pytest.raises(TableFormatError, match=r"latin1\.tbl: not UTF-8 text at byte 8$"):
        read_table(path)
    with pytest.raises(GroupSpecError, match="5000 digits"):
        parse_group_spec("Z" + "9" * 5000)


def test_a_long_file_is_refused_at_its_first_extra_row(tmp_path):
    # 20 MB of rows after "order 2": refused without reading past row 3
    path = tmp_path / "long.tbl"
    with path.open("w") as f:
        f.write("order 2\n")
        for _ in range(20):
            f.write("0 1\n" * 250_000)
    assert path.stat().st_size > 20_000_000
    tracemalloc.start()
    try:
        with pytest.raises(TableFormatError, match="^expected 2 rows, got more than 2$"):
            read_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_the_file_reader_keeps_the_text_parser_errors(tmp_path):
    cases = ["", "order 2\n0 1\n", "order 2\n0 x\n1 0\n", "order 2\n0 1 1\n1 0\n",
             "# c\r\norder 2\r\n0 1\r1 0\n", "order 2\n0 1\n1 0\n\n# end\n"]
    for text in cases:
        path = tmp_path / "t.tbl"
        path.write_text(text)
        try:
            expected = parse_table_text(text).to_lists()
        except TableFormatError as exc:
            with pytest.raises(TableFormatError, match=f"^{re.escape(str(exc))}$"):
                read_table(path)
        else:
            assert read_table(path).to_lists() == expected


def test_the_row_count_is_checked_before_the_rows():
    with pytest.raises(TableFormatError, match="^expected 2 rows, got 1$"):
        parse_table_text("order 2\n0 x\n")
    with pytest.raises(TableFormatError, match="^expected 2 rows, got more than 2$"):
        parse_table_text("order 2\n0 x\n1 0\n0 1\n")


def test_an_order_above_sys_maxsize_is_a_format_error(tmp_path):
    text = "order 99999999999999999999\n0\n"
    with pytest.raises(TableFormatError, match="^order 99999999999999999999 is too large$"):
        parse_table_text(text)
    path = tmp_path / "huge.tbl"
    path.write_text(text)
    with pytest.raises(TableFormatError, match="^order 99999999999999999999 is too large$"):
        read_table(path)
