import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecy import streams
from piecy.streams import (PointSource, StreamFormatError, write_bin, write_csv,
                           write_stream)


def refuse_open(*args, **kwargs):
    raise AssertionError("the stream was opened")


@st.composite
def csv_records(draw):
    """(rows, weights or None, leading blank lines) for one csv file."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 6))
    coord = st.floats(allow_nan=False, allow_infinity=False)
    rows = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in range(count)]
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 2**63 - 1),
                                                 min_size=count, max_size=count)))
    return rows, weights, draw(st.integers(0, 3))


class TestCsv:
    def test_two_point_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2\n3,4\n")
        src = PointSource(str(path), "csv")
        assert src.dim == 2
        pts = list(src)
        assert np.allclose(pts[0], [1.0, 2.0])
        assert np.allclose(pts[1], [3.0, 4.0])
        # blank lines are skipped by the dimension probe and by the reader
        path.write_text("\n1,2\n\n3,4\n")
        src = PointSource(str(path), "csv")
        assert src.dim == 2
        assert np.array_equal(np.stack(list(src)), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        src = PointSource(str(path), "csv")
        assert src.dim is None
        assert list(src) == []

    def test_written_values_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        path = tmp_path / "out.csv"
        write_csv(path, iter(pts))
        back = np.stack(list(PointSource(str(path), "csv")))
        assert np.array_equal(back, pts)  # repr round-trips float64 exactly

    def test_weighted_column(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, [(np.array([1.5, -2.0]), 3), (np.array([0.0, 1.0]), 7)],
                  weighted=True)
        src = PointSource(str(path), "csv", weighted=True)
        pairs = list(src)
        assert pairs[0][1] == 3 and pairs[1][1] == 7
        assert np.allclose(pairs[0][0], [1.5, -2.0])
        assert src.dim == 2

    def test_malformed_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            list(PointSource(str(path), "csv"))

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            list(PointSource(str(path), "csv"))

    def test_first_line_without_coordinates_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n\n5\n")
        with pytest.raises(StreamFormatError, match="line 3: no coordinates"):
            PointSource(str(path), "csv", weighted=True)
        # The reader is the one place that rejects it, the probe included.
        with pytest.raises(StreamFormatError, match="line 3: no coordinates"):
            list(streams._read_csv(str(path), True))

    @settings(max_examples=60, deadline=None)
    @given(records=csv_records())
    def test_written_records_roundtrip_through_the_source(self, tmp_path_factory, records):
        rows, weights, blank = records
        path = tmp_path_factory.mktemp("csv") / "pts.csv"
        weighted = weights is not None
        write_csv(path, zip(rows, weights) if weighted else rows, weighted=weighted)
        path.write_text("\n" * blank + path.read_text())
        src = PointSource(str(path), "csv", weighted=weighted)
        back = list(src)
        assert len(back) == len(rows)
        for item, row, weight in zip(back, rows, weights or [None] * len(rows)):
            point = item[0] if weighted else item
            assert src.dim == point.shape[0] == len(row)
            assert point.tolist() == row
            if weighted:
                assert item[1] == weight

    @pytest.mark.parametrize("weighted, text, line", [
        (True, "1_000,2.0\n3,4.0\n", 1),
        (True, "3,4.0\n1_000,2.0\n", 2),
        (False, "1.0,2_0.5\n3.0,4.0\n", 1),
        (False, "3.0,4.0\n\n1_0,2.0\n", 3),
    ], ids=["weighted-first", "weighted-later", "unweighted-first", "unweighted-later"])
    def test_digit_separator_is_rejected_naming_its_line(self, tmp_path, weighted,
                                                         text, line):
        path = tmp_path / "sep.csv"
        path.write_text(text)
        match = f"line {line}: '_' in a field"
        if line == 1:  # the first record is read when the source opens
            with pytest.raises(StreamFormatError, match=match):
                PointSource(str(path), "csv", weighted=weighted)
        else:
            src = PointSource(str(path), "csv", weighted=weighted)
            with pytest.raises(StreamFormatError, match=match):
                list(src)

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("weighted, template, line", [
        (True, "2,{},1.0\n3,4.0,2.0\n", 1),
        (True, "3,4.0,2.0\n\n2,1.0,{}\n", 3),
        (False, "{},1.0\n3.0,4.0\n", 1),
        (False, "3.0,4.0\n1.0,{}\n", 2),
    ], ids=["weighted-first", "weighted-later", "unweighted-first", "unweighted-later"])
    def test_non_finite_coordinate_is_rejected_naming_its_line(self, tmp_path, weighted,
                                                               template, line, field):
        path = tmp_path / "nonfinite.csv"
        path.write_text(template.format(field))
        match = f"line {line}: non-finite coordinate"
        if line == 1:  # the first record is read when the source opens
            with pytest.raises(StreamFormatError, match=match):
                PointSource(str(path), "csv", weighted=weighted)
        else:
            src = PointSource(str(path), "csv", weighted=weighted)
            with pytest.raises(StreamFormatError, match=match):
                list(src)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            list(PointSource(str(path), "csv", weighted=True))


class TestBin:
    def test_bitwise_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(64, 7))
        path = tmp_path / "pts.bin"
        write_bin(path, iter(pts), 7)
        src = PointSource(str(path), "bin")
        assert src.dim == 7
        back = np.stack(list(src))
        assert np.array_equal(back, pts)

    def test_weighted_bitwise_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 4))
        weights = rng.integers(1, 1000, size=10)
        path = tmp_path / "w.bin"
        write_bin(path, zip(pts, weights), 4, weighted=True)
        pairs = list(PointSource(str(path), "bin", weighted=True))
        assert [w for _, w in pairs] == list(weights)
        assert np.array_equal(np.stack([x for x, _ in pairs]), pts)

    def test_weighted_zero_weight_names_byte_offset(self, tmp_path):
        path = tmp_path / "w0.bin"
        pts = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        write_bin(path, zip(pts, [5, 0]), 2, weighted=True)
        source = iter(PointSource(str(path), "bin", weighted=True))
        assert next(source)[1] == 5
        # 12-byte header, then 24-byte records: the second starts at byte 36
        with pytest.raises(StreamFormatError, match="byte 36: weight must be >= 1"):
            next(source)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("second_block", [False, True], ids=["first", "second-block"])
    def test_non_finite_coordinate_names_byte_offset(self, tmp_path, value, weighted,
                                                     second_block):
        rec_size = 16 + 8 * weighted
        bad = streams.block_rows(rec_size) + 3 if second_block else 0
        n = bad + 5
        fields = [("w", "<u8"), ("x", "<f8", (2,))] if weighted else [("x", "<f8", (2,))]
        records = np.zeros(n, dtype=fields)
        records["x"] = np.arange(2.0 * n).reshape(n, 2)
        if weighted:
            records["w"] = 1
        records["x"][bad, 1] = value
        path = tmp_path / "nonfinite.bin"
        write_bin(path, [], 2, weighted=weighted)
        with open(path, "ab") as fh:
            fh.write(records.tobytes())
        source = iter(PointSource(str(path), "bin", weighted=weighted))
        for _ in range(bad):  # the records before the bad one still stream out
            next(source)
        # 12-byte header, then rec_size-byte records
        with pytest.raises(StreamFormatError,
                           match=f"byte {12 + bad * rec_size}: non-finite coordinate$"):
            next(source)

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        src = PointSource(str(path), "bin")
        assert src.dim is None
        assert list(src) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(StreamFormatError, match="magic"):
            PointSource(str(path), "bin")

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.bin"
        write_bin(path, [np.array([1.0])], 1)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + b"\x02\x00\x00\x00" + raw[8:])
        with pytest.raises(StreamFormatError, match="unsupported version 2"):
            PointSource(str(path), "bin")

    def test_zero_dimension_header(self, tmp_path):
        path = tmp_path / "dim0.bin"
        write_bin(path, [np.array([1.0])], 1)
        src = PointSource(str(path), "bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + b"\x00" * 4 + raw[12:])
        with pytest.raises(StreamFormatError, match="dimension 0"):
            PointSource(str(path), "bin")
        with pytest.raises(StreamFormatError, match="dimension 0"):
            list(src)  # the file changed after the probe

    def test_truncated_record_names_byte_offset(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_bin(path, [np.array([1.0, 2.0])], 2)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # cut into the last record
        with pytest.raises(StreamFormatError, match="byte"):
            list(PointSource(str(path), "bin"))

    def test_partial_record_is_rejected_when_the_source_opens(self, tmp_path):
        path = tmp_path / "part.bin"
        write_bin(path, [(np.array([1.0, 2.0]), 3)], 2, weighted=True)
        raw = path.read_bytes()
        path.write_bytes(raw + raw[12:20])  # a second record cut after its weight
        with pytest.raises(StreamFormatError, match="truncated record at byte 36$"):
            PointSource(str(path), "bin", weighted=True)
        # Read unweighted, the same 32 payload bytes are two whole records.
        assert len(list(PointSource(str(path), "bin"))) == 2

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.bin"
        path.write_bytes(b"SCPT\x01")
        with pytest.raises(StreamFormatError, match="header"):
            PointSource(str(path), "bin")

    def test_reiterable_source(self, tmp_path):
        pts = [np.array([1.0]), np.array([2.0])]
        path = tmp_path / "two.bin"
        write_bin(path, iter(pts), 1)
        src = PointSource(str(path), "bin")
        assert len(list(src)) == 2
        assert len(list(src)) == 2  # second pass re-opens

    def test_generated_stream_roundtrip(self, tmp_path):
        from piecy.datagen import SwnConfig, structured_with_noise
        cfg = SwnConfig(clusters=3, points_per_cluster=10, dim=12,
                        active_dims=3, seed=5)
        path = tmp_path / "swn.bin"
        write_stream(path, structured_with_noise(cfg), 12, "bin")
        back = np.stack(list(PointSource(str(path), "bin")))
        direct = np.stack(list(structured_with_noise(cfg)))
        assert np.array_equal(back, direct)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_pipe_is_rejected_before_it_is_opened(self, tmp_path, monkeypatch, fmt):
        # A pipe's data would be used up by the probe, before the pass.
        path = tmp_path / "pipe"
        os.mkfifo(path)
        monkeypatch.setattr(streams, "open", refuse_open, raising=False)
        with pytest.raises(StreamFormatError, match="not a regular file"):
            PointSource(str(path), fmt)

    def test_link_to_a_regular_file_is_accepted(self, tmp_path):
        write_bin(tmp_path / "one.bin", [np.array([1.0, 2.0])], 2)
        os.symlink(tmp_path / "one.bin", tmp_path / "link")
        assert len(list(PointSource(str(tmp_path / "link"), "bin"))) == 1

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_stream(tmp_path / "x", [], 1, "parquet")
