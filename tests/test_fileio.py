import builtins
import io
import math
import re

import numpy as np
import pytest
from numpy.lib import format as npy

from diffinv import fileio
from diffinv.fileio import load_tensor, parse_kv_file, save_csv, save_tensor

EDGES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
ORDINARY = [0.1, -1.5, 1e-300, 2.2250738585072014e-308, 1e16, 123456789.125, -7.0]


def npy_file(header: str, data: bytes = b"", version: bytes = b"\x01\x00") -> bytes:
    """A `.npy` file's bytes: magic, `version`, the header dict's text, then `data`."""
    text = header.encode("latin1") + b"\n"
    return npy.MAGIC_PREFIX + version + len(text).to_bytes(2, "little") + text + data


def npy_header(descr: str, shape: tuple) -> str:
    return f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape}}}"


class TestTextTensors:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5))
        path = tmp_path / "t.txt"
        save_tensor(path, arr)
        loaded = load_tensor(path)
        assert loaded.shape == arr.shape
        np.testing.assert_array_equal(loaded, arr)  # %.17g round-trips float64

    def test_one_dimensional(self, tmp_path):
        arr = np.array([1.5, -2.25, 3e-300])
        path = tmp_path / "v.txt"
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)

    def test_header_format(self, tmp_path):
        path = tmp_path / "t.txt"
        save_tensor(path, np.zeros((2, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "shape: 2 3"

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(ValueError, match="shape"):
            load_tensor(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("shape: 2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 4 values"):
            load_tensor(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("shape: 2\n1.0 oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_tensor(path)


class TestTextWriter:
    @pytest.mark.parametrize(
        "arr, written",
        [
            (
                np.array([EDGES, ORDINARY]),
                b"shape: 2 7\n"
                b"0 -0 4.9406564584124654e-324 1.7976931348623157e+308 nan inf -inf\n"
                b"0.10000000000000001 -1.5 1e-300 2.2250738585072014e-308 10000000000000000"
                b" 123456789.125 -7\n",
            ),
            (np.array(-2.5), b"shape: \n-2.5\n"),
        ],
        ids=["edges", "0d"],
    )
    def test_golden_bytes(self, tmp_path, arr, written):
        path = tmp_path / "t.txt"
        save_tensor(path, arr)
        assert path.read_bytes() == written


class TestBinaryTensors:
    def test_round_trip_is_exact(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((4, 4))
        path = tmp_path / "t.bin"
        save_tensor(path, arr)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == arr.tobytes()

    def test_layout_is_found_by_its_magic(self, tmp_path):
        path = tmp_path / "nosuffix"
        save_tensor(tmp_path / "t.bin", np.ones(3))
        (tmp_path / "t.bin").rename(path)
        assert path.read_bytes().startswith(npy.MAGIC_PREFIX)
        np.testing.assert_array_equal(load_tensor(path), np.ones(3))

    @pytest.mark.parametrize("suffix", [".bin", ".npy"])
    def test_bytes_are_numpys_float64_npy(self, tmp_path, suffix):
        arr = np.arange(24).reshape(2, 3, 4)[:, ::2, 1:].transpose(2, 0, 1)  # not contiguous
        path = tmp_path / f"t{suffix}"
        save_tensor(path, arr)
        expected = io.BytesIO()
        np.save(expected, arr.astype(np.float64))
        assert path.read_bytes() == expected.getvalue()

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor(path, np.ones((2, 2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match=r"expected 4 values for shape \(2, 2\), found 3$"):
            load_tensor(path)

    @pytest.mark.parametrize(
        "arr",
        [np.arange(6, dtype=np.float32) / 3, np.arange(-3, 3, dtype=np.int64),
         np.arange(6.0).astype(">f8"), np.asfortranarray(np.arange(6.0).reshape(2, 3)),
         np.array(-2.5)],
        ids=["float32", "int64", "big-endian", "fortran-2x3", "0d"],
    )
    def test_loads_what_np_save_writes_as_float64(self, tmp_path, arr):
        path = tmp_path / "t.npy"
        np.save(path, arr)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64 and loaded.shape == arr.shape
        assert loaded.flags.c_contiguous
        np.testing.assert_array_equal(loaded, arr)

    def test_a_subarray_dtype_adds_its_dims(self, tmp_path):
        path = tmp_path / "t.npy"
        header = "{'descr': ('<f8', (2,)), 'fortran_order': False, 'shape': (3,)}"
        path.write_bytes(npy_file(header, np.arange(6.0).tobytes()))
        np.testing.assert_array_equal(load_tensor(path), np.arange(6.0).reshape(3, 2))

    def test_an_impossible_header_allocates_nothing(self, tmp_path, traced_peak):
        path = tmp_path / "t.npy"
        path.write_bytes(npy_file(npy_header("<f8", (2**32, 2**32)), bytes(24)))

        def load():
            with pytest.raises(ValueError, match="expected 18446744073709551616 values .* found 3"):
                load_tensor(path)

        assert traced_peak(load)[1] < 64 * 1024


class TestOneReaderOneWriter:
    @pytest.mark.parametrize("suffix", [".txt", ".bin", ".npy"])
    @pytest.mark.parametrize(
        "arr",
        [np.array(v) for v in EDGES + [1e300]]
        + [np.array(EDGES), np.array(EDGES * 6).reshape(2, 3, 7),
           np.array((EDGES + [1e300]) * 6).reshape(6, 8)[::2, ::-3]],  # not contiguous
        ids=lambda a: f"{a.ndim}d",
    )
    def test_round_trip_keeps_every_bit(self, tmp_path, arr, suffix):
        path = tmp_path / f"t{suffix}"
        save_tensor(path, arr)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64 and loaded.shape == arr.shape
        assert loaded.tobytes() == arr.tobytes()  # -0.0 and nan bits included

    def test_last_line_without_a_newline(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"shape: 2 2\n1 2\n3 4")
        np.testing.assert_array_equal(load_tensor(path), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_universal_newlines(self, tmp_path, newline):
        path = tmp_path / "t.txt"
        path.write_bytes(newline.join([b"shape: 2 2", b"1 2", b"3 4", b""]))
        np.testing.assert_array_equal(load_tensor(path), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("suffix", [".txt", ".bin", ".npy"])
    def test_one_open_per_load(self, tmp_path, monkeypatch, suffix):
        path = tmp_path / f"t{suffix}"
        save_tensor(path, np.ones((2, 3)))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(fileio, "open", counting_open, raising=False)
        load_tensor(path)
        assert opened == [path]

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"shape: 2 x\n1 2\n", "malformed shape header: 'shape: 2 x'"),
            (b"shape: 2 0\n", r"shape entries must be positive: \(2, 0\)"),
            (b"shape: 1\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 9"),
            (b"shape: 4294967296 4294967296\n", "expected 18446744073709551616 values"),
            (b"TENSRAW1\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x80\xbf",  # no longer read
             "'utf-8' codec can't decode byte 0x80 in position 18"),
            (npy_file(npy_header("<f8", (2, 2)), bytes(24)),
             r"expected 4 values for shape \(2, 2\), found 3$"),
            (npy_file(npy_header("<f8", (2,)), bytes(20)), r"expected 2 values .*, found 2.5$"),
            (npy.MAGIC_PREFIX + b"\x01\x00\x50", "bad .npy header: EOF"),
            (npy_file("{'descr': '<f8', 'shape': (2,"), "bad .npy header: "),  # fails to tokenize
            (npy_file("{'descr': '<f8'}"), "bad .npy header: Header does not contain"),
            (npy_file("{'descr': __import__('os')}"), "bad .npy header: malformed node"),
            (npy_file(npy_header("<f8", (2,)), bytes(16), b"\x03\x00"),
             r"bad .npy header: version 3\.0 is not read"),
            (npy_file(npy_header("<f8", (2, 0))), r"shape entries must be positive: \(2, 0\)"),
            (npy_file(npy_header("<f8", (2**32, 2**32)), bytes(24)),
             r"expected 18446744073709551616 values for shape \(4294967296, 4294967296\)"),
            (npy_file(npy_header("|O", (2,)), bytes(16)),
             "tensor must hold real numbers, got dtype object"),
            (npy_file(npy_header("<c16", (2,)), bytes(32)),
             "tensor must hold real numbers, got dtype complex128"),
            (npy_file(npy_header("|b1", (2,)), bytes(2)),
             "tensor must hold real numbers, got dtype bool"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, blob, message):
        path = tmp_path / "bad"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_tensor(path)

    @pytest.mark.parametrize("suffix", [".txt", ".bin", ".npy"])
    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_save_rejects_empty_dims_before_writing(self, tmp_path, suffix, shape):
        path = tmp_path / f"t{suffix}"
        with pytest.raises(ValueError, match="shape entries must be positive"):
            save_tensor(path, np.zeros(shape))
        assert not path.exists()

    @pytest.mark.parametrize("suffix", [".txt", ".bin", ".npy"])
    @pytest.mark.parametrize(
        "arr",
        [np.array([1 + 2j, 3.0]), np.array([True, False]), np.array([1.0, None]),
         np.array(["x", "1"])],
        ids=["complex", "bool", "object", "string"],
    )
    def test_save_refuses_values_that_are_not_real_before_writing(self, tmp_path, suffix, arr):
        path = tmp_path / f"t{suffix}"
        message = f"^{re.escape(str(path))}: tensor must hold real numbers, got dtype {arr.dtype}$"
        with pytest.raises(ValueError, match=message):
            save_tensor(path, arr)
        assert not path.exists()


class TestCsvWriter:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("a", 3, 0.1), ("b", np.int64(-1), -1e300), ("c", 0, math.nan),
                ("d", 7, np.float32(0.1))]
        save_csv(path, "name,count,value", rows)
        assert path.read_bytes() == (
            b"name,count,value\na,3,0.1\nb,-1,-1e+300\nc,0,nan\nd,7,0.100000001\n"
        )

    def test_header_alone_for_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(path, "a,b", [])
        assert path.read_bytes() == b"a,b\n"


class TestKvFiles:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full line comment\n"
            "seed = 7\n"
            "omega-e = 5.5  # trailing comment\n"
            "\n"
            "Method = anderson\n"
        )
        out = parse_kv_file(path)
        assert out == {"seed": "7", "omega_e": "5.5", "method": "anderson"}

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_file(path)
        path.write_text("key =\n")
        with pytest.raises(ValueError, match="empty"):
            parse_kv_file(path)

    @pytest.mark.parametrize(
        "text, lineno, key, first",
        [
            ("steps = 10\nsteps = 20\n", 2, "steps", 1),
            ("omega = 3\n# comment\nOmega = 4\n", 3, "omega", 1),
            ("seed = 1\nmask-m = 2\nmask_m = 5\n", 3, "mask_m", 2),
        ],
    )
    def test_rejects_a_key_set_twice(self, tmp_path, text, lineno, key, first):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        message = f"{path}:{lineno}: duplicate key '{key}' (first on line {first})"
        with pytest.raises(ValueError) as info:
            parse_kv_file(path)
        assert str(info.value) == message


class TestTextLoadMemory:
    """A text load holds its result plus one bounded piece of the file."""

    @pytest.fixture
    def arr(self):
        return np.random.default_rng(0).standard_normal((256, 256))

    @pytest.mark.parametrize("one_line", [False, True])
    def test_peaks_below_twice_its_result(self, tmp_path, arr, traced_peak, one_line):
        path = tmp_path / "t.txt"
        save_tensor(path, arr)
        if one_line:
            header, body = path.read_text().split("\n", 1)
            path.write_text(header + "\n" + " ".join(body.split()) + "\n")
        loaded, peak = traced_peak(lambda: load_tensor(path))
        assert loaded.tobytes() == arr.tobytes()
        assert peak < 2 * arr.nbytes

    def test_an_impossible_header_allocates_nothing(self, tmp_path, traced_peak):
        path = tmp_path / "t.txt"
        path.write_text("shape: 4294967296 4294967296\n1 2 3\n")

        def load():
            with pytest.raises(ValueError, match="expected 18446744073709551616 values .* found 3"):
                load_tensor(path)

        assert traced_peak(load)[1] < 64 * 1024

    @pytest.mark.parametrize("text", ["shape: 3\n1 x\n", "shape: 2\n1 x 3\n", "shape: 9\n1 x\n"])
    def test_a_wrong_count_is_reported_before_a_bad_token(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected .* values for shape"):
            load_tensor(path)

    @pytest.mark.parametrize("piece", [1, 2, 3, 7])
    def test_tokens_cut_by_the_piece_cap_parse_whole(self, tmp_path, monkeypatch, piece):
        arr = np.array(EDGES * 3).reshape(3, 7)
        path = tmp_path / "t.txt"
        save_tensor(path, arr)
        monkeypatch.setattr(fileio, "_PIECE", piece)
        assert load_tensor(path).tobytes() == arr.tobytes()
