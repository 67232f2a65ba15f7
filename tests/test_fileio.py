import builtins
import struct

import numpy as np
import pytest

from diffinv import fileio
from diffinv.fileio import MAGIC, load_tensor, parse_kv_file, save_tensor

EDGES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]


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


class TestBinaryTensors:
    def test_round_trip_float32(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((4, 4))
        path = tmp_path / "t.bin"
        save_tensor(path, arr)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, arr.astype(np.float32).astype(np.float64))

    def test_magic_sniffing(self, tmp_path):
        path = tmp_path / "nosuffix"
        save_tensor(tmp_path / "t.bin", np.ones(3))
        (tmp_path / "t.bin").rename(path)
        assert path.read_bytes()[:8] == MAGIC
        np.testing.assert_array_equal(load_tensor(path), np.ones(3))

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor(path, np.ones((2, 2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="expected 4 float32"):
            load_tensor(path)


class TestOneReaderOneWriter:
    @pytest.mark.parametrize("suffix", [".txt", ".bin"])
    @pytest.mark.parametrize(
        "arr",
        [np.array(v) for v in EDGES] + [np.array(EDGES), np.array(EDGES * 6).reshape(2, 3, 7)],
        ids=lambda a: f"{a.ndim}d",
    )
    def test_round_trip_keeps_every_bit(self, tmp_path, arr, suffix):
        path = tmp_path / f"t{suffix}"
        with np.errstate(over="ignore"):  # the largest double is inf in float32
            save_tensor(path, arr)
            expected = arr if suffix == ".txt" else arr.astype(np.float32).astype(np.float64)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float64 and loaded.shape == arr.shape
        assert loaded.tobytes() == expected.tobytes()  # -0.0 and nan bits included

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_universal_newlines(self, tmp_path, newline):
        path = tmp_path / "t.txt"
        path.write_bytes(newline.join([b"shape: 2 2", b"1 2", b"3 4", b""]))
        np.testing.assert_array_equal(load_tensor(path), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("suffix", [".txt", ".bin"])
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
            (b"shape: 1\n\xff\n", "can't decode byte 0xff in position 9"),
            (b"shape: 4294967296 4294967296\n", "expected 18446744073709551616 values"),
            (MAGIC + b"\x01\x00", "truncated header"),
            (MAGIC + struct.pack("<2I", 3, 1), "truncated dims header"),
            (MAGIC + struct.pack("<4I", 3, 2**31, 2**31, 4), "expected 18446744073709551616 float32"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, blob, message):
        path = tmp_path / "bad"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=message):
            load_tensor(path)


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
