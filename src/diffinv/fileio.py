"""Portable tensor files, CSV tables and key=value config parsing.

The one module that opens files.  Text tensors: first line `shape: d1 d2
...`, then whitespace-separated decimal reals in row-major order.  Binary
tensors: an 8-byte magic, little-endian uint32 rank and dims, then float32
data; lossy but fast.  The reader opens a file once and picks the layout
by its magic; the writer picks the binary layout for `.bin` paths.  A CSV
table is a header line, then one comma-separated line per row.
"""

from __future__ import annotations

import io
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import check_real_array

MAGIC = b"TENSRAW1"
# Characters per text read: a one-line file is parsed in pieces no longer than this.
_PIECE = 1 << 15


def _check_shape(path, shape) -> None:
    """Both layouts hold only tensors whose every dim is at least 1."""
    if any(d < 1 for d in shape):
        raise ValueError(f"{path}: shape entries must be positive: {shape}")


def save_tensor(path, array) -> None:
    """Write `array` in the layout its suffix picks; ValueError names the file it would not write.

    Each refusal comes before the file is opened.  An array whose dtype is
    not integer or float (bool, string, object, complex) is refused rather
    than converted; NaN and ±inf are written as they are.  A finite entry
    beyond the float32 range is refused for `.bin` rather than stored as
    inf, which `load_tensor` accepts but no run can use.  The text layout
    writes one `%.17g` line per last-axis row, with `np.savetxt`, after the
    `shape:` line.
    """
    path = Path(path)
    array = check_real_array(array, f"{path}: tensor")
    _check_shape(path, array.shape)
    if path.suffix == ".bin":
        with np.errstate(over="ignore"):  # reported below, by name
            arr = np.asarray(array, dtype="<f4", order="C")
        inf = np.isinf(arr)
        if inf.any():
            overflowed = np.count_nonzero(inf & np.isfinite(array))
            if overflowed:
                raise ValueError(
                    f"{path}: finite entries overflow float32 in the .bin layout: "
                    f"{overflowed} of {arr.size}"
                )
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.data)
        return
    arr = np.asarray(array, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("shape: " + " ".join(str(d) for d in arr.shape) + "\n")
        np.savetxt(fh, arr.reshape(-1, arr.shape[-1] if arr.ndim else 1), fmt="%.17g")


def save_csv(path, header: str, rows) -> None:
    """Write `header`, then each row's values joined by commas.

    Floats, NumPy's included, are written as `%.9g` and other values by
    `str`, in UTF-8 with `\\n` line endings, so the same rows always give
    the same bytes.
    """
    lines = [header]
    for row in rows:
        cells = (f"{v:.9g}" if isinstance(v, (float, np.floating)) else str(v) for v in row)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tensor(path) -> np.ndarray:
    """The tensor stored at `path`, in whichever layout its first bytes name.

    A text body is parsed while it is read, a bounded piece at a time,
    straight into the result, so a load needs the result plus one piece.
    Errors come in this order: header, shape, value count, then a value
    that is not a number.
    """
    path = Path(path)
    # Unbuffered: the text decoder then reads the same chunks a text-mode
    # open would, so a decoding error names the same byte position.
    with open(path, "rb", buffering=0) as fh:
        if fh.read(len(MAGIC)) == MAGIC:
            return _binary_body(path, fh.read())
        fh.seek(0)
        text = io.TextIOWrapper(fh, encoding="utf-8")
        header = text.readline()
        if not header.startswith("shape:"):
            raise ValueError(f"{path}: missing 'shape:' header line")
        try:
            shape = tuple(int(tok) for tok in header[len("shape:") :].split())
        except ValueError as exc:
            raise ValueError(f"{path}: malformed shape header: {header.strip()!r}") from exc
        _check_shape(path, shape)
        expected = math.prod(shape)
        # n values take at least 2n - 1 bytes; a shorter file can only fail the
        # count, so it is counted without allocating what its header claims.
        out = np.empty(expected) if 2 * expected - 1 <= os.fstat(fh.fileno()).st_size else None
        found, bad = 0, None
        for tokens in _text_pieces(text):
            end = found + len(tokens)
            if out is not None and bad is None:  # too many tokens also fail, on the count
                try:
                    out[found:end] = tokens
                except ValueError as exc:
                    bad = exc
            found = end
    if found != expected:
        raise ValueError(f"{path}: expected {expected} values for shape {shape}, found {found}")
    if bad is not None:
        raise ValueError(f"{path}: non-numeric tensor data") from bad
    return out.reshape(shape)


def _text_pieces(text):
    """The whitespace-separated tokens of `text`, one list per line.

    A line longer than `_PIECE` characters comes in several lists; a token
    the cap cuts is carried over whole into the next one.
    """
    carry = ""
    while piece := text.readline(_PIECE):
        tokens = (carry + piece).split()
        carry = tokens.pop() if tokens and not piece[-1].isspace() else ""
        yield tokens
    if carry:
        yield [carry]


def _binary_body(path: Path, body: bytes) -> np.ndarray:
    """Parse what follows the magic: rank, dims, then float32 data."""
    if len(body) < 4:
        raise ValueError(f"{path}: truncated header")
    (ndim,) = struct.unpack_from("<I", body)
    offset = 4
    if len(body) < offset + 4 * ndim:
        raise ValueError(f"{path}: truncated dims header")
    shape = struct.unpack_from(f"<{ndim}I", body, offset)
    _check_shape(path, shape)
    offset += 4 * ndim
    count = math.prod(shape)
    if len(body) != offset + 4 * count:
        raise ValueError(
            f"{path}: expected {count} float32 values for shape {shape}, "
            f"found {(len(body) - offset) // 4}"
        )
    data = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
    return data.astype(np.float64).reshape(shape)


def parse_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored.

    Keys are lower-cased with dashes normalized to underscores; a key set
    twice after that normalization is a ValueError naming both lines.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ValueError(
                    f"{path}:{lineno}: duplicate key '{key}' (first on line {first_line[key]})"
                )
            out[key] = value
            first_line[key] = lineno
    return out
