"""Portable tensor files, CSV tables and key=value config parsing.

The one module that opens files.  Text tensors: first line `shape: d1 d2
...`, then whitespace-separated decimal reals in row-major order.  Binary
tensors (`.bin`, `.npy`): NumPy's `.npy` layout, written as float64.  The
reader opens a file once and picks the layout by its first bytes.  A CSV
table is a header line, then one comma-separated line per row.
"""

from __future__ import annotations

import io
import math
import os
import tokenize
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import check_real_array

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
    than converted; NaN and ±inf are written as they are.  Both layouts keep
    every float64 bit: `.bin` and `.npy` paths get NumPy's `.npy` layout,
    others a `shape:` line, then one `%.17g` line per last-axis row.
    """
    path = Path(path)
    arr = np.asarray(check_real_array(array, f"{path}: tensor"), dtype=np.float64, order="C")
    _check_shape(path, arr.shape)
    if path.suffix in (".bin", ".npy"):
        with open(path, "wb") as fh:
            npy.write_array(fh, arr, allow_pickle=False)
        return
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
    """The tensor stored at `path`, as float64, in whichever layout its first bytes name.

    A text body is parsed while it is read, a bounded piece at a time,
    straight into the result, so a load needs the result plus one piece.
    Errors come in this order: header, shape, the `.npy` dtype, value count
    (before any allocation), then a text value that is not a number.
    """
    path = Path(path)
    # Unbuffered: the text decoder then reads the same chunks a text-mode
    # open would, so a decoding error names the same byte position.
    with open(path, "rb", buffering=0) as fh:
        is_npy = fh.read(len(npy.MAGIC_PREFIX)) == npy.MAGIC_PREFIX
        fh.seek(0)
        if is_npy:
            return _npy_body(path, fh)
        text = io.TextIOWrapper(fh, encoding="utf-8")
        try:
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
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
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


def _npy_body(path: Path, fh) -> np.ndarray:
    """The `.npy` file open at its start in `fh`, of any integer or float dtype and order."""
    try:
        version = npy.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"version {version[0]}.{version[1]} is not read")
        read = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
        shape, fortran_order, dtype = read(fh)
    except (ValueError, tokenize.TokenError) as exc:  # an unclosed header fails to tokenize
        raise ValueError(f"{path}: bad .npy header: {exc}") from exc
    shape, dtype = shape + dtype.shape, dtype.base  # as np.load reads a subarray dtype
    _check_shape(path, shape)
    check_real_array(np.empty(0, dtype), f"{path}: tensor")
    count = math.prod(shape)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != count * dtype.itemsize:
        raise ValueError(
            f"{path}: expected {count} values for shape {shape}, found {left / dtype.itemsize:.15g}"
        )
    data = np.fromfile(fh, dtype, count).reshape(shape, order="F" if fortran_order else "C")
    return data.astype(np.float64, order="C", copy=False)


def parse_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored.

    Keys are lower-cased with dashes normalized to underscores; a key set
    twice after that normalization is a ValueError naming both lines.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
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
