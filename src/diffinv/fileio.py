"""Portable tensor files and key=value config parsing.

Text tensors: first line `shape: d1 d2 ...`, then whitespace-separated
decimal reals in row-major order.  Binary tensors: an 8-byte magic,
little-endian uint32 rank and dims, then float32 data; lossy but fast.
The reader opens a file once and picks the layout by its magic; the
writer picks the binary layout for `.bin` paths.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TENSRAW1"


def save_tensor(path, array) -> None:
    path = Path(path)
    if path.suffix == ".bin":
        arr = np.asarray(array, dtype=np.float32)
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes(order="C"))
        return
    arr = np.asarray(array, dtype=np.float64)
    flat = arr.reshape(-1)
    row = arr.shape[-1] if arr.ndim > 0 else 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("shape: " + " ".join(str(d) for d in arr.shape) + "\n")
        for start in range(0, flat.size, row):
            chunk = flat[start : start + row]
            fh.write(" ".join(f"{x:.17g}" for x in chunk) + "\n")


def load_tensor(path) -> np.ndarray:
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
        if any(d < 1 for d in shape):
            raise ValueError(f"{path}: shape entries must be positive: {shape}")
        tokens = text.read().split()
    expected = math.prod(shape)
    if len(tokens) != expected:
        raise ValueError(
            f"{path}: expected {expected} values for shape {shape}, found {len(tokens)}"
        )
    try:
        data = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric tensor data") from exc
    return data.reshape(shape)


def _binary_body(path: Path, body: bytes) -> np.ndarray:
    """Parse what follows the magic: rank, dims, then float32 data."""
    if len(body) < 4:
        raise ValueError(f"{path}: truncated header")
    (ndim,) = struct.unpack_from("<I", body)
    offset = 4
    if len(body) < offset + 4 * ndim:
        raise ValueError(f"{path}: truncated dims header")
    shape = struct.unpack_from(f"<{ndim}I", body, offset)
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

    Keys are lower-cased with dashes normalized to underscores.
    """
    out: dict[str, str] = {}
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
            out[key] = value
    return out
