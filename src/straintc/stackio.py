"""File formats: binary strain stacks, CSV tables (masks, TC maps, PRE
summaries, grid results, demo curves), plain-text tables, 8-bit PGM images
with value-range sidecars, and the `key = value` files of run manifests and
phantom configs.  The program writes every file through this module.

Stack files are self-describing little-endian binary:

    bytes 0..11   magic "STRAINSTACK\\0"
    bytes 12..15  uint32 format version (currently 1)
    uint32 x 3    N, H, W, each at least 1
    float64       sample_time_s
    uint8         kind flag (0 = incremental, 1 = cumulative)
    float64 x N*H*W   frames, frame-major then row-major

Everything here is trivially parseable from any language without scientific
file-format dependencies.  The readers raise InputError, a ValueError, for
any file they cannot parse.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .degrade import FrameQualityMask
from .phantom import InputError, PhantomSpec, StrainStack, spec_from_entries


MAGIC = b"STRAINSTACK\0"
VERSION = 1
_HEADER = struct.Struct("<IIIIdB")
_KIND_FLAGS = {"incremental": 0, "cumulative": 1}
_FLAG_KINDS = {v: k for k, v in _KIND_FLAGS.items()}


def write_stack(path, stack: StrainStack) -> None:
    n, h, w = stack.frames.shape
    header = MAGIC + _HEADER.pack(VERSION, n, h, w, stack.sample_time_s,
                                  _KIND_FLAGS[stack.kind])
    payload = np.ascontiguousarray(stack.frames, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.view(np.uint8))


def read_stack(path) -> StrainStack:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise InputError(f"{path}: not a strain stack file (bad magic)")
        fixed = fh.read(_HEADER.size)
        if len(fixed) != _HEADER.size:
            raise InputError(f"{path}: truncated stack header")
        version, n, h, w, sample_time_s, kind_flag = _HEADER.unpack(fixed)
        if version != VERSION:
            raise InputError(f"{path}: unsupported stack format version {version}")
        if kind_flag not in _FLAG_KINDS:
            raise InputError(f"{path}: unknown stack kind flag {kind_flag}")
        # StrainStack refuses empty stacks too, but only after the frames
        # are allocated, and numpy refuses to allocate 0 x 2^32 x 2^32
        if 0 in (n, h, w):
            raise InputError(f"{path}: empty stack ({n} frames of {h} x {w})")
        # compare sizes before reading: a corrupt header can claim more
        # frames than memory holds
        if os.fstat(fh.fileno()).st_size - fh.tell() < n * h * w * 8:
            raise InputError(f"{path}: truncated stack payload")
        frames = np.empty((n, h, w), "<f8")
        if fh.readinto(frames.view(np.uint8)) != frames.nbytes:
            raise InputError(f"{path}: truncated stack payload")
    try:
        return StrainStack(frames, sample_time_s, _FLAG_KINDS[kind_flag])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_lines(path):
    """Lines of a small UTF-8 text input file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def write_text(path, text: str) -> None:
    """text as a UTF-8 file, its newlines written as they are."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Rows of cells as CSV under an optional header of column names.  A
    float cell (numpy's too) is written as its repr, which reads back
    exactly and spells NaN 'nan'; any other cell as str()."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    write_text(path, "".join(line + "\n" for line in lines))


def write_mask(path, mask: FrameQualityMask) -> None:
    """Frame quality table as CSV: frame index and good/bad label."""
    write_csv(path, ("frame", "label"), enumerate(np.where(mask.good, "good", "bad")))


def read_mask(path) -> FrameQualityMask:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "frame,label":
        raise InputError(f"{path}: not a mask file (expected the header 'frame,label')")
    good = []
    for expected, line in enumerate(lines[1:]):
        try:
            idx, label = line.strip().split(",")
            idx = int(idx)
        except ValueError:
            raise InputError(f"{path}: malformed mask line {line!r}") from None
        if idx != expected:
            raise InputError(f"{path}: frame indices must be 0..N-1 in order")
        if label not in ("good", "bad"):
            raise InputError(f"{path}: bad label {label!r}")
        good.append(label == "good")
    if not good:
        raise InputError(f"{path}: mask file lists no frames")
    return FrameQualityMask(np.array(good, dtype=bool))


def write_tc_csv(path, values: np.ndarray) -> None:
    """H x W map as CSV, row-major, one value per cell; NaN spelled 'nan'."""
    write_csv(path, None, np.asarray(values, dtype=np.float64))


def read_tc_csv(path) -> np.ndarray:
    lines = [line for line in _read_lines(path) if line.strip()]
    try:
        return np.array([[float(v) for v in line.split(",")] for line in lines],
                        dtype=np.float64)
    except ValueError:
        raise InputError(f"{path}: not a numeric CSV map with equal-length rows") from None


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit grayscale PGM (P5) of a value map plus a text sidecar
    <path>.bounds.txt recording the linear mapping bounds.

    Values are scaled linearly from [vmin, vmax] (finite range of the map) to
    0..255; non-finite pixels render as 0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("PGM output expects a 2-D map")
    finite = np.isfinite(values)
    if finite.any():
        vmin = float(values[finite].min())
        vmax = float(values[finite].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    scaled = np.zeros(values.shape, dtype=np.uint8)
    if span > 0:
        scaled[finite] = np.round((values[finite] - vmin) / span * 255.0).astype(np.uint8)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
    write_manifest(str(path) + ".bounds.txt", {"vmin": vmin, "vmax": vmax})


def check_manifest(entries: dict) -> None:
    """Refuse, with InputError naming the key, an entry that read_manifest
    would not return as str(key) and str(value): one holding a '#', a
    character that is not printable (such as a line break, or a lone
    surrogate that UTF-8 cannot encode), a space around key or value, or a
    '=' in its key."""
    for key, value in entries.items():
        key, value = str(key), str(value)
        if ("#" in key + value or "=" in key or not (key + value).isprintable()
                or key != key.strip() or value != value.strip()):
            raise InputError(f"cannot record {key} = {value!r}: a 'key = value' file "
                             "keeps no '#', unprintable character, space around a key "
                             "or value, or '=' in a key")


def write_manifest(path, entries: dict) -> None:
    """Entries as 'key = value' lines: a run manifest, a phantom config or
    a PGM's bounds sidecar.  An entry that would read back changed is
    refused (see check_manifest) before the file is opened."""
    check_manifest(entries)
    write_text(path, "".join(f"{key} = {value}\n" for key, value in entries.items()))


def read_manifest(path) -> dict:
    """Entries of a 'key = value' file, # starting a comment; a line without
    '=' or a key given twice is an InputError naming the line."""
    entries = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}: malformed line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise InputError(f"{path}: line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def read_config(path) -> PhantomSpec:
    """The phantom a config file describes (see phantom.spec_from_entries)."""
    entries = read_manifest(path)
    try:
        return spec_from_entries(entries)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
