"""File formats: binary strain stacks, mask tables, TC map CSV, 8-bit PGM
images with value-range sidecars, and plain-text run manifests.

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
from .phantom import StrainStack


MAGIC = b"STRAINSTACK\0"
VERSION = 1
_HEADER = struct.Struct("<IIIIdB")
_KIND_FLAGS = {"incremental": 0, "cumulative": 1}
_FLAG_KINDS = {v: k for k, v in _KIND_FLAGS.items()}


class InputError(ValueError):
    """A malformed input file: wrong format, truncated or unparseable."""


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


def write_mask(path, mask: FrameQualityMask) -> None:
    """Frame quality table as CSV: frame index, good/bad label, applied SNR."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,label,snr_db\n")
        for i in range(mask.n_frames):
            label = "good" if mask.good[i] else "bad"
            fh.write(f"{i},{label},{float(mask.applied_snr_db[i])!r}\n")


def read_mask(path) -> FrameQualityMask:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "frame,label,snr_db":
        raise InputError(f"{path}: not a mask file")
    good, snrs = [], []
    for expected, line in enumerate(lines[1:]):
        try:
            idx, label, snr = line.strip().split(",")
            idx, snr = int(idx), float(snr)
        except ValueError:
            raise InputError(f"{path}: malformed mask line {line!r}") from None
        if idx != expected:
            raise InputError(f"{path}: frame indices must be 0..N-1 in order")
        if label not in ("good", "bad"):
            raise InputError(f"{path}: bad label {label!r}")
        good.append(label == "good")
        snrs.append(snr)
    if not good:
        raise InputError(f"{path}: mask file lists no frames")
    return FrameQualityMask(np.array(good, dtype=bool), np.array(snrs))


def write_tc_csv(path, values: np.ndarray) -> None:
    """H x W map as CSV, row-major, one value per cell; NaN spelled 'nan'."""
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


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
    with open(str(path) + ".bounds.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"vmin = {vmin!r}\nvmax = {vmax!r}\n")


def write_manifest(path, entries: dict) -> None:
    """Resolved run configuration as 'key = value' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def read_manifest(path) -> dict:
    entries = {}
    for raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}: malformed manifest line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries
