import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from straintc import stackio
from straintc.degrade import FrameQualityMask
from straintc.phantom import (StrainStack, preset, spec_from_config_text, spec_to_config_text,
                              synth_incremental)


def test_stack_round_trip(tmp_path):
    stack = synth_incremental(preset("A", width_px=7, height_px=5, n_frames=11))
    path = tmp_path / "s.stack"
    stackio.write_stack(path, stack)
    back = stackio.read_stack(path)
    assert np.array_equal(back.frames, stack.frames)
    assert back.sample_time_s == stack.sample_time_s
    assert back.kind == "incremental"


def test_stack_file_layout(tmp_path):
    stack = synth_incremental(preset("B", width_px=6, height_px=5, n_frames=9))
    path = tmp_path / "s.stack"
    stackio.write_stack(path, stack)
    header = struct.pack("<IIIIdB", stackio.VERSION, 9, 5, 6, stack.sample_time_s, 0)
    assert path.read_bytes() == stackio.MAGIC + header + stack.frames.tobytes()


def test_stack_round_trip_non_contiguous(tmp_path):
    frames = np.arange(4 * 6 * 10, dtype=float).reshape(4, 6, 10)[::-1, ::2, 1::3]
    assert not frames.flags.c_contiguous
    path = tmp_path / "v.stack"
    stackio.write_stack(path, StrainStack(frames, 0.5, "cumulative"))
    back = stackio.read_stack(path)
    assert np.array_equal(back.frames, frames) and back.frames.flags.c_contiguous


def test_stack_that_shrinks_while_read_is_input_error(tmp_path, monkeypatch):
    path = tmp_path / "s.stack"
    stackio.write_stack(path, StrainStack(np.ones((3, 2, 2)), 0.5, "incremental"))
    path.write_bytes(path.read_bytes()[:-8])
    # the size check passes, then the payload read comes up short
    monkeypatch.setattr(stackio.os, "fstat", lambda fd: SimpleNamespace(st_size=10 ** 6))
    with pytest.raises(stackio.InputError, match="truncated stack payload"):
        stackio.read_stack(path)


def test_stack_kind_flag(tmp_path):
    stack = StrainStack(np.ones((3, 2, 2)), 0.25, "cumulative")
    path = tmp_path / "c.stack"
    stackio.write_stack(path, stack)
    assert stackio.read_stack(path).kind == "cumulative"
    raw = path.read_bytes()
    assert raw[:12] == b"STRAINSTACK\0"
    # header: magic(12) + version(4) + N,H,W(12) + Ts(8) + kind(1)
    assert len(raw) == 12 + 4 + 12 + 8 + 1 + 3 * 2 * 2 * 8


def test_stack_bad_magic(tmp_path):
    path = tmp_path / "x.stack"
    path.write_bytes(b"NOT A STACK FILE" * 4)
    with pytest.raises(ValueError, match="bad magic"):
        stackio.read_stack(path)


def test_stack_bad_version(tmp_path):
    stack = StrainStack(np.ones((2, 2, 2)), 0.5, "incremental")
    path = tmp_path / "v.stack"
    stackio.write_stack(path, stack)
    raw = bytearray(path.read_bytes())
    raw[12] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        stackio.read_stack(path)


def test_stack_truncated(tmp_path):
    stack = StrainStack(np.ones((4, 4, 4)), 0.5, "incremental")
    path = tmp_path / "t.stack"
    stackio.write_stack(path, stack)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="truncated"):
        stackio.read_stack(path)


@pytest.mark.parametrize("raw, message", [
    (b"STRAINSTACK\0\1\0", "truncated stack header"),
    (b"STRAINSTACK\0" + struct.pack("<IIIIdB", 1, 1, 1, 1, 0.5, 7), "kind flag"),
    (b"STRAINSTACK\0" + struct.pack("<IIIIdB", 1, 1, 1, 1, -0.5, 0) + bytes(8),
     "sample_time_s"),
    # dimensions far beyond the file (and memory) must not be read
    (b"STRAINSTACK\0" + struct.pack("<IIIIdB", 1, 4_000_000_000, 100_000, 100_000, 0.5, 0),
     "truncated stack payload"),
    (b"STRAINSTACK\0" + struct.pack("<IIIIdB", 1, 2, 2, 2, 0.5, 0), "truncated stack payload"),
    # stacks without frames or with empty frames
    *((b"STRAINSTACK\0" + struct.pack("<IIIIdB", 1, *shape, 0.5, 0), "empty stack")
      for shape in ((0, 4, 4), (20, 0, 4), (20, 4, 0), (0, 0, 0))),
])
def test_stack_malformed_header_is_input_error(tmp_path, raw, message):
    path = tmp_path / "h.stack"
    path.write_bytes(raw)
    with pytest.raises(stackio.InputError, match=message):
        stackio.read_stack(path)


def test_mask_round_trip(tmp_path):
    good = np.array([True, False, True, True, False])
    mask = FrameQualityMask(good, np.where(good, 37.5, 0.0))
    path = tmp_path / "m.csv"
    stackio.write_mask(path, mask)
    back = stackio.read_mask(path)
    assert np.array_equal(back.good, mask.good)
    assert np.array_equal(back.applied_snr_db, mask.applied_snr_db)


def test_mask_round_trip_nan_snr(tmp_path):
    mask = FrameQualityMask(np.ones(4, bool), np.full(4, np.nan))
    path = tmp_path / "m.csv"
    stackio.write_mask(path, mask)
    assert np.isnan(stackio.read_mask(path).applied_snr_db).all()


def test_mask_rejects_garbage(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("something,else\n")
    with pytest.raises(ValueError, match="not a mask file"):
        stackio.read_mask(path)


@pytest.mark.parametrize("text", [
    "frame,label,snr_db\n0,good\n",
    "frame,label,snr_db\nzero,good,30.0\n",
    "frame,label,snr_db\n1,good,30.0\n",
    "frame,label,snr_db\n0,maybe,30.0\n",
    "frame,label,snr_db\n",
])
def test_mask_malformed_is_input_error(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(stackio.InputError):
        stackio.read_mask(path)


def test_text_readers_reject_binary_files(tmp_path):
    path = tmp_path / "b.csv"
    path.write_bytes(b"\xff\xfe\x00binary")
    for reader in (stackio.read_mask, stackio.read_manifest, stackio.read_tc_csv):
        with pytest.raises(stackio.InputError, match="UTF-8"):
            reader(path)


def test_tc_csv_ragged_is_input_error(tmp_path):
    path = tmp_path / "tc.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(stackio.InputError):
        stackio.read_tc_csv(path)


def test_tc_csv_round_trip(tmp_path):
    values = np.array([[1.5, np.nan], [0.3333333333333333, 1e-17]])
    path = tmp_path / "tc.csv"
    stackio.write_tc_csv(path, values)
    back = stackio.read_tc_csv(path)
    assert back.shape == (2, 2)
    assert back[0, 0] == 1.5
    assert np.isnan(back[0, 1])
    assert back[1, 0] == values[1, 0]  # repr round-trips doubles exactly
    assert back[1, 1] == 1e-17


def test_pgm_format_and_sidecar(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "map.pgm"
    stackio.write_pgm(path, values)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = raw[len(b"P5\n2 2\n255\n"):]
    assert list(pixels) == [0, 64, 128, 255]
    sidecar = (tmp_path / "map.pgm.bounds.txt").read_text()
    assert "vmin = 0.0" in sidecar
    assert "vmax = 4.0" in sidecar


def test_pgm_handles_nan_and_flat(tmp_path):
    path = tmp_path / "flat.pgm"
    stackio.write_pgm(path, np.array([[np.nan, 3.0], [3.0, 3.0]]))
    pixels = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
    assert list(pixels) == [0, 0, 0, 0]  # flat map: zero span renders black


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    entries = {"subcommand": "grid", "seed": 7, "fractions": "0.2,0.5"}
    stackio.write_manifest(path, entries)
    back = stackio.read_manifest(path)
    assert back == {"subcommand": "grid", "seed": "7", "fractions": "0.2,0.5"}
    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="malformed"):
        stackio.read_manifest(bad)


# ---------------------------------------------------------------------------
# property: for any file content, a reader returns a value or raises InputError

# a fixed alphabet: number and CSV syntax, line breaks, NUL and non-ASCII
_TEXT = st.text("0123456789 ,.+-_eE#=nainfgodbl\t\r\n\x00\x85\xe9\u2028\U0001f600",
                max_size=80)
_FIELDS = st.one_of(
    st.integers(-2, 6).map(str), st.floats().map(repr), _TEXT.map(lambda t: t[:6]),
    st.sampled_from(["good", "bad", "nan", "-inf", "1e999", "0", "-0.0", "1e-308", "A"]))
_LINES = st.lists(st.lists(_FIELDS, max_size=4).map(",".join), max_size=6).map("\n".join)


def _file_bytes(header=""):
    """Arbitrary bytes, or UTF-8 text (raw or CSV-like lines) with or without header."""
    text = st.tuples(st.sampled_from(["", header]), st.one_of(_TEXT, _LINES)).map("".join)
    return st.one_of(st.binary(max_size=120), text.map(str.encode))


_SIZES = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
_STACK_BYTES = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(stackio.MAGIC.__add__),
    st.builds(lambda version, n, h, w, ts, kind, payload:
              stackio.MAGIC + struct.pack("<IIIIdB", version, n, h, w, ts, kind) + payload,
              st.one_of(st.just(stackio.VERSION), st.integers(0, 2 ** 32 - 1)),
              _SIZES, _SIZES, _SIZES, st.floats(),
              st.one_of(st.integers(0, 1), st.integers(0, 255)), st.binary(max_size=120)))


@pytest.mark.parametrize("reader, contents", [
    (stackio.read_stack, _STACK_BYTES),
    (stackio.read_mask, _file_bytes("frame,label,snr_db\n")),
    (stackio.read_manifest, _file_bytes()),
    (stackio.read_tc_csv, _file_bytes()),
], ids=["stack", "mask", "manifest", "tc_csv"])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_returns_or_raises_input_error(tmp_path, reader, contents, data):
    path = tmp_path / "input"
    path.write_bytes(data.draw(contents))
    try:
        reader(path)
    except stackio.InputError:
        pass


_BASE_CONFIG = dict(line.split(" = ", 1) for line in spec_to_config_text(
    preset("A", width_px=8, height_px=8, n_frames=20)).splitlines())
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "1e308", "1e-308", "0.02, 0.02",
                     "0.02, nan", "1, 2, 3"]),
    _FIELDS, st.integers(-3, 10 ** 6).map(str))


@st.composite
def _config_texts(draw):
    """Raw text, or the 8x8 preset A config (eta and gamma given or derived
    from the stress) with keys changed, added or dropped."""
    if draw(st.booleans()):
        return draw(_TEXT)
    entries = {k: v for k, v in _BASE_CONFIG.items()
               if not k.endswith((".eta", ".gamma")) or draw(st.booleans())}
    keys = st.sampled_from([*entries, "preset", "unknown"])
    entries.update(draw(st.dictionaries(keys, _CONFIG_VALUES, max_size=3)))
    for key in draw(st.lists(keys, max_size=1)):
        entries.pop(key, None)
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


@settings(max_examples=300, deadline=None)
@given(text=_config_texts())
def test_config_parser_returns_spec_or_raises_input_error(text):
    try:
        spec_from_config_text(text)
    except stackio.InputError:
        pass
