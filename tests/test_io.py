import contextlib
import io
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anatvox.cli import run
from anatvox.grid import Spacing, VoxelGrid
from anatvox.volio import (
    CorruptFileError,
    UnsupportedDatatypeError,
    VolumeFormatError,
    VolumeMeta,
    VolumeReader,
    read_volume,
    volume_files,
    write_slabs,
    write_volume,
)

from conftest import ANISO, JSON_VALUES, peak_bytes


@pytest.mark.parametrize(
    "dtype,datatype",
    [(np.float32, "float32"), (np.int16, "int16"), (np.int32, "int32"), (np.uint8, "uint8")],
)
@pytest.mark.parametrize("ext", [".nii", ".raw"])
def test_round_trip_bit_exact(tmp_path, rng, dtype, datatype, ext):
    if np.issubdtype(dtype, np.floating):
        data = rng.standard_normal((4, 5, 6)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, (4, 5, 6)).astype(dtype)
    g = VoxelGrid(data, ANISO)
    path = tmp_path / f"vol{ext}"
    write_volume(g, VolumeMeta.for_grid(g, datatype), path)
    g2, meta = read_volume(path)
    assert np.array_equal(g.data, g2.data)
    assert g2.data.dtype == dtype
    assert meta.datatype == datatype
    assert g2.data.shape == (4, 5, 6)
    assert g2.spacing.zyx == pytest.approx(ANISO.zyx, rel=1e-6)


def test_bool_canonicalizes_to_uint8(tmp_path, rng):
    g = VoxelGrid(rng.random((3, 4, 5)) < 0.5, ANISO)
    path = tmp_path / "mask.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    g2, meta = read_volume(path)
    assert meta.datatype == "uint8"
    assert sorted(np.unique(g2.data).tolist()) == [0, 1] or np.unique(g2.data).size == 1
    assert np.array_equal(g.data.astype(np.uint8), g2.data)


def test_header_layout_dims_reversed(tmp_path, rng):
    # dim[1..3] hold (nx, ny, nz) and pixdim[1..3] hold (sx, sy, sz)
    g = VoxelGrid(rng.standard_normal((4, 5, 6)).astype(np.float32), Spacing(5.0, 0.78, 0.78))
    path = tmp_path / "hdr.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    hdr = path.read_bytes()[:348]
    assert struct.unpack_from("<i", hdr, 0)[0] == 348
    assert struct.unpack_from("<8h", hdr, 40)[:4] == (3, 6, 5, 4)
    pixdim = struct.unpack_from("<8f", hdr, 76)
    assert pixdim[1:4] == pytest.approx((0.78, 0.78, 5.0), rel=1e-6)
    assert struct.unpack_from("<f", hdr, 108)[0] == 352.0
    assert hdr[344:348] == b"n+1\x00"
    g2, _ = read_volume(path)
    assert np.array_equal(g.data, g2.data)


def test_wrong_sizeof_hdr_rejected(tmp_path):
    path = tmp_path / "bad.nii"
    blob = bytearray(352 + 8)
    struct.pack_into("<i", blob, 0, 347)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError):
        read_volume(path)


def test_byte_swapped_header_rejected(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((2, 2, 2)).astype(np.float32), ANISO)
    path = tmp_path / "swap.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(">i", blob, 0, 348)  # big-endian sizeof_hdr
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="byte-swapped"):
        read_volume(path)


def test_wrong_magic_rejected(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((2, 2, 2)).astype(np.float32), ANISO)
    path = tmp_path / "magic.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    blob[344:348] = b"ni1\x00"  # two-file variant is not supported
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError):
        read_volume(path)


def test_unsupported_datatype_code(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((2, 2, 2)).astype(np.float32), ANISO)
    path = tmp_path / "dt.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<h", blob, 70, 64)  # float64 code
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedDatatypeError):
        read_volume(path)


def test_truncated_payload(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    path = tmp_path / "trunc.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = path.read_bytes()[:-10]
    path.write_bytes(blob)
    with pytest.raises(CorruptFileError):
        read_volume(path)


def test_scl_slope_applied_and_zero_slope_unscaled(tmp_path, rng):
    g = VoxelGrid(rng.integers(0, 100, (3, 3, 3)).astype(np.int16), ANISO)
    path = tmp_path / "scl.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 2.0, -1.0)
    path.write_bytes(bytes(blob))
    g2, meta = read_volume(path)
    assert g2.data.dtype == np.float32
    assert np.allclose(g2.data, g.data.astype(np.float32) * 2.0 - 1.0)
    _written_back_unscaled(g2, meta, tmp_path / "scl_back.nii")

    labels = VoxelGrid(rng.integers(0, 5, (3, 3, 3)).astype(np.uint8), ANISO)
    path2 = tmp_path / "labels.nii"
    write_volume(labels, VolumeMeta.for_grid(labels), path2)
    g3, meta3 = read_volume(path2)
    assert np.array_equal(g3.data, labels.data)
    _written_back_unscaled(g3, meta3, tmp_path / "labels_back.nii")


def _written_back_unscaled(grid, meta, path):
    """A read grid written back with its meta stores slope 0, intercept 0 and reads back unchanged."""
    write_volume(grid, meta, path)
    assert struct.unpack_from("<2f", path.read_bytes(), 112) == (0.0, 0.0)
    assert np.array_equal(read_volume(path)[0].data, grid.data)


def test_lossy_write_rejected(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    with pytest.raises(ValueError):
        write_volume(g, VolumeMeta("uint8"), tmp_path / "x.nii")
    big = VoxelGrid(np.full((2, 2, 2), 70000, dtype=np.int32), ANISO)
    with pytest.raises(ValueError):
        write_volume(big, VolumeMeta("int16"), tmp_path / "y.nii")


@pytest.mark.parametrize("ext", [".nii", ".raw"])
def test_empty_grid_is_refused_before_writing(tmp_path, ext):
    g = VoxelGrid(np.zeros((2, 0, 4), dtype=np.float32), ANISO)
    with pytest.raises(ValueError, match="empty grid"):
        write_volume(g, VolumeMeta.for_grid(g), tmp_path / f"v{ext}")
    assert not list(tmp_path.iterdir())


def test_nan_float_write_round_trips_but_not_into_integers(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 1, 1] = np.nan
    g = VoxelGrid(data, ANISO)
    write_volume(g, VolumeMeta("float32"), tmp_path / "f.nii")
    g2, _ = read_volume(tmp_path / "f.nii")
    assert np.array_equal(g2.data, data, equal_nan=True)
    with pytest.raises(ValueError, match="losslessly"), np.errstate(invalid="ignore"):
        write_volume(g, VolumeMeta("uint8"), tmp_path / "u.nii")


def test_binary_float_values_may_narrow(tmp_path):
    # float grid holding only {0, 1} is losslessly representable as uint8
    g = VoxelGrid(np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=np.float32), ANISO)
    path = tmp_path / "z.nii"
    write_volume(g, VolumeMeta("uint8"), path)
    g2, meta = read_volume(path)
    assert meta.datatype == "uint8"
    assert np.array_equal(g2.data, g.data.astype(np.uint8))


def test_sform_bytes_preserved_read_write(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    path = tmp_path / "q.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    stamp = bytes(range(48))
    blob[280:328] = stamp  # srow_x/y/z region
    path.write_bytes(bytes(blob))
    g2, meta = read_volume(path)
    out = tmp_path / "q2.nii"
    write_volume(g2, meta, out)
    assert out.read_bytes()[280:328] == stamp
    g3, _ = read_volume(out)
    assert np.array_equal(g2.data, g3.data)


def test_rawjson_sidecar_schema(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((4, 5, 6)).astype(np.float32), Spacing(5.0, 0.78, 0.78))
    write_volume(g, VolumeMeta.for_grid(g), tmp_path / "v.raw")
    sidecar = json.loads((tmp_path / "v.json").read_text())
    assert sidecar == {
        "dims": [4, 5, 6],
        "spacing": [5.0, 0.78, 0.78],
        "datatype": "float32",
    }
    g2, _ = read_volume(tmp_path / "v.json")
    assert np.array_equal(g.data, g2.data)


def test_rawjson_size_mismatch(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    write_volume(g, VolumeMeta.for_grid(g), tmp_path / "v.raw")
    payload = (tmp_path / "v.raw").read_bytes()
    (tmp_path / "v.raw").write_bytes(payload[:-4])
    with pytest.raises(CorruptFileError):
        read_volume(tmp_path / "v.raw")


def test_missing_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "none.nii")
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "none.raw")
    with pytest.raises(ValueError):
        read_volume(tmp_path / "none.weird")


def _cli_rejects(path) -> None:
    """A stage reading the volume exits 1 with one error line that names the file."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(["wall", "--ooi", str(path), "--out", str(path.with_name("wall_out.nii"))])
    text = err.getvalue()
    assert rc == 1
    assert text.startswith("error: ") and text.count("\n") == 1 and path.stem in text


def _int16_nifti(tmp_path, name="probe.nii"):
    g = VoxelGrid(np.arange(24, dtype=np.int16).reshape(2, 3, 4), ANISO)
    path = tmp_path / name
    write_volume(g, VolumeMeta.for_grid(g), path)
    return path


@pytest.mark.parametrize("offset,value", [
    (108, math.inf), (108, -math.inf), (108, math.nan),  # vox_offset
    (112, math.nan), (112, math.inf),  # scl_slope
    (116, math.nan), (116, -math.inf),  # scl_inter
    (112, 3e38),  # finite, but slope * 23 overflows float32
])
def test_non_finite_or_overflowing_header_floats_rejected(tmp_path, offset, value):
    path = _int16_nifti(tmp_path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="probe.nii"):
        read_volume(path)
    _cli_rejects(path)


@pytest.mark.parametrize("slope,inter", [(2.0, 0.0), (1.0, 3e38)])
def test_scaling_a_float32_payload_in_place_that_overflows_is_rejected(tmp_path, slope, inter):
    g = VoxelGrid(np.full((2, 3, 4), 3e38, dtype=np.float32), ANISO)
    path = tmp_path / "probe.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, slope, inter)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="overflow float32"):
        read_volume(path)
    _cli_rejects(path)


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_scaled_read_holds_the_payload_and_one_float32_array(tmp_path, rng, dtype):
    g = VoxelGrid(rng.integers(-1000, 1000, (32, 64, 64)).astype(dtype), ANISO)
    path = tmp_path / "scaled.nii"
    write_volume(g, VolumeMeta.for_grid(g), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 0.7, -1024.3)
    path.write_bytes(bytes(blob))
    (g2, _), peak = peak_bytes(read_volume, path)
    want = (g.data.astype(np.float32) * np.float32(0.7)) + np.float32(-1024.3)
    assert g2.data.tobytes() == want.tobytes()
    # an int16 payload and its float32 scaling (6 B/voxel); a float32 payload is scaled in place
    n = g.data.size
    assert peak < g.data.nbytes + (0 if dtype == np.float32 else 4 * n) + 0.5 * n


def test_bool_grid_viewing_other_bytes_writes_as_astype_does(tmp_path):
    raw = np.array([0, 1, 2, 255] * 6, dtype=np.uint8).reshape(2, 3, 4)
    g = VoxelGrid(raw.view(np.bool_), ANISO)
    write_volume(g, VolumeMeta.for_grid(g), tmp_path / "b.nii")
    assert np.array_equal(read_volume(tmp_path / "b.nii")[0].data, raw.view(np.bool_).astype(np.uint8))


def test_huge_header_dims_on_a_short_file_allocate_nothing(tmp_path):
    path = _int16_nifti(tmp_path)
    blob = bytearray(path.read_bytes()[:400])
    struct.pack_into("<8h", blob, 40, 3, 32767, 32767, 32767, 1, 1, 1, 1)
    path.write_bytes(bytes(blob))

    def read_refused():
        with pytest.raises(CorruptFileError):
            read_volume(path)

    _, peak = peak_bytes(read_refused)
    assert peak < 2**20
    _cli_rejects(path)


_SIDECAR_OK = {"dims": [2, 3, 4], "spacing": [1.0, 1.0, 1.0], "datatype": "uint8"}


_BAD_SIDECARS = {
    "float-dims": b'{"dims": [2.7, 3, 4], "spacing": [1, 1, 1], "datatype": "uint8"}',
    "bool-dims": b'{"dims": [true, 3, 4], "spacing": [1, 1, 1], "datatype": "uint8"}',
    "string-dims": b'{"dims": "234", "spacing": [1, 1, 1], "datatype": "uint8"}',
    "overflowing-dims": b'{"dims": [1e400, 3, 4], "spacing": [1, 1, 1], "datatype": "uint8"}',
    "two-dims": b'{"dims": [2, 3], "spacing": [1, 1, 1], "datatype": "uint8"}',
    "string-spacing": b'{"dims": [2, 3, 4], "spacing": "111", "datatype": "uint8"}',
    "bool-spacing": b'{"dims": [2, 3, 4], "spacing": [1, 1, false], "datatype": "uint8"}',
    "infinite-spacing": b'{"dims": [2, 3, 4], "spacing": [1e400, 1, 1], "datatype": "uint8"}',
    "huge-int-spacing":
        b'{"dims": [2, 3, 4], "spacing": [1' + b"0" * 400 + b', 1, 1], "datatype": "uint8"}',
    "int-datatype": b'{"dims": [2, 3, 4], "spacing": [1, 1, 1], "datatype": 2}',
    "non-utf8": b'{"dims": [2, 3, 4], "spacing": [1, 1, 1], "datatype": "uint8\xff"}',
    "missing-key": b'{"dims": [2, 3, 4], "spacing": [1, 1, 1]}',
    "list": b"[2, 3, 4]",
    "number": b"3",
    "deep-nesting": b"[" * 100000,
}


@pytest.mark.parametrize("sidecar", _BAD_SIDECARS.values(), ids=_BAD_SIDECARS.keys())
def test_malformed_sidecar_rejected(tmp_path, sidecar):
    (tmp_path / "v.raw").write_bytes(bytes(24))
    (tmp_path / "v.json").write_bytes(sidecar)
    with pytest.raises(VolumeFormatError, match="v.json"):
        read_volume(tmp_path / "v.raw")
    _cli_rejects(tmp_path / "v.raw")


def _packed(fmt, elements):
    count = struct.calcsize(fmt) // struct.calcsize("<" + fmt[-1])
    typed = st.lists(elements, min_size=count, max_size=count).map(lambda v: struct.pack(fmt, *v))
    return typed | st.binary(min_size=struct.calcsize(fmt), max_size=struct.calcsize(fmt))


_F32 = st.floats(width=32)
# every header field the reader honours, at its offset, as typed values or as any bytes
_HEADER_EDITS = st.one_of(
    st.tuples(st.just(0), _packed("<i", st.just(348) | st.integers(-2**31, 2**31 - 1))),
    st.tuples(st.just(40), _packed("<8h", st.integers(0, 8) | st.integers(-2**15, 2**15 - 1))),
    st.tuples(st.just(70), _packed("<h", st.sampled_from([2, 4, 8, 16, 64]))),
    st.tuples(st.just(72), _packed("<h", st.integers(-2**15, 2**15 - 1))),
    st.tuples(st.just(76), _packed("<8f", st.floats(0.5, 2, width=32) | _F32)),
    st.tuples(st.just(108), _packed("<f", st.floats(340, 420, width=32) | _F32)),
    st.tuples(st.just(112), _packed("<f", _F32)),
    st.tuples(st.just(116), _packed("<f", _F32)),
    st.tuples(st.just(344), st.binary(min_size=4, max_size=4) | st.just(b"n+1\x00")),
)


def _expected_voxels(blob, shape):
    """What the header says the voxels are, decoded independently of the reader."""
    code = struct.unpack_from("<h", blob, 70)[0]
    dtype = {2: "<u1", 4: "<i2", 8: "<i4", 16: "<f4"}[code]
    vox_offset, slope, inter = struct.unpack_from("<3f", blob, 108)
    raw = np.frombuffer(blob, dtype, count=math.prod(shape), offset=int(vox_offset))
    if slope != 0 and (slope, inter) != (1, 0):
        raw = raw.astype(np.float32) * np.float32(slope) + np.float32(inter)
    return raw.reshape(shape)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_HEADER_EDITS, max_size=3),
       size=st.none() | st.integers(0, 600))
def test_fuzzed_nifti_reads_exactly_or_fails_cleanly(tmp_path, edits, size):
    path = _int16_nifti(tmp_path)
    blob = bytearray(path.read_bytes())
    for offset, field in edits:
        blob[offset : offset + len(field)] = field
    if size is not None:  # truncated or oversized payload
        blob = blob[:size] + bytes(max(size - len(blob), 0))
    path.write_bytes(bytes(blob))
    try:
        grid, meta = read_volume(path)
    except VolumeFormatError:
        _cli_rejects(path)
        return
    dim = struct.unpack_from("<8h", blob, 40)
    assert (list(dim[1 : 1 + dim[0]]) + [1, 1, 1])[:3] == list(grid.data.shape[::-1])
    assert grid.data.dtype == np.dtype(meta.datatype)
    assert np.array_equal(grid.data, _expected_voxels(bytes(blob), grid.data.shape), equal_nan=True)


_SIDECARS = st.one_of(
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.tuples(st.sampled_from(["dims", "spacing", "datatype", "extra"]), JSON_VALUES)
    .map(lambda kv: json.dumps({**_SIDECAR_OK, kv[0]: kv[1]}).encode()),
    st.lists(st.integers(-2, 2**70) | st.floats() | st.booleans(), max_size=4)
    .map(lambda dims: json.dumps({**_SIDECAR_OK, "dims": dims}).encode()),
    st.binary(max_size=80),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sidecar=_SIDECARS, payload=st.binary(max_size=40) | st.just(bytes(range(24))))
def test_fuzzed_sidecar_reads_exactly_or_fails_cleanly(tmp_path, sidecar, payload):
    (tmp_path / "v.raw").write_bytes(payload)
    (tmp_path / "v.json").write_bytes(sidecar)
    try:
        grid, meta = read_volume(tmp_path / "v.raw")
    except VolumeFormatError:
        _cli_rejects(tmp_path / "v.raw")
        return
    assert list(grid.data.shape) == json.loads(sidecar)["dims"]
    assert grid.data.tobytes() == payload


def test_read_allocates_one_array_and_write_none(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((32, 64, 64)).astype(np.float32), ANISO)
    for name in ("big.nii", "big.raw"):
        _, write_peak = peak_bytes(write_volume, g, VolumeMeta.for_grid(g), tmp_path / name)
        (g2, _), read_peak = peak_bytes(read_volume, tmp_path / name)
        assert np.array_equal(g2.data, g.data)
        assert write_peak < 0.5 * g.data.nbytes
        assert read_peak < 1.5 * g.data.nbytes


_SCALES = [None, (1.0, 0.0), (0.0, 5.0), (2.0, 0.0), (0.5, -3.0), (-0.25, 7.5)]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 7), st.integers(1, 9)),
       datatype=st.sampled_from(["uint8", "int16", "int32", "float32"]),
       ext=st.sampled_from([".nii", ".raw"]), scale=st.sampled_from(_SCALES),
       step=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_reader_runs_are_read_volume_bitwise(tmp_path, shape, datatype, ext, scale, step, seed):
    rng = np.random.default_rng(seed)
    if datatype == "float32":
        data = (1000 * rng.standard_normal(shape)).astype(np.float32)
    else:
        info = np.iinfo(datatype)
        data = rng.integers(info.min, info.max, shape, endpoint=True).astype(datatype)
    path = tmp_path / f"v{ext}"
    write_volume(VoxelGrid(data, ANISO), VolumeMeta(datatype), path)
    if scale is not None and ext == ".nii":  # the raw format has no scaling
        blob = bytearray(path.read_bytes())
        struct.pack_into("<2f", blob, 112, *scale)
        path.write_bytes(bytes(blob))
    grid, meta = read_volume(path)
    with VolumeReader(path) as src:  # runs of ``step`` voxels, the last one shorter unless step divides
        runs = [src.read(lo, min(lo + step, src.size)) for lo in range(0, src.size, step)]
        assert (src.shape, src.spacing, src.meta) == (grid.shape, grid.spacing, meta)
    got, want = np.concatenate(runs), grid.data.reshape(-1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the runs written as slabs give the bytes of the grid written whole
    write_slabs([(tmp_path / f"slabs{ext}", meta)], grid.shape, grid.spacing, [[run] for run in runs])
    write_volume(grid, meta, tmp_path / f"whole{ext}")
    for suffix in ((".nii",) if ext == ".nii" else (".raw", ".json")):
        assert (tmp_path / f"slabs{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes()


@pytest.mark.parametrize("fault", ["truncated", "overflow"])
def test_reader_raises_read_volumes_error_before_returning_a_run(tmp_path, fault):
    """A short payload raises as the reader opens; an overflow raises at the run that holds it."""
    data = np.ones((4, 8, 16), dtype=np.float32)
    data.reshape(-1)[-1] = 3e38  # overflows float32 under slope 2, in the last run only
    path = tmp_path / "probe.nii"
    write_volume(VoxelGrid(data, ANISO), VolumeMeta("float32"), path)
    blob = bytearray(path.read_bytes())
    if fault == "truncated":
        blob = blob[:-10]
    else:
        struct.pack_into("<2f", blob, 112, 2.0, 0.0)
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError) as want:
        read_volume(path)
    runs = []
    with pytest.raises(VolumeFormatError) as got:
        with VolumeReader(path) as src:
            for lo in range(0, src.size, 100):
                runs.append(src.read(lo, min(lo + 100, src.size)))
    assert len(runs) == (0 if fault == "truncated" else data.size // 100)  # every run before the last
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("ext", [".nii", ".raw"])
def test_a_payload_cut_after_opening_raises_at_the_first_run_past_the_cut(tmp_path, ext):
    data = np.arange(4 * 8 * 16, dtype=np.float32).reshape(4, 8, 16)
    path = tmp_path / f"v{ext}"
    write_volume(VoxelGrid(data, ANISO), VolumeMeta("float32"), path)
    payload, n = volume_files(path)[0], data.size
    with VolumeReader(path) as src:
        os.truncate(payload, payload.stat().st_size - 10)  # half of voxel n - 3 and all of the last two are gone
        assert src.read(0, n - 3).tobytes() == data.reshape(-1)[: n - 3].tobytes()
        for lo, hi in ((n - 3, n - 2), (n - 1, n), (0, n)):
            with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: payload shrank while it was read$"):
                src.read(lo, hi)


@pytest.mark.parametrize("ext", [".nii", ".raw"])
@pytest.mark.parametrize("fault", ["short", "long", "lossy"])
@pytest.mark.parametrize("existing", [False, True])
def test_a_refused_write_leaves_no_file_and_keeps_an_older_one(tmp_path, ext, fault, existing):
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    # each stream is refused at its end, after the header and the first slab are written
    stream, match = {"short": ([data[0]], "hold 12 voxels, not 24"),
                     "long": ([data[0], data[1], data[1]], "hold 36 voxels, not 24"),
                     "lossy": ([data[0], data[1] + 0.5], "cannot losslessly")}[fault]
    # one volume, then two: the first one's slabs hold it whole, and the second one's are the refused stream
    for slabs in ([[bad] for bad in stream], list(zip(np.array_split(data.reshape(-1), len(stream)), stream))):
        d = tmp_path / str(len(slabs[0]))
        d.mkdir()
        paths = [d / f"{stem}{ext}" for stem in "vw"[: len(slabs[0])]]
        names = sorted(f.name for path in paths for f in volume_files(path))
        for name in names if existing else []:
            (d / name).write_bytes(b"an older file\n")
        with pytest.raises(ValueError, match=match) as err:
            write_slabs([(path, VolumeMeta("int16")) for path in paths], data.shape, ANISO, slabs)
        assert str(err.value).startswith(f"{paths[-1]}: ")  # the refused volume is named
        assert sorted(p.name for p in d.iterdir()) == (names if existing else [])
        assert all((d / name).read_bytes() == b"an older file\n" for name in names if existing)
