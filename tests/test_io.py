import json
import struct

import numpy as np
import pytest

from anatvox.grid import Dims, Spacing, VoxelGrid
from anatvox.volio import (
    CorruptFileError,
    UnsupportedDatatypeError,
    VolumeFormatError,
    VolumeMeta,
    read_volume,
    write_volume,
)

from conftest import ANISO


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
    fmt = "nifti1" if ext == ".nii" else "rawjson"
    write_volume(g, VolumeMeta.for_grid(g, datatype, fmt), path)
    g2, meta = read_volume(path)
    assert np.array_equal(g.data, g2.data)
    assert g2.data.dtype == dtype
    assert meta.datatype == datatype
    assert meta.dims == Dims(4, 5, 6)
    assert meta.spacing.zyx == pytest.approx(ANISO.zyx, rel=1e-6)


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
    # after scaling the returned meta must not rescale on a write-back
    assert meta.scl_slope == 0.0

    labels = VoxelGrid(rng.integers(0, 5, (3, 3, 3)).astype(np.uint8), ANISO)
    path2 = tmp_path / "labels.nii"
    write_volume(labels, VolumeMeta.for_grid(labels), path2)
    g3, meta3 = read_volume(path2)
    assert meta3.scl_slope == 0.0
    assert np.array_equal(g3.data, labels.data)


def test_lossy_write_rejected(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    with pytest.raises(ValueError):
        write_volume(g, VolumeMeta(g.dims, ANISO, "uint8"), tmp_path / "x.nii")
    big = VoxelGrid(np.full((2, 2, 2), 70000, dtype=np.int32), ANISO)
    with pytest.raises(ValueError):
        write_volume(big, VolumeMeta(big.dims, ANISO, "int16"), tmp_path / "y.nii")


def test_nan_float_write_round_trips_but_not_into_integers(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 1, 1] = np.nan
    g = VoxelGrid(data, ANISO)
    write_volume(g, VolumeMeta(g.dims, ANISO, "float32"), tmp_path / "f.nii")
    g2, _ = read_volume(tmp_path / "f.nii")
    assert np.array_equal(g2.data, data, equal_nan=True)
    with pytest.raises(ValueError, match="losslessly"), np.errstate(invalid="ignore"):
        write_volume(g, VolumeMeta(g.dims, ANISO, "uint8"), tmp_path / "u.nii")


def test_binary_float_values_may_narrow(tmp_path):
    # float grid holding only {0, 1} is losslessly representable as uint8
    g = VoxelGrid(np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=np.float32), ANISO)
    path = tmp_path / "z.nii"
    write_volume(g, VolumeMeta(g.dims, ANISO, "uint8"), path)
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
    write_volume(g, VolumeMeta.for_grid(g, source_format="rawjson"), tmp_path / "v.raw")
    sidecar = json.loads((tmp_path / "v.json").read_text())
    assert sidecar == {
        "dims": [4, 5, 6],
        "spacing": [5.0, 0.78, 0.78],
        "datatype": "float32",
    }
    g2, meta = read_volume(tmp_path / "v.json")
    assert np.array_equal(g.data, g2.data)
    assert meta.source_format == "rawjson"


def test_rawjson_size_mismatch(tmp_path, rng):
    g = VoxelGrid(rng.standard_normal((3, 3, 3)).astype(np.float32), ANISO)
    write_volume(g, VolumeMeta.for_grid(g, source_format="rawjson"), tmp_path / "v.raw")
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
