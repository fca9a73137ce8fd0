"""Volume file I/O: minimal single-file NIfTI-1 and a raw + JSON sidecar pair.

NIfTI-1 support is deliberately small and dependency free. Honored header
fields (byte offsets in the 348-byte header):

    sizeof_hdr   int32    @0    must be 348
    dim          int16[8] @40   dim[0] = 3, dim[1..3] = (nx, ny, nz)
    datatype     int16    @70   2 uint8 | 4 int16 | 8 int32 | 16 float32
    bitpix       int16    @72
    pixdim       float[8] @76   pixdim[1..3] = (sx, sy, sz) in mm
    vox_offset   float    @108  352 for files we write
    scl_slope    float    @112  applied on read when nonzero; written as 0
    scl_inter    float    @116  written as 0
    magic        char[4]  @344  "n+1\\0"

Everything else (qform/sform in particular) is carried as opaque bytes: a
header read from disk is kept on the metadata and written back verbatim
apart from the honored fields, which come from the grid and the datatype.
Files are little-endian regardless of host; byte-swapped input is rejected
rather than converted. Uncompressed .nii only; decompress .nii.gz externally.

The raw format is <name>.raw (little-endian voxels, z slowest) next to
<name>.json holding {"dims": [nz, ny, nx], "spacing": [sz, sy, sx],
"datatype": "float32"}.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Dims, Spacing, VoxelGrid

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

# each supported datatype: its NIfTI-1 code and its little-endian numpy dtype
DATATYPES = {"uint8": (2, np.dtype("<u1")), "int16": (4, np.dtype("<i2")),
             "int32": (8, np.dtype("<i4")), "float32": (16, np.dtype("<f4"))}


class VolumeFormatError(ValueError):
    """File is not a volume this reader understands."""


class UnsupportedDatatypeError(VolumeFormatError):
    """Header datatype code outside the supported set."""


class CorruptFileError(VolumeFormatError):
    """Header claims more data than the file holds."""


@dataclass
class VolumeMeta:
    """What a grid cannot hold: the stored datatype and, after a NIfTI read, its header."""

    datatype: str
    raw_header: bytes | None = None

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise UnsupportedDatatypeError(
                f"unsupported datatype {self.datatype!r}, expected one of {sorted(DATATYPES)}"
            )

    @classmethod
    def for_grid(cls, grid: VoxelGrid, datatype: str | None = None) -> "VolumeMeta":
        """Metadata to write ``grid`` with; the writer picks the format by the path's suffix."""
        if datatype is None:
            datatype = _natural_datatype(grid.data.dtype)
        return cls(datatype)


def _natural_datatype(dtype: np.dtype) -> str:
    if dtype == np.bool_ or dtype == np.uint8:
        return "uint8"
    if dtype == np.int16:
        return "int16"
    if np.issubdtype(dtype, np.integer):
        return "int32"
    return "float32"


def _encode_payload(grid: VoxelGrid, datatype: str, path) -> np.ndarray:
    """Grid data in the little-endian ``datatype``, refusing any lossy conversion.

    Data already of that dtype is returned as it is, without a copy, and so is
    a boolean grid written as uint8: False and True are the bytes 0 and 1.
    """
    data = grid.data
    if data.dtype == np.bool_ and datatype == "uint8":
        payload = data.view(np.uint8)
        if payload.max() <= 1:  # else the array views other bytes as booleans
            return payload
    cast = data.astype(DATATYPES[datatype][1], copy=False)
    if cast is not data:
        back = cast.astype(data.dtype)
        # the NaN-aware comparison copies the data, so it runs only when the plain one fails
        if not (np.array_equal(back, data) or np.array_equal(back, data, equal_nan=True)):
            raise ValueError(
                f"{path}: datatype {datatype} cannot losslessly represent the grid data"
            )
    return cast


# ---------------------------------------------------------------------------
# NIfTI-1
# ---------------------------------------------------------------------------

def _build_header(grid: VoxelGrid, meta: VolumeMeta) -> bytes:
    hdr = bytearray(meta.raw_header) if meta.raw_header else bytearray(HEADER_SIZE)
    if len(hdr) != HEADER_SIZE:
        raise ValueError("stored raw header has wrong size")
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *grid.data.shape[::-1], 1, 1, 1, 1)
    code, dtype = DATATYPES[meta.datatype]
    struct.pack_into("<2h", hdr, 70, code, 8 * dtype.itemsize)
    if not meta.raw_header:
        # fresh header: pixdim[0] is the qform handedness flag, units are mm
        struct.pack_into("<f", hdr, 76, 1.0)
        hdr[123] = 2
    struct.pack_into("<3f", hdr, 80, *grid.spacing.zyx[::-1])
    struct.pack_into("<3f", hdr, 108, VOX_OFFSET, 0.0, 0.0)
    hdr[344:348] = MAGIC
    return bytes(hdr)


def _write_nifti(grid: VoxelGrid, payload: np.ndarray, meta: VolumeMeta, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_build_header(grid, meta).ljust(VOX_OFFSET, b"\x00"))
        fh.write(payload)


def _read_payload(path: Path, offset: int, datatype: str, dims: Dims, exact: bool) -> np.ndarray:
    """Voxels at ``offset``, read once the file size shows them all (``exact``: and no more)."""
    dtype = DATATYPES[datatype][1]
    held, expected = max(path.stat().st_size - offset, 0), dims.n * dtype.itemsize
    if held < expected or (exact and held > expected):
        raise CorruptFileError(f"{path}: payload is {held} bytes, expected {expected}")
    return np.fromfile(path, dtype=dtype, count=dims.n, offset=offset).reshape(dims.shape)


def _read_nifti(path: Path) -> tuple[VoxelGrid, VolumeMeta]:
    with open(path, "rb") as fh:
        hdr = fh.read(HEADER_SIZE)
    if len(hdr) < HEADER_SIZE:
        raise CorruptFileError(f"{path}: file shorter than a NIfTI-1 header")
    (sizeof_hdr,) = struct.unpack_from("<i", hdr, 0)
    if sizeof_hdr != HEADER_SIZE:
        (swapped,) = struct.unpack_from(">i", hdr, 0)
        if swapped == HEADER_SIZE:
            raise VolumeFormatError(f"{path}: big-endian (byte-swapped) NIfTI-1 is not supported")
        raise VolumeFormatError(f"{path}: sizeof_hdr is {sizeof_hdr}, not 348")
    if hdr[344:348] != MAGIC:
        raise VolumeFormatError(f"{path}: magic is {hdr[344:348]!r}, not 'n+1'")
    dim = struct.unpack_from("<8h", hdr, 40)
    if not (1 <= dim[0] <= 7):
        raise VolumeFormatError(f"{path}: implausible dim[0] = {dim[0]}")
    sizes = list(dim[1 : 1 + dim[0]])
    if any(s != 1 for s in sizes[3:]):
        raise VolumeFormatError(f"{path}: only 3D volumes are supported, dim = {dim}")
    nx, ny, nz = (sizes + [1, 1, 1])[:3]
    pixdim = struct.unpack_from("<8f", hdr, 76)
    try:
        dims, spacing = Dims(nz, ny, nx), Spacing(pixdim[3], pixdim[2], pixdim[1])
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: bad dim {dim} or pixdim {pixdim[1:4]}: {exc}") from None

    (code,) = struct.unpack_from("<h", hdr, 70)
    datatype = next((name for name, (c, _) in DATATYPES.items() if c == code), None)
    if datatype is None:
        raise UnsupportedDatatypeError(f"{path}: unsupported datatype code {code}")

    vox_offset, scl_slope, scl_inter = struct.unpack_from("<3f", hdr, 108)
    if not all(map(math.isfinite, (vox_offset, scl_slope, scl_inter))):
        raise VolumeFormatError(f"{path}: non-finite vox_offset, scl_slope or scl_inter")
    if vox_offset < HEADER_SIZE:
        raise VolumeFormatError(f"{path}: vox_offset {vox_offset} inside the header")

    arr = _read_payload(path, int(vox_offset), datatype, dims, exact=False)
    if scl_slope != 0.0 and (scl_slope, scl_inter) != (1.0, 0.0):
        try:
            with np.errstate(over="raise"):  # in place on one float32 array, rounded as (arr * slope) + inter
                arr = arr.astype(np.float32, copy=False)
                np.multiply(arr, np.float32(scl_slope), out=arr)
                np.add(arr, np.float32(scl_inter), out=arr)
        except FloatingPointError:
            raise VolumeFormatError(f"{path}: scl_slope/scl_inter overflow float32") from None
        datatype = "float32"
    return VoxelGrid(arr, spacing), VolumeMeta(datatype, raw_header=hdr)


# ---------------------------------------------------------------------------
# raw + JSON sidecar
# ---------------------------------------------------------------------------

def _sidecar_paths(path: Path) -> tuple[Path, Path]:
    stem = path.with_suffix("")
    return stem.with_suffix(".raw"), stem.with_suffix(".json")


def _write_rawjson(grid: VoxelGrid, payload: np.ndarray, meta: VolumeMeta, path: Path) -> None:
    raw_path, json_path = _sidecar_paths(path)
    raw_path.write_bytes(payload)
    sidecar = {"dims": list(grid.data.shape), "spacing": list(grid.spacing.zyx),
               "datatype": meta.datatype}
    json_path.write_text(json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")


def _read_rawjson(path: Path) -> tuple[VoxelGrid, VolumeMeta]:
    raw_path, json_path = _sidecar_paths(path)
    try:
        sidecar = json.loads(json_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise VolumeFormatError(f"{json_path}: invalid JSON sidecar: {exc}") from None
    if not (isinstance(sidecar, dict) and set(sidecar) == {"dims", "spacing", "datatype"}
            and _json_triple(sidecar["dims"], int)
            and _json_triple(sidecar["spacing"], (int, float))
            and isinstance(sidecar["datatype"], str)):
        raise VolumeFormatError(f"{json_path}: sidecar must hold exactly dims (3 integers), "
                                "spacing (3 numbers) and datatype (a string)")
    try:
        dims, spacing = Dims(*sidecar["dims"]), Spacing(*map(float, sidecar["spacing"]))
    except (ValueError, OverflowError) as exc:
        raise VolumeFormatError(f"{json_path}: bad sidecar: {exc}") from None
    datatype = sidecar["datatype"]
    if datatype not in DATATYPES:
        raise UnsupportedDatatypeError(f"{json_path}: unsupported datatype {datatype!r}")
    arr = _read_payload(raw_path, 0, datatype, dims, exact=True)
    return VoxelGrid(arr, spacing), VolumeMeta(datatype)


def _json_triple(value, kind) -> bool:
    """True for a list of 3 JSON values of ``kind``; true and false are not numbers."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, kind) and not isinstance(v, bool) for v in value))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_WRITERS = {".nii": _write_nifti, ".raw": _write_rawjson, ".json": _write_rawjson}
_READERS = {".nii": _read_nifti, ".raw": _read_rawjson, ".json": _read_rawjson}


def write_volume(grid: VoxelGrid, meta: VolumeMeta, path) -> None:
    """Write a grid under ``meta``'s datatype; booleans encode as uint8 {0, 1}."""
    path = Path(path)
    if path.suffix not in _WRITERS:
        raise ValueError(f"{path}: unknown volume extension {path.suffix!r}")
    if not grid.data.size:  # the readers refuse a zero-length axis
        raise ValueError(f"{path}: cannot write an empty grid of shape {grid.data.shape}")
    _WRITERS[path.suffix](grid, _encode_payload(grid, meta.datatype, path), meta, path)


def read_volume(path) -> tuple[VoxelGrid, VolumeMeta]:
    """Read a volume; the format is chosen by extension (.nii or .raw/.json)."""
    path = Path(path)
    if path.suffix not in _READERS:
        raise ValueError(f"{path}: unknown volume extension {path.suffix!r}")
    return _READERS[path.suffix](path)
