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

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


def _encode_payload(data: np.ndarray, datatype: str, path) -> np.ndarray:
    """``data`` in the little-endian ``datatype``, refusing any lossy conversion.

    Data already of that dtype is returned as it is, without a copy, and so is
    boolean data written as uint8: False and True are the bytes 0 and 1.
    """
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


class _Layout(NamedTuple):
    """What a volume's header says: its geometry, where its voxels are and how to scale them."""

    dims: Dims
    spacing: Spacing
    meta: VolumeMeta  # its datatype is the one the voxels are read as, after any scaling
    payload: Path
    offset: int
    stored: str  # the datatype of the voxels in the file
    exact: bool  # the payload must end where the file ends
    scale: tuple[np.float32, np.float32] | None  # (scl_slope, scl_inter)


# ---------------------------------------------------------------------------
# NIfTI-1
# ---------------------------------------------------------------------------

def _nifti_header(shape, spacing: Spacing, meta: VolumeMeta) -> bytes:
    hdr = bytearray(meta.raw_header) if meta.raw_header else bytearray(HEADER_SIZE)
    if len(hdr) != HEADER_SIZE:
        raise ValueError("stored raw header has wrong size")
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *shape[::-1], 1, 1, 1, 1)
    code, dtype = DATATYPES[meta.datatype]
    struct.pack_into("<2h", hdr, 70, code, 8 * dtype.itemsize)
    if not meta.raw_header:
        # fresh header: pixdim[0] is the qform handedness flag, units are mm
        struct.pack_into("<f", hdr, 76, 1.0)
        hdr[123] = 2
    struct.pack_into("<3f", hdr, 80, *spacing.zyx[::-1])
    struct.pack_into("<3f", hdr, 108, VOX_OFFSET, 0.0, 0.0)
    hdr[344:348] = MAGIC
    return bytes(hdr)


def _parse_nifti(path: Path) -> _Layout:
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
    scale = None
    if scl_slope != 0.0 and (scl_slope, scl_inter) != (1.0, 0.0):
        scale = (np.float32(scl_slope), np.float32(scl_inter))
    meta = VolumeMeta("float32" if scale else datatype, raw_header=hdr)
    return _Layout(dims, spacing, meta, path, int(vox_offset), datatype, False, scale)


# ---------------------------------------------------------------------------
# raw + JSON sidecar
# ---------------------------------------------------------------------------

def _sidecar_paths(path: Path) -> tuple[Path, Path]:
    stem = path.with_suffix("")
    return stem.with_suffix(".raw"), stem.with_suffix(".json")


def _parse_rawjson(path: Path) -> _Layout:
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
    return _Layout(dims, spacing, VolumeMeta(datatype), raw_path, 0, datatype, True, None)


def _json_triple(value, kind) -> bool:
    """True for a list of 3 JSON values of ``kind``; true and false are not numbers."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, kind) and not isinstance(v, bool) for v in value))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_PARSERS = {".nii": _parse_nifti, ".raw": _parse_rawjson, ".json": _parse_rawjson}

# Voxels per slab where a volume is streamed: 4 MB of float32
SLAB_VOXELS = 1 << 20


def z_slabs(shape, halo: int = 0, lo: int = 0, hi: int | None = None) -> list[tuple[int, int]]:
    """(z0, z1) of each slab of z planes [lo, hi), or all, of ``shape``: ``SLAB_VOXELS``, >= 4 halos, >= 1 plane."""
    step = max(SLAB_VOXELS // (shape[1] * shape[2]), 4 * halo, 1)  # so halos add at most half the reads
    hi = shape[0] if hi is None else hi
    return [(z0, min(z0 + step, hi)) for z0 in range(lo, hi, step)]


def _volume_path(path) -> Path:
    path = Path(path)
    if path.suffix not in _PARSERS:
        raise ValueError(f"{path}: unknown volume extension {path.suffix!r}")
    return path


def volume_files(path) -> list[Path]:
    """The files a volume at ``path`` is written to: the .nii, or the .raw payload and its .json sidecar."""
    path = _volume_path(path)
    return [path] if path.suffix == ".nii" else list(_sidecar_paths(path))


class VolumeReader:
    """A volume file opened for reading: its checked header, then its voxels run by run.

    Opening parses the header and checks that the file holds the whole
    payload, before any voxel is read. ``read(lo, hi)`` returns voxels
    [lo, hi) of the flat, z-major array that ``read_volume`` gives, bitwise:
    a scaled NIfTI run is scaled as ``read_volume`` scales, in place on one
    float32 array, and a run whose scaling overflows raises ``read_volume``'s
    error. ``shape`` and ``spacing`` stand in for a grid's in the geometry
    checks.
    """

    def __init__(self, path):
        self.path = _volume_path(path)
        layout = _PARSERS[self.path.suffix](self.path)
        dtype = DATATYPES[layout.stored][1]
        held = max(layout.payload.stat().st_size - layout.offset, 0)
        expected = layout.dims.n * dtype.itemsize
        if held < expected or (layout.exact and held > expected):
            raise CorruptFileError(f"{layout.payload}: payload is {held} bytes, expected {expected}")
        self.shape, self.size = layout.dims.shape, layout.dims.n
        self.spacing, self.meta = layout.spacing, layout.meta
        self._dtype, self._offset, self._scale = dtype, layout.offset, layout.scale
        self._fh = open(layout.payload, "rb")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "VolumeReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Voxels [lo, hi) in z-major order, as a new array of the file's values."""
        self._fh.seek(self._offset + lo * self._dtype.itemsize)
        run = np.empty(hi - lo, self._dtype)
        if self._fh.readinto(run) != run.nbytes:  # so no voxel is left as np.empty made it
            raise CorruptFileError(f"{self.path}: payload shrank while it was read")
        if self._scale is None:
            return run
        try:
            with np.errstate(over="raise"):  # in place on one float32 array, rounded as (run * slope) + inter
                run = run.astype(np.float32, copy=False)
                np.multiply(run, self._scale[0], out=run)
                np.add(run, self._scale[1], out=run)
        except FloatingPointError:
            raise VolumeFormatError(f"{self.path}: scl_slope/scl_inter overflow float32") from None
        return run


def read_volume(path) -> tuple[VoxelGrid, VolumeMeta]:
    """Read a volume; the format is chosen by extension (.nii or .raw/.json)."""
    with VolumeReader(path) as src:
        return VoxelGrid(src.read(0, src.size).reshape(src.shape), src.spacing), src.meta


def write_slabs(outputs, shape, spacing: Spacing, slabs) -> None:
    """Write volumes of one ``shape`` and ``spacing`` whose voxels come as ``slabs``.

    ``outputs`` lists each volume's ``(path, meta)``, and each slab holds one
    z-major array per output, its next voxels. Before any file is opened, an
    output that is a directory, has no directory to go in or shares a file
    with another is refused. Each header (or JSON sidecar) is written first,
    then each slab's arrays as they come, encoded losslessly in their meta's
    datatype. The slabs must hold every voxel of each output once. Each file
    is written as ``<name>.part`` beside it, and all are moved over their own
    names only after the last slab, so a fault leaves no output and every
    older file as it was, and a path may name a volume that is still being
    read.
    """
    paths, n = [_volume_path(path) for path, _ in outputs], math.prod(shape)
    if not n:  # the readers refuse a zero-length axis
        raise ValueError(f"{paths[0]}: cannot write an empty grid of shape {tuple(shape)}")
    finals = [volume_files(path) for path in paths]
    owner = {}
    for k, (path, files) in enumerate(zip(paths, finals)):
        for f in files:
            if f.is_dir():
                raise ValueError(f"{path}: is a directory")
            if not f.parent.is_dir():
                raise ValueError(f"{path}: {f.parent} is not an existing directory")
            other = owner.setdefault(f.resolve(), k)
            if other != k:
                raise ValueError(f"{path}: writes {f}, as {paths[other]} does")
    parts = {f: f.with_name(f.name + ".part") for files in finals for f in files}
    metas = [meta for _, meta in outputs]
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, meta, files in zip(paths, metas, finals):
                handles.append(stack.enter_context(open(parts[files[0]], "wb")))
                if path.suffix == ".nii":
                    handles[-1].write(_nifti_header(shape, spacing, meta).ljust(VOX_OFFSET, b"\x00"))
                else:  # the raw payload's JSON sidecar
                    sidecar = {"dims": list(shape), "spacing": list(spacing.zyx), "datatype": meta.datatype}
                    parts[files[1]].write_text(json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")
            written = [0] * len(paths)
            for slab in slabs:
                if len(slab) != len(paths):
                    raise ValueError(f"{paths[0]}: a slab holds {len(slab)} arrays for {len(paths)} volumes")
                for k, data in enumerate(slab):
                    handles[k].write(_encode_payload(data, metas[k].datatype, paths[k]))
                    written[k] += data.size
                del slab, data  # so that the next slab is made without this one held
        for path, count in zip(paths, written):
            if count != n:
                raise ValueError(f"{path}: the slabs hold {count} voxels, not {n}")
        for final, part in parts.items():
            os.replace(part, final)
    except BaseException:
        for part in parts.values():
            part.unlink(missing_ok=True)
        raise


def write_volume(grid: VoxelGrid, meta: VolumeMeta, path) -> None:
    """Write a grid under ``meta``'s datatype as one slab; booleans encode as uint8 {0, 1}."""
    write_slabs([(path, meta)], grid.data.shape, grid.spacing, [[grid.data]])
