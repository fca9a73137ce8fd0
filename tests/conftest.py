import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from anatvox.grid import Spacing, VoxelGrid
from anatvox.morphology import StructElem
from anatvox.sampling import PatchSpec

# No per-example time limit: the suite runs on shared hosts whose speed
# swings by a third, which makes hypothesis deadlines flaky.
settings.register_profile("anatvox", deadline=None)
settings.load_profile("anatvox")

ISO = Spacing(1.0, 1.0, 1.0)
ANISO = Spacing(5.0, 0.78, 0.78)

# any JSON value, for fuzzing the config and phantom-spec readers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def bool_grid(mask: np.ndarray, spacing: Spacing = ISO) -> VoxelGrid:
    return VoxelGrid(np.asarray(mask, dtype=np.bool_), spacing)


def random_mask(rng, shape, density=0.3) -> np.ndarray:
    return rng.random(shape) < density


def brute_edt(mask: np.ndarray, spacing: Spacing) -> np.ndarray:
    """All-pairs nearest-true-voxel distance in mm; inf for an empty mask."""
    shape = mask.shape
    weights = np.array(spacing.zyx)
    pts = np.argwhere(mask).astype(np.float64) * weights
    if pts.shape[0] == 0:
        return np.full(shape, np.inf)
    grids = np.meshgrid(
        np.arange(shape[0]) * weights[0],
        np.arange(shape[1]) * weights[1],
        np.arange(shape[2]) * weights[2],
        indexing="ij",
    )
    vox = np.stack(grids, axis=-1).reshape(-1, 3)
    d2 = ((vox[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(d2.min(axis=1)).reshape(shape)


def directed_surface_distances(src: np.ndarray, dst: np.ndarray, spacing: Spacing) -> np.ndarray:
    """Brute-force distances from each src voxel to the nearest dst voxel."""
    weights = np.array(spacing.zyx)
    a = np.argwhere(src).astype(np.float64) * weights
    b = np.argwhere(dst).astype(np.float64) * weights
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(d2.min(axis=1))


def shifted(arr: np.ndarray, dz: int, dy: int, dx: int, fill=0) -> np.ndarray:
    """Array translated by (dz, dy, dx); vacated voxels take ``fill``.

    Output voxel v holds arr[v + (dz, dy, dx)], i.e. the value of the
    neighbor at positive offset when d is positive.
    """
    out = np.full_like(arr, fill)
    src = []
    dst = []
    for d, n in zip((dz, dy, dx), arr.shape):
        if abs(d) >= n:
            return out
        if d >= 0:
            src.append(slice(d, n))
            dst.append(slice(0, n - d))
        else:
            src.append(slice(0, n + d))
            dst.append(slice(-d, n))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def dilate_naive(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Reference dilation: OR of the mask shifted by every element offset."""
    out = mask.copy()
    for _ in range(times):
        step = out.copy()
        for dz, dy, dx in elem.offsets:
            step |= shifted(out, dz, dy, dx, fill=False)
        out = step
    return out


def erode_naive(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Reference erosion: AND of the mask shifted by every element offset."""
    out = mask.copy()
    for _ in range(times):
        step = out.copy()
        for dz, dy, dx in elem.offsets:
            step &= shifted(out, dz, dy, dx, fill=False)
        out = step
    return out


def gain_at_naive(interest: VoxelGrid, patch: PatchSpec, p) -> float:
    """Direct triple-loop gain at the (z, y, x) voxel ``p``; the oracle for gain_map."""
    nz, ny, nx = interest.data.shape
    pz, py, px = p
    rz, ry, rx = patch.radii
    vz, vy, vx = patch.variances
    total = 0.0
    for dz in range(-rz, rz + 1):
        z = pz + dz
        if z < 0 or z >= nz:
            continue
        for dy in range(-ry, ry + 1):
            y = py + dy
            if y < 0 or y >= ny:
                continue
            for dx in range(-rx, rx + 1):
                x = px + dx
                if x < 0 or x >= nx:
                    continue
                if interest.data[z, y, x]:
                    q = dz * dz / vz + dy * dy / vy + dx * dx / vx
                    total += math.exp(-0.5 * q)
    return patch.norm_const * total


def gain_map_full(interest: VoxelGrid, patch: PatchSpec) -> np.ndarray:
    """The three separable gain passes over the whole grid; the oracle for gain_map's cropping."""
    acc = interest.data.astype(np.float64)
    for axis in (0, 1, 2):
        r = patch.radii[axis]
        n = acc.shape[axis]
        d = np.arange(-r, r + 1, dtype=np.float64)
        k = np.exp(-(d * d) / (2.0 * patch.variances[axis]))
        lead = (slice(None),) * axis
        nxt = np.zeros_like(acc)
        for i, t in enumerate(range(-r, r + 1)):
            if abs(t) >= n:
                continue
            dst = lead + (slice(max(-t, 0), n - max(t, 0)),)
            src = lead + (slice(max(t, 0), n - max(-t, 0)),)
            nxt[dst] += k[i] * acc[src]
        acc = nxt
    acc *= patch.norm_const
    return acc
