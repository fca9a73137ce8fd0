import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox.grid import Dims, Spacing, VoxelGrid, bounding_box, pairwise_sum
from anatvox.morphology import StructElem
from anatvox.phantom import PhantomSpec, centerline_distance, tumor_center_voxel
from anatvox.sampling import PatchSpec, box_psm

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


@pytest.fixture(autouse=True)
def no_part_files_left(tmp_path):
    """Fail a test that leaves a ``*.part`` file, a volume write never finished or cleared, under its tmp_path."""
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.part"))
    assert not left, f"temporary volume files left behind: {left}"


def peak_bytes(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pairwise_leaves(n: int) -> list:
    """The (lo, hi) of the runs that ``pairwise_sum`` hands its leaf over [0, n), in order."""
    leaves = []
    pairwise_sum(lambda lo, hi: leaves.append((lo, hi)) or 0, 0, n)
    return leaves


def assert_read_once_by_leaf(runs, n: int) -> None:
    """``runs``, the (lo, hi) of a source's reads in order, ascend and tile [0, n): each one ``pairwise_sum`` leaf."""
    assert all(lo < hi for lo, hi in runs)
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]] and runs[-1][1] == n  # no gap, no overlap
    assert runs == pairwise_leaves(n)


def scale_nifti(path, slope, inter) -> None:
    """Set a NIfTI-1 file's scl_slope and scl_inter, so that its voxels read as stored * slope + inter."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, slope, inter)
    path.write_bytes(bytes(blob))


def make_grid(dims: Dims, spacing: Spacing, fill=0.0, dtype=None) -> VoxelGrid:
    """Constant-filled grid. dtype defaults to the natural type of ``fill``."""
    if dtype is None:
        if isinstance(fill, (bool, np.bool_)):
            dtype = np.bool_
        elif isinstance(fill, (int, np.integer)):
            dtype = np.int32
        else:
            dtype = np.float32
    return VoxelGrid(np.full(dims.shape, fill, dtype=dtype), spacing)


def bool_grid(mask: np.ndarray, spacing: Spacing = ISO) -> VoxelGrid:
    return VoxelGrid(np.asarray(mask, dtype=np.bool_), spacing)


@st.composite
def boxed_mask(draw, shape):
    """A random mask of ``shape`` filling a random sub-box of it, faces included."""
    lo = [draw(st.integers(0, n - 1)) for n in shape]
    hi = [draw(st.integers(a + 1, n)) for a, n in zip(lo, shape)]
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(map(slice, lo, hi))] = draw(arrays(np.bool_, tuple(b - a for a, b in zip(lo, hi))))
    return mask


@st.composite
def mask_pairs(draw):
    """Two random masks of one grid in their own sub-boxes; either may be empty."""
    shape = draw(st.tuples(*[st.integers(1, 12)] * 3))
    return tuple(
        np.zeros(shape, dtype=bool) if draw(st.integers(0, 3)) == 0 else draw(boxed_mask(shape))
        for _ in range(2)
    )


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


def offsets(elem: StructElem) -> tuple[tuple[int, int, int], ...]:
    """The element's neighbor offsets; the origin voxel is not listed."""
    if elem.kind == "face6":
        return (
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        )
    return tuple(
        (dz, dy, dx)
        for dz in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dz, dy, dx) != (0, 0, 0)
    )


def dilate_naive(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Reference dilation: OR of the mask shifted by every element offset."""
    out = mask.copy()
    for _ in range(times):
        step = out.copy()
        for dz, dy, dx in offsets(elem):
            step |= shifted(out, dz, dy, dx, fill=False)
        out = step
    return out


def erode_naive(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Reference erosion: AND of the mask shifted by every element offset."""
    out = mask.copy()
    for _ in range(times):
        step = out.copy()
        for dz, dy, dx in offsets(elem):
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


def box_psm_union(ooi: np.ndarray, tumor: np.ndarray, n: int, patch: PatchSpec, mu: float, lam: float):
    """``box_psm`` with both maps built on the whole box; the oracle for its tumor map on the tumor's own box.

    Each gain is the three passes over the box, each map is blended and summed
    with ``np.sum`` over the box, and the maps are mixed as whole arrays.
    """
    maps = []
    for mask in (ooi, tumor):
        s = gain_map_full(VoxelGrid(mask, ISO), patch) / mu + 1.0 / n
        z = np.sum(s) + (n - s.size) * (1.0 / n)
        maps.append((s / z, (1.0 / n) / z))
    (s_o, c_o), (s_t, c_t) = maps
    return s_o * (1.0 - lam) + s_t * lam, c_o * (1.0 - lam) + c_t * lam


def mixed_psm(ooi: VoxelGrid, tumor: VoxelGrid, patch: PatchSpec, mu: float, lam: float) -> VoxelGrid:
    """The float32 map the psm stage writes, on the whole grid; the oracle for the stage's box reads and slab writes.

    ``box_psm`` of the two masks cropped to the box of ``ooi | tumor`` grown
    by the patch radii, pasted into a grid filled with its off-box constant.
    """
    box = bounding_box(ooi.data | tumor.data, patch.radii) or (slice(0, 0),) * 3
    s, c = box_psm(ooi.data[box], tumor.data[box], ooi.data.size, patch, mu, lam)
    out = np.full(ooi.data.shape, c, dtype=np.float32)
    out[box] = s
    return ooi.with_data(out)


# Full-grid losses: each widens the whole prediction to float64 and builds
# its terms as full-size arrays. The oracle for losses' chunked scorer.

def _float_pair_full(gt: VoxelGrid, pred: VoxelGrid):
    assert gt.data.dtype == np.bool_ and gt.data.shape == pred.data.shape
    p = pred.data.astype(np.float64, copy=False)
    assert p.min() >= 0.0 and p.max() <= 1.0
    return gt.data.astype(np.float64), p


def soft_dice_loss_full(gt, pred, cfg) -> float:
    y, p = _float_pair_full(gt, pred)
    inter = float(np.sum(p * y))
    union = float(np.sum(p) + np.sum(y))
    return 1.0 - (2.0 * inter + cfg.dice_eps) / (union + cfg.dice_eps)


def cross_entropy_loss_full(gt, pred, cfg) -> float:
    y, p = _float_pair_full(gt, pred)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    ll = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)
    return float(-np.mean(ll))


def combined_loss_full(gt, pred, cfg) -> float:
    dice = soft_dice_loss_full(gt, pred, cfg)
    return cfg.dice_weight * dice + cfg.ce_weight * cross_entropy_loss_full(gt, pred, cfg)


def af_loss_full(gt, pred, organ, cfg) -> float:
    return combined_loss_full(gt, pred.with_data(pred.data * organ.data), cfg)


def soft_dice_grad_full(gt, pred, cfg) -> np.ndarray:
    y, p = _float_pair_full(gt, pred)
    num = 2.0 * float(np.sum(p * y)) + cfg.dice_eps
    den = float(np.sum(p) + np.sum(y)) + cfg.dice_eps
    return (num - 2.0 * y * den) / (den * den)


def cross_entropy_grad_full(gt, pred, cfg) -> np.ndarray:
    y, p = _float_pair_full(gt, pred)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    g = (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size
    active = (p > cfg.ce_eps) & (p < 1.0 - cfg.ce_eps)
    return np.where(active, g, 0.0)


def gen_phantom_full(spec: PhantomSpec) -> tuple[VoxelGrid, VoxelGrid, VoxelGrid]:
    """Every phantom shape and noise region evaluated over the whole grid; the oracle for gen_phantom."""
    dist = centerline_distance(spec)
    colon = dist <= spec.tube_radius_mm
    wall = colon & (dist >= spec.tube_radius_mm - spec.wall_thickness_mm)
    lumen = colon & ~wall

    labels = np.zeros(spec.dims.shape, dtype=np.uint8)
    labels[colon] = 1

    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    z = (np.arange(nz) * sz)[:, None, None]
    y = (np.arange(ny) * sy)[None, :, None]
    x = (np.arange(nx) * sx)[None, None, :]
    tz, ty, tx = tumor_center_voxel(spec)
    tumor = np.sqrt((z - tz * sz) ** 2 + (y - ty * sy) ** 2 + (x - tx * sx) ** 2) <= spec.tumor_radius_mm

    rng = np.random.default_rng(spec.seed)
    extent = np.array([(nz - 1) * sz, (ny - 1) * sy, (nx - 1) * sx])
    for k in range(spec.n_distractors):
        center = extent * rng.uniform(0.15, 0.85, 3)
        semi = rng.uniform(2.5, 8.0, 3)
        inside = (
            ((z - center[0]) / semi[0]) ** 2
            + ((y - center[1]) / semi[1]) ** 2
            + ((x - center[2]) / semi[2]) ** 2
        ) <= 1.0
        labels[inside & (labels == 0)] = 2 + k

    ct = np.empty(spec.dims.shape, dtype=np.float32)
    regions = [
        (labels == 0, spec.background),
        (lumen, spec.lumen),
        (wall, spec.wall),
        (labels >= 2, spec.organ),
        (tumor, spec.tumor),
    ]
    for p in range(nz):  # each plane draws every region in turn from its own generator
        rng = np.random.default_rng([spec.seed, p])
        for mask, stats in regions:
            count = int(np.count_nonzero(mask[p]))
            if count:
                ct[p][mask[p]] = rng.normal(stats.mean, stats.stddev, count)

    return VoxelGrid(ct, spec.spacing), VoxelGrid(labels, spec.spacing), VoxelGrid(tumor, spec.spacing)
