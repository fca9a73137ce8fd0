"""Anatomy-guided volumetric toolkit.

Deterministic array operations for organ-mask derivation, anatomy-weighted
patch sampling, bowel-wall noise masking, focalized segmentation losses,
surface-distance metrics, and a synthetic phantom for end-to-end checks.
"""

from .grid import (
    Coord,
    Dims,
    Spacing,
    VoxelGrid,
    extract_patch,
    make_grid,
    to_bool,
)
from .losses import (
    LossConfig,
    af_loss,
    combined_loss,
    cross_entropy_grad,
    cross_entropy_loss,
    soft_dice_grad,
    soft_dice_loss,
)
from .maskgen import OrganConfig, bowel_wall, build_ooi, select_labels
from .metrics import MetricReport, edt, seg_metrics, surface_voxels, write_cohort_report
from .morphology import FACE6, FULL26, StructElem, boundary_band, dilate, erode
from .phantom import PhantomSpec, TissueStats, gen_phantom
from .sampling import (
    PatchSpec,
    SamplingMap,
    combine_psm,
    draw_centers,
    gain_map,
    psm_from_gain,
)
from .sslmask import NoiseSpec, l1_recon_loss, mask_bowel_wall
from .volio import VolumeMeta, read_volume, write_volume

__version__ = "0.1.0"

__all__ = [
    "Coord", "Dims", "Spacing", "VoxelGrid",
    "extract_patch", "make_grid", "to_bool",
    "LossConfig", "af_loss", "combined_loss",
    "cross_entropy_grad", "cross_entropy_loss", "soft_dice_grad", "soft_dice_loss",
    "OrganConfig", "bowel_wall", "build_ooi", "select_labels",
    "MetricReport", "edt", "seg_metrics", "surface_voxels", "write_cohort_report",
    "FACE6", "FULL26", "StructElem", "boundary_band", "dilate", "erode",
    "PhantomSpec", "TissueStats", "gen_phantom",
    "PatchSpec", "SamplingMap",
    "combine_psm", "draw_centers", "gain_map", "psm_from_gain",
    "NoiseSpec", "l1_recon_loss", "mask_bowel_wall",
    "VolumeMeta", "read_volume", "write_volume",
]
