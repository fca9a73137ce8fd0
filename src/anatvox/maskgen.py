"""Organ-of-interest mask derivation from multi-organ label volumes.

Two label volumes (e.g. TotalSegmentator and WORD model outputs) are reduced
to binary gastrointestinal masks via per-source indicator sets, merged with
OR, and dilated to absorb segmentation misses. The undilated union's
boundary band doubles as the bowel-wall mask for reconstruction pretraining.

Which integer codes mean stomach/duodenum/small bowel/colon/rectum depends
entirely on the upstream model version, so the mapping lives in config, not
code. The defaults below target TotalSegmentator v1 and the WORD label
scheme and should be checked against the tool release actually used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, require_same_geometry
from .morphology import FACE6, StructElem, boundary_band, dilate, elem_from_name

# stomach, small bowel, duodenum, colon (TotalSegmentator v1 codes)
DEFAULT_SET_TS = frozenset({6, 55, 56, 57})
# stomach, duodenum, colon, intestine, rectum (WORD codes)
DEFAULT_SET_WORD = frozenset({5, 9, 10, 11, 13})


@dataclass(frozen=True)
class OrganConfig:
    """Indicator sets and morphology knobs for OOI derivation."""

    set_ts: frozenset = DEFAULT_SET_TS
    set_word: frozenset = DEFAULT_SET_WORD
    dilate_times: int = 3
    elem: StructElem = FACE6
    wall_r_out: int = 1
    wall_r_in: int = 1

    def __post_init__(self):
        object.__setattr__(self, "set_ts", frozenset(int(v) for v in self.set_ts))
        object.__setattr__(self, "set_word", frozenset(int(v) for v in self.set_word))
        if not self.set_ts or not self.set_word:
            raise ValueError("organ indicator sets must be nonempty")
        if self.dilate_times < 0:
            raise ValueError("dilate_times must be >= 0")
        if self.wall_r_out < 0 or self.wall_r_in < 0:
            raise ValueError("wall band radii must be >= 0")

    @classmethod
    def from_json(cls, obj: dict) -> "OrganConfig":
        known = {"set_ts", "set_word", "dilate_times", "elem", "wall_r_out", "wall_r_in"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown organ config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "set_ts" in kwargs:
            kwargs["set_ts"] = frozenset(kwargs["set_ts"])
        if "set_word" in kwargs:
            kwargs["set_word"] = frozenset(kwargs["set_word"])
        if "elem" in kwargs:
            kwargs["elem"] = elem_from_name(kwargs["elem"])
        return cls(**kwargs)

    def to_json(self) -> dict:
        return {
            "set_ts": sorted(self.set_ts),
            "set_word": sorted(self.set_word),
            "dilate_times": self.dilate_times,
            "elem": self.elem.kind,
            "wall_r_out": self.wall_r_out,
            "wall_r_in": self.wall_r_in,
        }


def select_labels(labels: VoxelGrid, indicator) -> VoxelGrid:
    """Boolean mask of voxels whose label value belongs to the indicator set."""
    if labels.data.dtype == np.bool_:
        raise ValueError("select_labels expects an integer label grid")
    codes = sorted(int(v) for v in indicator)
    if not codes:
        return labels.with_data(np.zeros(labels.data.shape, dtype=np.bool_))
    return labels.with_data(np.isin(labels.data, codes))


def build_ooi(ts_labels: VoxelGrid, word_labels: VoxelGrid, cfg: OrganConfig) -> VoxelGrid:
    """Merged organ-of-interest mask from the two label sources.

    The union of the two sources' indicator selections is dilated
    ``cfg.dilate_times`` times, so a segment missed by one source but present
    in the other (or merely nearby) still ends up covered. Dilation
    distributes over union, so this equals the OR of each source dilated on
    its own.
    """
    require_same_geometry(ts_labels, word_labels)
    o_ts = select_labels(ts_labels, cfg.set_ts).data
    o_word = select_labels(word_labels, cfg.set_word).data
    return dilate(ts_labels.with_data(o_ts | o_word), cfg.elem, cfg.dilate_times)


def bowel_wall(ooi_raw: VoxelGrid, elem: StructElem, r_out: int, r_in: int) -> VoxelGrid:
    """Bowel-wall band: XOR of the dilated and eroded undilated OOI.

    ``ooi_raw`` must come from :func:`build_ooi` with dilate_times = 0; the
    band needs the tight organ border, not the safety-expanded one.
    """
    return boundary_band(ooi_raw, elem, r_out, r_in)
