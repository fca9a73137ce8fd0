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

from .grid import VoxelGrid, is_int, require_same_geometry
from .morphology import FACE6, StructElem, _iterate, boundary_band, elem_from_name

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
        for name in ("set_ts", "set_word"):
            codes = frozenset(getattr(self, name))
            if not codes or not all(is_int(v) for v in codes):
                raise ValueError(f"{name} must be a nonempty set of integer label codes")
            object.__setattr__(self, name, frozenset(int(v) for v in codes))
        for name in ("dilate_times", "wall_r_out", "wall_r_in"):
            v = getattr(self, name)
            if not (is_int(v) and v >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {v!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "OrganConfig":
        known = {"set_ts", "set_word", "dilate_times", "elem", "wall_r_out", "wall_r_in"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown organ config keys: {sorted(unknown)}")
        kwargs = dict(obj)
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
    return labels.with_data(_or_selected(np.zeros(labels.data.shape, dtype=np.bool_), labels, indicator))


def _or_selected(out: np.ndarray, labels: VoxelGrid, indicator) -> np.ndarray:
    """``out``, ORed in place with the voxels of ``labels`` whose value is in ``indicator``.

    Each code's ``np.equal`` goes into one reused temporary. A Python int
    compares exactly with any integer dtype; a float grid rounds the code to
    its own type, so it is asked only for the codes that type holds exactly,
    as no voxel can equal any other. NaN equals no code.
    """
    data = labels.data
    if data.dtype == np.bool_:
        raise ValueError("select_labels expects an integer label grid")
    codes = [int(v) for v in indicator]
    if data.dtype.kind == "f":
        top = float(np.finfo(data.dtype).max)
        codes = [c for c in codes if abs(c) <= top and int(data.dtype.type(c)) == c]
    hit = np.empty(data.shape, dtype=np.bool_)
    for code in codes:
        np.equal(data, code, out=hit)
        out |= hit
    return out


def build_ooi(ts_labels: VoxelGrid, word_labels: VoxelGrid, cfg: OrganConfig) -> VoxelGrid:
    """Merged organ-of-interest mask from the two label sources.

    The union of the two sources' indicator selections is dilated
    ``cfg.dilate_times`` times, so a segment missed by one source but present
    in the other (or merely nearby) still ends up covered. Dilation
    distributes over union, so this equals the OR of each source dilated on
    its own. The union is built and dilated in place on this call's own array.
    """
    require_same_geometry(ts_labels, word_labels)
    union = _or_selected(select_labels(ts_labels, cfg.set_ts).data, word_labels, cfg.set_word)
    return ts_labels.with_data(_iterate(union, cfg.elem, cfg.dilate_times, erode=False, in_place=True))


def bowel_wall(ooi_raw: VoxelGrid, elem: StructElem, r_out: int, r_in: int) -> VoxelGrid:
    """Bowel-wall band: XOR of the dilated and eroded undilated OOI.

    ``ooi_raw`` must come from :func:`build_ooi` with dilate_times = 0; the
    band needs the tight organ border, not the safety-expanded one.
    """
    return boundary_band(ooi_raw, elem, r_out, r_in)
