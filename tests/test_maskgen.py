import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox.grid import Dims, Spacing, VoxelGrid
from anatvox.maskgen import OrganConfig, bowel_wall, build_ooi, select_labels
from anatvox.morphology import FACE6, FULL26, dilate

from conftest import ISO, dilate_naive, erode_naive, make_grid


def _labels(arr, spacing=ISO):
    return VoxelGrid(np.asarray(arr, dtype=np.uint8), spacing)


def test_select_labels_no_match():
    g = _labels(np.zeros((3, 3, 3)))
    assert not np.any(select_labels(g, {3, 5}).data)


def test_select_labels_total_match():
    g = _labels(np.full((3, 3, 3), 3))
    assert np.all(select_labels(g, {3}).data)


def test_select_labels_matches_membership_oracle(rng):
    g = _labels(rng.integers(0, 10, (6, 6, 6)))
    indicator = {2, 7}
    got = select_labels(g, indicator).data
    for z in range(6):
        for y in range(6):
            for x in range(6):
                assert got[z, y, x] == (int(g.data[z, y, x]) in indicator)


@settings(max_examples=200)
@given(data=st.data(), dtype=st.sampled_from([np.uint8, np.int16, np.int32, np.int64, np.float32]),
       codes=st.frozensets(st.integers(-2**40, 2**40) | st.integers(-3, 300), min_size=1, max_size=4))
def test_select_labels_is_isin_for_any_integer_codes(data, dtype, codes):
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        values = st.integers(info.min, info.max)
        held = [c for c in codes if info.min <= c <= info.max]
    else:
        values = st.floats(width=32) | st.integers(-2**24, 2**24)
        held = [c for c in codes if int(np.float32(c)) == c]
    if held:  # voxels that hit a code are drawn often
        values = st.sampled_from(sorted(held)) | values
    g = VoxelGrid(data.draw(arrays(dtype, (2, 3, 4), elements=values)), ISO)
    want = np.isin(g.data, sorted(codes))
    assert np.array_equal(select_labels(g, codes).data, want)


def test_float_labels_match_only_codes_they_hold_exactly():
    g = VoxelGrid(np.array([2**24, 2**24 + 2, np.nan, np.inf], dtype=np.float32).reshape(1, 1, 4), ISO)
    got = select_labels(g, {2**24 + 1, 2**24 + 2, 10**400, -(10**400)}).data.ravel()
    assert got.tolist() == [False, True, False, False]


def test_select_labels_rejects_bool_grid():
    g = make_grid(Dims(2, 2, 2), ISO, False)
    with pytest.raises(ValueError):
        select_labels(g, {1})


def test_organ_config_validation_and_json():
    with pytest.raises(ValueError):
        OrganConfig(set_ts=frozenset())
    with pytest.raises(ValueError):
        OrganConfig(dilate_times=-1)
    for bad in ({"dilate_times": 1.5}, {"wall_r_in": True}, {"set_word": frozenset({"5"})}):
        with pytest.raises(ValueError):
            OrganConfig(**bad)
    cfg = OrganConfig.from_json(
        {"set_ts": [1, 2], "set_word": [3], "dilate_times": 2, "elem": "full26",
         "wall_r_out": 2, "wall_r_in": 1}
    )
    assert cfg.set_ts == frozenset({1, 2})
    assert cfg.elem == FULL26
    assert cfg.to_json()["elem"] == "full26"
    with pytest.raises(ValueError):
        OrganConfig.from_json({"set_ts": [1], "set_word": [1], "bogus": 3})
    for bad in (5, None, ["face6"]):
        with pytest.raises(ValueError):
            OrganConfig.from_json({"elem": bad})


def test_build_ooi_empty_word_source(rng):
    ts = _labels(rng.integers(0, 3, (6, 6, 6)))
    word = _labels(np.zeros((6, 6, 6)))
    cfg = OrganConfig(set_ts=frozenset({1, 2}), set_word=frozenset({1}), dilate_times=1)
    got = build_ooi(ts, word, cfg)
    expected = dilate(select_labels(ts, {1, 2}), FACE6, 1)
    assert np.array_equal(got.data, expected.data)


def test_build_ooi_no_dilation_is_plain_union(rng):
    ts = _labels(rng.integers(0, 4, (5, 5, 5)))
    word = _labels(rng.integers(0, 4, (5, 5, 5)))
    cfg = OrganConfig(set_ts=frozenset({1}), set_word=frozenset({2}), dilate_times=0)
    got = build_ooi(ts, word, cfg)
    expected = select_labels(ts, {1}).data | select_labels(word, {2}).data
    assert np.array_equal(got.data, expected)


def test_build_ooi_monotone_in_indicator_sets(rng):
    ts = _labels(rng.integers(0, 5, (6, 6, 6)))
    word = _labels(rng.integers(0, 5, (6, 6, 6)))
    small = OrganConfig(set_ts=frozenset({1}), set_word=frozenset({2}), dilate_times=1)
    large = OrganConfig(set_ts=frozenset({1, 3}), set_word=frozenset({2, 4}), dilate_times=1)
    a = build_ooi(ts, word, small).data
    b = build_ooi(ts, word, large).data
    assert np.all(b >= a)


def test_build_ooi_covers_each_dilated_selection(rng):
    ts = _labels(rng.integers(0, 3, (6, 6, 6)))
    word = _labels(rng.integers(0, 3, (6, 6, 6)))
    cfg = OrganConfig(set_ts=frozenset({1}), set_word=frozenset({2}), dilate_times=2)
    union = build_ooi(ts, word, cfg).data
    part_ts = dilate(select_labels(ts, {1}), cfg.elem, 2).data
    part_word = dilate(select_labels(word, {2}), cfg.elem, 2).data
    assert np.array_equal(union, part_ts | part_word)


def test_build_ooi_shape_mismatch():
    ts = _labels(np.zeros((3, 3, 3)))
    word = _labels(np.zeros((3, 3, 4)))
    with pytest.raises(ValueError):
        build_ooi(ts, word, OrganConfig(set_ts=frozenset({1}), set_word=frozenset({1})))


def test_bowel_wall_sphere_shell():
    # solid ball: band at r=1 equals dilate XOR erode, brute-forced
    m = make_grid(Dims(13, 13, 13), ISO, False)
    z, y, x = np.ogrid[:13, :13, :13]
    ball = (z - 6) ** 2 + (y - 6) ** 2 + (x - 6) ** 2 <= 16
    m.data[:] = ball
    band = bowel_wall(m, FACE6, 1, 1)
    expected = dilate_naive(ball, FACE6, 1) ^ erode_naive(ball, FACE6, 1)
    assert np.array_equal(band.data, expected)
    assert band.data.any()


def test_bowel_wall_empty_input():
    m = make_grid(Dims(5, 5, 5), ISO, False)
    assert not np.any(bowel_wall(m, FACE6, 1, 1).data)


def test_bowel_wall_misses_deep_interior(rng):
    m = make_grid(Dims(12, 12, 12), ISO, False)
    m.data[2:10, 2:10, 2:10] = True
    for r_in in (1, 2):
        band = bowel_wall(m, FACE6, 1, r_in)
        deep = erode_naive(m.data, FACE6, r_in + 1)
        assert not np.any(band.data & deep)


def test_bowel_wall_covers_tube_phantom_wall():
    # hollow-tube style check with fully analytic geometry: a straight tube
    # along z with a known wall shell; the band must cover >= 99% of it
    dims = Dims(9, 21, 21)
    spacing = Spacing(1.0, 1.0, 1.0)
    y, x = np.ogrid[:21, :21]
    r = np.sqrt((y - 10.0) ** 2 + (x - 10.0) ** 2)
    tube = np.broadcast_to(r <= 6.0, (9, 21, 21)).copy()
    wall = np.broadcast_to((r <= 6.0) & (r >= 6.0 - 2.0), (9, 21, 21)).copy()
    ooi = VoxelGrid(tube, spacing)
    # erode deeper than the wall is thick so the whole shell lands in the band
    band = bowel_wall(ooi, FACE6, r_out=1, r_in=3)
    covered = (band.data & wall).sum() / wall.sum()
    assert covered >= 0.99
