import numpy as np
import pytest

from anatvox.grid import Dims, VoxelGrid, make_grid
from anatvox.sslmask import NoiseSpec, l1_recon_loss, mask_bowel_wall

from conftest import ISO, bool_grid, random_mask


def _image(rng, shape=(6, 6, 6)):
    return VoxelGrid(rng.standard_normal(shape), ISO)


def test_noise_spec_rejects_negative_stddev():
    with pytest.raises(ValueError):
        NoiseSpec(stddev=-1.0)


def test_empty_band_is_identity(rng):
    x = _image(rng)
    band = make_grid(Dims(6, 6, 6), ISO, False)
    out = mask_bowel_wall(x, band, NoiseSpec(seed=1))
    assert np.array_equal(out.data, x.data)


def test_zero_stddev_fills_with_mean(rng):
    x = _image(rng)
    band = bool_grid(random_mask(rng, (6, 6, 6), 0.4))
    out = mask_bowel_wall(x, band, NoiseSpec(mean=2.5, stddev=0.0, seed=3))
    assert np.all(out.data[band.data] == 2.5)
    assert np.array_equal(out.data[~band.data], x.data[~band.data])


def test_full_band_noise_statistics():
    x = make_grid(Dims(32, 32, 32), ISO, 0.0)
    band = make_grid(Dims(32, 32, 32), ISO, True)
    out = mask_bowel_wall(x, band, NoiseSpec(mean=0.0, stddev=1.0, seed=77))
    n = out.data.size
    assert abs(out.data.mean()) < 5.0 / np.sqrt(n)
    assert abs(out.data.std() - 1.0) < 0.02


def test_masking_is_deterministic_and_outside_untouched(rng):
    x = _image(rng)
    band = bool_grid(random_mask(rng, (6, 6, 6), 0.3))
    a = mask_bowel_wall(x, band, NoiseSpec(seed=5))
    b = mask_bowel_wall(x, band, NoiseSpec(seed=5))
    c = mask_bowel_wall(a, band, NoiseSpec(seed=6))
    assert np.array_equal(a.data, b.data)
    # re-masking with another seed only ever touches band voxels
    assert np.array_equal(c.data[~band.data], x.data[~band.data])


def test_integer_image_gets_untruncated_float_noise(rng):
    x = VoxelGrid(rng.integers(-1000, 1000, (6, 6, 6)).astype(np.int16), ISO)
    band = bool_grid(random_mask(rng, (6, 6, 6), 0.4))
    out = mask_bowel_wall(x, band, NoiseSpec(seed=8))
    assert np.issubdtype(out.data.dtype, np.floating)
    noise = out.data[band.data]
    assert np.any(noise != np.round(noise))
    assert np.array_equal(out.data[~band.data], x.data[~band.data])


def test_masking_preserves_dtype():
    x = make_grid(Dims(4, 4, 4), ISO, 0.0, dtype=np.float32)
    band = make_grid(Dims(4, 4, 4), ISO, True)
    out = mask_bowel_wall(x, band, NoiseSpec(seed=2))
    assert out.data.dtype == np.float32


def test_shape_mismatch_rejected(rng):
    x = _image(rng)
    band = make_grid(Dims(6, 6, 7), ISO, False)
    with pytest.raises(ValueError):
        mask_bowel_wall(x, band, NoiseSpec(seed=0))


def test_l1_perfect_reconstruction_is_zero(rng):
    x = _image(rng)
    assert l1_recon_loss(x, x) == 0.0


def test_l1_constant_offset():
    x = make_grid(Dims(3, 3, 3), ISO, 0.0)
    r = make_grid(Dims(3, 3, 3), ISO, -1.5)
    assert l1_recon_loss(x, r) == 1.5


def test_l1_matches_direct_sum(rng):
    a = _image(rng, (4, 4, 4))
    b = _image(rng, (4, 4, 4))
    direct = float(np.abs(a.data - b.data).sum()) / 64
    assert l1_recon_loss(a, b) == pytest.approx(direct, rel=1e-15)


def test_l1_metric_axioms(rng):
    for _ in range(15):
        a, b, c = (_image(rng, (3, 3, 3)) for _ in range(3))
        dab = l1_recon_loss(a, b)
        assert dab >= 0.0
        assert dab == l1_recon_loss(b, a)
        assert l1_recon_loss(a, a) == 0.0
        assert dab <= l1_recon_loss(a, c) + l1_recon_loss(c, b) + 1e-12
    d = _image(rng, (3, 3, 3))
    e = d.with_data(d.data.copy())
    e.data[0, 0, 0] += 1.0
    assert l1_recon_loss(d, e) > 0.0


def test_masked_volume_differs_where_band_nonempty(rng):
    x = _image(rng)
    band = bool_grid(random_mask(rng, (6, 6, 6), 0.3))
    assert band.data.any()
    out = mask_bowel_wall(x, band, NoiseSpec(seed=8))
    assert l1_recon_loss(x, out) > 0.0


def test_l1_restricted_to_mask(rng):
    a = _image(rng, (4, 4, 4))
    b = _image(rng, (4, 4, 4))
    m = bool_grid(random_mask(rng, (4, 4, 4), 0.5))
    expected = float(np.abs(a.data - b.data)[m.data].mean())
    assert l1_recon_loss(a, b, restrict_to=m) == pytest.approx(expected, rel=1e-15)
    empty = make_grid(Dims(4, 4, 4), ISO, False)
    with pytest.raises(ValueError):
        l1_recon_loss(a, b, restrict_to=empty)
