"""Tests for raster operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.image import ops


def make_image(h=32, w=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w, 3)).astype(np.float32)


def seed_resize_bilinear(img, out_h, out_w):
    """Reference: the per-call grid and 2-D gathers the cached grid
    replaced."""
    img = np.asarray(img, dtype=np.float32)
    h, w = img.shape[:2]
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[:, None, None]
    wx = (xs - x0).astype(np.float32)[None, :, None]
    top = img[y0[:, None], x0[None, :]] * (1 - wx) \
        + img[y0[:, None], x1[None, :]] * wx
    bot = img[y1[:, None], x0[None, :]] * (1 - wx) \
        + img[y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestValidate:
    def test_accepts_valid(self):
        img = make_image()
        assert ops.validate_image(img) is img

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ConfigError):
            ops.validate_image(np.zeros((4, 4), dtype=np.float32))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ConfigError):
            ops.validate_image(np.zeros((4, 4, 3)))


class TestUint8Roundtrip:
    def test_roundtrip_close(self):
        img = make_image()
        back = ops.from_uint8(ops.to_uint8(img))
        assert np.allclose(back, img, atol=1 / 255 + 1e-6)

    def test_clipping(self):
        img = np.full((2, 2, 3), 2.0, dtype=np.float32)
        assert ops.to_uint8(img).max() == 255


class TestResize:
    def test_nearest_shape(self):
        out = ops.resize_nearest(make_image(32, 32), 16, 48)
        assert out.shape == (16, 48, 3)

    def test_bilinear_shape(self):
        out = ops.resize_bilinear(make_image(32, 32), 64, 20)
        assert out.shape == (64, 20, 3)

    def test_bilinear_identity(self):
        img = make_image(16, 16)
        out = ops.resize_bilinear(img, 16, 16)
        assert np.allclose(out, img, atol=1e-5)

    def test_bilinear_constant_preserved(self):
        img = np.full((10, 10, 3), 0.5, dtype=np.float32)
        out = ops.resize_bilinear(img, 23, 7)
        assert np.allclose(out, 0.5, atol=1e-6)

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            ops.resize_bilinear(make_image(), 0, 10)

    @given(st.integers(8, 40), st.integers(8, 40))
    @settings(max_examples=20, deadline=None)
    def test_bilinear_range_preserved(self, h, w):
        img = make_image(16, 16, seed=1)
        out = ops.resize_bilinear(img, h, w)
        assert out.min() >= img.min() - 1e-5
        assert out.max() <= img.max() + 1e-5


class TestCachedGrid:
    @given(st.integers(1, 48), st.integers(1, 48), st.integers(1, 48),
           st.integers(1, 48), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_resize_bitwise_equal_to_seed(self, h, w, out_h, out_w, seed):
        # Covers upscale, downscale, mixed axes and 1-pixel edges.
        img = make_image(h, w, seed=seed)
        for _ in range(2):  # cold grid, then the cached one
            assert_bitwise_equal(ops.resize_bilinear(img, out_h, out_w),
                                 seed_resize_bilinear(img, out_h, out_w))

    @pytest.mark.parametrize("h, w, out_h, out_w", [
        (1, 1, 1, 1), (1, 1, 7, 5), (1, 9, 4, 1), (9, 1, 1, 4),
        (96, 128, 48, 64), (20, 30, 64, 96)])
    def test_resize_edges_bitwise_equal_to_seed(self, h, w, out_h, out_w):
        img = make_image(h, w, seed=3)
        assert_bitwise_equal(ops.resize_bilinear(img, out_h, out_w),
                             seed_resize_bilinear(img, out_h, out_w))

    @given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_letterbox_bitwise_equal_to_seed(self, h, w, size):
        img = make_image(h, w, seed=h * 97 + w)
        out, scale, (px, py) = ops.letterbox(img, size)
        new_h, new_w = max(1, round(h * scale)), max(1, round(w * scale))
        ref = np.full((size, size, 3), 0.447, dtype=np.float32)
        ref[py:py + new_h, px:px + new_w] = seed_resize_bilinear(
            img, new_h, new_w)
        assert_bitwise_equal(out, ref)

    def test_grid_is_read_only(self):
        grid = ops._bilinear_grid(6, 9, 4, 13)
        assert ops._bilinear_grid(6, 9, 4, 13) is grid
        for arr in grid:
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_output_is_writable_and_unshared(self):
        img = make_image(12, 16)
        a = ops.resize_bilinear(img, 6, 8)
        a[...] = -1.0
        b = ops.resize_bilinear(img, 6, 8)
        assert_bitwise_equal(b, seed_resize_bilinear(img, 6, 8))


class TestLetterbox:
    def test_square_output(self):
        out, scale, (px, py) = ops.letterbox(make_image(30, 60), 64)
        assert out.shape == (64, 64, 3)
        assert scale == pytest.approx(64 / 60)
        assert py > 0 and px == 0

    def test_coordinates_map(self):
        img = make_image(20, 40)
        out, scale, (px, py) = ops.letterbox(img, 64)
        # Image content occupies rows [py, py + 20*scale).
        assert py == (64 - round(20 * scale)) // 2

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            ops.letterbox(make_image(), 0)


class TestCrop:
    def test_basic(self):
        img = make_image(20, 20)
        out = ops.crop(img, 2, 4, 12, 16)
        assert out.shape == (12, 10, 3)
        assert np.array_equal(out, img[4:16, 2:12])

    def test_out_of_bounds(self):
        with pytest.raises(ConfigError):
            ops.crop(make_image(10, 10), 0, 0, 11, 5)

    def test_returns_copy(self):
        img = make_image(10, 10)
        out = ops.crop(img, 0, 0, 5, 5)
        out[...] = 0
        assert img[0, 0, 0] != 0 or img.max() > 0


class TestBlur:
    def test_zero_sigma_identity(self):
        img = make_image()
        assert np.array_equal(ops.gaussian_blur(img, 0.0), img)

    def test_reduces_variance(self):
        img = make_image()
        out = ops.gaussian_blur(img, 2.0)
        assert out.var() < img.var()

    def test_preserves_mean(self):
        img = make_image()
        out = ops.gaussian_blur(img, 1.5)
        assert out.mean() == pytest.approx(img.mean(), abs=5e-3)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            ops.gaussian_blur(make_image(), -1.0)


class TestRotate:
    def test_identity_at_zero(self):
        img = make_image()
        assert np.allclose(ops.rotate(img, 0.0), img)

    def test_360_close_to_identity(self):
        img = make_image()
        out = ops.rotate(img, 360.0)
        # Nearest-neighbour resampling: interior should match closely.
        assert np.mean(np.abs(out[4:-4, 4:-4] - img[4:-4, 4:-4])) < 0.05

    def test_corner_fill(self):
        img = np.ones((16, 16, 3), dtype=np.float32)
        out = ops.rotate(img, 45.0, fill=0.0)
        assert out[0, 0].sum() == 0.0  # corner rotated out


class TestPhotometric:
    def test_brightness_scales(self):
        img = make_image()
        out = ops.adjust_brightness(img, 0.5)
        assert np.allclose(out, img * 0.5, atol=1e-6)

    def test_brightness_clips(self):
        img = make_image()
        out = ops.adjust_brightness(img, 3.0)
        assert out.max() <= 1.0

    def test_brightness_negative_rejected(self):
        with pytest.raises(ConfigError):
            ops.adjust_brightness(make_image(), -0.1)

    def test_contrast_preserves_mean(self):
        img = make_image()
        out = ops.adjust_contrast(img, 0.5)
        assert np.allclose(out.mean(axis=(0, 1)),
                           img.mean(axis=(0, 1)), atol=0.02)

    def test_noise_zero_sigma_copy(self):
        img = make_image()
        out = ops.add_noise(img, 0.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_noise_deterministic_with_rng(self):
        img = make_image()
        a = ops.add_noise(img, 0.1, np.random.default_rng(3))
        b = ops.add_noise(img, 0.1, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_noise_range(self):
        img = make_image()
        out = ops.add_noise(img, 0.5, np.random.default_rng(0))
        assert out.min() >= 0.0 and out.max() <= 1.0
