"""Core raster operations (resize, crop, rotate, blur, photometric).

These substitute for the OpenCV/PIL operations the paper's pipeline uses
implicitly (moviepy frame extraction, Ultralytics letterbox preprocessing)
and provide the corruption primitives behind the adversarial dataset
(low light, blur, cropping, tilt — paper Table 1, row 5).

All kernels operate on float32 RGB ``(H, W, 3)`` arrays in ``[0, 1]`` and
are vectorised; separable convolution is used for Gaussian blur.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ConfigError


def validate_image(img: np.ndarray, name: str = "image") -> np.ndarray:
    """Check dtype/shape/range conventions; returns the array unchanged."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ConfigError(f"{name} must be (H, W, 3), got {img.shape}")
    if img.dtype != np.float32:
        raise ConfigError(f"{name} must be float32, got {img.dtype}")
    return img


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Float [0, 1] RGB → uint8 (export path)."""
    return (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def from_uint8(img: np.ndarray) -> np.ndarray:
    """uint8 RGB → float32 [0, 1]."""
    return np.asarray(img, dtype=np.float32) / 255.0


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize via fancy indexing (pure views + gather)."""
    if out_h <= 0 or out_w <= 0:
        raise ConfigError(f"bad output size {out_h}x{out_w}")
    h, w = img.shape[:2]
    rows = np.minimum((np.arange(out_h) * (h / out_h)).astype(np.intp), h - 1)
    cols = np.minimum((np.arange(out_w) * (w / out_w)).astype(np.intp), w - 1)
    return np.ascontiguousarray(img[rows[:, None], cols[None, :]])


class _BilinearGrid(NamedTuple):
    """Source rows/columns and weights of one bilinear resize."""

    y0: np.ndarray
    y1: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    wy: np.ndarray       # (out_h, 1, 1)
    wy_rest: np.ndarray  # 1 - wy
    wx: np.ndarray       # (1, out_w, 1)
    wx_rest: np.ndarray  # 1 - wx


@lru_cache(maxsize=64)
def _bilinear_grid(h: int, w: int, out_h: int, out_w: int) -> _BilinearGrid:
    """Align-corners=False sampling grid, built once per shape pair.

    A stream letterboxes every frame at one shape, so the grid is
    reused frame after frame.  The arrays are shared by every caller
    and therefore read-only.
    """
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    wy = (ys - y0).astype(np.float32)[:, None, None]
    wx = (xs - x0).astype(np.float32)[None, :, None]
    grid = _BilinearGrid(y0, np.minimum(y0 + 1, h - 1),
                         x0, np.minimum(x0 + 1, w - 1),
                         wy, 1 - wy, wx, 1 - wx)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize, vectorised over the full output grid.

    Gathers the two source rows of every output row first, then the
    columns within those rows, each with a one-axis ``take`` rather
    than a 2-D fancy index.
    """
    if out_h <= 0 or out_w <= 0:
        raise ConfigError(f"bad output size {out_h}x{out_w}")
    img = np.asarray(img, dtype=np.float32)
    h, w = img.shape[:2]
    g = _bilinear_grid(h, w, out_h, out_w)
    top_rows, bot_rows = img.take(g.y0, axis=0), img.take(g.y1, axis=0)
    top = top_rows.take(g.x0, axis=1) * g.wx_rest \
        + top_rows.take(g.x1, axis=1) * g.wx
    bot = bot_rows.take(g.x0, axis=1) * g.wx_rest \
        + bot_rows.take(g.x1, axis=1) * g.wx
    return top * g.wy_rest + bot * g.wy


def letterbox(img: np.ndarray, size: int,
              pad_value: float = 0.447) -> Tuple[np.ndarray, float,
                                                 Tuple[int, int]]:
    """Aspect-preserving resize + pad to a square, Ultralytics-style.

    Returns ``(square_image, scale, (pad_x, pad_y))`` so annotations can
    be mapped into the model's coordinate frame:
    ``x' = x * scale + pad_x``.
    """
    if size <= 0:
        raise ConfigError(f"letterbox size must be positive, got {size}")
    h, w = img.shape[:2]
    scale = min(size / h, size / w)
    new_h, new_w = max(1, round(h * scale)), max(1, round(w * scale))
    resized = resize_bilinear(img, new_h, new_w)
    out = np.full((size, size, 3), pad_value, dtype=np.float32)
    pad_y = (size - new_h) // 2
    pad_x = (size - new_w) // 2
    out[pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    return out, scale, (pad_x, pad_y)


def crop(img: np.ndarray, x1: int, y1: int, x2: int, y2: int) -> np.ndarray:
    """Crop with bounds checking; returns a copy (safe for later writes)."""
    h, w = img.shape[:2]
    if not (0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h):
        raise ConfigError(
            f"crop ({x1},{y1},{x2},{y2}) outside image {w}x{h}")
    return img[y1:y2, x1:x2].copy()


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = max(1, int(3.0 * sigma + 0.5))
    xs = np.arange(-radius, radius + 1, dtype=np.float32)
    k = np.exp(-(xs ** 2) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur (two 1-D passes; reflect padding).

    Separability turns an O(r^2) 2-D convolution into two O(r) passes —
    the standard HPC trick for isotropic kernels.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        return img.copy()
    k = _gaussian_kernel1d(sigma)
    r = len(k) // 2
    # Horizontal pass.
    padded = np.pad(img, ((0, 0), (r, r), (0, 0)), mode="reflect")
    out = np.zeros_like(img, dtype=np.float32)
    for i, kv in enumerate(k):  # loop over small kernel, not pixels
        out += kv * padded[:, i:i + img.shape[1]]
    # Vertical pass.
    padded = np.pad(out, ((r, r), (0, 0), (0, 0)), mode="reflect")
    out2 = np.zeros_like(img, dtype=np.float32)
    for i, kv in enumerate(k):
        out2 += kv * padded[i:i + img.shape[0]]
    return out2


def rotate(img: np.ndarray, degrees: float,
           fill: float = 0.0) -> np.ndarray:
    """Rotate about the image centre (inverse-mapped nearest sampling).

    Used for the 'tilted orientation' adversarial condition; small angles
    (±15°) model drone roll during flight.
    """
    theta = np.deg2rad(degrees)
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float32),
                         np.arange(w, dtype=np.float32), indexing="ij")
    # Inverse rotation: for each output pixel, find its source.
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_x = cos_t * (xs - cx) + sin_t * (ys - cy) + cx
    src_y = -sin_t * (xs - cx) + cos_t * (ys - cy) + cy
    sx = np.round(src_x).astype(np.intp)
    sy = np.round(src_y).astype(np.intp)
    valid = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
    out = np.full_like(img, fill)
    out[valid] = img[sy[valid], sx[valid]]
    return out


def adjust_brightness(img: np.ndarray, factor: float) -> np.ndarray:
    """Multiply luminance by ``factor`` (``<1`` simulates low light)."""
    if factor < 0:
        raise ConfigError(f"brightness factor must be >= 0, got {factor}")
    return np.clip(img * factor, 0.0, 1.0).astype(np.float32)


def adjust_contrast(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale deviation from the mean luminance by ``factor``."""
    if factor < 0:
        raise ConfigError(f"contrast factor must be >= 0, got {factor}")
    mean = img.mean(axis=(0, 1), keepdims=True)
    return np.clip(mean + (img - mean) * factor, 0.0, 1.0).astype(np.float32)


def add_noise(img: np.ndarray, sigma: float,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Additive Gaussian sensor noise (stronger in low-light frames)."""
    if sigma < 0:
        raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return img.copy()
    gen = rng if rng is not None else np.random.default_rng(0)
    noise = gen.normal(0.0, sigma, size=img.shape).astype(np.float32)
    return np.clip(img + noise, 0.0, 1.0)
