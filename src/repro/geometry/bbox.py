"""Axis-aligned bounding boxes and vectorised IoU kernels.

Boxes follow the annotation convention of the paper's Roboflow export:
top-left and bottom-right corners in pixel coordinates (``xyxy``).  All
batch operations are fully vectorised over ``(N, 4)`` float arrays — the
detector evaluation over 23k+ test images runs these kernels in bulk, so
no Python-level loops are allowed here (HPC guide: vectorise; views, not
copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import AnnotationError


@dataclass(frozen=True)
class BBox:
    """A single annotation box (``xyxy`` pixels) with class and confidence.

    ``cls`` follows the dataset taxonomy (0 = hazard vest / VIP).  For
    ground-truth boxes ``conf`` is 1.0.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    cls: int = 0
    conf: float = 1.0

    def __post_init__(self) -> None:
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise AnnotationError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, "
                f"{self.y2}): corners must satisfy x2 > x1, y2 > y1")
        if not 0.0 <= self.conf <= 1.0:
            raise AnnotationError(f"confidence {self.conf} outside [0, 1]")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def iou(self, other: "BBox") -> float:
        """IoU with another box (scalar convenience wrapper)."""
        m = iou_matrix(boxes_to_array([self]), boxes_to_array([other]))
        return float(m[0, 0])

    def scaled(self, sx: float, sy: float) -> "BBox":
        """Box scaled by per-axis factors (e.g. after letterbox resize)."""
        return BBox(self.x1 * sx, self.y1 * sy, self.x2 * sx, self.y2 * sy,
                    self.cls, self.conf)

    def shifted(self, dx: float, dy: float) -> "BBox":
        """Box translated by ``(dx, dy)`` pixels."""
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy,
                    self.cls, self.conf)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def boxes_to_array(boxes: Sequence[BBox]) -> np.ndarray:
    """Pack boxes into an ``(N, 4)`` float64 ``xyxy`` array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray([b.as_tuple() for b in boxes], dtype=np.float64)


def array_to_boxes(arr: np.ndarray, cls: int = 0,
                   confs: Iterable[float] = ()) -> List[BBox]:
    """Unpack an ``(N, 4)`` array (optionally with confidences) to boxes."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise AnnotationError(f"expected (N, 4) array, got {arr.shape}")
    conf_list = list(confs) if confs else [1.0] * len(arr)
    if len(conf_list) != len(arr):
        raise AnnotationError(
            f"{len(conf_list)} confidences for {len(arr)} boxes")
    return [BBox(*row, cls=cls, conf=c) for row, c in zip(arr, conf_list)]


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Vectorised area of ``(N, 4)`` ``xyxy`` boxes."""
    boxes = np.asarray(boxes, dtype=np.float64)
    return ((boxes[..., 2] - boxes[..., 0])
            * (boxes[..., 3] - boxes[..., 1]))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box sets: ``(N, 4) x (M, 4) -> (N, M)``.

    Fully broadcast.  The corners are laid out coordinate-major,
    ``(2, N, M)``, so every ufunc runs a contiguous inner loop over
    ``M`` instead of a length-2 one; each pair's arithmetic is the same
    as in :func:`pairwise_iou`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    at = np.ascontiguousarray(a.T)[:, :, None]        # (4, N, 1)
    bt = np.ascontiguousarray(b.T)[:, None, :]        # (4, 1, M)
    lt = np.maximum(at[:2], bt[:2])                   # (2, N, M)
    rb = np.minimum(at[2:], bt[2:])                   # (2, N, M)
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[0] * wh[1]
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    # union == 0 only for degenerate boxes; guard division.
    return np.where(union > 0.0, inter / np.maximum(union, 1e-12), 0.0)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise IoU of aligned box arrays: ``(N, 4) x (N, 4) -> (N,)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise AnnotationError(
            f"pairwise_iou shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return np.zeros((0,), dtype=np.float64)
    lt = np.maximum(a[:, :2], b[:, :2])
    rb = np.minimum(a[:, 2:], b[:, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[:, 0] * wh[:, 1]
    union = box_area(a) + box_area(b) - inter
    return np.where(union > 0.0, inter / np.maximum(union, 1e-12), 0.0)


def xyxy_to_cxcywh(boxes: np.ndarray) -> np.ndarray:
    """Corners → (center-x, center-y, width, height)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    out = np.empty_like(boxes)
    out[..., 0] = 0.5 * (boxes[..., 0] + boxes[..., 2])
    out[..., 1] = 0.5 * (boxes[..., 1] + boxes[..., 3])
    out[..., 2] = boxes[..., 2] - boxes[..., 0]
    out[..., 3] = boxes[..., 3] - boxes[..., 1]
    return out


def cxcywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """(center-x, center-y, width, height) → corners."""
    boxes = np.asarray(boxes, dtype=np.float64)
    out = np.empty_like(boxes)
    half_w = 0.5 * boxes[..., 2]
    half_h = 0.5 * boxes[..., 3]
    out[..., 0] = boxes[..., 0] - half_w
    out[..., 1] = boxes[..., 1] - half_h
    out[..., 2] = boxes[..., 0] + half_w
    out[..., 3] = boxes[..., 1] + half_h
    return out


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clip ``xyxy`` boxes to image bounds (returns a new array)."""
    boxes = np.asarray(boxes, dtype=np.float64).copy()
    boxes[..., 0::2] = np.clip(boxes[..., 0::2], 0.0, width)
    boxes[..., 1::2] = np.clip(boxes[..., 1::2], 0.0, height)
    return boxes


def normalize_boxes(boxes: np.ndarray, width: float,
                    height: float) -> np.ndarray:
    """Pixel ``xyxy`` → normalised [0, 1] coordinates (YOLO label format)."""
    boxes = np.asarray(boxes, dtype=np.float64).copy()
    if width <= 0 or height <= 0:
        raise AnnotationError(f"bad image size {width}x{height}")
    boxes[..., 0::2] /= width
    boxes[..., 1::2] /= height
    return boxes


def denormalize_boxes(boxes: np.ndarray, width: float,
                      height: float) -> np.ndarray:
    """Normalised [0, 1] ``xyxy`` → pixel coordinates."""
    boxes = np.asarray(boxes, dtype=np.float64).copy()
    boxes[..., 0::2] *= width
    boxes[..., 1::2] *= height
    return boxes
