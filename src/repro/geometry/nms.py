"""Non-maximum suppression kernels.

The YOLO single-shot heads emit one candidate per grid cell; NMS collapses
duplicates before evaluation.  Greedy NMS is sequential in its outer loop,
so the kernel hoists all IoU work out of it: one ``(N, N)`` overlap matrix
of the score-sorted boxes, then one boolean row-OR per kept box.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import AnnotationError
from .bbox import iou_matrix


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_threshold: float = 0.7,
        max_keep: Optional[int] = None) -> np.ndarray:
    """Greedy NMS; returns indices of kept boxes in descending score order.

    Parameters mirror the paper's training setup (IoU threshold 0.7,
    §3.1).  ``boxes`` is ``(N, 4)`` ``xyxy``; ``scores`` is ``(N,)``.
    Ties in score keep input order.  ``max_keep`` stops the walk once
    that many boxes are kept, so ``nms(..., max_keep=k)`` equals
    ``nms(...)[:k]``.

    The kernel builds the full ``(N, N)`` boolean overlap matrix, so
    memory is O(N²).  Detector decoding passes at most one candidate per
    grid cell (G² = 64 for the mini models), tens of KiB; callers with
    thousands of candidates should pre-filter by score.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise AnnotationError(f"expected (N, 4) boxes, got {boxes.shape}")
    if scores.shape != (boxes.shape[0],):
        raise AnnotationError(
            f"scores shape {scores.shape} does not match {boxes.shape[0]} "
            "boxes")
    if not 0.0 < iou_threshold <= 1.0:
        raise AnnotationError(
            f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if max_keep is not None and max_keep < 1:
        raise AnnotationError(f"max_keep must be >= 1, got {max_keep}")
    n = len(boxes)
    if n == 0:
        return np.zeros((0,), dtype=np.intp)

    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    # over[p, q]: the p-th ranked box suppresses the q-th.
    over = iou_matrix(ranked, ranked) > iou_threshold
    limit = n if max_keep is None else min(max_keep, n)
    suppressed = np.zeros(n, dtype=bool)
    keep: List[int] = []
    for pos in range(n):
        if suppressed[pos]:
            continue
        keep.append(pos)
        if len(keep) == limit:
            break
        suppressed |= over[pos]
    return order[keep]


def batched_nms(boxes: np.ndarray, scores: np.ndarray, classes: np.ndarray,
                iou_threshold: float = 0.7) -> np.ndarray:
    """Class-aware NMS: boxes of different classes never suppress each other.

    Implemented with the coordinate-offset trick (each class's boxes are
    translated by a multiple of the coordinate span, ``max - min + 1``,
    into a disjoint region) so a single :func:`nms` call suffices.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    classes = np.asarray(classes)
    if classes.shape != (boxes.shape[0],):
        raise AnnotationError(
            f"classes shape {classes.shape} does not match boxes")
    if boxes.size == 0:
        return np.zeros((0,), dtype=np.intp)
    span = float(boxes.max()) - float(boxes.min()) + 1.0
    offsets = classes.astype(np.float64)[:, None] * span
    return nms(boxes + offsets, scores, iou_threshold)
