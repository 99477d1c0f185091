"""Detection decoding: confidence filtering + NMS → final detections.

The inference-side complement of the mini-YOLO head: takes raw per-cell
predictions, thresholds objectness, runs greedy NMS (IoU 0.7, the paper's
setting) and returns :class:`Detection` records in image coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ...errors import ModelError
from ...geometry.bbox import BBox, clip_boxes
from ...geometry.nms import nms


@dataclass(frozen=True)
class Detection:
    """One detected vest instance."""

    box: BBox
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ModelError(f"score {self.score} outside [0, 1]")


def decode_predictions(scores: np.ndarray, boxes: np.ndarray,
                       image_size: int,
                       conf_threshold: float = 0.5,
                       iou_threshold: float = 0.7,
                       max_detections: int = 10) -> List[List[Detection]]:
    """Batch decode: per-image list of NMS-filtered detections.

    ``scores`` is ``(N, P)``, ``boxes`` is ``(N, P, 4)`` as produced by
    :meth:`MiniYolo.decode`.
    """
    if scores.ndim != 2 or boxes.shape != scores.shape + (4,):
        raise ModelError(
            f"decode shapes mismatch: scores {scores.shape}, boxes "
            f"{boxes.shape}")
    if not 0.0 < conf_threshold < 1.0:
        raise ModelError(
            f"conf_threshold must be in (0, 1), got {conf_threshold}")
    if max_detections < 1:
        raise ModelError(
            f"max_detections must be >= 1, got {max_detections}")
    out: List[List[Detection]] = []
    for i in range(scores.shape[0]):
        keep_mask = scores[i] >= conf_threshold
        if not keep_mask.any():
            out.append([])
            continue
        s = scores[i][keep_mask]
        b = clip_boxes(boxes[i][keep_mask], image_size, image_size)
        # Drop boxes that clipping degenerated.
        good = (b[:, 2] - b[:, 0] > 0.5) & (b[:, 3] - b[:, 1] > 0.5)
        s, b = s[good], b[good]
        if len(s) == 0:
            out.append([])
            continue
        keep = nms(b, s, iou_threshold, max_keep=max_detections)
        out.append([
            Detection(BBox(*b[j], cls=0, conf=float(s[j])),
                      score=float(s[j]))
            for j in keep
        ])
    return out


def best_detection(dets: Sequence[Detection]) -> Detection:
    """Highest-scoring detection (the VIP is unique per frame)."""
    if not dets:
        raise ModelError("no detections to choose from")
    return max(dets, key=lambda d: d.score)
