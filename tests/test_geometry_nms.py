"""Tests for NMS: the matrix kernel against the greedy loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnnotationError
from repro.geometry.bbox import box_area, iou_matrix
from repro.geometry.nms import batched_nms, nms


def _boxes(n, rng):
    xy = rng.uniform(0, 50, size=(n, 2))
    wh = rng.uniform(2, 20, size=(n, 2))
    return np.concatenate([xy, xy + wh], axis=1)


def _greedy_nms(boxes, scores, iou_threshold):
    """Reference: the per-kept-box rescan loop the matrix kernel replaced."""
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(boxes)
    order = np.argsort(-scores, kind="stable")
    suppressed = np.zeros(n, dtype=bool)
    keep = []
    areas = box_area(boxes)
    for pos in range(n):
        i = order[pos]
        if suppressed[i]:
            continue
        keep.append(i)
        rest = order[pos + 1:]
        rest = rest[~suppressed[rest]]
        if rest.size == 0:
            continue
        lt = np.maximum(boxes[i, :2], boxes[rest, :2])
        rb = np.minimum(boxes[i, 2:], boxes[rest, 2:])
        wh = np.clip(rb - lt, 0.0, None)
        inter = wh[:, 0] * wh[:, 1]
        union = areas[i] + areas[rest] - inter
        iou = np.where(union > 0.0, inter / np.maximum(union, 1e-12), 0.0)
        suppressed[rest[iou > iou_threshold]] = True
    return np.asarray(keep, dtype=np.intp)


_COORD = st.integers(0, 40).map(float) | st.floats(0.0, 40.0)
_EXTENT = st.just(0.0) | st.integers(1, 20).map(float) | st.floats(0.0, 20.0)
_SCORE = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)
_THRESHOLD = st.sampled_from([0.3, 0.5, 0.7, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def _nms_case(draw):
    """Boxes drawn from a small template pool (duplicates), with
    zero-width/height templates, scores from a small set (exact ties)."""
    n = draw(st.integers(1, 24))
    templates = []
    for _ in range(draw(st.integers(1, n))):
        x, y = draw(_COORD), draw(_COORD)
        templates.append([x, y, x + draw(_EXTENT), y + draw(_EXTENT)])
    picks = draw(st.lists(st.integers(0, len(templates) - 1),
                          min_size=n, max_size=n))
    boxes = np.array([templates[k] for k in picks])
    scores = np.array(draw(st.lists(_SCORE, min_size=n, max_size=n)))
    return boxes, scores, draw(_THRESHOLD)


class TestNms:
    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)).tolist() == []

    def test_single_box_kept(self):
        keep = nms(np.array([[0, 0, 10, 10.0]]), np.array([0.9]))
        assert keep.tolist() == [0]

    def test_duplicates_suppressed(self):
        boxes = np.array([[0, 0, 10, 10.0], [0.5, 0.5, 10.5, 10.5],
                          [30, 30, 40, 40.0]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert keep.tolist() == [0, 2]

    def test_keeps_highest_score_of_cluster(self):
        boxes = np.array([[0, 0, 10, 10.0], [0, 0, 10, 10.0]])
        scores = np.array([0.3, 0.9])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert keep.tolist() == [1]

    def test_threshold_validation(self):
        with pytest.raises(AnnotationError):
            nms(np.zeros((1, 4)) + [[0, 0, 1, 1]], np.array([1.0]),
                iou_threshold=0.0)

    def test_score_shape_validation(self):
        with pytest.raises(AnnotationError):
            nms(np.array([[0, 0, 1, 1.0]]), np.array([0.5, 0.6]))

    @given(st.integers(1, 30), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_kept_boxes_mutually_below_threshold(self, n, seed):
        rng = np.random.default_rng(seed)
        boxes = _boxes(n, rng)
        scores = rng.random(n)
        keep = nms(boxes, scores, iou_threshold=0.5)
        kept = boxes[keep]
        m = iou_matrix(kept, kept)
        np.fill_diagonal(m, 0.0)
        assert np.all(m <= 0.5 + 1e-9)

    @given(st.integers(1, 30), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_output_sorted_by_score(self, n, seed):
        rng = np.random.default_rng(seed)
        boxes = _boxes(n, rng)
        scores = rng.random(n)
        keep = nms(boxes, scores, iou_threshold=0.6)
        kept_scores = scores[keep]
        assert np.all(np.diff(kept_scores) <= 1e-12)


class TestMatchesGreedyLoop:
    @given(_nms_case())
    @settings(max_examples=200, deadline=None)
    def test_identical_indices(self, case):
        boxes, scores, thr = case
        keep = nms(boxes, scores, thr)
        assert keep.dtype == np.intp
        assert keep.tolist() == _greedy_nms(boxes, scores, thr).tolist()

    @given(_nms_case())
    @settings(max_examples=60, deadline=None)
    def test_every_max_keep_is_a_prefix(self, case):
        boxes, scores, thr = case
        full = nms(boxes, scores, thr).tolist()
        ref = _greedy_nms(boxes, scores, thr).tolist()
        for k in range(1, len(boxes) + 1):
            capped = nms(boxes, scores, thr, max_keep=k).tolist()
            assert capped == full[:k] == ref[:k]

    @pytest.mark.parametrize("seed", range(8))
    def test_detector_sized_load(self, seed):
        # 64 candidates (one per cell of an 8x8 grid), scores rounded to
        # two decimals so ties are common.
        rng = np.random.default_rng(seed)
        boxes = _boxes(64, rng)
        scores = np.round(rng.random(64), 2)
        for thr in (0.3, 0.7, 1.0):
            ref = _greedy_nms(boxes, scores, thr).tolist()
            assert nms(boxes, scores, thr).tolist() == ref
            assert nms(boxes, scores, thr, max_keep=10).tolist() == ref[:10]

    def test_threshold_one_keeps_duplicates(self):
        boxes = np.array([[0, 0, 10, 10.0]] * 3)
        keep = nms(boxes, np.array([0.5, 0.5, 0.5]), iou_threshold=1.0)
        assert keep.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("max_keep", [0, -1])
    def test_max_keep_below_one_rejected(self, max_keep):
        with pytest.raises(AnnotationError):
            nms(np.array([[0, 0, 1, 1.0]]), np.array([0.5]),
                max_keep=max_keep)
        with pytest.raises(AnnotationError):
            nms(np.zeros((0, 4)), np.zeros(0), max_keep=max_keep)


class TestBatchedNms:
    def test_classes_do_not_suppress_each_other(self):
        boxes = np.array([[0, 0, 10, 10.0], [0, 0, 10, 10.0]])
        scores = np.array([0.9, 0.8])
        classes = np.array([0, 1])
        keep = batched_nms(boxes, scores, classes, iou_threshold=0.5)
        assert sorted(keep.tolist()) == [0, 1]

    def test_same_class_suppressed(self):
        boxes = np.array([[0, 0, 10, 10.0], [0, 0, 10, 10.0]])
        keep = batched_nms(boxes, np.array([0.9, 0.8]),
                           np.array([0, 0]), iou_threshold=0.5)
        assert keep.tolist() == [0]

    def test_negative_coordinates_keep_classes_apart(self):
        # Offsetting class 1 by max + 1 = 6 would land this pair on top
        # of each other; the coordinate span keeps them disjoint.
        boxes = np.array([[-30, -30, 5, 5.0], [-36, -36, -1, -1.0]])
        keep = batched_nms(boxes, np.array([0.9, 0.8]), np.array([0, 1]),
                           iou_threshold=0.5)
        assert sorted(keep.tolist()) == [0, 1]

    def test_empty(self):
        assert batched_nms(np.zeros((0, 4)), np.zeros(0),
                           np.zeros(0)).tolist() == []

    def test_class_shape_validation(self):
        with pytest.raises(AnnotationError):
            batched_nms(np.array([[0, 0, 1, 1.0]]), np.array([0.5]),
                        np.array([0, 1]))
