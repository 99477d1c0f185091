"""Tests (incl. property-based) for bounding boxes and IoU kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnnotationError
from repro.geometry.bbox import (BBox, array_to_boxes, box_area,
                                 boxes_to_array, clip_boxes,
                                 cxcywh_to_xyxy, denormalize_boxes,
                                 iou_matrix, normalize_boxes,
                                 pairwise_iou, xyxy_to_cxcywh)


def boxes_strategy(max_coord=100.0):
    return st.tuples(
        st.floats(0, max_coord - 2), st.floats(0, max_coord - 2),
        st.floats(1.0, max_coord), st.floats(1.0, max_coord),
    ).map(lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestBBox:
    def test_basic_properties(self):
        b = BBox(10, 20, 30, 60)
        assert b.width == 20
        assert b.height == 40
        assert b.area == 800
        assert b.center == (20, 40)

    def test_degenerate_rejected(self):
        with pytest.raises(AnnotationError):
            BBox(10, 10, 10, 20)
        with pytest.raises(AnnotationError):
            BBox(10, 10, 20, 5)

    def test_bad_confidence_rejected(self):
        with pytest.raises(AnnotationError):
            BBox(0, 0, 1, 1, conf=1.5)

    def test_scaled(self):
        b = BBox(10, 10, 20, 20).scaled(2.0, 0.5)
        assert b.as_tuple() == (20, 5, 40, 10)

    def test_shifted(self):
        b = BBox(10, 10, 20, 20).shifted(5, -5)
        assert b.as_tuple() == (15, 5, 25, 15)

    def test_self_iou_is_one(self):
        b = BBox(5, 5, 15, 25)
        assert b.iou(b) == pytest.approx(1.0)

    def test_disjoint_iou_zero(self):
        assert BBox(0, 0, 10, 10).iou(BBox(20, 20, 30, 30)) == 0.0

    def test_known_overlap(self):
        # Half-overlapping unit squares: inter=0.5, union=1.5.
        a = BBox(0, 0, 1, 1)
        b = BBox(0.5, 0, 1.5, 1)
        assert a.iou(b) == pytest.approx(1.0 / 3.0)


class TestArrays:
    def test_roundtrip(self):
        boxes = [BBox(0, 0, 5, 5), BBox(1, 2, 3, 4)]
        arr = boxes_to_array(boxes)
        back = array_to_boxes(arr)
        assert [b.as_tuple() for b in back] == \
            [b.as_tuple() for b in boxes]

    def test_empty(self):
        assert boxes_to_array([]).shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(AnnotationError):
            array_to_boxes(np.zeros((3, 3)))

    def test_conf_count_mismatch(self):
        with pytest.raises(AnnotationError):
            array_to_boxes(np.array([[0, 0, 1, 1]]), confs=[0.5, 0.6])

    def test_box_area_vectorised(self):
        arr = np.array([[0, 0, 2, 3], [1, 1, 4, 5]], dtype=float)
        assert box_area(arr).tolist() == [6.0, 12.0]


class TestIouMatrix:
    def test_shape(self):
        a = boxes_to_array([BBox(0, 0, 1, 1)] * 3)
        b = boxes_to_array([BBox(0, 0, 1, 1)] * 5)
        assert iou_matrix(a, b).shape == (3, 5)

    def test_empty_inputs(self):
        a = boxes_to_array([BBox(0, 0, 1, 1)])
        assert iou_matrix(a, np.zeros((0, 4))).shape == (1, 0)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_bitwise_equal_to_pairwise(self, n, m, seed):
        # Every entry is computed as pairwise_iou computes that pair
        # (zero-area boxes included), so NMS on either agrees exactly.
        rng = np.random.default_rng(seed)
        boxes = np.round(rng.uniform(0, 30, size=(n + m, 4)), 1)
        boxes[:, 2:] = boxes[:, :2] + np.where(
            rng.random((n + m, 2)) < 0.2, 0.0, boxes[:, 2:])
        a, b = boxes[:n], boxes[n:]
        pairs = pairwise_iou(np.repeat(a, m, axis=0), np.tile(b, (n, 1)))
        assert iou_matrix(a, b).tobytes() == pairs.reshape(n, m).tobytes()

    @given(st.lists(boxes_strategy(), min_size=1, max_size=6),
           st.lists(boxes_strategy(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, bs1, bs2):
        a, b = boxes_to_array(bs1), boxes_to_array(bs2)
        m = iou_matrix(a, b)
        assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-9)
        assert np.allclose(m, iou_matrix(b, a).T)

    @given(st.lists(boxes_strategy(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_is_one(self, bs):
        a = boxes_to_array(bs)
        assert np.allclose(np.diag(iou_matrix(a, a)), 1.0)

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=50, deadline=None)
    def test_pairwise_matches_matrix(self, b1, b2):
        a = boxes_to_array([b1])
        b = boxes_to_array([b2])
        assert pairwise_iou(a, b)[0] == pytest.approx(
            iou_matrix(a, b)[0, 0])

    def test_pairwise_shape_mismatch(self):
        with pytest.raises(AnnotationError):
            pairwise_iou(np.zeros((2, 4)), np.zeros((3, 4)))


class TestConversions:
    @given(st.lists(boxes_strategy(), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cxcywh_roundtrip(self, bs):
        arr = boxes_to_array(bs)
        assert np.allclose(cxcywh_to_xyxy(xyxy_to_cxcywh(arr)), arr,
                           atol=1e-9)

    @given(st.lists(boxes_strategy(max_coord=50), min_size=1,
                    max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_normalize_roundtrip(self, bs):
        arr = boxes_to_array(bs)
        norm = normalize_boxes(arr, 100, 80)
        assert np.allclose(denormalize_boxes(norm, 100, 80), arr)

    def test_normalize_bad_size(self):
        with pytest.raises(AnnotationError):
            normalize_boxes(np.zeros((1, 4)), 0, 10)

    def test_clip(self):
        arr = np.array([[-5.0, -5.0, 120.0, 90.0]])
        clipped = clip_boxes(arr, 100, 80)
        assert clipped.tolist() == [[0.0, 0.0, 100.0, 80.0]]

    def test_clip_does_not_mutate_input(self):
        arr = np.array([[-5.0, 0.0, 10.0, 10.0]])
        clip_boxes(arr, 8, 8)
        assert arr[0, 0] == -5.0
