"""Tests for the executable mini-YOLO: decode, targets, loss, training."""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError, TrainingError
from repro.geometry.bbox import BBox
from repro.models.yolo.mini import (HEAD_CHANNELS, MINI_YOLO_VARIANTS,
                                    MiniYoloConfig, build_mini_yolo)
from repro.models.yolo.postprocess import (Detection, best_detection,
                                           decode_predictions)
from repro.models.yolo.train import (DetectorTrainer, build_targets,
                                     detection_loss, frames_to_arrays)


class TestConfig:
    def test_six_variants(self):
        assert len(MINI_YOLO_VARIANTS) == 6

    def test_grid(self):
        cfg = MiniYoloConfig("yolov8", "n", 8, 1)
        assert cfg.grid == 8

    def test_stride_divisibility(self):
        with pytest.raises(ModelError):
            MiniYoloConfig("yolov8", "n", 8, 1, image_size=60)

    def test_build_unknown(self):
        with pytest.raises(ModelError):
            build_mini_yolo("yolov8", "s")


class TestForwardDecode:
    def test_forward_shape(self):
        model = build_mini_yolo("yolov8", "n", seed=1)
        x = np.zeros((2, 3, 64, 64), dtype=np.float32)
        raw = model.forward(x, training=False)
        assert raw.shape == (2, HEAD_CHANNELS, 8, 8)

    def test_wrong_size_rejected(self):
        model = build_mini_yolo("yolov8", "n", seed=1)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_decode_shapes_and_ranges(self):
        model = build_mini_yolo("yolov8", "n", seed=1)
        raw = np.random.default_rng(0).normal(
            size=(2, 5, 8, 8)).astype(np.float32)
        scores, boxes = model.decode(raw)
        assert scores.shape == (2, 64)
        assert boxes.shape == (2, 64, 4)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        assert np.all(boxes[..., 2] > boxes[..., 0])
        assert np.all(boxes[..., 3] > boxes[..., 1])

    def test_decode_center_in_cell(self):
        """σ(txy) keeps every box centre inside its own cell."""
        model = build_mini_yolo("yolov8", "n", seed=1)
        raw = np.random.default_rng(1).normal(
            size=(1, 5, 8, 8)).astype(np.float32) * 3
        _, boxes = model.decode(raw)
        centers = 0.5 * (boxes[0, :, :2] + boxes[0, :, 2:])
        gy, gx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        assert np.all(centers[:, 0] >= gx.ravel() * 8)
        assert np.all(centers[:, 0] <= (gx.ravel() + 1) * 8)


class TestTargets:
    def test_assignment(self):
        boxes = [[BBox(10, 18, 14, 30)]]  # centre (12, 24) → cell (1, 3)
        obj, box_t, pos = build_targets(boxes, grid=8, stride=8)
        assert obj[0, 3, 1] == 1.0
        assert obj.sum() == 1.0
        assert pos[0, 3, 1]
        assert box_t[0, 0, 3, 1] == pytest.approx(12 / 8 - 1)
        assert box_t[0, 2, 3, 1] == pytest.approx(np.log(4 / 8))

    def test_off_canvas_center_skipped(self):
        # Centre beyond the grid after a corruption: silently skipped.
        boxes = [[BBox(100, 100, 140, 140)]]
        obj, _, _ = build_targets(boxes, grid=8, stride=8)
        assert obj.sum() == 0.0

    def test_empty_image(self):
        obj, box_t, pos = build_targets([[]], grid=8, stride=8)
        assert obj.sum() == 0.0


class TestLoss:
    def _setup(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(2, 5, 8, 8)).astype(np.float32)
        boxes = [[BBox(10, 18, 14, 30)], []]
        obj, box_t, pos = build_targets(boxes, 8, 8)
        return raw, obj, box_t, pos

    def test_loss_positive_and_finite(self):
        raw, obj, box_t, pos = self._setup()
        loss, parts, grad = detection_loss(raw, obj, box_t, pos)
        assert loss > 0 and np.isfinite(loss)
        assert grad.shape == raw.shape
        assert set(parts) == {"obj", "txy", "twh"}

    def test_grad_zero_for_box_terms_on_negatives(self):
        raw, obj, box_t, pos = self._setup()
        _, _, grad = detection_loss(raw, obj, box_t, pos)
        # Box gradients exist only at positive cells.
        neg_mask = ~pos
        assert np.all(grad[:, 1:][np.broadcast_to(
            neg_mask[:, None], grad[:, 1:].shape)] == 0.0)

    def test_obj_grad_direction(self):
        raw, obj, box_t, pos = self._setup()
        _, _, grad = detection_loss(raw, obj, box_t, pos)
        # At the positive cell the objectness gradient pushes up
        # (negative gradient since sigmoid(raw) < 1 target).
        assert grad[0, 0, 3, 1] < 0

    def test_numeric_obj_grad(self):
        raw, obj, box_t, pos = self._setup()
        _, _, grad = detection_loss(raw, obj, box_t, pos)
        eps = 1e-3
        ix = (0, 0, 3, 1)
        rp, rm = raw.copy(), raw.copy()
        rp[ix] += eps
        rm[ix] -= eps
        lp, _, _ = detection_loss(rp, obj, box_t, pos)
        lm, _, _ = detection_loss(rm, obj, box_t, pos)
        num = (lp - lm) / (2 * eps)
        assert num == pytest.approx(float(grad[ix]), rel=5e-2)

    def test_numeric_box_grad(self):
        raw, obj, box_t, pos = self._setup()
        _, _, grad = detection_loss(raw, obj, box_t, pos,
                                    box_weight=2.0)
        eps = 1e-3
        for ch in (1, 3):
            ix = (0, ch, 3, 1)
            rp, rm = raw.copy(), raw.copy()
            rp[ix] += eps
            rm[ix] -= eps
            lp, _, _ = detection_loss(rp, obj, box_t, pos)
            lm, _, _ = detection_loss(rm, obj, box_t, pos)
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(float(grad[ix]), rel=5e-2,
                                        abs=1e-5)


class TestPostprocess:
    def test_thresholding(self):
        scores = np.array([[0.9, 0.2, 0.8]])
        boxes = np.array([[[0, 0, 10, 10], [20, 20, 30, 30],
                           [40, 40, 50, 50.0]]])
        dets = decode_predictions(scores, boxes, 64, conf_threshold=0.5)
        assert len(dets[0]) == 2

    def test_nms_deduplicates(self):
        scores = np.array([[0.9, 0.85]])
        boxes = np.array([[[0, 0, 10, 10], [0.5, 0.5, 10.5, 10.5]]])
        dets = decode_predictions(scores, boxes, 64, conf_threshold=0.5,
                                  iou_threshold=0.5)
        assert len(dets[0]) == 1
        assert dets[0][0].score == pytest.approx(0.9)

    def test_empty_detections(self):
        scores = np.array([[0.1, 0.1]])
        boxes = np.zeros((1, 2, 4)) + [[0, 0, 5, 5]]
        dets = decode_predictions(scores, boxes, 64)
        assert dets[0] == []

    def test_best_detection(self):
        d1 = Detection(BBox(0, 0, 5, 5, conf=0.6), 0.6)
        d2 = Detection(BBox(0, 0, 5, 5, conf=0.9), 0.9)
        assert best_detection([d1, d2]) is d2
        with pytest.raises(ModelError):
            best_detection([])

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            decode_predictions(np.zeros((2, 3)), np.zeros((2, 4, 4)), 64)

    @pytest.mark.parametrize("max_detections", [0, -1])
    def test_max_detections_below_one_rejected(self, max_detections):
        scores = np.array([[0.9]])
        boxes = np.array([[[0, 0, 10, 10.0]]])
        with pytest.raises(ModelError):
            decode_predictions(scores, boxes, 64,
                               max_detections=max_detections)

    def test_max_detections_caps_in_score_order(self):
        scores = np.array([[0.6, 0.9, 0.7, 0.8]])
        boxes = np.array([[[0, 0, 5, 5], [10, 10, 15, 15],
                           [20, 20, 25, 25], [30, 30, 35, 35.0]]])
        dets = decode_predictions(scores, boxes, 64, max_detections=2)
        assert [d.score for d in dets[0]] == [0.9, 0.8]


class TestTraining:
    def test_loss_decreases(self, clean_frames):
        images, boxes = frames_to_arrays(clean_frames[:48])
        model = build_mini_yolo("yolov8", "n", seed=2)
        trainer = DetectorTrainer(model, epochs=8, batch_size=16, seed=2)
        result = trainer.fit(images, boxes)
        assert result.epochs_run == 8
        assert result.losses[-1] < result.losses[0]

    def test_validation_tracked(self, clean_frames):
        images, boxes = frames_to_arrays(clean_frames[:32])
        model = build_mini_yolo("yolov8", "n", seed=3)
        trainer = DetectorTrainer(model, epochs=3, batch_size=16, seed=3)
        result = trainer.fit(images[:24], boxes[:24], images[24:],
                             boxes[24:])
        assert len(result.val_losses) == 3

    def test_empty_data_rejected(self):
        model = build_mini_yolo("yolov8", "n", seed=1)
        trainer = DetectorTrainer(model, epochs=1)
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((0, 3, 64, 64), dtype=np.float32), [])

    def test_trained_model_detects(self, trained_detector,
                                   clean_frames):
        """The session-trained model finds the VIP in held-out frames."""
        from repro.train.eval import evaluate_detector_on_frames
        result = evaluate_detector_on_frames(
            trained_detector, clean_frames[100:120],
            conf_threshold=0.5)
        assert result.accuracy >= 0.6

    def test_checkpoint_roundtrip(self, trained_detector, tmp_path,
                                  clean_frames):
        images, _ = frames_to_arrays(clean_frames[:4])
        before = trained_detector.forward(images, training=False)
        path = str(tmp_path / "det.npz")
        trained_detector.save(path)
        fresh = build_mini_yolo("yolov8", "n", seed=99)
        fresh.load(path)
        after = fresh.forward(images, training=False)
        assert np.allclose(before, after, atol=1e-6)
