"""Fusion/workspace layer: equivalence, arena reuse, checkpoint safety."""

import numpy as np
import pytest

from repro.errors import ConfigError, ModelError
from repro.models.yolo.mini import MINI_YOLO_VARIANTS, build_mini_yolo
from repro.nn import (BatchNorm2d, Conv2d, ConvBNAct, FusedConvBNAct,
                      FusedSequential, LeakyReLU, ReLU, Sequential, SiLU,
                      Workspace, fold_conv_bn, fuse_eval)

RNG = np.random.default_rng(1)


def _images(n=2, size=64):
    return RNG.normal(size=(n, 3, size, size)).astype(np.float32)


def _trained_convbn(rng_seed=5):
    """A ConvBNAct with non-trivial running stats (one training step)."""
    gen = np.random.default_rng(rng_seed)
    blk = ConvBNAct(3, 8, 3, rng=gen)
    blk.forward(gen.normal(size=(4, 3, 8, 8)).astype(np.float32),
                training=True)
    return blk


class TestFoldConvBn:
    def test_folded_matches_eval_chain(self):
        blk = _trained_convbn()
        weight, bias = fold_conv_bn(blk.conv, blk.bn)
        x = RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)
        ref = blk.bn.forward(blk.conv.forward(x, training=False),
                             training=False)
        folded = Conv2d(3, 8, 3, rng=np.random.default_rng(0))
        folded.weight[...] = weight
        folded.bias[...] = bias
        out = folded.forward(x, training=False)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_identity_fold_without_bn(self):
        conv = Conv2d(3, 8, 3, rng=np.random.default_rng(2))
        weight, bias = fold_conv_bn(conv, None)
        np.testing.assert_array_equal(weight, conv.weight)
        np.testing.assert_array_equal(bias, conv.bias)
        assert weight is not conv.weight  # fold copies, never aliases

    def test_channel_mismatch_rejected(self):
        conv = Conv2d(3, 8, 3, rng=np.random.default_rng(2))
        with pytest.raises(ModelError):
            fold_conv_bn(conv, BatchNorm2d(4))


class TestFusedEquivalence:
    @pytest.mark.parametrize("name", sorted(MINI_YOLO_VARIANTS))
    def test_all_variants_match_unfused(self, name):
        cfg = MINI_YOLO_VARIANTS[name]
        model = build_mini_yolo(cfg.family, cfg.variant)
        x = _images()
        ref = model.forward(x, training=False)
        model.fuse(workspace=True)
        out = model.forward(x, training=False)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_random_seeds_match(self, seed):
        model = build_mini_yolo("yolov8", "n", seed=seed)
        x = np.random.default_rng(seed).normal(
            size=(1, 3, 64, 64)).astype(np.float32)
        ref = model.forward(x, training=False)
        model.fuse(workspace=True)
        assert np.max(np.abs(model.forward(x, training=False) - ref)) \
            < 1e-5

    def test_einsum_backend_matches(self):
        model = build_mini_yolo("yolov8", "n")
        x = _images(n=1)
        ref = model.forward(x, training=False)
        model.fuse(workspace=False, backend="einsum")
        assert np.max(np.abs(model.forward(x, training=False) - ref)) \
            < 1e-5

    def test_trained_stats_survive_fold(self):
        net = Sequential([_trained_convbn(), SiLU()], name="t")
        x = RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)
        ref = net.forward(x, training=False)
        fused = fuse_eval(net, workspace=Workspace())
        np.testing.assert_allclose(
            fused.forward(x, training=False), ref, atol=1e-5)

    def test_bare_conv_bn_act_chain_folds(self):
        gen = np.random.default_rng(9)
        for act in (SiLU(), ReLU(), LeakyReLU(0.1)):
            net = Sequential([Conv2d(3, 6, 3, rng=gen, bias=True),
                              BatchNorm2d(6), act], name="chain")
            net.forward(gen.normal(size=(2, 3, 8, 8)).astype(np.float32),
                        training=True)
            x = RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)
            ref = net.forward(x, training=False)
            fused = fuse_eval(net)
            assert len(fused.layers) == 1
            assert isinstance(fused.layers[0], FusedConvBNAct)
            np.testing.assert_allclose(
                fused.forward(x, training=False), ref, atol=1e-5)

    def test_bn_act_chain_folds_to_affine(self):
        gen = np.random.default_rng(9)
        net = Sequential([BatchNorm2d(3), SiLU()], name="bnact")
        net.forward(gen.normal(size=(4, 3, 8, 8)).astype(np.float32),
                    training=True)
        x = RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)
        ref = net.forward(x, training=False)
        fused = fuse_eval(net)
        assert len(fused.layers) == 1
        np.testing.assert_allclose(
            fused.forward(x, training=False), ref, atol=1e-5)

    def test_unknown_backend_rejected(self):
        net = Sequential([Conv2d(3, 4, 3, rng=RNG)], name="c")
        with pytest.raises(ConfigError):
            fuse_eval(net, backend="winograd")


class TestFusedEvalOnly:
    def test_training_forward_raises(self):
        fused = fuse_eval(Sequential([_trained_convbn()], name="c"))
        with pytest.raises(ModelError):
            fused.forward(_images(size=8), training=True)

    def test_backward_raises(self):
        fused = fuse_eval(Sequential([_trained_convbn()], name="c"))
        fused.forward(RNG.normal(size=(1, 3, 8, 8)).astype(np.float32),
                      training=False)
        with pytest.raises(ModelError):
            fused.backward(np.ones((1, 8, 8, 8), dtype=np.float32))

    def test_source_network_unchanged_by_fuse(self):
        model = build_mini_yolo("yolov8", "n")
        before = {k: v.copy() for k, v in model.net.params().items()}
        model.fuse()
        for k, v in model.net.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_training_forward_invalidates_fold(self):
        model = build_mini_yolo("yolov8", "n")
        model.fuse()
        assert model.fused
        model.forward(_images(n=1), training=True)
        assert not model.fused


class TestFusedCheckpointSafety:
    def test_fused_load_refused(self, tmp_path):
        model = build_mini_yolo("yolov8", "n")
        path = str(tmp_path / "ckpt.npz")
        model.save(path)
        fused = fuse_eval(model.net)
        assert isinstance(fused, FusedSequential)
        with pytest.raises(ModelError):
            fused.load(path)

    def test_load_refolds_fused_model(self, tmp_path):
        donor = build_mini_yolo("yolov8", "n", seed=99)
        path = str(tmp_path / "ckpt.npz")
        donor.save(path)
        model = build_mini_yolo("yolov8", "n", seed=7)
        model.fuse(workspace=True)
        x = _images(n=1)
        stale = model.forward(x, training=False)
        model.load(path)
        assert model.fused  # re-folded, not silently dropped
        out = model.forward(x, training=False)
        ref = donor.forward(x, training=False)
        assert np.max(np.abs(out - ref)) < 1e-5
        assert np.max(np.abs(out - stale)) > 0  # fold tracked the load

    def test_fuse_after_load_matches_direct(self, tmp_path):
        donor = build_mini_yolo("yolov8", "n", seed=3)
        path = str(tmp_path / "ckpt.npz")
        donor.save(path)
        model = build_mini_yolo("yolov8", "n", seed=7)
        model.load(path)
        model.fuse()
        x = _images(n=1)
        assert np.max(np.abs(
            model.forward(x, training=False)
            - donor.forward(x, training=False))) < 1e-5


class TestWorkspace:
    def test_same_key_returns_same_buffer(self):
        ws = Workspace()
        a = ws.buffer(self, "cols", (4, 4))
        b = ws.buffer(self, "cols", (4, 4))
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_shape_change_allocates_new_buffer(self):
        ws = Workspace()
        a = ws.buffer(self, "cols", (4, 4))
        b = ws.buffer(self, "cols", (8, 4))
        assert a is not b
        assert ws.num_buffers == 2

    def test_reset_drops_buffers(self):
        ws = Workspace()
        a = ws.buffer(self, "cols", (4, 4))
        ws.reset()
        assert ws.num_buffers == 0
        assert ws.buffer(self, "cols", (4, 4)) is not a

    def test_bad_shape_rejected(self):
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            Workspace().buffer(self, "cols", (0, 4))

    def test_consecutive_frames_share_arena(self):
        model = build_mini_yolo("yolov8", "n")
        model.fuse(workspace=True)
        ws = model._fused.workspace
        out1 = model.forward(_images(n=1), training=False)
        buffers = ws.num_buffers
        misses = ws.misses
        out2 = model.forward(_images(n=1), training=False)
        assert ws.num_buffers == buffers  # steady state: no growth
        assert ws.misses == misses
        assert out1.shape == out2.shape

    def test_shape_change_then_reset(self):
        model = build_mini_yolo("yolov8", "n")
        model.fuse(workspace=True)
        ws = model._fused.workspace
        model.forward(_images(n=1), training=False)
        single = ws.num_buffers
        model.forward(_images(n=2), training=False)
        assert ws.num_buffers > single  # second shape, second buffer set
        model._fused.reset_workspace()
        assert ws.num_buffers == 0
        out = model.forward(_images(n=1), training=False)
        assert out.shape[0] == 1

