"""detect-stream and detect-batch: the executed mini-YOLO per frame.

Each op runs the paper's per-frame pipeline on the fused detector:
``letterbox`` → ``MiniYolo.forward`` → ``MiniYolo.decode`` →
``decode_predictions`` (threshold + NMS).  Frames are rendered larger
than the model's 64 px input and in a 4:3 aspect, so ``letterbox``
both resizes and pads.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict, List

import numpy as np

import repro.models.yolo.postprocess as postprocess
from repro.dataset import SceneRenderer, all_subcategories, sample_scene
from repro.image import crop, letterbox
from repro.models.yolo import MINI_YOLO_VARIANTS, MiniYolo, \
    decode_predictions
from repro.nn import FusedConvBNAct, conv2d_flops
from repro.rng import make_rng

from harness import Workload
from probe import Probe, patched
from spec import WORKLOADS

#: Tolerance of the fused-vs-unfused and batch-vs-single checks.
TOL = 1e-5


def render_frames(seed: int, per_subcategory: int, size: int) -> list:
    """Rendered frames covering all 12 Table 1 sub-categories."""
    rng = make_rng(seed, "perfbench", "frames")
    renderer = SceneRenderer(size)
    out = []
    for sub in all_subcategories():
        for _ in range(per_subcategory):
            out.append(renderer.render(sample_scene(sub, rng), rng))
    return out


def module_kind(index: int, count: int, layer) -> str:
    """``conv``/``csp``/``sppf``/``head`` label of a top-level module."""
    if index == count - 1:
        return "head"
    kind = layer.name.split("_")[1]
    return "conv" if kind.startswith("conv") else kind


class Detect(Workload):
    """One closed-loop drone stream (batch 1) or eight (batch 8)."""

    def __init__(self, name: str, seed: int) -> None:
        p = WORKLOADS[name]["params"]
        self.cfg = MINI_YOLO_VARIANTS[p["model"]]
        self.batch = p["batch"]
        h, w = p["frame_hw"]
        per_sub = p["frames"] // len(all_subcategories())
        top = (w - h) // 2
        self.frames = [crop(f.image, 0, top, w, top + h)
                       for f in render_frames(seed, per_sub, w)]
        self.size = self.cfg.image_size
        self.conf = p["conf_threshold"]
        self.dets_per_op: List[int] = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        model = MiniYolo(self.cfg)
        # Keep the folded network MiniYolo.fuse() builds, to time its
        # top-level modules in the traced run.
        fold = model.net.fuse
        folded = []
        with patched([(model.net, "fuse", lambda *a, **k:
                       folded.append(fold(*a, **k)) or folded[-1])]):
            model.fuse()
        self.model, self.fused = model, folded[0]
        # Warm-up: one pass over the frame set fills the arena.
        self.first = self.last = None
        for i in range(-(-len(self.frames) // self.batch)):
            self.op(i)
        self.first = None

    # -- the measured operation ------------------------------------------

    def op(self, i: int) -> int:
        n = len(self.frames)
        frames = [self.frames[(i * self.batch + j) % n]
                  for j in range(self.batch)]
        x = np.ascontiguousarray(np.stack(
            [letterbox(f, self.size)[0] for f in frames])
            .transpose(0, 3, 1, 2))
        raw = self.model.forward(x, training=False)
        scores, boxes = self.model.decode(raw)
        dets = decode_predictions(scores, boxes, self.size,
                                  conf_threshold=self.conf)
        self.last = (x, raw, dets)
        if self.first is None:
            self.first = self.last
        return self.batch

    def check(self, i: int) -> bool:
        _, raw, dets = self.last
        self.dets_per_op.append(sum(len(d) for d in dets))
        return bool(np.isfinite(raw).all()) and all(
            0.0 <= v <= self.size
            for per_image in dets for d in per_image
            for v in (d.box.x1, d.box.y1, d.box.x2, d.box.y2))

    def final_checks(self) -> int:
        """Fused output vs the unfused network (and, at batch 8, vs
        eight batch-1 forwards) on the run's first and last op."""
        failed = 0
        for x, raw, _ in (self.first, self.last):
            ref = self.model.net.forward(x, training=False)
            ok = np.allclose(raw, ref, rtol=TOL, atol=TOL)
            if self.batch > 1:
                single = np.concatenate(
                    [self.model.forward(x[j:j + 1], training=False)
                     for j in range(len(x))])
                ok = ok and np.allclose(raw, single, rtol=TOL, atol=TOL)
            failed += not ok
        return failed

    # -- traced run ------------------------------------------------------

    def trace_patches(self, probe: Probe) -> list:
        layers = self.fused.layers
        model = self.model
        return [
            (sys.modules[__name__], "letterbox",
             probe.timed("image.letterbox", letterbox)),
            (model, "forward",
             probe.timed("models.yolo.forward", model.forward)),
            (model, "decode",
             probe.timed("models.yolo.decode", model.decode)),
            (postprocess, "nms", probe.timed(
                "models.yolo.nms", postprocess.nms,
                count=lambda a, k, out: {"nms_candidates": len(a[0])})),
        ] + [(layer, "forward",
              probe.timed(self._module_name(i), layer.forward))
             for i, layer in enumerate(layers)]

    def _module_name(self, i: int) -> str:
        layers = self.fused.layers
        return f"nn.{i}-{module_kind(i, len(layers), layers[i])}"

    def module_flops(self) -> Dict[str, int]:
        """Conv FLOPs per top-level module of one op, from the shapes a
        forward actually sees."""
        flops: Dict[str, int] = defaultdict(int)
        current = [""]
        conv_forward = FusedConvBNAct.forward

        def counted(layer, x, training=True):
            out = conv_forward(layer, x, training)
            flops[current[0]] += out.shape[0] * conv2d_flops(
                layer.in_channels, layer.out_channels, layer.kernel,
                out.shape[2], out.shape[3])
            return out

        def tagged(name, forward):
            def run(x, training=True):
                current[0] = name
                return forward(x, training)
            return run

        x = self.first[0]
        with patched([(FusedConvBNAct, "forward", counted)]):
            with patched([(layer, "forward",
                           tagged(self._module_name(i), layer.forward))
                          for i, layer in enumerate(self.fused.layers)]):
                self.model.forward(x, training=False)
        return dict(flops)

    def layer_metrics(self, probe: Probe, ops: int) -> Dict[str, float]:
        forward_ms = probe.ms_per("models.yolo.forward", ops)
        out = {
            "image.letterbox_ms": probe.ms_per("image.letterbox", ops),
            "models.yolo.forward_ms": forward_ms,
            "models.yolo.decode_ms": probe.ms_per("models.yolo.decode",
                                                  ops),
            "models.yolo.nms_ms": probe.ms_per("models.yolo.nms", ops),
            "models.yolo.nms_candidates":
                probe.counts["nms_candidates"] / ops,
            "models.yolo.detections": float(np.mean(self.dets_per_op)),
            "nn.workspace_bytes": float(self.fused.workspace.nbytes),
        }
        attributed = 0.0
        for name, flops in self.module_flops().items():
            ms = probe.ms_per(name, ops)
            attributed += ms
            out[f"{name}.ms"] = ms
            out[f"{name}.gflops_per_s"] = flops / (ms * 1e6) if ms else 0.0
        out["nn.unattributed_ms"] = forward_ms - attributed
        return out
