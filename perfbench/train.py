"""train-step: ``DetectorTrainer.fit`` on the mini detector, batch 8.

One model is trained through the whole run; each op is one ``fit``
call of one epoch over one batch of 8 rendered frames, i.e. one
optimiser step.  Training runs the same ``nn`` layers as the detect
workloads but writes activation caches and gradients where eval only
reads them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro.models.yolo.train as train_module
from repro.dataset import all_subcategories
from repro.models.yolo import MINI_YOLO_VARIANTS, DetectorTrainer, MiniYolo

from detect import render_frames
from harness import Workload
from probe import Probe
from spec import WORKLOADS

#: Optimiser steps inside set-up, before the measured ops.
WARMUP_STEPS = 4
#: Ops replayed from a fresh model to check the loss history repeats.
REPLAY_OPS = 8


class Train(Workload):
    """Closed loop of optimiser steps on one model."""

    def __init__(self, name: str, seed: int) -> None:
        p = WORKLOADS[name]["params"]
        self.params = p
        per_sub = p["frames"] // len(all_subcategories())
        frames = render_frames(seed, per_sub, 64)
        self.images, self.boxes = train_module.frames_to_arrays(frames)
        self.batch = p["batch"]
        self.losses: List[float] = []

    def _fresh(self):
        """A newly built model and trainer, after the warm-up steps."""
        p = self.params
        model = MiniYolo(MINI_YOLO_VARIANTS[p["model"]], seed=p["model_seed"])
        trainer = DetectorTrainer(model, lr=p["lr"], epochs=1,
                                  batch_size=self.batch,
                                  seed=p["model_seed"])
        for i in range(WARMUP_STEPS):
            self._step(trainer, -1 - i)
        return model, trainer

    def _step(self, trainer: DetectorTrainer, i: int) -> float:
        n = len(self.images)
        idx = [(i * self.batch + j) % n for j in range(self.batch)]
        result = trainer.fit(self.images[idx],
                             [self.boxes[k] for k in idx])
        return result.losses[0]

    def setup(self) -> None:
        self.model, self.trainer = self._fresh()
        self.losses = []

    def op(self, i: int) -> int:
        self.losses.append(self._step(self.trainer, i))
        return self.batch

    def check(self, i: int) -> bool:
        return bool(np.isfinite(self.losses[-1]))

    def final_checks(self) -> int:
        """Replaying the first ops from a fresh model repeats the loss
        history exactly."""
        _, trainer = self._fresh()
        k = min(REPLAY_OPS, len(self.losses))
        replay = [self._step(trainer, i) for i in range(k)]
        return int(replay != self.losses[:k])

    def trace_patches(self, probe: Probe) -> list:
        model, optimizer = self.model, self.trainer.optimizer
        return [
            (model, "forward",
             probe.timed("nn.train_forward", model.forward)),
            (model, "backward", probe.timed("nn.backward", model.backward)),
            (train_module, "detection_loss",
             probe.timed("models.yolo.loss", train_module.detection_loss)),
            (train_module, "clip_grads_",
             probe.timed("nn.clip_grads", train_module.clip_grads_)),
            (optimizer, "step", probe.timed("nn.optim.step", optimizer.step)),
        ]

    def layer_metrics(self, probe: Probe, ops: int) -> Dict[str, float]:
        return {f"{name}_ms": probe.ms_per(name, ops)
                for name in ("nn.train_forward", "models.yolo.loss",
                             "nn.backward", "nn.clip_grads",
                             "nn.optim.step")}
