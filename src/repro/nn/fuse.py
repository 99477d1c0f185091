"""Eval-time graph folding: Conv→BN and affine→activation fusion.

Training wants every intermediate (BatchNorm batch statistics, pre-
activation tensors for the backward pass); frame-rate inference wants
none of them.  This module rewrites a trained :class:`Sequential` into
an eval-only pipeline where:

* every Conv2d→BatchNorm2d pair is *folded* — the BN running statistics
  and affine parameters are absorbed into the convolution's weights and
  bias, so the BN layer disappears entirely (see ``fold_conv_bn`` for
  the algebra);
* the trailing activation of each Conv-BN-Act unit becomes a GEMM
  *epilogue*: it runs in place on the 2-D GEMM output buffer before the
  NCHW transpose, so no intermediate activation tensor is materialised;
* a bare BatchNorm2d→activation chain collapses to one per-channel
  affine+activation pass (:class:`FusedAffineAct`);
* im2col columns, padded inputs and GEMM outputs live in a shared
  :class:`~repro.nn.workspace.Workspace` arena reused across frames.

Folding rules (DESIGN.md §"Fusion/workspace layer" has the same table):

====================================  =================================
pattern in the eval graph             fused form
====================================  =================================
Conv2d → BatchNorm2d → act            FusedConvBNAct (one GEMM + epilogue)
Conv2d → BatchNorm2d                  FusedConvBNAct (no epilogue)
Conv2d (standalone)                   FusedConvBNAct (identity fold)
BatchNorm2d → act                     FusedAffineAct
BatchNorm2d (standalone)              FusedAffineAct (no epilogue)
ResidualBlock / CSPBlock / SPPFBlock  same dataflow over fused sub-units
anything else                         passed through unchanged
====================================  =================================

The fused network is **eval-only**: ``forward(training=True)``,
``backward()`` and ``load()`` all raise :class:`~repro.errors.ModelError`
— folded weights cannot be trained or restored without desynchronising
from the BN buffers they absorbed.  Re-fold from the source network
after any parameter change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ModelError
from ..obs import current_tracer
from .blocks import ConvBNAct, CSPBlock, ResidualBlock, SPPFBlock, _Composite
from .layers import (
    IM2COL_BLOCK_BYTES,
    BatchNorm2d,
    Conv2d,
    Layer,
    LeakyReLU,
    ReLU,
    SiLU,
)
from .network import Sequential
from .workspace import Workspace

#: Backends for the fused convolution arithmetic.
BACKENDS = ("gemm", "einsum")


def _act_kind(layer: Layer) -> Optional[Tuple[str, float]]:
    """(kind, slope) if ``layer`` is a fusable activation, else None."""
    if isinstance(layer, SiLU):
        return ("silu", 0.0)
    if isinstance(layer, LeakyReLU):
        return ("leaky_relu", float(layer.slope))
    if isinstance(layer, ReLU):
        return ("relu", 0.0)
    return None


def _apply_act_(buf: np.ndarray, kind: Optional[str], slope: float) -> None:
    """In-place activation epilogue on a GEMM output buffer.

    The SiLU branch mirrors :func:`repro.nn.layers.sigmoid` element-for-
    element (``exp(-|x|)`` based), so fused and unfused activations agree
    to float32 rounding.
    """
    if kind is None:
        return
    if kind == "relu":
        np.maximum(buf, 0.0, out=buf)
    elif kind == "leaky_relu":
        if not 0.0 <= slope <= 1.0:
            raise ConfigError(
                f"leaky slope {slope} outside [0, 1]; cannot fuse")
        # max(x, slope*x) == leaky_relu(x) exactly for slope in [0, 1].
        np.maximum(buf, buf * np.float32(slope), out=buf)
    elif kind == "silu":
        t = np.exp(-np.abs(buf))
        s = np.where(buf >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
        np.multiply(buf, s.astype(np.float32), out=buf)
    else:
        raise ConfigError(f"unknown fused activation {kind!r}")


def fold_conv_bn(conv: Conv2d, bn: Optional[BatchNorm2d]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold BN running statistics into conv weights/bias.

    Eval-mode BN computes ``gamma * (y - mean) / sqrt(var + eps) + beta``
    on the conv output ``y = W*x + b``.  Distributing gives an ordinary
    convolution with ``W' = W * s`` and ``b' = (b - mean) * s + beta``
    where ``s = gamma / sqrt(var + eps)`` per output channel.  With no
    BN the fold is the identity (fresh copies, zero bias if absent).
    """
    weight = conv.weight.astype(np.float32, copy=True)
    bias = (conv.bias.astype(np.float32, copy=True)
            if conv.bias is not None
            else np.zeros(conv.out_channels, dtype=np.float32))
    if bn is None:
        return weight, bias
    if bn.channels != conv.out_channels:
        raise ModelError(
            f"cannot fold BN over {bn.channels} channels into conv with "
            f"{conv.out_channels} outputs")
    scale = (bn.gamma / np.sqrt(bn.running_var + bn.eps)).astype(np.float32)
    weight *= scale[:, None, None, None]
    bias = ((bias - bn.running_mean) * scale + bn.beta).astype(np.float32)
    return weight, bias


class FusedConvBNAct(Layer):
    """Folded convolution with optional in-buffer activation epilogue.

    Runs the conv as blocked im2col→GEMM (or einsum) over the workspace
    arena; the activation is applied in place on the 2-D GEMM output
    before the single NCHW transpose.  Eval-only by construction.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 stride: int, padding: int,
                 act: Optional[str] = None, slope: float = 0.0,
                 workspace: Optional[Workspace] = None,
                 backend: str = "gemm") -> None:
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown fuse backend {backend!r}; known: {BACKENDS}")
        self.weight = weight
        self.bias = bias
        self.out_channels, self.in_channels = weight.shape[0], weight.shape[1]
        self.kernel = weight.shape[2]
        self.stride = stride
        self.padding = padding
        self.act = act
        self.slope = slope
        self.workspace = workspace
        self.backend = backend
        self.name = f"fused_conv{self.kernel}x{self.kernel}" \
            + (f"_{act}" if act else "")

    def _geometry(self, x: np.ndarray) -> Tuple[int, int, int, int]:
        k, s, p = self.kernel, self.stride, self.padding
        hp, wp = x.shape[2] + 2 * p, x.shape[3] + 2 * p
        ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
        if ho < 1 or wo < 1:
            raise ModelError(
                f"fused conv output empty for input {x.shape}")
        return ho, wo, hp, wp

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            raise ModelError(
                "fused layers are eval-only; train the unfused network "
                "and re-fold")
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ModelError(
                f"fused conv expects (N, {self.in_channels}, H, W), got "
                f"{x.shape}")
        tracer = current_tracer()
        if not tracer.enabled:
            return self._forward(x)
        # Same span name as Conv2d — the taxonomy names the operation,
        # the layer attr carries the fused identity — so fused and
        # unfused captures of the same workload diff on common paths.
        with tracer.span("nn.conv2d", layer=self.name):
            return self._forward(x)

    def _padded(self, x: np.ndarray, hp: int, wp: int) -> np.ndarray:
        p = self.padding
        if not p:
            return x
        n, c = x.shape[0], self.in_channels
        if self.workspace is not None:
            xp = self.workspace.buffer(self, "pad", (n, c, hp, wp))
            xp.fill(0.0)
        else:
            xp = np.zeros((n, c, hp, wp), dtype=np.float32)
        xp[:, :, p:p + x.shape[2], p:p + x.shape[3]] = x
        return xp

    def _forward(self, x: np.ndarray) -> np.ndarray:
        tracer = current_tracer()
        n, c = x.shape[0], self.in_channels
        k, s = self.kernel, self.stride
        ho, wo, hp, wp = self._geometry(x)
        xp = self._padded(x, hp, wp)
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        if self.backend == "einsum":
            with tracer.span("nn.gemm"):
                out4 = np.einsum("nchwij,ocij->nhwo", win, self.weight,
                                 optimize=True).astype(np.float32)
                out4 += self.bias
            with tracer.span("nn.act"):
                _apply_act_(out4, self.act, self.slope)
            return np.ascontiguousarray(out4.transpose(0, 3, 1, 2))
        ckk = c * k * k
        ws = self.workspace
        # Arena bookkeeping stays outside the kernel spans (as in
        # Conv2d): im2col/gemm self-times measure copies and the GEMM.
        if ws is not None:
            cols = ws.buffer(self, "cols", (n * ho * wo, ckk))
            out2d = ws.buffer(self, "gemm",
                              (n * ho * wo, self.out_channels))
        else:
            cols = np.empty((n * ho * wo, ckk), dtype=np.float32)
            out2d = np.empty((n * ho * wo, self.out_channels),
                             dtype=np.float32)
        with tracer.span("nn.im2col"):
            cols6 = cols.reshape(n, ho, wo, c, k, k)
            hb = max(1, min(ho, IM2COL_BLOCK_BYTES // max(1, wo * ckk * 4)))
            for i in range(n):
                for h0 in range(0, ho, hb):
                    h1 = min(ho, h0 + hb)
                    cols6[i, h0:h1] = win[i, :, h0:h1].transpose(
                        1, 2, 0, 3, 4)
        with tracer.span("nn.gemm"):
            w_mat = self.weight.reshape(self.out_channels, -1)
            np.dot(cols, w_mat.T, out=out2d)
            out2d += self.bias
        with tracer.span("nn.act"):
            _apply_act_(out2d, self.act, self.slope)
        out = out2d.reshape(n, ho, wo, self.out_channels)
        # .copy(), not ascontiguousarray: for a 1x1 spatial output the
        # transposed view is already contiguous and ascontiguousarray
        # would return it as-is — the arena GEMM buffer escaping to the
        # caller, overwritten next frame (RL203).  Copy is bitwise-
        # identical and always fresh.
        return out.transpose(0, 3, 1, 2).copy()

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused layers are eval-only; no backward")

    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


class FusedAffineAct(Layer):
    """Per-channel affine (folded BN) with optional activation epilogue."""

    def __init__(self, scale: np.ndarray, shift: np.ndarray,
                 act: Optional[str] = None, slope: float = 0.0) -> None:
        self.scale = scale.astype(np.float32)
        self.shift = shift.astype(np.float32)
        self.act = act
        self.slope = slope
        self.name = "fused_affine" + (f"_{act}" if act else "")

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            raise ModelError(
                "fused layers are eval-only; train the unfused network "
                "and re-fold")
        if x.ndim != 4 or x.shape[1] != self.scale.shape[0]:
            raise ModelError(
                f"fused affine expects (N, {self.scale.shape[0]}, H, W), "
                f"got {x.shape}")
        out = (x * self.scale[None, :, None, None]
               + self.shift[None, :, None, None]).astype(np.float32)
        _apply_act_(out, self.act, self.slope)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused layers are eval-only; no backward")


class _FusedEvalComposite(_Composite):
    """Base for fused composite blocks: eval-only, namespaced params."""

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused layers are eval-only; no backward")


class _FusedResidual(_FusedEvalComposite):
    """Eval-only ResidualBlock over two fused Conv-BN-SiLU units."""

    def __init__(self, c1: FusedConvBNAct, c2: FusedConvBNAct) -> None:
        super().__init__()
        self.c1 = self._register("c1", c1)
        self.c2 = self._register("c2", c2)
        self.name = "fused_residual"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x + self.c2(self.c1(x, training), training)


class _FusedCSP(_FusedEvalComposite):
    """Eval-only CSPBlock dataflow over fused sub-units."""

    def __init__(self, half: int, proj: Layer, bottlenecks: List[Layer],
                 fuse: Layer) -> None:
        super().__init__()
        self.half = half
        self.proj = self._register("proj", proj)
        self.bottlenecks = [self._register(f"b{i}", blk)
                            for i, blk in enumerate(bottlenecks)]
        self.fuse = self._register("fuse", fuse)
        self.name = f"fused_csp_n{len(bottlenecks)}"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.proj(x, training)
        a = y[:, :self.half]
        b = np.ascontiguousarray(y[:, self.half:])
        for blk in self.bottlenecks:
            b = blk(b, training)
        return self.fuse(np.concatenate([a, b], axis=1), training)


class _FusedSPPF(_FusedEvalComposite):
    """Eval-only SPPFBlock: fused pre/post convs around the pool pyramid."""

    def __init__(self, pre: Layer, post: Layer) -> None:
        super().__init__()
        self.pre = self._register("pre", pre)
        self.post = self._register("post", post)
        self.name = "fused_sppf"

    @staticmethod
    def _pool3_s1_eval(x: np.ndarray) -> np.ndarray:
        """Stride-1 3×3 max pool without the argmax bookkeeping.

        Training needs the argmax for backward routing; eval only needs
        the maxima, which nine in-place ``np.maximum`` passes over the
        shifted window views compute far cheaper.
        """
        h, w = x.shape[2], x.shape[3]
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        out = np.ascontiguousarray(xp[:, :, 0:h, 0:w])
        for di in range(3):
            for dj in range(3):
                if di == 0 and dj == 0:
                    continue
                np.maximum(out, xp[:, :, di:di + h, dj:dj + w], out=out)
        return out.astype(np.float32, copy=False)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.pre(x, training)
        p1 = self._pool3_s1_eval(y)
        p2 = self._pool3_s1_eval(p1)
        p3 = self._pool3_s1_eval(p2)
        return self.post(np.concatenate([y, p1, p2, p3], axis=1), training)


class FusedSequential(Sequential):
    """Eval-only folded pipeline produced by :func:`fuse_eval`.

    Refuses ``load()``: restoring parameters/buffers into folded weights
    would silently desynchronise them from the BN statistics they
    absorbed.  Load into the *source* network and call its ``fuse()``
    again instead.
    """

    def __init__(self, layers, name: str = "net-fused",
                 workspace: Optional[Workspace] = None,
                 backend: str = "gemm") -> None:
        super().__init__(layers, name=name)
        self.workspace = workspace
        self.backend = backend

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            raise ModelError(
                "fused network is eval-only; call forward(training=False) "
                "or train the unfused source network")
        return super().forward(x, training=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise ModelError("fused network is eval-only; no backward")

    def load(self, path: str) -> Dict:
        raise ModelError(
            "cannot load() into a fused network: folded weights would "
            "desynchronise from the restored BN buffers. Load the "
            "unfused source network and re-fuse.")

    def reset_workspace(self) -> None:
        """Drop arena buffers (e.g. between differently-shaped workloads)."""
        if self.workspace is not None:
            self.workspace.reset()


def _fuse_convbnact(blk: ConvBNAct, ws: Optional[Workspace],
                    backend: str) -> FusedConvBNAct:
    weight, bias = fold_conv_bn(blk.conv, blk.bn)
    kind = _act_kind(blk.act)
    act, slope = kind if kind is not None else (None, 0.0)
    return FusedConvBNAct(weight, bias, blk.conv.stride, blk.conv.padding,
                          act=act, slope=slope, workspace=ws,
                          backend=backend)


def _fuse_block(layer: Layer, ws: Optional[Workspace],
                backend: str) -> Optional[Layer]:
    """Fused equivalent of a composite block, or None if not fusable."""
    if isinstance(layer, ConvBNAct):
        return _fuse_convbnact(layer, ws, backend)
    if isinstance(layer, ResidualBlock):
        return _FusedResidual(_fuse_convbnact(layer.c1, ws, backend),
                              _fuse_convbnact(layer.c2, ws, backend))
    if isinstance(layer, CSPBlock):
        return _FusedCSP(
            layer.half,
            _fuse_convbnact(layer.proj, ws, backend),
            [_fuse_block(b, ws, backend) for b in layer.bottlenecks],
            _fuse_convbnact(layer.fuse, ws, backend))
    if isinstance(layer, SPPFBlock):
        return _FusedSPPF(_fuse_convbnact(layer.pre, ws, backend),
                          _fuse_convbnact(layer.post, ws, backend))
    return None


def fuse_eval(net: Sequential, workspace: Optional[Workspace] = None,
              backend: str = "gemm") -> FusedSequential:
    """Fold ``net`` into an eval-only :class:`FusedSequential`.

    Scans the flat layer list for Conv→BN(→act) and BN(→act) chains,
    recurses into the composite YOLO blocks, and passes everything else
    through unchanged.  ``workspace`` (shared by every fused conv) turns
    on the arena-backed blocked im2col path; ``backend`` picks the GEMM
    formulation.

    The source network is left untouched — folding copies parameters, so
    continued training of ``net`` never corrupts the fused graph (but
    does make it stale: re-fuse after updates).
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown fuse backend {backend!r}; known: {BACKENDS}")
    src = net.layers
    fused: List[Layer] = []
    i = 0
    while i < len(src):
        layer = src[i]
        blk = _fuse_block(layer, workspace, backend)
        if blk is not None:
            fused.append(blk)
            i += 1
            continue
        if isinstance(layer, Conv2d):
            bn = src[i + 1] if i + 1 < len(src) else None
            bn = bn if isinstance(bn, BatchNorm2d) else None
            j = i + (2 if bn is not None else 1)
            kind = _act_kind(src[j]) if j < len(src) else None
            act, slope = kind if kind is not None else (None, 0.0)
            weight, bias = fold_conv_bn(layer, bn)
            fused.append(FusedConvBNAct(
                weight, bias, layer.stride, layer.padding,
                act=act, slope=slope, workspace=workspace,
                backend=backend))
            i = j + (1 if kind is not None else 0)
            continue
        if isinstance(layer, BatchNorm2d):
            kind = _act_kind(src[i + 1]) if i + 1 < len(src) else None
            act, slope = kind if kind is not None else (None, 0.0)
            scale = (layer.gamma
                     / np.sqrt(layer.running_var + layer.eps))
            shift = layer.beta - layer.running_mean * scale
            fused.append(FusedAffineAct(scale, shift, act=act, slope=slope))
            i += 2 if kind is not None else 1
            continue
        fused.append(layer)
        i += 1
    return FusedSequential(fused, name=f"{net.name}-fused",
                           workspace=workspace, backend=backend)
