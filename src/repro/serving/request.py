"""Requests and per-drone request streams for the serving simulator.

A :class:`Request` is one frame shipped from one drone stream to the
workstation: it carries its generation time and the absolute deadline
the guidance loop needs the answer by.  :func:`generate_arrivals`
produces the full time-ordered arrival schedule for a fleet of streams
— phase-staggered periodic streams (the same interleaving the fleet
scheduler uses) with optional seeded jitter, so the schedule is a pure
function of the workload parameters and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import BenchmarkError
from ..rng import make_rng
from ..units import fps_to_period_ms


@dataclass(frozen=True)
class Request:
    """One inference request on the serving timeline."""

    # Slotted: a simulation holds one per generated request.
    __slots__ = ("stream", "seq", "arrival_ms", "deadline_ms")

    stream: int          # drone stream id
    seq: int             # per-stream sequence number
    arrival_ms: float    # when it reaches the workstation queue
    deadline_ms: float   # absolute completion deadline

    def __reduce__(self) -> tuple:
        # Copy and pickle through __init__: the default slot-state
        # restore would assign to a frozen field.
        return (Request, (self.stream, self.seq, self.arrival_ms,
                          self.deadline_ms))

    def __post_init__(self) -> None:
        if self.stream < 0 or self.seq < 0:
            raise BenchmarkError("negative stream/seq id")
        if self.deadline_ms <= self.arrival_ms:
            raise BenchmarkError(
                f"request deadline {self.deadline_ms} not after "
                f"arrival {self.arrival_ms}")

    @property
    def slack_at(self) -> float:
        """Relative deadline (budget from arrival)."""
        return self.deadline_ms - self.arrival_ms


def generate_arrivals(num_streams: int, frame_rate: float,
                      duration_s: float, deadline_ms: float,
                      jitter_ms: float = 0.0,
                      seed: Optional[int] = None,
                      ramp: Sequence[float] = (1.0,),
                      streams: Optional[Iterable[int]] = None
                      ) -> List[Request]:
    """Time-ordered arrival schedule for ``num_streams`` drone streams.

    Streams are phase-staggered by a fraction of the frame period so the
    server sees a realistic interleaving rather than synchronised
    bursts; ``jitter_ms`` adds uniform per-request arrival noise from
    the seeded ``serving-arrivals`` stream (0 disables it, keeping the
    schedule arithmetic-exact).  Ties are broken by stream id, so the
    order is total and reruns are byte-identical.

    ``ramp`` splits the run into equal segments whose per-stream rate
    is ``frame_rate × multiplier``, phase-staggered the same way within
    each segment.  ``streams`` restricts the schedule to those stream
    ids.  Every stream makes the same number of jitter draws, so stream
    ``s`` owns draws ``[s·per, (s+1)·per)`` of one bulk draw, and a
    subset is exactly the matching slice of the full schedule.
    """
    if num_streams < 1:
        raise BenchmarkError("need at least one request stream")
    if frame_rate <= 0 or duration_s <= 0:
        raise BenchmarkError("bad workload parameters")
    if deadline_ms <= 0:
        raise BenchmarkError("deadline must be positive")
    if jitter_ms < 0:
        raise BenchmarkError("negative arrival jitter")
    ramp = tuple(ramp)
    if not ramp or any(m <= 0 for m in ramp):
        raise BenchmarkError("ramp multipliers must be positive")
    ids = np.arange(num_streams) if streams is None \
        else np.array(sorted(set(streams)), dtype=np.int64)
    if ids.size and not 0 <= ids[0] <= ids[-1] < num_streams:
        raise BenchmarkError(f"stream ids outside [0, {num_streams})")
    seg_s = duration_s / len(ramp)
    # One column block per segment: t = (start + phase) + k × period,
    # the same float operations, in the same order, as a scalar loop.
    blocks = []
    for i, mult in enumerate(ramp):
        rate = frame_rate * mult
        period = fps_to_period_ms(rate)
        frames = int(seg_s * rate)
        phase = period * ids / num_streams
        blocks.append((i * seg_s * 1000.0 + phase)[:, None]
                      + np.arange(frames) * period)
    t = np.concatenate(blocks, axis=1)
    per = t.shape[1]
    if jitter_ms > 0:
        draws = make_rng(seed, "serving-arrivals").uniform(
            0.0, jitter_ms, size=num_streams * per)
        t = t + draws.reshape(num_streams, per)[ids]
    stream = np.repeat(ids, per)
    seq = np.tile(np.arange(per), ids.size)
    t = t.ravel()
    order = np.lexsort((seq, stream, t))
    return [Request(stream=s, seq=k, arrival_ms=a, deadline_ms=d)
            for s, k, a, d in zip(stream[order].tolist(),
                                  seq[order].tolist(),
                                  t[order].tolist(),
                                  (t + deadline_ms)[order].tolist())]
