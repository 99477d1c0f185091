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
from typing import List, Optional

from ..errors import BenchmarkError
from ..rng import make_rng
from ..units import fps_to_period_ms


@dataclass(frozen=True)
class Request:
    """One inference request on the serving timeline."""

    stream: int          # drone stream id
    seq: int             # per-stream sequence number
    arrival_ms: float    # when it reaches the workstation queue
    deadline_ms: float   # absolute completion deadline

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
                      seed: Optional[int] = None) -> List[Request]:
    """Time-ordered arrival schedule for ``num_streams`` drone streams.

    Streams are phase-staggered by a fraction of the frame period so the
    server sees a realistic interleaving rather than synchronised
    bursts; ``jitter_ms`` adds uniform per-request arrival noise from
    the seeded ``serving-arrivals`` stream (0 disables it, keeping the
    schedule arithmetic-exact).  Ties are broken by stream id, so the
    order is total and reruns are byte-identical.
    """
    if num_streams < 1:
        raise BenchmarkError("need at least one request stream")
    if frame_rate <= 0 or duration_s <= 0:
        raise BenchmarkError("bad workload parameters")
    if deadline_ms <= 0:
        raise BenchmarkError("deadline must be positive")
    if jitter_ms < 0:
        raise BenchmarkError("negative arrival jitter")
    period = fps_to_period_ms(frame_rate)
    frames = int(duration_s * frame_rate)
    rng = make_rng(seed, "serving-arrivals") if jitter_ms > 0 else None
    out: List[Request] = []
    for stream in range(num_streams):
        phase = period * stream / num_streams
        for seq in range(frames):
            t = phase + seq * period
            if rng is not None:
                t += float(rng.uniform(0.0, jitter_ms))
            out.append(Request(stream=stream, seq=seq, arrival_ms=t,
                               deadline_ms=t + deadline_ms))
    out.sort(key=lambda r: (r.arrival_ms, r.stream, r.seq))
    return out
