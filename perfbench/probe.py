"""Timing of public calls into the program, for the traced run.

A :class:`Probe` wraps a callable so every call adds its wall time, and
optionally some counts, to named totals.  :func:`patched` installs such
wrappers on an instance, class or module for the duration of a block
and puts the originals back afterwards.  Nothing under ``src/`` is
edited: the wrappers sit on the attributes through which the program
already calls its own layers.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

#: ``count(args, kwargs, result)`` -> counts to add, by name.
Counter = Callable[[tuple, dict, object], Dict[str, float]]

_MISSING = object()


class Probe:
    """Named wall-time and count totals of wrapped calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-call samples a wrapper keeps for later reduction.
        self.samples: Dict[str, list] = defaultdict(list)

    def timed(self, name: str, fn: Callable,
              count: Optional[Counter] = None) -> Callable:
        """``fn`` wrapped to add its wall time to ``seconds[name]``."""
        seconds, calls, counts = self.seconds, self.calls, self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            seconds[name] += perf_counter() - t0
            calls[name] += 1
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    counts[key] += value
            return out

        return wrapper

    def ms_per(self, name: str, ops: int) -> float:
        """Mean milliseconds spent in ``name`` per operation."""
        return 1e3 * self.seconds.get(name, 0.0) / ops if ops else 0.0


Patch = Tuple[object, str, object]


@contextlib.contextmanager
def patched(patches: Sequence[Patch]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each patch; restore on exit.

    An attribute the owner did not hold itself (an instance attribute
    shadowing a method) is deleted again, so the class attribute shows
    through exactly as before.
    """
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
