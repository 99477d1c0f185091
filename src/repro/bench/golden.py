"""Golden-file snapshots of experiment outputs.

Every fast experiment's key outputs — headers, rows, claims, measured
scalars — are pinned in ``tests/golden/<id>.json``.  The regression
suite re-runs the experiment with the pinned seed and diffs against the
checked-in snapshot, so silent numeric drift (a refactor that perturbs
an rng stream, a changed default) fails loudly with a per-field diff.

Floats are compared with a tight relative tolerance rather than byte
equality: in-process determinism is exact (and tested separately), but
goldens must also survive BLAS/numpy build differences across machines.
Non-finite floats round-trip as the strings ``"NaN"``/``"Infinity"``
(see :mod:`repro.io.jsonio`) and compare by that token.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

from ..errors import BenchmarkError
from ..io.jsonio import dump_json, jsonable
from .runner import ExperimentResult

#: Non-default kwargs pinned per experiment — MUST match what the
#: regression suite passes, or goldens and tests diverge silently.
GOLDEN_KWARGS: Dict[str, dict] = {
    "fig5": {"n_frames": 300},
    "fig6": {"n_frames": 300},
    "ablation_pipeline": {"n_frames": 80},
}

#: Relative tolerance for float comparison (cross-platform headroom;
#: in-process runs are exactly reproducible).
REL_TOL = 1e-6
ABS_TOL = 1e-9


def default_golden_dir() -> str:
    """``tests/golden`` relative to the repository root."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden")


def golden_path(experiment_id: str, golden_dir: str = "") -> str:
    return os.path.join(golden_dir or default_golden_dir(),
                        f"{experiment_id}.json")


def result_snapshot(result: ExperimentResult) -> dict:
    """The JSON-able subset of an experiment result worth pinning.

    ``elapsed_s`` is wall-clock-dependent and excluded by design.
    """
    return jsonable({
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "n_rows": len(result.rows),
        "rows": [list(row) for row in result.rows],
        "claims": dict(result.claims),
        "paper_reference": dict(result.paper_reference),
        "measured": dict(result.measured),
    })


def write_golden(result: ExperimentResult,
                 golden_dir: str = "") -> str:
    """Pin ``result`` as the golden snapshot; returns the path."""
    return dump_json(golden_path(result.experiment_id, golden_dir),
                     result_snapshot(result))


def _values_match(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):  # defensive; jsonable strips
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _diff(path: str, golden, fresh, out: List[str]) -> None:
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden:
                out.append(f"{path}.{key}: unexpected new field "
                           f"{fresh[key]!r}")
            elif key not in fresh:
                out.append(f"{path}.{key}: missing "
                           f"(golden {golden[key]!r})")
            else:
                _diff(f"{path}.{key}", golden[key], fresh[key], out)
        return
    if isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            out.append(f"{path}: length {len(fresh)} != golden "
                       f"{len(golden)}")
            return
        for i, (g, f) in enumerate(zip(golden, fresh)):
            _diff(f"{path}[{i}]", g, f, out)
        return
    if not _values_match(golden, fresh):
        out.append(f"{path}: {fresh!r} != golden {golden!r}")


def compare_to_golden(golden: dict, result: ExperimentResult
                      ) -> List[str]:
    """Field-by-field diff of a fresh result against its golden
    snapshot; empty list means no regression."""
    if not isinstance(golden, dict):
        raise BenchmarkError("golden snapshot must be a JSON object")
    out: List[str] = []
    _diff(result.experiment_id, golden,
          result_snapshot(result), out)
    return out
