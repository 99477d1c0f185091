"""reprolint — static enforcement of the determinism contract.

Every experiment in this repository promises byte-identical reruns
under the injected clock and seeded RNG.  The golden tests verify that
promise dynamically; this package verifies its *preconditions*
statically, so a stray ``time.time()`` or an unsorted ``os.listdir``
is caught at lint time instead of as a mysterious golden diff.

Two rule families (see :mod:`repro.analysis.determinism` and
:mod:`repro.analysis.contract`):

* **RL0xx determinism** — per-file AST checks: wall-clock reads,
  ambient randomness, unordered iteration, mutable defaults,
  swallowed exceptions;
* **RL1xx repo contract** — cross-artifact checks: experiment ↔
  golden ↔ EXPERIMENTS.md coverage, CLI ↔ README coverage, telemetry
  stage naming.

Entry points: ``repro lint [--strict] [--json] [paths...]`` on the
command line, :func:`lint_paths` from code.  Violations are silenced
per line with ``# reprolint: disable=RL00x <reason>`` or per file with
``# reprolint: disable-file=RL00x <reason>`` — the reason is required.
"""

from .engine import (LintConfig, LintResult, Linter, collect_py_files,
                     find_repo_root, lint_paths)
from .report import (JSON_SCHEMA_VERSION, render_json, render_text,
                     severity_counts, to_json_dict)
from .rules import (RepoContext, Rule, Severity, SourceFile, Violation,
                    all_rules, get_rule, register, rule_ids)
from .suppress import (BAD_SUPPRESSION_ID, SuppressionIndex,
                       parse_suppressions)

__all__ = [
    "BAD_SUPPRESSION_ID",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintResult",
    "Linter",
    "RepoContext",
    "Rule",
    "Severity",
    "SourceFile",
    "SuppressionIndex",
    "Violation",
    "all_rules",
    "collect_py_files",
    "find_repo_root",
    "get_rule",
    "lint_paths",
    "parse_suppressions",
    "register",
    "render_json",
    "render_text",
    "rule_ids",
    "severity_counts",
    "to_json_dict",
]
