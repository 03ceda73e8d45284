"""Workloads of the povmlab benchmark and the correctness gate on their output.

Every workload drives the package through its public entry points:
``harness.run_suite`` for the two ``verify all`` workloads and
``harness.convergence_study`` for ``study``. Why each workload exists is
recorded in NOTE.md next to this file.

The gate compares each iteration's output with the committed reference in
``reference/``. A check fails if the iteration raised, if a verdict
``(case, param, pass, skipped)`` differs from the reference, if a required
anchor is covered only by skip records, or if a study row or flag moved.
"""

import json
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from povmlab import harness  # noqa: E402  (needs the path above)

# verify workloads: keyword arguments of harness.SuiteConfig(suite="all")
VERIFY = {
    # the CLI defaults, what users run
    "default": {"d": 12, "n": 256, "m": 64, "betas": (0.5, 1.0)},
    # dense O(n^3) algebra on top, at a size whose iteration fits many
    # times into one run
    "scaled": {"d": 14, "n": 384, "m": 192, "betas": (0.5, 1.0)},
}
STUDY_SIZES = (128, 256, 512, 1024)
WORKLOADS = ("default", "scaled", "study")

# The first seed is the one a change is developed on; the second is the
# held-out seed a claimed gain must also hold on.
REFERENCE_SEEDS = (7, 8)
REFERENCE_DIR = HERE / "reference"

# Study errors agree with the reference to this relative precision, or lie
# within the absolute rounding floor of these unit-scale quantities.
STUDY_RTOL = 1e-9
STUDY_ATOL = 1e-12


def run_iteration(workload, seed):
    """One iteration: a ``verify all`` report, or the three study tables."""
    if workload == "study":
        return {kind: harness.convergence_study(kind, STUDY_SIZES)
                for kind in harness.STUDY_KINDS}
    cfg = harness.SuiteConfig(suite="all", seed=seed, **VERIFY[workload])
    return harness.run_suite(cfg)


def verdicts(report):
    return [[r["case"], r["param"], r["pass"], "skipped" in r]
            for r in report["cases"]]


def study_table(result):
    return {kind: {"rows": [[r["size"], r["error"]] for r in s["rows"]],
                   "monotone": s["monotone"]}
            for kind, s in result.items()}


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, seed):
    """The reference to gate one run on.

    Verify references hold verdicts at each of ``REFERENCE_SEEDS``; a run
    at another seed is gated on the first, since no verdict at these sizes
    depends on the seed.
    """
    ref = json.loads(reference_path(workload).read_text())
    if workload == "study":
        return ref["studies"]
    seeds = ref["seeds"]
    return seeds.get(str(seed), seeds[str(REFERENCE_SEEDS[0])])


@dataclass
class Outcome:
    executed: int = 0      # cases run (not skipped), or study rows
    attempted: int = 0     # gate checks made
    failures: list = field(default_factory=list)


def check(workload, result, reference):
    """Gate one iteration's result (or the exception it raised)."""
    if workload == "study":
        return check_study(result, reference)
    return check_verify(result, reference)


def check_verify(report, reference):
    anchors = harness.REQUIRED_ANCHORS
    if isinstance(report, Exception):
        return Outcome(0, len(reference) + len(anchors),
                       [f"raised {report!r}"] * (len(reference) + len(anchors)))
    got = verdicts(report)
    out = Outcome(executed=sum(not skipped for *_, skipped in got),
                  attempted=max(len(got), len(reference)) + len(anchors))
    for ref, actual in zip_longest(reference, got):
        if ref != actual:
            out.failures.append(f"verdict {actual} != reference {ref}")
    executed_anchors = {r["anchor"] for r in report["cases"]
                        if "skipped" not in r}
    for anchor in anchors:
        if anchor not in executed_anchors:
            out.failures.append(f"anchor {anchor!r} has no executed case")
    return out


def check_study(result, reference):
    checks = sum(len(s["rows"]) + 1 for s in reference.values())
    if isinstance(result, Exception):
        return Outcome(0, checks, [f"raised {result!r}"] * checks)
    table = study_table(result)
    out = Outcome()
    for kind, ref in reference.items():
        got = table.get(kind, {"rows": [], "monotone": None})
        out.executed += len(got["rows"])
        out.attempted += max(len(got["rows"]), len(ref["rows"])) + 1
        for r, g in zip_longest(ref["rows"], got["rows"]):
            if (r is None or g is None or r[0] != g[0]
                    or abs(g[1] - r[1]) > STUDY_RTOL * abs(r[1]) + STUDY_ATOL):
                out.failures.append(f"{kind} row {g} != reference {r}")
        if got["monotone"] != ref["monotone"]:
            out.failures.append(f"{kind} flag {got['monotone']!r} != "
                                f"reference {ref['monotone']!r}")
    return out
