"""Workload definitions and the correctness checks applied to their reports.

A workload is a fixed list of CLI calls, each run through
``heisbeta.cli.run(parse_config(argv))``.  Every call runs at ``--seed 42``,
the seed of tests/fixtures.json, and with ``--no-timestamp``, so its output
bytes are a function of the configuration alone and every repetition must
print the same bytes.

The program seed is fixed rather than taken from the benchmark's --seed.
At these sweep budgets the Monte Carlo template's node count, which sets
the work, varies with the seed (interquartile range 11 % of the median at
1024 samples, 15 % for n = 2 at 8192), so wall time would follow the seed
more than the code; and the fixture bands below hold at seed 42 only.

Each call's output is normalised into a list of reports: one per ratio
report (``lemmas``, ``dorronsoro``, ``poincare``) or one per result row
(``beta``, ``squarefn``).  A report holds its numbers, its degeneracy flag,
its truncation pair (JSON output only) and the program's own pass verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

PROGRAM_SEED = 42
REFERENCES = Path(__file__).with_name("references.json")
FIXTURES = Path("tests") / "fixtures.json"

# Relative tolerance of the reference check: loose enough for a reordered
# floating-point sum (about 1e-14 relative on these reports), tight enough
# that any change to what is computed shows.
REF_RTOL = 1e-9
REF_ATOL = 1e-15


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]


_NORM = ("dorronsoro", "--field", "gaussian", "--p", "2", "--q", "2",
         "--box-radius", "16", "--workers", "2", "--format", "json")

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Call, ...]] = {
    # Sized so that six repetitions fit in a 40 s run (about 5 s each on 2
    # cores) while criterion 6 still holds: the sweep cap is
    # min(samples, 8192), and 8 radii per decade halve the default 80.  At
    # 80 radii and 1024 samples a repetition takes 21 s and its
    # stabilities (0.962, 1.047) sit at the edge of the band.
    "dorronsoro-norm": (
        Call("dorronsoro", _NORM + ("--samples", "512", "--per-decade", "8")),
    ),
    "lemma-sweeps": tuple(
        Call(f"lemmas-n{n}", ("lemmas", "--n", str(n), "--workers", "1",
                              "--format", "json"))
        for n in (1, 2)
    ),
    "pointwise-cli": tuple(
        Call(f"{suite}-{mode}", (suite, "--mode", mode))
        for suite in ("beta", "squarefn", "poincare")
        for mode in ("mc", "grid")
    ),
}

# Small budgets for the self-test: later flags override earlier ones.
TINY = ("--samples", "256", "--grid-per-axis", "6", "--per-decade", "2")


def call_argv(call: Call, tiny: bool = False) -> list[str]:
    argv = list(call.argv) + ["--seed", str(PROGRAM_SEED), "--no-timestamp"]
    return argv + list(TINY) if tiny else argv


# ---------------------------------------------------------------------------
# parsing


def parse_output(text: str) -> list[dict]:
    """Reports of one call's output: JSON ratio reports or CSV rows."""
    if text.lstrip().startswith("{"):
        # float() also reads the repr strings JSON output uses for inf/nan
        return [
            {
                "name": rep["name"],
                "values": [float(rep[key]) for key in ("lhs", "rhs", "ratio")],
                "degenerate": bool(rep["degenerate"]),
                "truncation": [float(part) for part in rep["truncation"]],
                "pass": rep["params"].get("pass"),
            }
            for rep in json.loads(text)["reports"]
        ]
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header, body = lines[0].split(","), lines[1:]
    reports = []
    for i, line in enumerate(body):
        cells = dict(zip(header, line.split(",")))
        if "degenerate" in cells:
            reports.append({
                "name": cells["name"],
                "values": [float(cells[key]) for key in ("lhs", "rhs", "ratio")],
                "degenerate": cells["degenerate"] == "true",
                "truncation": None,
                "pass": None,
            })
        else:
            reports.append({
                "name": f"row{i}",
                "values": [float(cell) for cell in cells.values()],
                "degenerate": False,
                "truncation": None,
                "pass": None,
            })
    return reports


# ---------------------------------------------------------------------------
# checks


def load_references() -> dict[str, list[dict]]:
    """The seed commit's reports per call label, for the calls whose
    recorded arguments are still the workload's arguments."""
    if not REFERENCES.is_file():
        return {}
    recorded = json.loads(REFERENCES.read_text())
    current = {
        call.label: " ".join(call_argv(call))
        for calls in WORKLOADS.values() for call in calls
    }
    return {
        label: entry["reports"] for label, entry in recorded.items()
        if current.get(label) == entry["argv"]
    }


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_ATOL)


def _matches(rep: dict, ref: dict) -> bool:
    if rep["name"] != ref["name"] or rep["degenerate"] != ref["degenerate"]:
        return False
    pairs = list(zip(rep["values"], ref["values"]))
    if rep["truncation"] is not None and ref["truncation"] is not None:
        pairs += list(zip(rep["truncation"], ref["truncation"]))
    return len(rep["values"]) == len(ref["values"]) and all(
        _close(a, b) for a, b in pairs
    )


def band_failures(label: str, reports: list[dict], fixtures: dict) -> list[list[str]]:
    """Acceptance bands of tests/test_acceptance.py, criteria 5 to 7, as
    per-report failure reasons.

    Calls run at the fixture seed.  The Poincare band is applied in the
    Monte Carlo mode its fixture was recorded in; grid mode is held to its
    reference only.
    """
    bad = [[] for _ in reports]
    if label not in ("dorronsoro", "lemmas-n1", "poincare-mc"):
        return bad
    for rep, why in zip(reports, bad):
        name, (lhs, rhs, ratio) = rep["name"], rep["values"]
        if label == "dorronsoro" and name == "dorronsoro":
            ref = fixtures["dorronsoro"]["gaussian"]["ratio"]
            if not ref / 3.0 <= ratio <= 3.0 * ref:
                why.append("criterion 6: ratio outside 3x of fixture")
            low, high = rep["truncation"]
            if not (low <= 0.05 * lhs and high <= 0.05 * rhs):
                why.append("criterion 6: truncation above 5% of a side")
        elif label == "dorronsoro" and name == "dorronsoro-stability":
            if not abs(ratio - 1.0) <= 5e-2:
                why.append("criterion 6: |stability - 1| > 5e-2")
        elif label == "lemmas-n1" and name in fixtures["lemmas"]:
            ref = fixtures["lemmas"][name]["ratio"]
            low = ref / 3.0 if name == "lemma:near-optimal-fit" else -math.inf
            if name != "lemma:g-vs-s" and not low <= ratio <= 3.0 * ref:
                why.append("criterion 5: ratio outside its fixture band")
        elif label == "poincare-mc" and name == "poincare":
            ref = fixtures["poincare"]["gaussian"]["ratio"]
            if not abs(ratio - ref) <= 0.25 * ref:
                why.append("criterion 7: ratio outside 25% of fixture")
    return bad


def check_call(label: str, reports: list[dict], refs: list[dict] | None,
               fixtures: dict | None) -> list[list[str]]:
    """Per-report failure reasons (empty list = report passed).

    refs is the seed commit's record for this call, or None to skip the
    reference check (self-test budgets); fixtures is tests/fixtures.json,
    or None to skip the acceptance bands.
    """
    reasons = [[] for _ in reports]
    for rep, why in zip(reports, reasons):
        if rep["degenerate"]:
            why.append("degenerate")
        if not all(math.isfinite(v) for v in rep["values"]):
            why.append("non-finite value")
        if rep["pass"] is False:
            why.append("program verdict: fail")
    if refs is not None:
        if len(refs) != len(reports):
            for why in reasons:
                why.append("report count differs from reference")
        else:
            for rep, ref, why in zip(reports, refs, reasons):
                if not _matches(rep, ref):
                    why.append("differs from seed-commit reference")
    if fixtures is not None:
        for why, bad in zip(reasons, band_failures(label, reports, fixtures)):
            why.extend(bad)
    return reasons
