"""Correctness gate: compare one op's output with the reference records.

Exact fields (verdicts, check names, kernel dimensions, sharp targets,
tolerances) must be equal.  Quadrature values may move, but no further than
the package's own bounds: ORACLE_AGREEMENT_RTOL (recorded in each reference
file) for sweep and mode quotients, and each domain entry's own tolerance
for its lhs and rhs.  Every function returns one pass/fail flag per verdict
of the reference, so a missing or extra verdict fails the op.
"""

from __future__ import annotations

import csv
import io
import json

SWEEP_CSV_HEADER = ["epsilon", "quotient_oracle", "quotient_quadrature",
                    "target", "rel_gap"]
# floats in summary.json that come from closed forms or fixed settings
EXACT_FLOAT_KEYS = frozenset({"target", "tolerance", "expected", "residual"})
# floats in summary.json that are themselves relative errors
RELATIVE_KEYS = frozenset({"rel_gap", "oracle_agreement"})


def close(x, ref: float, rtol: float, floor: float = 0.0) -> bool:
    """|x - ref| <= rtol * max(|ref|, floor).  Quotients span many orders
    of magnitude (hardy_p quotients can be 1e-9), so they are compared
    relatively; relative quantities such as rel_gap use floor = 1."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return abs(x - ref) <= rtol * max(abs(ref), floor)


def detail_matches(entry, ref: dict, rtol: float) -> bool:
    """One `details` entry of summary.json against its reference entry."""
    if not isinstance(entry, dict) or entry.keys() != ref.keys():
        return False
    for key, want in ref.items():
        got = entry[key]
        if key == "oracle_agreement":
            ok = close(got, 0.0, rtol, floor=1.0)
        elif isinstance(want, float) and key not in EXACT_FLOAT_KEYS:
            ok = close(got, want, rtol, floor=1.0 if key in RELATIVE_KEYS else 0.0)
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            return False
    return True


def sweep_rows_match(rows, ref_rows, rtol: float) -> bool:
    """Sweep CSV rows (epsilon, oracle, quadrature, target, rel_gap): the
    quadrature quotient must agree with the reference closed form."""
    if len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        if len(row) != 5:
            return False
        eps, qo, qq, target, gap = row
        if eps != ref[0] or target != ref[3]:
            return False
        if not (close(qo, ref[1], rtol) and close(qq, ref[1], rtol)
                and close(gap, ref[4], rtol, floor=1.0)):
            return False
    return True


def parse_sweep_csv(data: bytes):
    """Rows of floats, or None if the header or a value is malformed."""
    try:
        lines = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not lines or lines[0] != SWEEP_CSV_HEADER:
            return None
        return [[float(v) for v in line] for line in lines[1:]]
    except (UnicodeDecodeError, ValueError):
        return None


def verify_case(rc: int, files: dict, ref: dict, rtol: float) -> list:
    """Flags for one `verify all` call: its exit code and written files."""
    ref_details = ref["summary"]["details"]
    fail = [False] * len(ref_details)
    if rc != ref["rc"] or set(files) != {"summary.json", *ref["csv"]}:
        return fail
    try:
        doc = json.loads(files["summary.json"])
    except (UnicodeDecodeError, ValueError):
        return fail
    if not isinstance(doc, dict) or doc.get("suite") != ref["summary"]["suite"]:
        return fail
    details = doc.get("details")
    if doc.get("pass") is not True or not isinstance(details, list) \
            or len(details) != len(ref_details):
        return fail
    flags = [
        isinstance(d, dict) and d.get("passed") is True
        and detail_matches(d, r, rtol)
        for d, r in zip(details, ref_details)
    ]
    for name, ref_rows in ref["csv"].items():
        rows = parse_sweep_csv(files[name])
        if rows is None or not sweep_rows_match(rows, ref_rows, rtol):
            check = "sharpness/" + name.split("_", 1)[1][: -len(".csv")]
            flags = [f and r["check"] != check for f, r in zip(flags, ref_details)]
    return flags


def sweep_record(sweep) -> dict:
    """The fields of a RayleighSweep that the gate compares."""
    return {
        "kind": sweep.kind,
        "p": sweep.p,
        "target": sweep.target,
        "tolerance": sweep.tolerance,
        "epsilons": list(sweep.epsilons),
        "quotients_oracle": list(sweep.quotients_oracle),
        "quotients_quadrature": list(sweep.quotients_quadrature),
        "extrapolated_oracle": sweep.extrapolated_oracle,
        "rel_gap": sweep.rel_gap,
        "oracle_agreement": sweep.oracle_agreement,
        "verdict": sweep.verdict,
    }


def sweeps(results, refs, rtol: float) -> list:
    """One flag per reference sweep."""
    if len(results) != len(refs):
        return [False] * len(refs)
    flags = []
    for sweep, ref in zip(results, refs):
        got = sweep_record(sweep)
        ok = (
            got["verdict"] == "converged" == ref["verdict"]
            and all(got[k] == ref[k] for k in
                    ("kind", "p", "target", "tolerance", "epsilons"))
            and got["oracle_agreement"] <= rtol
            and close(got["extrapolated_oracle"], ref["extrapolated_oracle"], rtol)
            and close(got["rel_gap"], ref["rel_gap"], rtol, floor=1.0)
            and len(got["quotients_oracle"]) == len(ref["quotients_oracle"])
            and all(close(q, r, rtol) for q, r in
                    zip(got["quotients_oracle"], ref["quotients_oracle"]))
            and all(close(q, r, rtol) for q, r in
                    zip(got["quotients_quadrature"], ref["quotients_oracle"]))
        )
        flags.append(ok)
    return flags


def mode_batch(target: float, quotients, ref: dict, rtol: float,
               slack: float) -> list:
    """One flag per mode-quotient lower bound of a reference batch."""
    ref_q = ref["quotients"]
    if target != ref["target"] or len(quotients) != len(ref_q):
        return [False] * len(ref_q)
    return [
        name == ref_name and q >= target - slack and close(q, ref_value, rtol)
        for (name, q), (ref_name, ref_value) in zip(quotients, ref_q)
    ]


def domain_entries(report) -> dict:
    """The fields of a VerificationReport that the gate compares."""
    return {
        "check_id": report.check_id,
        "passed": report.passed,
        "entries": [
            {k: e[k] for k in ("name", "lhs", "rhs", "tolerance", "passed")}
            for e in report.entries
        ],
    }


def domain_report(report, ref: dict) -> list:
    """One flag per reference entry: same name, passed, and lhs and rhs
    within the reference entry's own tolerance."""
    ref_entries = ref["entries"]
    if report.check_id != ref["check_id"] or len(report.entries) != len(ref_entries):
        return [False] * len(ref_entries)
    return [
        e["name"] == r["name"] and bool(e["passed"]) and r["passed"]
        and abs(e["lhs"] - r["lhs"]) <= r["tolerance"]
        and abs(e["rhs"] - r["rhs"]) <= r["tolerance"]
        for e, r in zip(report.entries, ref_entries)
    ]
