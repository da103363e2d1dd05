"""Record comparison of the correctness gate."""

import copy
import csv
import io
import json
from types import SimpleNamespace

import pytest

import gate
import workloads

RTOL = 1e-6


def test_close_is_relative_unless_floored():
    for ref in (100.0, 1.3e-9):
        assert gate.close(ref * (1 + 0.9e-6), ref, RTOL)
        assert not gate.close(ref * (1 + 1.1e-6), ref, RTOL)
    assert gate.close(0.0123 + 0.9e-6, 0.0123, RTOL, floor=1.0)
    assert not gate.close(0.0123 + 1.1e-6, 0.0123, RTOL, floor=1.0)
    assert not gate.close(True, 1.0, RTOL)
    assert not gate.close(None, 1.0, RTOL)


def test_detail_matches_exact_and_approximate_fields():
    ref = {"check": "sharpness/hardy_2", "tolerance": 0.01, "target": 2.25,
           "extrapolated": 2.2501, "rel_gap": 4.4e-5,
           "oracle_agreement": 1e-12, "passed": True}
    assert gate.detail_matches(dict(ref), ref, RTOL)
    assert gate.detail_matches(dict(ref, extrapolated=2.2501 * (1 + 5e-7)),
                               ref, RTOL)
    assert gate.detail_matches(dict(ref, oracle_agreement=9e-7), ref, RTOL)
    for bad in (dict(ref, target=2.25 * 1.005), dict(ref, tolerance=0.02),
                dict(ref, extrapolated=2.2501 * (1 + 2e-6)),
                dict(ref, oracle_agreement=2e-6), dict(ref, passed=1),
                dict(ref, check="sharpness/hardy_p"), {**ref, "extra": 1}):
        assert not gate.detail_matches(bad, ref, RTOL)


def _report_files(case: dict) -> dict:
    """The files `verify` writes, rebuilt from a reference case."""
    files = {"summary.json":
             (json.dumps(case["summary"], indent=2) + "\n").encode()}
    for name, rows in case["csv"].items():
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(gate.SWEEP_CSV_HEADER)
        for row in rows:
            writer.writerow([f"{v:.15g}" for v in row])
        files[name] = buf.getvalue().encode()
    return files


@pytest.fixture(scope="module")
def verify_ref():
    return workloads.load_reference("verify_all")


def test_verify_case_passes_its_own_record(verify_ref):
    case = verify_ref["cases"]["B3|1/2,1"]
    flags = gate.verify_case(0, _report_files(case), case, RTOL)
    assert len(flags) == 62 and all(flags)


def test_verify_case_flags_a_changed_target(verify_ref):
    case = verify_ref["cases"]["A2|1"]
    doc = copy.deepcopy(case["summary"])
    idx = next(i for i, d in enumerate(doc["details"])
               if d["check"] == "sharpness/hardy_2")
    doc["details"][idx]["target"] *= 1.005
    files = _report_files(dict(case, summary=doc))
    flags = gate.verify_case(0, files, case, RTOL)
    assert [i for i, f in enumerate(flags) if not f] == [idx]


@pytest.mark.parametrize("shift, ok", [(5e-7, True), (3e-6, False)])
def test_verify_case_bounds_quadrature_by_oracle_agreement(verify_ref, shift, ok):
    case = verify_ref["cases"]["Z2^5|1/3"]
    name = "hardy_hardy_p.csv"
    rows = copy.deepcopy(case["csv"][name])
    rows[0][2] = rows[0][1] * (1 + shift)  # quadrature vs reference oracle
    files = _report_files(dict(case, csv=dict(case["csv"], **{name: rows})))
    flags = gate.verify_case(0, files, case, RTOL)
    failed = {case["summary"]["details"][i]["check"]
              for i, f in enumerate(flags) if not f}
    assert failed == (set() if ok else {"sharpness/hardy_p"})


def test_verify_case_fails_everything_on_a_bad_exit_or_file_set(verify_ref):
    case = verify_ref["cases"]["A2|2"]
    files = _report_files(case)
    assert not any(gate.verify_case(1, files, case, RTOL))
    files.pop("hardy_hardy_2.csv")
    assert not any(gate.verify_case(0, files, case, RTOL))
    broken = dict(_report_files(case), **{"summary.json": b"{"})
    assert not any(gate.verify_case(0, broken, case, RTOL))


def _domain_report(ref, **changes):
    entries = [dict(e) for e in ref["entries"]]
    entries[0].update(changes)
    return SimpleNamespace(check_id=ref["check_id"], entries=entries)


def test_domain_report_uses_each_entry_tolerance():
    ref = next(iter(workloads.load_reference("domain_hardy")["cases"].values()))
    tol = ref["entries"][0]["tolerance"]
    assert all(gate.domain_report(_domain_report(ref), ref))
    near = _domain_report(ref, rhs=ref["entries"][0]["rhs"] + 0.9 * tol)
    assert all(gate.domain_report(near, ref))
    far = _domain_report(ref, lhs=ref["entries"][0]["lhs"] - 1.1 * tol)
    assert gate.domain_report(far, ref) == [False] + [True] * (len(ref["entries"]) - 1)
    failed = _domain_report(ref, passed=False)
    assert not gate.domain_report(failed, ref)[0]


def test_mode_batch_and_sweeps_against_their_records():
    ref = workloads.load_reference("sharpness")["cases"]["2024"]
    batch = ref["modes"][0]
    quotients = [tuple(q) for q in batch["quotients"]]
    assert all(gate.mode_batch(batch["target"], quotients, batch, RTOL, 1e-6))
    assert not any(gate.mode_batch(batch["target"] * 1.005, quotients, batch,
                                   RTOL, 1e-6))
    sweeps = [SimpleNamespace(**{**r, "epsilons": tuple(r["epsilons"])})
              for r in ref["sweeps"]]
    assert all(gate.sweeps(sweeps, ref["sweeps"], RTOL))
    sweeps[4].verdict = "failed"
    assert gate.sweeps(sweeps, ref["sweeps"], RTOL).count(False) == 1
