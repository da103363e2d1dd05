import csv
import json
from pathlib import Path

import pytest

from dunkl_lab import cli, harmonics, polyalg
from dunkl_lab.cli import main
from dunkl_lab.reflection import build_root_system

CSV_HEADER = ["epsilon", "quotient_oracle", "quotient_quadrature", "target",
              "rel_gap"]
GOLDEN = Path(__file__).parent / "golden"


def _run(args):
    return main(args)


def _record_suites(monkeypatch):
    """Replace every suite by a stub that only records its name."""
    ran = []
    monkeypatch.setattr(cli, "_SUITE_FNS", {
        name: lambda rs, cfg, name=name: ran.append(name) or ([], {})
        for name in cli._SUITE_FNS
    })
    return ran


def test_identities_suite_passes(tmp_path):
    out = tmp_path / "o"
    assert _run(["verify", "identities", "--family", "B", "--rank", "2",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["suite"] == "identities"
    assert doc["pass"] is True
    assert doc["details"] and all(d["passed"] for d in doc["details"])


def test_disagreeing_laplacian_routes_fail_the_identities_suite(tmp_path,
                                                               monkeypatch):
    fast = polyalg.dunkl_laplacian_fast
    monkeypatch.setattr(polyalg, "dunkl_laplacian_fast",
                        lambda rs, p: fast(rs, p) + polyalg.constant(2, 1))
    out = tmp_path / "o"
    assert _run(["verify", "identities", "--family", "B", "--rank", "2",
                 "--out", str(out)]) == 1
    doc = json.loads((out / "summary.json").read_text())
    failed = {d["check"].split("/")[0] for d in doc["details"] if not d["passed"]}
    assert doc["pass"] is False and failed == {"laplacian_routes"}


def test_hardy_suite_csv_schema(tmp_path):
    out = tmp_path / "o"
    assert _run(["verify", "hardy", "--family", "A", "--rank", "2",
                 "--k", "0.5", "--p", "auto", "--out", str(out)]) == 0
    with open(out / "hardy_hardy_p.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 7  # header + default six epsilons
    final_gap = float(rows[-1][4])
    assert final_gap < 0.01
    # epsilons decrease down the file
    eps = [float(r[0]) for r in rows[1:]]
    assert eps == sorted(eps, reverse=True)


def test_harmonics_suite(tmp_path):
    out = tmp_path / "o"
    assert _run(["verify", "harmonics", "--family", "Z2", "--rank", "3",
                 "--nmax", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    dims = {d["check"]: d for d in doc["details"] if "kernel_dimension"
            in d["check"]}
    assert len(dims) == 4
    assert all(d["value"] == d["expected"] for d in dims.values())


@pytest.mark.parametrize("k, status", [("0", "finite"), ("1", "divergent")])
def test_raw_dimension_limit_reads_the_hardy_rellich_sweep(tmp_path, k, status):
    out = tmp_path / "o"
    assert _run(["verify", "hardy-rellich", "--family", "Z2", "--rank", "5",
                 "--k", k, "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    details = {d["check"]: d for d in doc["details"]}
    raw = details["raw_dimension_exponent_limit"]
    assert raw["status"] == status and raw["passed"] is True
    if status == "finite":
        sweep = details["sharpness/hardy_rellich"]
        assert raw["value"] == sweep["extrapolated"]
        assert raw["value"] == pytest.approx(sweep["target"], rel=0.01)
    else:
        assert raw["value"] is None


def test_wrong_sphere_eigenvalue_fails_the_harmonics_suite(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(harmonics, "eigenvalue",
                        lambda n, nbar: n * (n + nbar - 3))
    rs = build_root_system("Z2", 3, 1)
    p = harmonics.kernel_basis(rs, 2)[0]
    assert not harmonics.sphere_eigencheck(rs, p).is_zero()
    out = tmp_path / "o"
    assert _run(["verify", "harmonics", "--family", "Z2", "--rank", "3",
                 "--nmax", "3", "--out", str(out)]) == 1
    doc = json.loads((out / "summary.json").read_text())
    failed = [d["check"] for d in doc["details"] if not d["passed"]]
    assert failed == [f"sphere_eigenvalue/n={n}" for n in (1, 2, 3)]


def test_all_suite_and_reports(tmp_path):
    out = tmp_path / "o"
    assert _run(["verify", "all", "--family", "Z2", "--rank", "5",
                 "--k", "1,0,0,0,0", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "summary.json" in names
    assert "hardy_hardy_2.csv" in names
    assert "hardy-rellich_rellich.csv" in names


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "hardy", "--family", "A", "--rank", "2", "--k", "1"]
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "hardy_hardy_p.csv").read_bytes() == (
        b / "hardy_hardy_p.csv"
    ).read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys):
    for argv, message in [
        (["hardy", "--family", "A", "--rank", "2", "--p", "3"],
         "hardy_p needs p > nbar"),
        (["hardy", "--k", "bogus"], "bad multiplicity list"),
        (["harmonics", "--nmax", "0"], "--nmax must be at least 1"),
    ]:
        out = tmp_path / argv[0]
        assert _run(["verify", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert _run(["verify", "nonsense"]) == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    assert _run(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--p", "inf"], ["--p", "1e400"]],
                         ids=["p=inf", "p=1e400"])
def test_non_finite_number_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert _run(["verify", "hardy", "--family", "A", "--rank", "2", *flags,
                 "--out", str(out)]) == 2
    assert "dunkl-lab: error: --p must be auto or a finite number" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0.3"), ("--tol", "1"), ("--quad-order", "16"),
    ("--config", "f.json"),
])
def test_sweep_configuration_is_not_an_option(tmp_path, monkeypatch, capsys,
                                              flag, value):
    # every sweep runs the fixed schedule, tolerances and quadrature size
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text("{}")
    out = tmp_path / "o"
    assert _run(["verify", "hardy", flag, value, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("golden, flags", [
    ("identities_B3_k1_2-1.json",
     ["identities", "--family", "B", "--rank", "3", "--k", "1/2,1"]),
    ("harmonics_Z2_3_nmax4.json",
     ["harmonics", "--family", "Z2", "--rank", "3", "--nmax", "4"]),
])
def test_summary_bytes_match_the_golden_files(tmp_path, golden, flags):
    # key order and float format, not only values; both suites are exact, so
    # no byte depends on the numpy version or the platform
    out = tmp_path / "o"
    assert _run(["verify", *flags, "--out", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
def test_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o" if below else blocker
    assert _run(["verify", "harmonics", "--family", "Z2", "--rank", "2",
                 "--nmax", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dunkl-lab: error:") and err.count("\n") == 1
    assert "is not a directory" in err


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
def test_out_that_is_not_a_directory_is_rejected_before_any_suite_runs(
        tmp_path, monkeypatch, capsys, below):
    ran = _record_suites(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o" if below else blocker
    assert _run(["verify", "all", "--family", "B", "--rank", "3",
                 "--out", str(out)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert ran == []


def test_dihedral_order_is_the_rank(tmp_path, capsys):
    # I2(6) has six positive roots: Nbar = 2 + 2*6 = 14, hardy_2 target 36
    out = tmp_path / "o"
    assert _run(["verify", "hardy", "--family", "I2", "--rank", "6",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    targets = {d["check"]: d["target"] for d in doc["details"]}
    assert targets["sharpness/hardy_2"] == 36.0
    # there is no separate order option
    assert _run(["verify", "hardy", "--family", "I2", "--m", "6",
                 "--out", str(tmp_path / "m")]) == 2
    assert "unrecognized arguments: --m 6" in capsys.readouterr().err


def test_fourth_order_needs_large_nbar(tmp_path, capsys):
    # N + 2 gamma = 2 for Z2^2 with k = 0: usage error, not a crash
    for suite, message in (("hardy-rellich", "rellich needs nbar > 4"),
                           ("hardy", "hardy_2 needs nbar > 2")):
        assert _run(["verify", suite, "--family", "Z2", "--rank", "2",
                     "--k", "0", "--out", str(tmp_path / suite)]) == 2
        assert message in capsys.readouterr().err


def test_internal_fault_exits_3(tmp_path, capsys):
    # at p = 200 the quadrature quotient of hardy_p is NaN; the closed-form
    # cross-check must reject it as an internal fault, not pass or fail it
    with pytest.warns(RuntimeWarning):
        code = _run(["verify", "hardy", "--family", "A", "--rank", "2",
                     "--k", "1", "--p", "200", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "internal arithmetic fault" in capsys.readouterr().err


def test_negated_divided_difference_fails_identity_verdicts(tmp_path, monkeypatch,
                                                            capsys):
    # a negated divided difference is T_i at -k, so commutativity still holds;
    # the closed-form Laplacian, the product rule's correction term and the
    # divided-difference identity are built without it, so their verdicts fail
    original = polyalg.divided_difference
    monkeypatch.setattr(polyalg, "divided_difference",
                        lambda p, root: -original(p, root))
    out = tmp_path / "o"
    assert _run(["verify", "identities", "--family", "B", "--rank", "2",
                 "--out", str(out)]) == 1
    assert "internal arithmetic fault" not in capsys.readouterr().err
    doc = json.loads((out / "summary.json").read_text())
    failed = {d["check"].split("/")[0] for d in doc["details"] if not d["passed"]}
    assert failed == {"laplacian_routes", "leibniz_general", "divided_difference"}
