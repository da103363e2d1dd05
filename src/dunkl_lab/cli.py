"""Command-line entry point: named verification suites with JSON/CSV reports.

Usage:
    dunkl-lab verify <suite> [--family A|B|Z2|I2] [--rank n] [--k v1,v2]
                     [--p P|auto] [--nmax n] [--out dir]

``--rank`` is n for A_n, B_n and Z2^n and m for the dihedral I2(m).  Every
sharpness sweep runs one fixed configuration: the epsilon schedule, the
tolerances and the quadrature size are constants of ``inequalities``.
Suites: identities, harmonics, hardy, hardy-rellich, all.  Exit code 0 iff
every verdict passed, 1 on any failed verdict, 2 on a usage error, 3 on an
internal arithmetic fault.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from math import isfinite
from pathlib import Path

from .harmonics import (
    eigenvalue,
    hharmonic_dim,
    homogeneous_exponents,
    kernel_basis,
    sphere_eigencheck,
)
from .inequalities import mode_coefficients, sharpness_sweep
from .polyalg import Polynomial, identity_checks, norm_squared
from .reflection import build_root_system

SUITES = ("identities", "harmonics", "hardy", "hardy-rellich", "all")


class UsageError(ValueError):
    pass


def _sig15(x):
    """Round floats to 15 significant digits for byte-stable reports."""
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _sig15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig15(v) for v in x]
    return x


def _detail(check, passed, tolerance=0.0, **fields):
    """One summary.json entry: check, tolerance, the fields, passed."""
    return {"check": check, "tolerance": tolerance, **fields, "passed": passed}


def _build_system(cfg):
    try:
        ks = [Fraction(part.strip()) for part in cfg["k"].split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad multiplicity list {cfg['k']!r}: {exc}") from exc
    # a scalar broadcasts to every root orbit; an unknown family or a bad
    # rank raises ValueError (exit 2)
    return build_root_system(cfg["family"], cfg["rank"], ks[0] if len(ks) == 1 else ks)


def _random_exact_polynomials(N: int, count: int, max_degree: int = 3):
    rng = random.Random(12345)
    out = []
    for _ in range(count):
        terms = {}
        deg = rng.randint(1, max_degree)
        for d in range(deg + 1):
            for e in homogeneous_exponents(d, N):
                terms[e] = rng.randint(-3, 3)
        p = Polynomial(N, terms)
        if p.is_zero():
            p = norm_squared(N)
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# suites


def _suite_identities(rs, cfg):
    polys = _random_exact_polynomials(rs.dimension, 8)
    details = [
        _detail(name, ok, residual=residual)
        for name, ok, residual in identity_checks(rs, polys)
    ]
    return details, {}


def _suite_harmonics(rs, cfg):
    details = []
    nbar = rs.dimension + 2 * rs.gamma
    for n in range(1, cfg["nmax"] + 1):
        basis = kernel_basis(rs, n)
        expected = hharmonic_dim(n, rs.dimension)
        details.append(_detail(f"kernel_dimension/n={n}", len(basis) == expected,
                               value=len(basis), expected=expected))
        residual_zero = all(
            sphere_eigencheck(rs, p).is_zero() for p in basis[: min(3, len(basis))]
        )
        details.append(_detail(f"sphere_eigenvalue/n={n}", residual_zero,
                               value=float(eigenvalue(n, float(nbar)))))
    return details, {}


def _run_sweeps(rs, cfg, kinds, suite):
    """(details, csvs, sweeps), with sweeps[kind] the sweep of each kind."""
    details, csvs, sweeps = [], {}, {}
    for kind in kinds:
        # sharpness_sweep raises ValueError (exit 2) outside the admissible range
        sweep = sharpness_sweep(kind, rs.dimension, float(rs.gamma), p=cfg["p"])
        details.append(_detail(
            f"sharpness/{kind}", sweep.converged, sweep.tolerance,
            target=sweep.target, extrapolated=sweep.extrapolated_oracle,
            rel_gap=sweep.rel_gap, oracle_agreement=sweep.oracle_agreement,
        ))
        csvs[f"{suite}_{kind}.csv"] = sweep.csv_rows()
        sweeps[kind] = sweep
    return details, csvs, sweeps


def _suite_hardy(rs, cfg):
    return _run_sweeps(rs, cfg, ("hardy_p", "hardy_2"), "hardy")[:2]


def _suite_hardy_rellich(rs, cfg):
    details, csvs, sweeps = _run_sweeps(
        rs, cfg, ("rellich", "weighted_hr", "hardy_rellich"), "hardy-rellich"
    )
    N, gamma = rs.dimension, rs.gamma
    nbar = Fraction(N) + 2 * Fraction(gamma)
    if N >= 5 + 2 * gamma:
        c = nbar**2 / 4
        co1 = mode_coefficients(N, gamma, 1, c)
        co2 = mode_coefficients(N, gamma, 2, c)
        d1 = ((N - 5 - 2 * Fraction(gamma)) * nbar**2 + 4) / 4
        d2 = 2 * N * nbar**2 / 4
        details.append(_detail("mode_coefficients/d1", co1.d_n == d1 and co1.d_n >= 0,
                               value=float(co1.d_n), expected=float(d1)))
        details.append(_detail("mode_coefficients/d2", co2.d_n == d2,
                               value=float(co2.d_n), expected=float(d2)))
    # hardy_rellich with its decay exponent built from N in place of nbar:
    # for gamma > 0 the tail of int u^2 r^(nbar-5) grows like
    # r^(2 gamma - eps), divergent once eps < 2 gamma; at gamma = 0 it is
    # the sweep just run.  Informational: always passes.
    if gamma > 0:
        status, value = "divergent", None
    else:
        status, value = "finite", sweeps["hardy_rellich"].extrapolated_oracle
    details.append(_detail("raw_dimension_exponent_limit", True, status=status,
                           value=value))
    return details, csvs


_SUITE_FNS = {
    "identities": _suite_identities,
    "harmonics": _suite_harmonics,
    "hardy": _suite_hardy,
    "hardy-rellich": _suite_hardy_rellich,
}


# ---------------------------------------------------------------------------
# report emission


def emit_report(outdir: Path, suite: str, details, csvs) -> bool:
    outdir.mkdir(parents=True, exist_ok=True)
    passed = all(d.get("passed", False) for d in details)
    doc = {"suite": suite, "pass": passed, "details": _sig15(details)}
    with open(outdir / "summary.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    for name, rows in csvs.items():
        with open(outdir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epsilon", "quotient_oracle", "quotient_quadrature", "target",
                 "rel_gap"]
            )
            for row in rows:
                writer.writerow([f"{v:.15g}" for v in row])
    return passed


def run_suite(suite: str, cfg) -> int:
    rs = _build_system(cfg)
    names = list(_SUITE_FNS) if suite == "all" else [suite]
    details, csvs = [], {}
    for name in names:
        d, c = _SUITE_FNS[name](rs, cfg)
        details.extend(d)
        csvs.update(c)
    passed = emit_report(Path(cfg["out"]), suite, details, csvs)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument handling


def _build_parser():
    parser = argparse.ArgumentParser(prog="dunkl-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--family", default="A", choices=("A", "B", "Z2", "I2"))
    verify.add_argument("--rank", default=2, type=int)
    verify.add_argument("--k", default="1")
    verify.add_argument("--p", default="auto")
    verify.add_argument("--nmax", default=4, type=int)
    verify.add_argument("--out", default="dunkl-lab-out")
    return parser


def _resolve_options(args) -> dict:
    """The options as a dict, p a float or None for auto.  The output
    directory is checked before any suite runs."""
    cfg = vars(args)
    if cfg["nmax"] < 1:
        raise UsageError("--nmax must be at least 1")
    # the nearest existing path among out and its parents; nothing is created
    out = Path(cfg["out"])
    while not out.exists() and out != out.parent:
        out = out.parent
    if not out.is_dir():
        raise UsageError(f"--out {cfg['out']!r} is not a directory")
    # inf, nan and 1e400 parse as floats (a bad number raises ValueError:
    # exit 2); each is a usage error, not a verdict
    p = None if cfg["p"] == "auto" else float(cfg["p"])  # None: Nbar + 1
    if p is not None and not isfinite(p):
        raise UsageError("--p must be auto or a finite number")
    cfg["p"] = p
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return run_suite(args.suite, _resolve_options(args))
    except ValueError as exc:  # UsageError is a ValueError
        print(f"dunkl-lab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the report cannot be written
        print(f"dunkl-lab: error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"dunkl-lab: internal arithmetic fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
