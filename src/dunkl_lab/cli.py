"""Command-line entry point: named verification suites with JSON/CSV reports.

Usage:
    dunkl-lab verify <suite> [--family A|B|Z2|I2] [--rank n] [--k v1,v2]
                     [--p P|auto] [--eps e1,e2,...] [--tol t]
                     [--quad-order q] [--nmax n] [--config file.json]
                     [--out dir]

``--rank`` is n for A_n, B_n and Z2^n and m for the dihedral I2(m).
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

from .harmonics import eigenvalue, hharmonic_dim, kernel_basis, sphere_eigencheck
from .inequalities import (
    alternate_exponent_limit,
    mode_coefficients,
    sharpness_sweep,
)
from .polyalg import Polynomial, identity_checks, norm_squared
from .reflection import build_root_system

SUITES = ("identities", "harmonics", "hardy", "hardy-rellich", "all")

_DEFAULTS = {
    "family": "A",
    "rank": 2,
    "k": "1",
    "p": "auto",
    "eps": "0.3,0.1,0.03,0.01,0.003,0.001",
    "tol": None,
    "quad_order": 48,
    "nmax": 4,
    "out": "dunkl-lab-out",
}


# the JSON values a config file may give each key, as (types, description);
# a bool is never one of them
_NUMBER = (int, float)
_CONFIG_TYPES = {
    "family": ((str,), "a string"),
    "rank": ((int,), "an integer"),
    "k": ((str,) + _NUMBER, "a string or a number"),
    "p": ((str,) + _NUMBER, "a string or a number"),
    "eps": ((str,) + _NUMBER, "a string or a number"),
    "tol": (_NUMBER + (type(None),), "a number or null"),
    "quad_order": ((int,), "an integer"),
    "nmax": ((int,), "an integer"),
    "out": ((str,), "a string"),
}


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


def _parse_multiplicities(text: str):
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad multiplicity list {text!r}: {exc}") from exc


def _build_system(cfg):
    family = cfg["family"].upper()
    if family not in ("A", "B", "Z2", "I2"):
        raise UsageError(f"unknown family {cfg['family']!r}")
    ks = _parse_multiplicities(str(cfg["k"]))
    if len(ks) == 1:
        ks = ks[0]  # scalar broadcasts to every root orbit
    try:
        return build_root_system(family, int(cfg["rank"]), ks)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _random_exact_polynomials(N: int, count: int, max_degree: int = 3):
    rng = random.Random(12345)
    from .harmonics import homogeneous_exponents

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
        {"check": name, "tolerance": 0.0, "residual": residual, "passed": ok}
        for name, ok, residual in identity_checks(rs, polys)
    ]
    return details, {}


def _suite_harmonics(rs, cfg):
    details = []
    nbar = rs.dimension + 2 * rs.gamma
    for n in range(1, int(cfg["nmax"]) + 1):
        basis = kernel_basis(rs, n)
        expected = hharmonic_dim(n, rs.dimension)
        details.append(
            {
                "check": f"kernel_dimension/n={n}",
                "tolerance": 0.0,
                "value": len(basis),
                "expected": expected,
                "passed": len(basis) == expected,
            }
        )
        residual_zero = all(
            sphere_eigencheck(rs, p).is_zero() for p in basis[: min(3, len(basis))]
        )
        details.append(
            {
                "check": f"sphere_eigenvalue/n={n}",
                "tolerance": 0.0,
                "value": float(eigenvalue(n, float(nbar))),
                "passed": residual_zero,
            }
        )
    return details, {}


def _sweep_entry(sweep):
    return {
        "check": f"sharpness/{sweep.kind}",
        "tolerance": sweep.tolerance,
        "target": sweep.target,
        "extrapolated": sweep.extrapolated_oracle,
        "rel_gap": sweep.rel_gap,
        "oracle_agreement": sweep.oracle_agreement,
        "passed": sweep.converged,
    }


def _run_sweeps(rs, cfg, kinds, suite):
    epsilons = [float(e) for e in cfg["eps"].split(",") if e.strip()]
    p = None if cfg["p"] == "auto" else float(cfg["p"])  # None: Nbar + 1
    details, csvs = [], {}
    for kind in kinds:
        # sharpness_sweep raises ValueError (exit 2) outside the admissible range
        sweep = sharpness_sweep(
            kind,
            rs.dimension,
            float(rs.gamma),
            p=p,
            epsilons=epsilons,
            tolerance=cfg["tol"],
            nodes=int(cfg["quad_order"]),
        )
        details.append(_sweep_entry(sweep))
        csvs[f"{suite}_{kind}.csv"] = sweep.csv_rows()
    return details, csvs


def _suite_hardy(rs, cfg):
    return _run_sweeps(rs, cfg, ("hardy_p", "hardy_2"), "hardy")


def _suite_hardy_rellich(rs, cfg):
    details, csvs = _run_sweeps(
        rs, cfg, ("rellich", "weighted_hr", "hardy_rellich"), "hardy-rellich"
    )
    N, gamma = rs.dimension, rs.gamma
    nbar = Fraction(N) + 2 * Fraction(gamma)
    if N >= 5 + 2 * gamma:
        c = nbar**2 / 4
        co1 = mode_coefficients(N, gamma, 1, c)
        co2 = mode_coefficients(N, gamma, 2, c)
        d1 = ((N - 5 - 2 * Fraction(gamma)) * nbar**2 + 4) / 4
        details.append(
            {
                "check": "mode_coefficients/d1",
                "tolerance": 0.0,
                "value": float(co1.d_n),
                "expected": float(d1),
                "passed": co1.d_n == d1 and co1.d_n >= 0,
            }
        )
        details.append(
            {
                "check": "mode_coefficients/d2",
                "tolerance": 0.0,
                "value": float(co2.d_n),
                "expected": float(2 * N * nbar**2 / 4),
                "passed": co2.d_n == 2 * N * nbar**2 / 4,
            }
        )
    status, value = alternate_exponent_limit(rs.dimension, float(rs.gamma))
    details.append(
        {
            "check": "raw_dimension_exponent_limit",
            "tolerance": 0.0,
            "status": status,
            "value": value,
            "passed": True,  # informational
        }
    )
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
    verify.add_argument("--family", choices=["A", "B", "Z2", "I2"])
    verify.add_argument("--rank", type=int)
    verify.add_argument("--k")
    verify.add_argument("--p")
    verify.add_argument("--eps")
    verify.add_argument("--tol", type=float)
    verify.add_argument("--quad-order", type=int, dest="quad_order")
    verify.add_argument("--nmax", type=int)
    verify.add_argument("--config")
    verify.add_argument("--out")
    return parser


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            key = key.replace("-", "_")
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r}")
            types, description = _CONFIG_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise UsageError(
                    f"config key {key!r} takes {description}, not {value!r}"
                )
            # read a number as its flag's text (--k, --p, --eps) or float (--tol)
            if key in ("k", "p", "eps"):
                value = str(value)
            elif key == "tol" and value is not None:
                value = float(value)
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # inf and nan parse as floats (a bad number raises ValueError: exit 2);
    # each is a usage error, not a verdict
    if cfg["tol"] is not None and not _positive(float(cfg["tol"])):
        raise UsageError("--tol must be finite and positive")
    if int(cfg["quad_order"]) < 8:
        raise UsageError("--quad-order must be at least 8")
    if int(cfg["nmax"]) < 1:
        raise UsageError("--nmax must be at least 1")
    eps = [float(e) for e in str(cfg["eps"]).split(",") if e.strip()]
    if not eps or any(a <= b for a, b in zip(eps, eps[1:])):
        raise UsageError("--eps must be a strictly decreasing list")
    if not all(_positive(e) for e in eps):
        raise UsageError("--eps values must be finite and positive")
    if cfg["p"] != "auto" and not isfinite(float(cfg["p"])):
        raise UsageError("--p must be auto or a finite number")
    return cfg


def _positive(x: float) -> bool:
    return isfinite(x) and x > 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _merge_config(args)
        return run_suite(args.suite, cfg)
    except ValueError as exc:  # UsageError is a ValueError
        print(f"dunkl-lab: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"dunkl-lab: internal arithmetic fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
