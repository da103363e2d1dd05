"""Regenerate the gate's reference records from a trusted checkout.

    python3 benchmark/make_reference.py [--src PATH/TO/TRUSTED/src]

Runs every case in each workload's finite pool once with the package found
at --src (default: ./src of this checkout) and writes
benchmark/reference/<workload>.json.  Floats are stored with all their
digits.  Only regenerate from a commit whose verdicts are trusted: the gate
compares every later run with these records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def verify_all_reference(outdir: Path) -> dict:
    from dunkl_lab import cli

    import gate
    from workloads import VERIFY_SYSTEMS, read_report, verify_cases

    cases = {}
    for round_index in range(len(VERIFY_SYSTEMS[0][3])):
        for key, argv in verify_cases(0, round_index):
            out = outdir / "case"
            shutil.rmtree(out, ignore_errors=True)
            rc = cli.main(argv + ["--out", str(out)])
            files = read_report(out)
            cases[key] = {
                "rc": rc,
                "summary": json.loads(files.pop("summary.json")),
                "csv": {n: gate.parse_sweep_csv(b) for n, b in files.items()},
            }
    return {"cases": cases}


def domain_hardy_reference() -> dict:
    import gate
    from workloads import (DOMAIN_CORPUS_SEEDS, DOMAIN_KINDS, domain_case_key,
                           domain_context, run_domain_check)

    cases = {}
    for corpus_seed in DOMAIN_CORPUS_SEEDS:
        configs = domain_context(corpus_seed)
        for c, p_label, check in DOMAIN_KINDS:
            report = run_domain_check(configs[c], p_label, check)
            key = domain_case_key(corpus_seed, configs[c][0], p_label, check)
            cases[key] = gate.domain_entries(report)
    return {"cases": cases}


def sharpness_reference() -> dict:
    import gate
    from workloads import (MODE_BATCHES, MODE_CORPUS_SEEDS, run_sharpness_round,
                           sharpness_context)

    batches = sharpness_context()
    cases = {}
    for corpus_seed in MODE_CORPUS_SEEDS:
        sweeps, modes = run_sharpness_round(batches, corpus_seed)
        cases[str(corpus_seed)] = {
            "sweeps": [gate.sweep_record(s) for s in sweeps],
            "modes": [
                {"kind": spec[0], "target": target,
                 "quotients": [[name, q] for name, q in quotients]}
                for spec, (target, quotients) in zip(MODE_BATCHES, modes)
            ],
        }
    return {"cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/make_reference.py")
    parser.add_argument("--src", default=str(HERE.parent / "src"),
                        help="src directory of the trusted checkout")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "dunkl_lab" / "__init__.py").is_file():
        parser.error(f"no dunkl_lab package under {src}")
    from run import THREAD_PINS  # sets the pins before numpy loads

    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(src))
    from dunkl_lab import __version__
    from dunkl_lab.inequalities import ORACLE_AGREEMENT_RTOL

    outdir = HERE.parent / ".bench_out" / f"reference-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        records = {
            "verify_all": verify_all_reference(outdir),
            "domain_hardy": domain_hardy_reference(),
            "sharpness": sharpness_reference(),
        }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, doc in records.items():
        doc = {"package_version": __version__,
               "oracle_agreement_rtol": ORACLE_AGREEMENT_RTOL, **doc}
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE_DIR / f'{name}.json'}: {len(doc['cases'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
