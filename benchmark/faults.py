"""Fault injections for the gate's self-check.

Each fault only rebinds names inside the benchmark's own process, after the
package is imported; no package file changes.  Run

    python3 benchmark/faults.py

to run every fault on the workload that should catch it and confirm that
the run reports pass_ratio < 1 and exits non-zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

from patching import Patches


def _package(name):
    return importlib.import_module(f"dunkl_lab.{name}")


def sharp_constant_off(patches: Patches):
    """sharp_constant("hardy_2", ...) reads 0.5% high."""
    original = _package("inequalities").sharp_constant

    def faulty(kind, nbar, p=None):
        value = original(kind, nbar, p)
        return value * 1.005 if kind == "hardy_2" else value

    patches.rebind(original, faulty)


def remainder_negated(patches: Patches):
    """The bracket -lap delta + (p/2-1)<rho,grad delta> - (p/2)|<rho,grad
    delta>| of hardy_remainder_check changes sign.  With pairing >= 0 (true
    on every supported domain) the bracket is -L - pairing, so reading
    L' = -L - 2 pairing in place of L negates it exactly."""
    inequalities = _package("inequalities")
    original = inequalities.distance_data

    def faulty(*args, **kwargs):
        dd = original(*args, **kwargs)
        lap, pairing = dd.laplacian_delta, dd.rho_pairing
        return dataclasses.replace(
            dd, laplacian_delta=lambda x: -lap(x) - 2.0 * pairing(x)
        )

    patches.rebind(original, faulty, [inequalities])


def divided_difference_negated(patches: Patches):
    original = _package("polyalg").divided_difference

    def faulty(p, root):
        return -original(p, root)

    patches.rebind(original, faulty)


def summary_byte_corrupted(patches: Patches):
    """One byte of summary.json changes: the first letter of the first
    check name."""
    cli = _package("cli")
    original = cli.emit_report

    def faulty(outdir, suite, details, csvs):
        passed = original(outdir, suite, details, csvs)
        path = Path(outdir) / "summary.json"
        data = bytearray(path.read_bytes())
        at = data.index(b'"check": "') + len(b'"check": "')
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        return passed

    patches.rebind(original, faulty, [cli])


FAULTS = {
    "sharp_constant": sharp_constant_off,
    "remainder_sign": remainder_negated,
    "divided_difference": divided_difference_negated,
    "summary_byte": summary_byte_corrupted,
}

# which workloads must catch each fault
CATCHES = (
    ("sharp_constant", "verify_all"),
    ("sharp_constant", "sharpness"),
    ("remainder_sign", "domain_hardy"),
    ("divided_difference", "verify_all"),
    ("summary_byte", "verify_all"),
)


def run_with_fault(fault: str, workload: str, seed: int = 1, seconds: int = 1):
    """(exit code, result line) of a short benchmark run with the fault."""
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--fault", fault],
        capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    bad = 0
    for fault, workload in CATCHES:
        code, result = run_with_fault(fault, workload)
        ratio = result["metrics"]["pass_ratio"]["value"] if result else None
        caught = code != 0 and ratio is not None and ratio < 1.0
        bad += not caught
        print(f"{fault:20s} {workload:13s} exit={code} pass_ratio={ratio} "
              f"{'caught' if caught else 'MISSED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
