"""The three benchmark workloads.

Each workload builds a fixed context from the seed (``setup``), yields an
endless stream of ops of one cost class (``schedule``), runs one op through
the package's public functions (``execute``, the timed part) and turns its
output into per-verdict pass/fail flags through the correctness gate
(``check``, untimed).  ``trace_ops`` is the fixed op list of a traced run.

The package is imported lazily inside ``setup`` so that a set-up probe can
time the import of ``dunkl_lab`` itself.
"""

from __future__ import annotations

import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import gate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify_all: one op = one round of `dunkl-lab verify all` over A2, B3, Z2^5


VERIFY_SYSTEMS = (
    ("A2", "A", 2, ("1", "1/2", "2")),
    ("B3", "B", 3, ("1", "1/2,1", "1,1/3")),
    ("Z2^5", "Z2", 5, ("1", "1/2", "1/3")),
)


def verify_cases(seed: int, round_index: int):
    """(case key, argv) per system for one round.  The seed's base-3 digits
    pick each system's first multiplicity; each round steps every system to
    the next one in its pool, so any three consecutive rounds run all nine
    cases and every run does the same work whatever its seed."""
    cases = []
    for pos, (name, family, rank, pool) in enumerate(VERIFY_SYSTEMS):
        k = pool[(seed // 3**pos + round_index) % len(pool)]
        argv = ["verify", "all", "--family", family, "--rank", str(rank),
                "--k", k]
        cases.append((f"{name}|{k}", argv))
    return cases


def read_report(outdir: Path) -> dict:
    """File name -> bytes of everything one `verify` call wrote."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@dataclass
class VerifyAllContext:
    seed: int
    outdir: Path
    reference: dict | None = None  # attached after set-up
    first_bytes: dict = field(default_factory=dict)


class VerifyAll:
    name = "verify_all"

    def setup(self, seed: int, outdir: Path) -> VerifyAllContext:
        from dunkl_lab import cli  # noqa: F401  (import is part of set-up)

        return VerifyAllContext(seed, outdir)

    def schedule(self, ctx, seed: int):
        yield from itertools.count()

    def trace_ops(self, ctx):
        return [0]

    def execute(self, ctx, op):
        from dunkl_lab import cli

        rcs = []
        for i, (_, argv) in enumerate(verify_cases(ctx.seed, op)):
            out = ctx.outdir / f"case{i}"
            if out.exists():
                shutil.rmtree(out)
            rcs.append(cli.main(argv + ["--out", str(out)]))
        return rcs

    def expected_verdicts(self, ctx, op) -> int:
        return sum(len(ctx.reference["cases"][key]["summary"]["details"])
                   for key, _ in verify_cases(ctx.seed, op))

    def check(self, ctx, op, rcs) -> list:
        flags = []
        rtol = ctx.reference["oracle_agreement_rtol"]
        for i, (key, _) in enumerate(verify_cases(ctx.seed, op)):
            ref = ctx.reference["cases"][key]
            files = read_report(ctx.outdir / f"case{i}")
            ok = gate.verify_case(rcs[i], files, ref, rtol)
            # reruns of one case within a run must be byte-identical
            first = ctx.first_bytes.setdefault(key, files)
            if files != first:
                ok = [False] * len(ok)
            flags.extend(ok)
        return flags


# ---------------------------------------------------------------------------
# domain_hardy: one op = one remainder or eps check on one criterion-6 config


DOMAIN_CORPUS_SEEDS = (77, 1077, 2077, 3077)
DOMAIN_BUMPS = 8
DOMAIN_EPS = 0.7
DOMAIN_CHECKS = ("remainder", "eps")
DOMAIN_PS = ("2", "nbar+1")


def domain_configs():
    """(name, DomainSpec, RootSystem, radial breakpoints) of criterion 6."""
    from dunkl_lab.domains import DomainSpec
    from dunkl_lab.reflection import build_root_system, embed_root_system

    a2 = build_root_system("A", 2, 1)
    ball = DomainSpec("exterior_ball", 3, radius=1.0)
    inner = (0.0, 1.0, 2.0, 3.0, 4.0)
    outer = (1.0, 1.5, 2.25, 3.0, 4.0)
    return [
        ("halfspace/Z2^2", DomainSpec("halfspace", 3, axis=2),
         embed_root_system(build_root_system("Z2", 2, 1), 3), inner),
        ("wedge/A2", DomainSpec("wedge_SN", 3), a2, inner),
        ("exterior_ball/A2", ball, a2, outer),
        ("exterior_ball/Z2^3", ball, build_root_system("Z2", 3, 1), outer),
    ]


DOMAIN_KINDS = tuple(
    (c, p, check) for c in range(4) for p in DOMAIN_PS for check in DOMAIN_CHECKS
)


def domain_case_key(corpus_seed, config_name, p_label, check) -> str:
    return f"{corpus_seed}|{config_name}|p={p_label}|{check}"


def domain_context(corpus_seed: int):
    """Per config: (name, spec, rs, grid, rule, corpus)."""
    import numpy as np

    from dunkl_lab.corpus import domain_bump_corpus
    from dunkl_lab.domains import distance_data
    from dunkl_lab.quad import RadialGrid, jitter_off_hyperplanes, sphere_rule

    out = []
    for i, (name, spec, rs, bps) in enumerate(domain_configs()):
        rng = np.random.default_rng([corpus_seed, i])
        corpus = domain_bump_corpus(distance_data(spec, rs), rng, DOMAIN_BUMPS,
                                    4.0)
        rule = jitter_off_hyperplanes(sphere_rule(3, 10), rs)
        out.append((name, spec, rs, RadialGrid(bps, nodes_per_interval=32),
                    rule, corpus))
    return out


def run_domain_check(config, p_label, check):
    from dunkl_lab.inequalities import hardy_eps_check, hardy_remainder_check

    _, spec, rs, grid, rule, corpus = config
    p = 2.0 if p_label == "2" else 3.0 + 2.0 * float(rs.gamma) + 1.0
    if check == "remainder":
        return hardy_remainder_check(rs, corpus, spec, p, grid, rule)
    return hardy_eps_check(rs, corpus, spec, p, DOMAIN_EPS, grid, rule)


@dataclass
class DomainContext:
    corpus_seed: int
    configs: list
    reference: dict | None = None


class DomainHardy:
    name = "domain_hardy"

    def setup(self, seed: int, outdir: Path) -> DomainContext:
        corpus_seed = DOMAIN_CORPUS_SEEDS[seed % len(DOMAIN_CORPUS_SEEDS)]
        return DomainContext(corpus_seed, domain_context(corpus_seed))

    def schedule(self, ctx, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        while True:
            for j in rng.permutation(len(DOMAIN_KINDS)):
                yield DOMAIN_KINDS[j]

    def trace_ops(self, ctx):
        return list(DOMAIN_KINDS)

    def execute(self, ctx, op):
        c, p_label, check = op
        return run_domain_check(ctx.configs[c], p_label, check)

    def _ref(self, ctx, op):
        c, p_label, check = op
        key = domain_case_key(ctx.corpus_seed, ctx.configs[c][0], p_label, check)
        return ctx.reference["cases"][key]

    def expected_verdicts(self, ctx, op) -> int:
        return len(self._ref(ctx, op)["entries"])

    def check(self, ctx, op, report) -> list:
        return gate.domain_report(report, self._ref(ctx, op))


# ---------------------------------------------------------------------------
# sharpness: one op = the 13 sweeps of criteria 1-5 plus four 50-function
# single-mode corpora


SWEEPS = (
    ("hardy_p", 3, 0.5, 5.0), ("hardy_p", 3, 1.0, 7.0), ("hardy_p", 4, 0.0, 5.0),
    ("hardy_2", 3, 0.5, None), ("hardy_2", 3, 1.0, None),
    ("hardy_2", 4, 0.0, None),
    ("rellich", 5, 0.0, None), ("rellich", 5, 0.5, None),
    ("rellich", 6, 1.0, None),
    ("weighted_hr", 5, 0.0, None), ("weighted_hr", 5, 1.0, None),
    ("hardy_rellich", 5, 0.0, None), ("hardy_rellich", 7, 1.0, None),
)
# (functional, Z2^N multiplicities, harmonic degrees, sphere rule (N, order))
MODE_BATCHES = (
    ("weighted_hr", (0,) * 5, (0, 1, 2, 3), (5, 10)),
    ("weighted_hr", (1, 0, 0, 0, 0), (0, 1, 2, 3), (5, 10)),
    ("hardy_rellich", (0,) * 5, (0, 1, 2, 3), (5, 10)),
    ("hardy_rellich", (1, 0, 0, 0, 0, 0, 0), (0, 1, 2), (7, 6)),
)
MODE_CORPUS_SIZE = 50
MODE_CORPUS_SEEDS = (2024, 2025, 2026, 2027)
MODE_BOUND_SLACK = 1e-6  # criteria 4-5: quotient >= target - 1e-6


def sharpness_context():
    """Root systems and sphere rules of the mode batches."""
    from dunkl_lab.quad import sphere_rule
    from dunkl_lab.reflection import build_root_system

    return [
        (kind, build_root_system("Z2", len(ks), list(ks)), degrees,
         sphere_rule(*rule))
        for kind, ks, degrees, rule in MODE_BATCHES
    ]


def run_sharpness_round(batches, corpus_seed: int):
    """(sweeps, modes); modes holds per batch (target, [(name, q), ...])."""
    import numpy as np

    from dunkl_lab.corpus import mode_corpus
    from dunkl_lab.inequalities import mode_quotient, sharp_constant, sharpness_sweep

    sweeps = [sharpness_sweep(kind, N, g, p=p) for kind, N, g, p in SWEEPS]
    modes = []
    for b, (kind, rs, degrees, rule) in enumerate(batches):
        rng = np.random.default_rng([corpus_seed, b])
        corpus = mode_corpus(rs, rng, MODE_CORPUS_SIZE, degrees=degrees,
                             rule=rule)
        target = sharp_constant(kind, rs.dimension + 2.0 * float(rs.gamma))
        modes.append((target, [(name, mode_quotient(mf, kind))
                               for name, mf in corpus]))
    return sweeps, modes


@dataclass
class SharpnessContext:
    corpus_seed: int
    batches: list
    reference: dict | None = None


class Sharpness:
    name = "sharpness"

    def setup(self, seed: int, outdir: Path) -> SharpnessContext:
        corpus_seed = MODE_CORPUS_SEEDS[seed % len(MODE_CORPUS_SEEDS)]
        return SharpnessContext(corpus_seed, sharpness_context())

    def schedule(self, ctx, seed: int):
        while True:
            yield "round"

    def trace_ops(self, ctx):
        return ["round"]

    def execute(self, ctx, op):
        return run_sharpness_round(ctx.batches, ctx.corpus_seed)

    def _ref(self, ctx):
        return ctx.reference["cases"][str(ctx.corpus_seed)]

    def expected_verdicts(self, ctx, op) -> int:
        ref = self._ref(ctx)
        return len(ref["sweeps"]) + sum(len(b["quotients"]) for b in ref["modes"])

    def check(self, ctx, op, result) -> list:
        sweeps, modes = result
        ref = self._ref(ctx)
        rtol = ctx.reference["oracle_agreement_rtol"]
        flags = gate.sweeps(sweeps, ref["sweeps"], rtol)
        for (target, quotients), ref_batch in zip(modes, ref["modes"]):
            flags.extend(gate.mode_batch(target, quotients, ref_batch, rtol,
                                         MODE_BOUND_SLACK))
        return flags


WORKLOADS = {w.name: w for w in (VerifyAll(), DomainHardy(), Sharpness())}
