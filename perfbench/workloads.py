"""The benchmark's workloads: seeded inputs, the liftsim call, and its check.

Each workload is split into ``unit`` (the input of the k-th call of a run,
made from the workload seed alone), ``setup`` (builds liftsim objects from
that input), ``run`` (the call a user waits for) and ``check`` (digest of the
output, compared with ``golden.json`` where a digest is pinned).  See
README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

DEFAULT_SEED = 2024

# Shipped corpus at this scale: max_len-3 Kraft sweep, every other section at
# its clamped size.  Scale 1 takes about a minute, longer than a whole run.
VERIFY_SCALE = 10
# The CorpusSpec section keys, in run_corpus order.
SPEC_KEYS = ("fourier", "vazirani", "xor_lemma", "extractor_sampling", "kraft",
             "density", "claims", "structure_lemmas", "lifting")
# The documented n=2 counterexamples of the default corpus: expected output.
EXPECTED_FAIL_SECTION = "claim_biasing_condition"

DET_N = 3
GADGET_POOL = 256


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class VerifyCorpus:
    """``run_corpus(default_corpus_spec(VERIFY_SCALE))`` at the workload seed."""

    name = "verify_corpus"

    def unit(self, seed: int, k: int) -> dict:
        return {"seed": seed}

    def setup(self, unit: dict):
        from liftsim.verify import default_corpus_spec
        spec = default_corpus_spec(scale=VERIFY_SCALE)
        spec.seed = unit["seed"]
        return spec

    def run(self, spec):
        from liftsim.verify import run_corpus
        return run_corpus(spec)

    def run_sections(self, spec):
        """One single-section CorpusSpec per key; returns (report, per-key stats)."""
        from liftsim.verify import CorpusReport, CorpusSpec, run_corpus
        sections, stats = [], {}
        for key in SPEC_KEYS:
            start = time.perf_counter()
            part = run_corpus(CorpusSpec(seed=spec.seed, **{key: getattr(spec, key)}))
            stats[key] = {"s": time.perf_counter() - start,
                          "instances": sum(s.total for s in part.sections)}
            sections.extend(part.sections)
        return CorpusReport(spec.seed, sections), stats

    def check(self, report, unit: dict, golden: dict):
        text = report.to_json()
        digest = sha256(text)
        expected_fails = sum(s.fails for s in report.sections if s.name == EXPECTED_FAIL_SECTION)
        problems = [f"{s.name}: {s.fails} unexpected FAIL(s)" for s in report.sections
                    if s.fails and s.name != EXPECTED_FAIL_SECTION]
        pinned = golden.get(self.key(unit))
        if pinned:
            if expected_fails != pinned["claim_biasing_fails"]:
                problems.append(f"{EXPECTED_FAIL_SECTION}: {expected_fails} FAILs, "
                                f"pinned {pinned['claim_biasing_fails']}")
            if digest != pinned["sha256"]:
                problems.append("report sha256 differs from the pinned digest")
        total = sum(s.total for s in report.sections)
        info = {"claim_biasing_fails": expected_fails,
                "vacuous_ratio": sum(s.vacuous for s in report.sections) / total}
        return digest, problems, info

    def key(self, unit: dict) -> str:
        return str(unit["seed"])

    def pin(self, report) -> dict:
        return {"sha256": sha256(report.to_json()),
                "claim_biasing_fails": sum(s.fails for s in report.sections
                                           if s.name == EXPECTED_FAIL_SECTION)}

    def golden_units(self):
        return [{"seed": DEFAULT_SEED}]


class LiftDet:
    """``lift_deterministic`` on the canonical protocol of the optimal parity-3
    tree composed with ip2; call k lifts z = (seed + k) mod 8."""

    name = "lift_det_n3"

    def unit(self, seed: int, k: int) -> dict:
        return {"z": (seed + k) % (1 << DET_N)}

    def setup(self, unit: dict):
        from liftsim import LiftingParams, brute_force_Ddt, builtin_gadget, canonical_protocol
        from liftsim.dtrees import parity_problem
        g = builtin_gadget("ip2")
        _, tree = brute_force_Ddt(parity_problem(DET_N))
        proto = canonical_protocol(tree, g)
        return proto, g, unit["z"], LiftingParams.standard(b=g.b, n=DET_N, mode="det")

    def run(self, inputs):
        from liftsim import lift_deterministic
        return lift_deterministic(*inputs)

    def check(self, res, unit: dict, golden: dict):
        digest = sha256(res.to_json())
        problems = [] if res.status == "done" else [f"status {res.status}: {res.violation}"]
        pinned = golden.get(self.key(unit))
        if pinned and digest != pinned:
            problems.append("trace sha256 differs from the pinned digest")
        return digest, problems, {"rounds": len(res.rounds)}

    def key(self, unit: dict) -> str:
        return str(unit["z"])

    def pin(self, res) -> str:
        return sha256(res.to_json())

    def golden_units(self):
        return [{"z": z} for z in range(1 << DET_N)]


class GadgetDisc:
    """``discrepancy`` of ``rand:4:<s>``, one gadget per call as
    ``liftsim gadget analyze`` runs it; s is drawn from the seed."""

    name = "gadget_disc_b4"

    def unit(self, seed: int, k: int) -> dict:
        return {"s": random.Random(f"{seed}/{k}").randrange(GADGET_POOL)}

    def setup(self, unit: dict):
        from liftsim import builtin_gadget
        return builtin_gadget(f"rand:4:{unit['s']}")

    def run(self, g):
        from liftsim import discrepancy
        return discrepancy(g)

    def witness(self, res) -> str:
        from liftsim import frac_str
        return json.dumps([frac_str(res.value), list(res.argmax.a), list(res.argmax.b)])

    def check(self, res, unit: dict, golden: dict):
        digest = sha256(self.witness(res))
        pinned = golden.get(self.key(unit))
        problems = []
        if pinned and digest != pinned:
            problems.append("(value, witness) sha256 differs from the pinned digest")
        return digest, problems, {}

    def key(self, unit: dict) -> str:
        return str(unit["s"])

    def pin(self, res) -> str:
        return sha256(self.witness(res))

    def golden_units(self):
        return [{"s": s} for s in range(GADGET_POOL)]


WORKLOADS = {w.name: w for w in (VerifyCorpus(), LiftDet(), GadgetDisc())}
