"""Lemma-level verification harness and the desk-scale corpus runner.

Each checker tests one exact implication (hypothesis => conclusion) and each
corpus instance lands in one of three verdicts:

  pass     hypothesis and conclusion both hold,
  vacuous  hypothesis fails (the implication is untested),
  FAIL     hypothesis holds but the conclusion fails -- a counterexample.

Only FAILs break the run.  Sections where every instance is vacuous are
flagged so the suite cannot pass silently by vacuity.  All randomness is
seeded and every enumeration is canonical, so reports are byte-identical
across runs.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .dist import (
    DistributionTable,
    ZERO,
    fourier_coefficient,
    fourier_inversion,
    project,
    statistical_distance,
    subsets_by_size,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
    xor_bias,
)
from .dtrees import (
    brute_force_Ddt,
    find_one_problem,
    first_bit_problem,
    index_problem,
    parity_problem,
    solves,
    z_bits,
)
from .errors import BudgetError, FormatError, InvariantError, LiftsimError, json_int, malformed
from .exact import cmp_pow2, cmp_pow2_ratio, cmp_products, frac_str
from .gadgets import (
    RECT_SIDE_LIMIT,
    CorollaryReport,
    Gadget,
    _check_xor_power,
    block_table,
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    extractor_check,
    sampling_check,
)
from .protocols import assert_prefix_free, canonical_protocol, complexity, kraft_heavy_pick
from .records import Record, dump_json
from .simulate import (
    ERROR_K,
    LiftingParams,
    _EngineCache,
    certify_transcript,
    enumerate_output_distribution,
    ledger_assertions,
    lift_deterministic,
    lift_randomized,
)
from .structure import (
    DangerScan,
    Restriction,
    dangerous_probability,
    density_restoring_fix,
    density_restoring_partition,
    is_dense,
    is_structured,
    max_density,
    StructureCertificate,
)

__all__ = [
    "LemmaInstance",
    "SectionReport",
    "CorpusReport",
    "CorpusSpec",
    "check_multiplicative_uniformity",
    "check_uniform_marginals",
    "check_main_lemma",
    "run_corpus",
    "default_corpus_spec",
    "seeded_distribution",
    "seeded_weights",
    "seeded_support",
    "all_prefix_free_codes",
]

# Universal constants as fixed in the proofs of the two uniformity results;
# the main lemma's is only known to be "large enough", and is checked at 8.
H_MULTIPLICATIVE = Fraction(8)
H_UNIFORM_MARGINALS = Fraction(10)
H_MAIN = Fraction(8)
SEED_MAX_WEIGHT = 16  # the seeded generators draw weights in [0, SEED_MAX_WEIGHT]


# -- structure-lemma checkers ---------------------------------------------------

class LemmaInstance(Record):
    def __init__(self, instance: str, verdict: str, measured: Optional[str] = None,
                 bound: Optional[str] = None, detail: str = ""):
        self.instance = instance
        self.verdict = verdict  # 'pass' | 'vacuous' | 'FAIL'
        self.measured = measured
        self.bound = bound
        self.detail = detail


def _verdict(hypothesis: bool, conclusion: bool) -> str:
    """'FAIL' when the hypothesis holds and the conclusion does not;
    'pass' when both hold; 'vacuous' when the hypothesis fails."""
    if not hypothesis:
        return "vacuous"
    return "pass" if conclusion else "FAIL"


def _bounded_instance(hypothesis: bool, measured: Fraction, bits: Fraction) -> LemmaInstance:
    """The lemma checkers' conclusion: the measured quantity is at most 2^-bits."""
    return LemmaInstance(
        instance="",
        verdict=_verdict(hypothesis, cmp_pow2(measured, bits) <= 0),
        measured=frac_str(measured),
        bound=f"2^-({frac_str(bits)})",
    )


def _structured(x: DistributionTable, y: DistributionTable, rho: Restriction, g: Gadget,
                c: Fraction, eta: Fraction, tau_req: Fraction,
                disc_value: Optional[Fraction]):
    """The structure-lemma checkers' shared preamble: (X_free, Y_free, the
    structure certificate at tau_req or its refusal, the regime clause
    n >= 2, b >= c*log2(n), disc(g) <= 2^(-eta*b))."""
    n, b = len(rho), g.b
    disc_v = discrepancy(g).value if disc_value is None else disc_value
    free = rho.free()
    xf = project(x, free) if free else x
    yf = project(y, free) if free else y
    cert = is_structured(xf, yf, rho, tau_req, g, x_full=x, y_full=y)
    # b >= c*log2(n)  <=>  2^b >= n^c
    regime = (n >= 2
              and cmp_products(Fraction(1), [(2, Fraction(b))], Fraction(1), [(n, c)]) >= 0
              and cmp_pow2(disc_v, eta * b) <= 0)
    return xf, yf, cert, regime


def check_multiplicative_uniformity(
    x: DistributionTable,
    y: DistributionTable,
    rho: Restriction,
    g: Gadget,
    z: int,
    gamma: Fraction,
    eta: Fraction,
    c: Fraction,
    disc_value: Optional[Fraction] = None,
) -> LemmaInstance:
    """Structured inputs make every free output pattern multiplicatively close
    to uniform: Pr[g^I(X_I, Y_I) = z_I] in (1 +- 2^(-gamma*b)) * 2^(-|I|)."""
    gamma, eta, c = Fraction(gamma), Fraction(eta), Fraction(c)
    xf, yf, cert, regime = _structured(x, y, rho, g, c, eta,
                                       2 + H_MULTIPLICATIVE / c - eta + gamma, disc_value)
    hypothesis = regime and rho.consistent_with(z) and isinstance(cert, StructureCertificate)
    worst = ZERO
    size = len(rho.free())
    if size:
        x_rows = [(xv, w) for xv, w in xf.weights.items() if w]
        y_rows = [(yv, w) for yv, w in yf.weights.items() if w]
        total = xf.total * yf.total
        for bits in product((0, 1), repeat=size):
            weight = 0
            for xv, wx in x_rows:
                for yv, wy in y_rows:
                    if all(g.eval(xv[i], yv[i]) == bit for i, bit in enumerate(bits)):
                        weight += wx * wy
            deviation = Fraction(abs((weight << size) - total), total)
            worst = max(worst, deviation)
    return _bounded_instance(hypothesis, worst, gamma * g.b)


def check_uniform_marginals(
    x_support: Sequence[Tuple[int, ...]],
    y_support: Sequence[Tuple[int, ...]],
    rho: Restriction,
    g: Gadget,
    z: int,
    gamma: Fraction,
    eta: Fraction,
    c: Fraction,
    disc_value: Optional[Fraction] = None,
) -> LemmaInstance:
    """Structured uniform X, Y are close to the marginals of the uniform
    distribution on the preimage of z inside their rectangle."""
    gamma, eta, c = Fraction(gamma), Fraction(eta), Fraction(c)
    x = DistributionTable.uniform(sorted(x_support))
    y = DistributionTable.uniform(sorted(y_support))
    _, _, cert, regime = _structured(x, y, rho, g, c, eta,
                                     2 + H_UNIFORM_MARGINALS / c - eta + gamma, disc_value)
    hypothesis = regime and rho.consistent_with(z) and isinstance(cert, StructureCertificate)
    n = len(rho)
    zb = z_bits(z, n, range(n))
    pairs = [
        (xv, yv)
        for xv in x.domain
        for yv in y.domain
        if all(g.eval(xv[i], yv[i]) == zb[i] for i in range(n))
    ]
    if not pairs:
        raise LiftsimError("empty preimage intersection; the lemma does not apply")
    fiber_x: Dict[Tuple[int, ...], int] = dict.fromkeys(x.domain, 0)
    fiber_y: Dict[Tuple[int, ...], int] = dict.fromkeys(y.domain, 0)
    for xv, yv in pairs:
        fiber_x[xv] += 1
        fiber_y[yv] += 1
    dist_x = statistical_distance(x, DistributionTable.from_weights(fiber_x))
    dist_y = statistical_distance(y, DistributionTable.from_weights(fiber_y))
    worst = max(dist_x, dist_y)
    return _bounded_instance(hypothesis, worst, gamma * g.b)


def check_main_lemma(
    x: DistributionTable,
    y: DistributionTable,
    rho: Restriction,
    g: Gadget,
    gamma: Fraction,
    eps: Fraction,
    eta: Fraction,
    c: Fraction,
    disc_value: Optional[Fraction] = None,
) -> LemmaInstance:
    """Structured inputs give dangerous values at most 2^(-gamma*b) mass."""
    gamma, eps, eta, c = Fraction(gamma), Fraction(eps), Fraction(eta), Fraction(c)
    b, free = g.b, rho.free()
    xf, yf, cert, regime = _structured(x, y, rho, g, c, eta,
                                       2 + H_MAIN / (c * eps) - eta - gamma, disc_value)
    hypothesis = (regime and 0 < gamma <= 1 and 0 < eps <= 1 and eps * b >= 4
                  and isinstance(cert, StructureCertificate))
    if free and isinstance(cert, StructureCertificate):
        measured = dangerous_probability(xf, yf, g, cert.delta_y, eps)
    elif free:
        # no certificate: classify against the actual density witness
        delta_w = max_density(yf, b)[0]
        measured = dangerous_probability(xf, yf, g, delta_w, eps)
    else:
        measured = ZERO
    return _bounded_instance(hypothesis, measured, gamma * b)


# -- seeded generators -----------------------------------------------------------

def seeded_weights(rng: random.Random, count: int) -> List[int]:
    """`count` int weights in [0, SEED_MAX_WEIGHT], not all zero: each is
    ``rng.randrange(SEED_MAX_WEIGHT + 1)``, drawn by randrange's own
    getrandbits loop, and an all-zero draw is redrawn whole."""
    bound = SEED_MAX_WEIGHT + 1
    bits, getrandbits = bound.bit_length(), rng.getrandbits
    while True:
        weights = []
        for _ in range(count):
            w = getrandbits(bits)
            while w >= bound:
                w = getrandbits(bits)
            weights.append(w)
        if any(weights):
            return weights


def seeded_distribution(rng: random.Random, domain: Sequence) -> DistributionTable:
    """Random rational masses (zeros allowed, not all zero): the table of
    ``seeded_weights`` over the domain, in its order."""
    weights = seeded_weights(rng, len(domain))
    return DistributionTable.from_weights(dict(zip(domain, weights)))


def near_uniform_distribution(rng: random.Random, m: int) -> DistributionTable:
    """A tiny seeded jitter around uniform; keeps every XOR bias below the
    strictest Vazirani threshold at m <= 4."""
    base = 1 << 24
    weights = [base + rng.randrange(4) for _ in range(1 << m)]
    return DistributionTable.from_weights(dict(enumerate(weights)))


def seeded_support(rng: random.Random, universe: Sequence, min_size: int = 1):
    size = rng.randrange(min_size, len(universe) + 1)
    return tuple(sorted(rng.sample(list(universe), size)))


def seeded_dense_support(rng: random.Random, n: int, b: int):
    """Random support whose uniform distribution has positive max density."""
    universe = block_table(n, b)
    while True:
        supp = seeded_support(rng, universe, min_size=2)
        dist = DistributionTable.uniform(supp)
        if all(project(dist, (i,)).maxprob() < 1 for i in range(n)):
            return supp


def all_prefix_free_codes(max_len: int):
    """Every nonempty prefix-free code over nonempty strings of length <= max_len.

    A code is an antichain of the binary prefix tree; the enumeration streams
    the left subtree and materializes only the (small) right subtree per level.
    """

    def gen(prefix: str, depth: int):
        yield ()
        if prefix:
            yield (prefix,)
        if depth > 0:
            rights = list(gen(prefix + "1", depth - 1))
            for left in gen(prefix + "0", depth - 1):
                for right in rights:
                    if left or right:
                        yield left + right

    for code in gen("", max_len):
        if code:
            yield code


# -- corpus ----------------------------------------------------------------------

class SectionReport(Record):
    def __init__(self, name: str, total: int = 0, passes: int = 0, vacuous: int = 0,
                 fails: int = 0, counterexamples: Optional[List[dict]] = None,
                 info: Optional[Dict[str, object]] = None):
        self.name = name
        self.total = total
        self.passes = passes
        self.vacuous = vacuous
        self.fails = fails
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.info = {} if info is None else info

    @property
    def all_vacuous(self) -> bool:
        return self.total > 0 and self.vacuous == self.total

    def record(self, inst: LemmaInstance) -> None:
        self.count(inst.verdict, lambda: inst)

    def count(self, verdict: str, render: Callable[[], LemmaInstance]) -> None:
        """Record one verdict; `render` builds its LemmaInstance (names and
        measured/bound strings), called only for a FAIL."""
        self.total += 1
        if verdict == "FAIL":
            inst = render()
            self.fails += 1
            self.counterexamples.append(inst.fields_obj("verdict"))
        elif verdict == "vacuous":
            self.vacuous += 1
        else:
            self.passes += 1

    def to_obj(self) -> dict:
        # its fields (it sets no other attribute), JSON data as they are
        return dict(vars(self), all_vacuous=self.all_vacuous)


class CorpusReport(Record):
    def __init__(self, seed: int, sections: List[SectionReport]):
        self.seed = seed
        self.sections = sections

    @property
    def ok(self) -> bool:
        return all(s.fails == 0 for s in self.sections)

    def to_json(self) -> str:
        return dump_json(dict(self.fields_obj(), ok=self.ok))

    def to_table(self) -> str:
        lines = [f"{'section':32} {'total':>7} {'pass':>7} {'vacuous':>8} {'FAIL':>6}  note"]
        for s in self.sections:
            note = "ALL-VACUOUS" if s.all_vacuous else ""
            lines.append(
                f"{s.name:32} {s.total:>7} {s.passes:>7} {s.vacuous:>8} {s.fails:>6}  {note}")
        lines.append(f"overall: {'OK' if self.ok else 'COUNTEREXAMPLES FOUND'}")
        return "\n".join(lines)


class CorpusSpec(Record):
    """Which sections to run and how large; omitted sections are skipped."""

    def __init__(self, seed: int = 2024, fourier: Optional[dict] = None,
                 vazirani: Optional[dict] = None, xor_lemma: Optional[dict] = None,
                 extractor_sampling: Optional[dict] = None, kraft: Optional[dict] = None,
                 density: Optional[dict] = None, claims: Optional[dict] = None,
                 structure_lemmas: Optional[dict] = None, lifting: Optional[dict] = None,
                 fixture_planted_violation: bool = False):
        self.seed = seed
        self.fourier = fourier
        self.vazirani = vazirani
        self.xor_lemma = xor_lemma
        self.extractor_sampling = extractor_sampling
        self.kraft = kraft
        self.density = density
        self.claims = claims
        self.structure_lemmas = structure_lemmas
        self.lifting = lifting
        self.fixture_planted_violation = fixture_planted_violation

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        """Parse a spec; each section must be an object whose keys and value
        types are those of the same section in `default_corpus_spec()`."""
        with malformed("corpus spec"):
            doc = json.loads(text)
        if not isinstance(doc, dict):
            raise FormatError("corpus spec must be a JSON object")
        unknown = set(doc) - set(cls._fields)
        if unknown:
            raise FormatError(f"unknown corpus spec keys: {sorted(unknown)}")
        json_int(doc.get("seed", 0), "corpus spec key 'seed'")
        shipped = default_corpus_spec()
        for section, params in doc.items():
            template = getattr(shipped, section)
            if params is None or not isinstance(template, dict):
                continue
            if not isinstance(params, dict):
                raise FormatError(f"corpus spec section {section!r} must be an object")
            for key, value in params.items():
                if key not in template:
                    raise FormatError(f"unknown key {key!r} in corpus spec section "
                                      f"{section!r}; expected {sorted(template)}")
                if not _fits(value, template[key]):
                    raise FormatError(f"corpus spec value {section}.{key} = "
                                      f"{json.dumps(value)} does not have the shipped "
                                      f"form {json.dumps(template[key])}")
                for size in _ints(value):
                    lo, hi = SPEC_BUDGETS[f"{section}.{key}"]
                    if not lo <= size <= hi:
                        raise BudgetError(f"corpus spec value {section}.{key}", size,
                                          f"{lo}..{hi}")
            if section == "xor_lemma":
                gadgets = params.get("gadgets", _XOR_GADGETS)
                powers = params.get("powers", _XOR_POWERS)
                extra = params.get("extra", ())
                jobs = len(gadgets) * len(powers) + len(extra)
                if jobs > XOR_LEMMA_JOB_LIMIT:
                    raise BudgetError("corpus spec xor_lemma jobs", jobs, XOR_LEMMA_JOB_LIMIT)
                # a bad name is a FormatError here, not in the section
                named = {name: builtin_gadget(name)
                         for name in [*gadgets, *(name for name, _ in extra)]}
                for name, m in chain(product(gadgets, powers), extra):
                    _check_xor_power(named[name], m,
                                     f"corpus spec xor_lemma side of {name} at m={m}")
            if section == "lifting" and "gadget" in params:
                b = builtin_gadget(params["gadget"]).b
                if b > LIFTING_BLOCK_LIMIT:
                    raise BudgetError("corpus spec lifting gadget block length", b,
                                      LIFTING_BLOCK_LIMIT)
        return cls(**doc)


# The range of every integer size in a corpus spec, checked by
# CorpusSpec.from_json before any section runs.  At its upper end a section
# takes at most about half a minute on a 2-CPU desk machine; kraft.max_len = 5
# alone would enumerate more prefix-free codes than any run can.  An XOR power
# past RECT_SIDE_LIMIT.bit_length() - 1 fits the rectangle budget at no b.
SPEC_BUDGETS = {
    "fourier.count": (0, 100_000),
    "vazirani.count": (0, 100_000),
    "xor_lemma.powers": (1, RECT_SIDE_LIMIT.bit_length() - 1),
    "xor_lemma.extra": (1, RECT_SIDE_LIMIT.bit_length() - 1),
    "extractor_sampling.samples_b2": (0, 20_000),
    "kraft.max_len": (0, 4),
    "kraft.assignments": (0, 10_000),
    "density.count": (0, 20_000),
    "claims.supports": (0, 2_000),
    "structure_lemmas.count": (0, 4_000),
    "lifting.rand_seeds": (0, 300),
}
# Gadget and power pairs of the xor_lemma section: len(gadgets) * len(powers)
# + len(extra).
XOR_LEMMA_JOB_LIMIT = 1_000
# The block length b of the lifting section's gadget: at rand_seeds = 300 the
# section took 9.4 s at b = 5, and at b = 6 it took 33 s with 3 seeds.
LIFTING_BLOCK_LIMIT = 5


def _ints(value):
    """The ints in a spec value, within lists at any depth (bools excluded)."""
    if type(value) is int:
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _ints(item)


def _fits(value, template) -> bool:
    """Whether `value` has the JSON shape of `template`: the same type and,
    for a list, elements shaped like the template's elements (a list of one
    element type, e.g. [1, 2, 3]) or its positions (a mixed one, ["ip2", 1])."""
    if type(value) is not type(template):
        return False
    if not isinstance(template, list) or not template:
        return True
    if len({type(t) for t in template}) == 1:
        return all(_fits(v, template[0]) for v in value)
    return len(value) == len(template) and all(map(_fits, value, template))


def default_corpus_spec(scale: int = 1) -> CorpusSpec:
    """The shipped desk-scale corpus; scale > 1 shrinks the seeded sweeps."""
    if scale < 1:
        raise LiftsimError(f"corpus scale must be at least 1, got {scale}")
    return CorpusSpec(
        seed=2024,
        fourier={"count": max(1000 // scale, 50)},
        vazirani={"count": max(1000 // scale, 50)},
        xor_lemma={"gadgets": list(_XOR_GADGETS), "powers": list(_XOR_POWERS),
                   "extra": [["ip2", 1]]},
        extractor_sampling={"samples_b2": max(200 // scale, 20)},
        kraft={"max_len": 4 if scale == 1 else 3, "assignments": 100 // scale + 1},
        density={"count": max(200 // scale, 20)},
        claims={"supports": max(20 // scale, 4)},
        structure_lemmas={"count": max(40 // scale, 8)},
        lifting={"gadget": "ip2", "rand_seeds": 3},
    )


# The corpus's sections, each a job from the spec to its reports.  Every
# section draws from its own random.Random(f"{seed}/<section>"), so any
# process can run any of them, and the report lists them in CorpusSpec._fields
# order whoever ran them.  run_corpus deals the jobs out round-robin in this
# order, chosen by timing on 2 CPUs: the two shares of the scale-10 corpus
# took about the same CPU time, and the full corpus's Kraft sweep (about 80%
# of that run) shares its process with the lighter half of the other sections.
_SECTION_JOBS: Dict[str, Callable[[CorpusSpec], List[SectionReport]]] = {
    "lifting": lambda spec: _section_lifting(spec.seed, **spec.lifting),
    "claims": lambda spec: _section_claims(spec.seed, **spec.claims),
    "kraft": lambda spec: [_section_kraft(spec.seed, **spec.kraft)],
    "extractor_sampling": lambda spec: _section_extractor_sampling(
        spec.seed, **spec.extractor_sampling),
    "structure_lemmas": lambda spec: [_section_structure_lemmas(
        spec.seed, **spec.structure_lemmas)],
    "fourier": lambda spec: [_section_fourier(spec.seed, **spec.fourier)],
    "vazirani": lambda spec: [_section_vazirani(spec.seed, **spec.vazirani)],
    "density": lambda spec: [_section_density(spec.seed, **spec.density)],
    "xor_lemma": lambda spec: [_section_xor_lemma(**spec.xor_lemma)],
    "fixture_planted_violation": lambda spec: [_section_fixture()],
}


def run_corpus(spec: CorpusSpec) -> CorpusReport:
    """The report of the spec's sections, in CorpusSpec._fields order.

    The sections are dealt out round-robin, in `_SECTION_JOBS` order, over
    `_process_count` processes: this one runs share 0 and a forked child each
    other share.  A section whose reports do not come back from its child
    (the child raised, crashed or was killed) runs again here, in spec order,
    so it raises here what it raises in one process.  The split depends on
    the spec alone and the report is byte for byte the one-process report."""
    keys = [key for key in _SECTION_JOBS if getattr(spec, key)]
    procs = _process_count(len(keys))
    done = _run_shares(spec, keys, procs) if procs > 1 else {}
    sections = []
    for key in CorpusSpec._fields:
        if key in keys:
            sections.extend(done[key] if key in done else _SECTION_JOBS[key](spec))
    return CorpusReport(spec.seed, sections)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _process_count(jobs: int) -> int:
    """One process per usable CPU, at most one per job; and one alone where
    a fork is unsafe or would hide work: no os.fork, another live thread
    (the child would hold only this one), or an active profiler or tracer
    (it would not see a child's share)."""
    if (jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or sys.getprofile() is not None or sys.gettrace() is not None):
        return 1
    return min(_usable_cpus(), jobs)


def _run_shares(spec: CorpusSpec, keys: List[str], procs: int) -> Dict[str, list]:
    """{key: reports} of the sections that came back: share 0 of `keys` run
    here and shares 1 .. procs-1 each in a forked child (`_fork`).  However
    this returns or raises, every pipe is closed and every child reaped
    first, killed if it still runs."""
    import pickle
    import signal

    done, children = {}, []  # children: (pid, read end of its pipe)
    try:
        for rank in range(1, procs):
            _fork(children, spec, keys[rank::procs])
        for key in keys[::procs]:
            done[key] = _SECTION_JOBS[key](spec)
        for pid, pipe in children:
            data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:  # a clean exit: every byte was written
                done.update(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped above
    return done


def _fork(children: list, spec: CorpusSpec, share: List[str]) -> None:
    """Fork a child that pickles {key: reports} of the sections `share` to a
    pipe and leaves by os._exit: with status 0 once every byte is written,
    else 1.  Its pid and the pipe's read end join `children` before this
    process can take a signal, and the child takes none before it is inside
    its try, so it never returns into the caller's code.  When the fork
    fails, nothing joins `children`."""
    import pickle
    import signal

    read_end, write_end = os.pipe()
    pipe = open(read_end, "rb")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                pipe.close()
                with open(write_end, "wb") as out:
                    out.write(pickle.dumps({key: _SECTION_JOBS[key](spec) for key in share}))
                status = 0
            finally:
                os._exit(status)
        children.append((pid, pipe))
    except OSError:  # no child: its share does not come back, so the caller runs it
        pipe.close()
    finally:
        os.close(write_end)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _section_fourier(seed: int, count: int = 1000) -> SectionReport:
    rep = SectionReport("fourier_bias_identity")
    rng = random.Random(f"{seed}/fourier")
    for k in range(count):
        m = 1 + (k % 4)
        d = seeded_distribution(rng, list(range(1 << m)))
        ok = True
        coeffs = {}
        for coords in subsets_by_size(m):
            coef = fourier_coefficient(d, m, coords)
            coeffs[coords] = coef
            if abs(coef) * (1 << m) != xor_bias(d, m, coords):
                ok = False
            if coords == () and coef != Fraction(1, 1 << m):
                ok = False
        if fourier_inversion(coeffs, m) != d:  # d's domain is range(2^m)
            ok = False
        rep.count("pass" if ok else "FAIL", lambda: LemmaInstance(f"fourier/{k}/m={m}", "FAIL"))
    return rep


def _section_vazirani(seed: int, count: int = 1000) -> SectionReport:
    rep = SectionReport("vazirani_checkers")
    rng = random.Random(f"{seed}/vazirani")
    eps_grid = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for k in range(count):
        m = 1 + (k % 4)
        if k % 3 == 0:
            d = near_uniform_distribution(rng, m)
        else:
            d = seeded_distribution(rng, list(range(1 << m)))
        for eps in eps_grid:
            r = vazirani_uniformity_check(d, m, eps)
            rep.count(_verdict(r.hypothesis, r.conclusion), lambda: LemmaInstance(
                f"vazirani-uniformity/{k}/m={m}/eps={eps}", "FAIL"))
        for t in (1, 2):
            r = vazirani_minentropy_check(d, m, t)
            rep.count(_verdict(r.hypothesis, r.conclusion), lambda: LemmaInstance(
                f"vazirani-minentropy/{k}/m={m}/t={t}", "FAIL"))
    return rep


_XOR_GADGETS = ("and1", "or1", "xor1", "ip1")
_XOR_POWERS = (1, 2, 3)


def _section_xor_lemma(gadgets: Sequence[str] = _XOR_GADGETS,
                       powers: Sequence[int] = _XOR_POWERS,
                       extra: Sequence = ()) -> SectionReport:
    rep = SectionReport("xor_lemma_sandwich")
    jobs = [(name, m) for name in gadgets for m in powers]
    jobs += [(name, m) for name, m in extra]
    archived = {}
    for name, m in jobs:
        g = builtin_gadget(name)
        r = check_xor_lemma(g, m)
        archived[f"{name}/m={m}"] = dict(r.fields_obj("m", "disc_base", "sandwich_holds"),
                                         disc=frac_str(r.disc_base))
        rep.record(LemmaInstance(
            f"xor-lemma/{name}/m={m}",
            "pass" if r.sandwich_holds else "FAIL",
            measured=frac_str(r.value),
            bound=f"[{frac_str(r.lower)}, {frac_str(r.upper)}]"))
    rep.info["values"] = archived
    return rep


def _flat_tables(universe_size: int):
    for supp in subsets_by_size(universe_size, nonempty=True):
        yield DistributionTable.uniform(supp)


def _section_extractor_sampling(seed: int, samples_b2: int = 200) -> List[SectionReport]:
    rep_e = SectionReport("discrepancy_extractor")
    rep_s = SectionReport("discrepancy_sampling")
    quarter, half = grid = (Fraction(1, 4), Fraction(1, 2))
    b1_gadgets = [builtin_gadget(n) for n in ("and1", "or1", "xor1", "ip1")]
    flats1 = list(_flat_tables(2))
    for g in b1_gadgets:
        disc_v = discrepancy(g).value
        for x in flats1:
            for y in flats1:
                for eta in grid:
                    for lam in grid:
                        r = extractor_check(g, x, y, eta, lam, disc_value=disc_v)
                        _record_ext(rep_e, f"b1/{g.name}", r)
                        for gam in grid:
                            rs = sampling_check(g, x, y, gam, lam, eta, disc_value=disc_v)
                            _record_ext(rep_s, f"b1/{g.name}", rs)
    # xor-power corollaries at b=1, two copies, exhaustive flat pairs
    flats2 = list(_flat_tables(4))
    for g in b1_gadgets:
        disc_v = discrepancy(g).value
        for x in flats2:
            for y in flats2:
                r = extractor_check(g, x, y, half, quarter, m=2, disc_value=disc_v)
                _record_ext(rep_e, f"b1-xor2/{g.name}", r)
                rs = sampling_check(g, x, y, quarter, quarter, half, m=2, disc_value=disc_v)
                _record_ext(rep_s, f"b1-xor2/{g.name}", rs)
    # seeded flat pairs at b=2
    rng = random.Random(f"{seed}/extractor-b2")
    ip2 = builtin_gadget("ip2")
    disc_v = discrepancy(ip2).value
    universe = list(range(4))
    for k in range(samples_b2):
        xs = seeded_support(rng, universe)
        ys = seeded_support(rng, universe)
        x = DistributionTable.uniform(xs)
        y = DistributionTable.uniform(ys)
        eta, lam, gam = (rng.choice(grid) for _ in range(3))
        r = extractor_check(ip2, x, y, eta, lam, disc_value=disc_v)
        _record_ext(rep_e, f"b2/{k}", r)
        rs = sampling_check(ip2, x, y, gam, lam, eta, disc_value=disc_v)
        _record_ext(rep_s, f"b2/{k}", rs)
    return [rep_e, rep_s]


def _record_ext(rep: SectionReport, tag: str, r: CorollaryReport) -> None:
    """One extractor or sampling verdict; measured and bound are rendered
    only for a FAIL."""
    def render() -> LemmaInstance:
        return LemmaInstance(tag, "FAIL", measured=frac_str(r.measured),
                             bound=f"2^-({frac_str(r.bound_bits)})")

    rep.count(_verdict(r.hypothesis, r.conclusion), render)


def _section_kraft(seed: int, max_len: int = 4, assignments: int = 100) -> SectionReport:
    rep = SectionReport("kraft_heavy_message")
    rng = random.Random(f"{seed}/kraft")
    codes = list(all_prefix_free_codes(max_len))
    rep.info["codes"] = len(codes)
    for code in codes:
        _kraft_sweep(rep, rng, code, 1, "kraft")
    # the codes whose words are all of length <= 3, in the same order
    for code in all_prefix_free_codes(min(max_len, 3)):
        _kraft_sweep(rep, rng, code, assignments - 1, "kraft-small")
    return rep


def _kraft_sweep(rep: SectionReport, rng: random.Random, code: Sequence[str],
                 draws: int, label: str) -> None:
    """`draws` seeded weightings of one code, each a pass iff some message is
    Kraft-heavy.  Prefix-freeness is asserted once for the code, since every
    support drawn on it is a subset; a code that is not prefix-free makes every
    draw a FAIL."""
    messages = sorted(code)
    try:
        assert_prefix_free(messages)
        prefix_free = True
    except InvariantError:
        prefix_free = False
    def render() -> LemmaInstance:
        return LemmaInstance(f"{label}/{'|'.join(code)}", "FAIL")

    for _ in range(draws):
        weights = seeded_weights(rng, len(messages))
        ok = prefix_free and kraft_heavy_pick(zip(messages, weights), sum(weights)) is not None
        rep.count("pass" if ok else "FAIL", render)


def _section_density(seed: int, count: int = 200) -> SectionReport:
    rep = SectionReport("density_restoring")
    rng = random.Random(f"{seed}/density")
    deltas = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    shapes = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
    for k in range(count):
        n, b = shapes[k % len(shapes)]
        d = seeded_distribution(rng, block_table(n, b))
        # keep only the support; zero-mass rows do not matter for density
        d = d.condition(d.support())
        delta = deltas[k % len(deltas)]
        ok, detail = _density_postconditions(d, delta, b)
        rep.record(LemmaInstance(
            f"density/{k}/n={n}/b={b}/delta={delta}", "pass" if ok else "FAIL",
            detail=detail))
    return rep


def _density_postconditions(d: DistributionTable, delta: Fraction, b: int):
    coords, value, reduced = density_restoring_fix(d, delta, b)
    if coords and not is_dense(reduced, delta, b).dense:
        return False, "conditioned remainder is not dense"
    if not coords and not is_dense(d, delta, b).dense:
        return False, "empty fix on a non-dense input"
    covered = []
    total, maxw_full = d.total, max(d.weights.values())
    w_geq = total  # the weight of this part and the later ones
    k = len(d.domain[0])
    for part in density_restoring_partition(d, delta, b):
        cond = d.condition(set(part.members))
        if part.p_geq.numerator * total != w_geq * part.p_geq.denominator:
            return False, f"p_geq mismatch at part {part.index}"
        if part.prob.numerator * total != cond.total * part.prob.denominator:
            return False, f"part {part.index} probability mismatch"
        covered.extend(part.members)
        fixed = tuple(zip(part.coords, part.value))
        if any(t[i] != v for t in cond.support() for i, v in fixed):
            return False, f"part {part.index} does not fix its block set"
        rest = tuple(i for i in range(k) if i not in part.coords)
        reduced = project(cond, rest) if rest else None
        if reduced is not None and not is_dense(reduced, delta, b).dense:
            return False, f"part {part.index} remainder is not dense"
        # entropy bound: maxprob(rest | part) * p_geq_j <= maxp_full * 2^(delta*b*|I|),
        # on weights: heavy/w_j * w_geq/total <= maxw_full/total * 2^(delta*b*|I|)
        heavy = max(reduced.weights.values()) if reduced is not None else cond.total
        if cmp_pow2_ratio(heavy * w_geq, cond.total * maxw_full,
                          -delta * b * len(part.coords)) > 0:
            return False, f"part {part.index} violates the entropy bound"
        w_geq -= cond.total
    if sorted(covered) != list(d.support()):
        return False, "parts do not partition the support"
    return True, ""


def _section_claims(seed: int, supports: int = 20) -> List[SectionReport]:
    rep_skew = SectionReport("claim_skewing_condition")
    rep_bias = SectionReport("claim_biasing_condition")
    rng = random.Random(f"{seed}/claims")
    eps_grid = (Fraction(1, 4), Fraction(1, 2))
    c_param = Fraction(2)
    n = 2
    for gname in ("xor1", "and1", "ip1", "ip2"):
        g = builtin_gadget(gname)
        b = g.b
        universe = block_table(n, b)
        for s_idx in range(supports):
            supp = seeded_dense_support(rng, n, b)
            y = DistributionTable.uniform(supp)
            delta_y = max_density(y, b)[0]
            for eps in eps_grid:
                scan = DangerScan(y, g, delta_y, eps)
                for x_val in universe:
                    leak, dangerous = scan.witness("leaking", x_val), scan.dangerous(x_val)
                    tag = f"{gname}/supp{s_idx}/eps={eps}/x={x_val}"
                    # claim 1: dangerous and not leaking => skewing
                    if dangerous and not leak:
                        skew = scan.witness("skewing", x_val)
                        rep_skew.record(LemmaInstance(
                            f"skewing/{tag}", "pass" if skew else "FAIL",
                            detail="sparsifying but not skewing" if not skew else ""))
                    else:
                        rep_skew.record(LemmaInstance(f"skewing/{tag}", "vacuous"))
                    # claim 2: not biasing => not dangerous
                    biasing = scan.witness("biasing", x_val, c_param, n)
                    if not biasing:
                        rep_bias.record(LemmaInstance(
                            f"biasing/{tag}",
                            "pass" if not dangerous else "FAIL",
                            detail="dangerous but not biasing" if dangerous else ""))
                    else:
                        rep_bias.record(LemmaInstance(f"biasing/{tag}", "vacuous"))
    return [rep_skew, rep_bias]


def _section_structure_lemmas(seed: int, count: int = 40) -> SectionReport:
    rep = SectionReport("structure_lemmas")
    rng = random.Random(f"{seed}/structure")
    gamma = Fraction(1)
    eta = Fraction(1, 2)
    for k in range(count):
        gname = ("xor1", "and1", "ip2")[k % 3]
        g = builtin_gadget(gname)
        b = g.b
        n = 2
        disc_v = discrepancy(g).value
        supp_x = seeded_dense_support(rng, n, b)
        supp_y = seeded_dense_support(rng, n, b)
        x = DistributionTable.uniform(supp_x)
        y = DistributionTable.uniform(supp_y)
        rho = Restriction.all_free(n)
        z = rng.randrange(1 << n)
        c = Fraction(rng.choice((1, 2, 16)))
        inst = check_multiplicative_uniformity(x, y, rho, g, z, gamma, eta, c,
                                               disc_value=disc_v)
        inst.instance = f"multiplicative-uniformity/{k}/{gname}"
        rep.record(inst)
        try:
            inst = check_uniform_marginals(supp_x, supp_y, rho, g, z, gamma, eta, c,
                                           disc_value=disc_v)
            inst.instance = f"uniform-marginals/{k}/{gname}"
            rep.record(inst)
        except LiftsimError:
            rep.record(LemmaInstance(
                f"uniform-marginals/{k}/{gname}", "vacuous", detail="empty fiber"))
        inst = check_main_lemma(x, y, rho, g, gamma, Fraction(1, 2), eta, c,
                                disc_value=disc_v)
        inst.instance = f"main-lemma/{k}/{gname}"
        rep.record(inst)
    return rep


def shipped_problems():
    return [
        ("parity2", parity_problem(2)),
        ("index2", index_problem(2)),
        ("first_bit2", first_bit_problem(2)),
        ("find_one2", find_one_problem(2)),
    ]


def _section_lifting(seed: int, gadget: str = "ip2", rand_seeds: int = 3) -> List[SectionReport]:
    rep_det = SectionReport("lifting_deterministic")
    rep_err = SectionReport("lifting_error_halt")
    rep_led = SectionReport("deficiency_ledger")
    rep_orc = SectionReport("oracle_bounds")
    g = builtin_gadget(gadget)
    b = g.b
    n = 2
    det = LiftingParams.standard(b=b, n=n, mode="det")
    rnd = LiftingParams.standard(b=b, n=n, mode="rand")
    det_cache, rnd_cache = _EngineCache(g, det), _EngineCache(g, rnd)

    d3, t3 = brute_force_Ddt(parity_problem(3))
    rep_orc.record(LemmaInstance("oracle/parity3",
                                 "pass" if d3 == 3 else "FAIL",
                                 measured=str(d3), bound="3"))

    for pname, problem in shipped_problems():
        depth, tree = brute_force_Ddt(problem)
        ok, bad = solves(tree, problem)
        proto = canonical_protocol(tree, g)
        cap_c, cap_r = complexity(proto)
        rep_orc.record(LemmaInstance(
            f"oracle/upper-bound/{pname}",
            "pass" if ok and cap_c <= depth * (b + 1) else "FAIL",
            measured=str(cap_c), bound=f"{depth}*(b+1)={depth * (b + 1)}"))
        for z in range(1 << n):
            res = lift_deterministic(proto, g, z, det, cache=det_cache)
            tag = f"det/{pname}/z={z:02b}"
            if res.status == "done":
                cert = certify_transcript(res, proto, g, z)
                ok_run = cert is not None and res.depth <= cap_r
                rep_det.record(LemmaInstance(
                    tag, "pass" if ok_run else "FAIL",
                    detail="no certifying preimage" if cert is None else ""))
            elif res.status == "invariant_violation" and res.violation:
                rep_det.record(LemmaInstance(tag, "pass",
                                             detail=f"violation named: {res.violation}"))
            else:
                rep_det.record(LemmaInstance(tag, "FAIL", detail=str(res.status)))
            led = ledger_assertions(res, det)
            rep_led.record(LemmaInstance(
                f"ledger/{tag}", "pass" if led.ok else "FAIL"))

            dist = enumerate_output_distribution(proto, g, z, rnd, cache=rnd_cache)
            err_mass = dist.prob(ERROR_K)
            bound = Fraction(1, 1 << b)
            rep_err.record(LemmaInstance(
                f"rand/{pname}/z={z:02b}", "pass" if err_mass < bound else "FAIL",
                measured=frac_str(err_mass), bound=frac_str(bound)))
            for sd in range(rand_seeds):
                rres = lift_randomized(proto, g, z, rnd, seed=sd, cache=rnd_cache)
                rled = ledger_assertions(rres, rnd)
                rep_led.record(LemmaInstance(
                    f"ledger/rand/{pname}/z={z:02b}/seed={sd}",
                    "pass" if rled.ok else "FAIL"))
    return [rep_det, rep_err, rep_led, rep_orc]


def _section_fixture() -> SectionReport:
    """Self-test: a deliberately wrong bound must register as a FAIL."""
    rep = SectionReport("fixture_planted_violation")
    fair = DistributionTable.uniform([0, 1])
    wrong = xor_bias(fair, 1, (0,)) < 0  # bias is 0; the planted claim is 'negative'
    rep.record(LemmaInstance("fixture/planted", "pass" if wrong else "FAIL",
                             detail="planted violation (expected FAIL)"))
    return rep
