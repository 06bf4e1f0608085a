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
from operator import lshift
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
from .errors import BudgetError, FormatError, LiftsimError, json_int, malformed
from .exact import cmp_pow2, cmp_pow2_ratio, cmp_products, frac_str
from .gadgets import (
    RECT_SIDE_LIMIT,
    Gadget,
    _check_xor_power,
    _disc_ok,
    _extractor_bits,
    _ratio,
    _sampling_bits,
    _zero_weight,
    block_table,
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    xor_power,
)
from .protocols import canonical_protocol, complexity
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

    def count(self, verdict: str, render: Optional[Callable[[], LemmaInstance]],
              times: int = 1) -> None:
        """Record `times` instances of one verdict; `render` builds a FAIL's
        LemmaInstance (names and measured/bound strings), called only for a
        FAIL, once per instance."""
        self.total += times
        if verdict == "FAIL":
            self.fails += times
            self.counterexamples.extend(render().fields_obj("verdict") for _ in range(times))
        elif verdict == "vacuous":
            self.vacuous += times
        else:
            self.passes += times

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
    """Which sections to run and how large, one field per row of `SECTIONS`
    after the seed; omitted sections are skipped."""

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
        types are those of its row's shipped params at scale 1, and an opt-in
        section's value true or false.  The job counts, sides and block
        lengths are checked on the params the job will run with: the spec's,
        and the job's defaults for the keys it leaves out."""
        with malformed("corpus spec"):
            doc = json.loads(text)
        if not isinstance(doc, dict):
            raise FormatError("corpus spec must be a JSON object")
        unknown = set(doc) - set(cls._fields)
        if unknown:
            raise FormatError(f"unknown corpus spec keys: {sorted(unknown)}")
        json_int(doc.get("seed", 0), "corpus spec key 'seed'")
        for section, params in doc.items():
            row = SECTIONS.get(section)
            if row is None or params is None and row.shipped:  # the seed; a section left out
                continue
            if row.shipped is None:
                if type(params) is not bool:
                    raise FormatError(f"corpus spec key {section!r} must be true or false")
                continue
            if not isinstance(params, dict):
                raise FormatError(f"corpus spec section {section!r} must be an object")
            template = row.shipped(1)
            for key, value in params.items():
                if key not in template:
                    raise FormatError(f"unknown key {key!r} in corpus spec section "
                                      f"{section!r}; expected {sorted(template)}")
                if not _fits(value, template[key]):
                    raise FormatError(f"corpus spec value {section}.{key} = "
                                      f"{json.dumps(value)} does not have the shipped "
                                      f"form {json.dumps(template[key])}")
                for size in _ints(value):
                    lo, hi = row.budgets[key]
                    if not lo <= size <= hi:
                        raise BudgetError(f"corpus spec value {section}.{key}", size,
                                          f"{lo}..{hi}")
            args = {**_job_defaults(row.job), **params}
            if section == "xor_lemma":
                gadgets, powers, extra = args["gadgets"], args["powers"], args["extra"]
                jobs = len(gadgets) * len(powers) + len(extra)
                if jobs > XOR_LEMMA_JOB_LIMIT:
                    raise BudgetError("corpus spec xor_lemma jobs", jobs, XOR_LEMMA_JOB_LIMIT)
                # a bad name is a FormatError here, not in the section
                named = {name: builtin_gadget(name)
                         for name in [*gadgets, *(name for name, _ in extra)]}
                for name, m in chain(product(gadgets, powers), extra):
                    _check_xor_power(named[name], m,
                                     f"corpus spec xor_lemma side of {name} at m={m}")
            if section == "lifting":
                b = builtin_gadget(args["gadget"]).b
                if b > LIFTING_BLOCK_LIMIT:
                    raise BudgetError("corpus spec lifting gadget block length", b,
                                      LIFTING_BLOCK_LIMIT)
        return cls(**doc)


# Gadget and power pairs of the xor_lemma section: len(gadgets) * len(powers)
# + len(extra).
XOR_LEMMA_JOB_LIMIT = 1_000
# The block length b of the lifting section's gadget: at rand_seeds = 300 the
# section took 9.4 s at b = 5, and at b = 6 it took 33 s with 3 seeds.
LIFTING_BLOCK_LIMIT = 5


def _job_defaults(job: Callable) -> dict:
    """{param: default} of a job's params that have a default, read off the
    function: its __code__ names the params, its __defaults__ ends them."""
    code, defaults = job.__code__, job.__defaults__ or ()
    return dict(zip(code.co_varnames[code.co_argcount - len(defaults):code.co_argcount],
                    defaults))


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
    """The shipped desk-scale corpus: each section's shipped params at this
    scale; scale > 1 shrinks the seeded sweeps.  Opt-in sections are off."""
    if scale < 1:
        raise LiftsimError(f"corpus scale must be at least 1, got {scale}")
    return CorpusSpec(seed=2024, **{key: row.shipped(scale)
                                    for key, row in SECTIONS.items() if row.shipped})


def _run_section(spec: CorpusSpec, key: str) -> List[SectionReport]:
    """The reports of the spec's section `key`: its row's job on the seed and
    the section's params, none for an opt-in flag."""
    params = getattr(spec, key)
    return SECTIONS[key].job(spec.seed, **(params if isinstance(params, dict) else {}))


def run_corpus(spec: CorpusSpec) -> CorpusReport:
    """The report of the spec's sections, in CorpusSpec._fields order.

    A section runs when its value is an object, an empty one included (a
    param it leaves out takes the job's default), and an opt-in section when
    its flag is true.  They are dealt out round-robin, in `SECTIONS` order,
    over `_process_count` processes: this one runs share 0 and a forked
    child each other share.  A section whose reports do not come back from
    its child (the child raised, crashed or was killed) runs again here, in
    spec order, so it raises here what it raises in one process.  The split
    depends on the spec alone and the report is byte for byte the
    one-process report."""
    keys = [key for key in SECTIONS
            if isinstance(getattr(spec, key), dict) or getattr(spec, key) is True]
    procs = _process_count(len(keys))
    done = _run_shares(spec, keys, procs) if procs > 1 else {}
    sections = []
    for key in CorpusSpec._fields:
        if key in keys:
            sections.extend(done[key] if key in done else _run_section(spec, key))
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
    import marshal
    import signal

    done, children = {}, []  # children: (pid, read end of its pipe)
    try:
        for rank in range(1, procs):
            _fork(children, spec, keys[rank::procs])
        for key in keys[::procs]:
            done[key] = _run_section(spec, key)
        for pid, pipe in children:
            data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:  # a clean exit: every byte was written
                done.update({key: [SectionReport(**fields) for fields in reports]
                             for key, reports in marshal.loads(data).items()})
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
    """Fork a child that writes {key: each report's fields} of the sections
    `share` to a pipe by marshal (the fields are JSON data) and leaves by
    os._exit: with status 0 once every byte is written, else 1.  Its pid and
    the pipe's read end join `children` before this process can take a
    signal, and the child takes none before it is inside its try, so it
    never returns into the caller's code.  When the fork fails, nothing
    joins `children`."""
    import marshal
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
                    out.write(marshal.dumps({key: list(map(vars, _run_section(spec, key)))
                                             for key in share}))
                status = 0
            finally:
                os._exit(status)
        children.append((pid, pipe))
    except OSError:  # no child: its share does not come back, so the caller runs it
        pipe.close()
    finally:
        os.close(write_end)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _section_fourier(seed: int, count: int = 1000) -> List[SectionReport]:
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
    return [rep]


def _section_vazirani(seed: int, count: int = 1000) -> List[SectionReport]:
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
    return [rep]


_XOR_GADGETS = ("and1", "or1", "xor1", "ip1")
_XOR_POWERS = (1, 2, 3)


def _section_xor_lemma(seed: int, gadgets: Sequence[str] = _XOR_GADGETS,
                       powers: Sequence[int] = _XOR_POWERS,
                       extra: Sequence = ()) -> List[SectionReport]:
    rep = SectionReport("xor_lemma_sandwich")
    archived = {}
    for name, m in chain(product(gadgets, powers), extra):
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
    return [rep]


def _flat_tables(universe_size: int) -> Dict[tuple, DistributionTable]:
    """{support: its uniform table} for each nonempty subset of range(universe_size)."""
    return {supp: DistributionTable.uniform(supp)
            for supp in subsets_by_size(universe_size, nonempty=True)}


# The values of eta, lam and gamma in the extractor/sampling section.
_COROLLARY_GRID = (Fraction(1, 4), Fraction(1, 2))


def _section_extractor_sampling(seed: int, samples_b2: int = 200) -> List[SectionReport]:
    """extractor_check's and sampling_check's verdicts on flat tables: at b=1
    every pair over the whole grid, at b=1 with two copies every pair, and
    seeded pairs at b=2, each decided by _corollary_sweep."""
    reps = SectionReport("discrepancy_extractor"), SectionReport("discrepancy_sampling")
    quarter, half = grid = _COROLLARY_GRID
    b1_gadgets = [builtin_gadget(n) for n in ("and1", "or1", "xor1", "ip1")]
    flats1 = list(_flat_tables(2).values())
    points = [((eta, lam), [(gam, lam, eta) for gam in grid]) for eta in grid for lam in grid]
    for g in b1_gadgets:
        _corollary_sweep(reps, f"b1/{g.name}", g, 1, product(flats1, repeat=2), points)
    # xor-power corollaries at b=1, two copies, exhaustive flat pairs
    flats2 = _flat_tables(4)
    for g in b1_gadgets:
        _corollary_sweep(reps, f"b1-xor2/{g.name}", g, 2, product(flats2.values(), repeat=2),
                         [((half, quarter), [(quarter, quarter, half)])])
    # seeded flat pairs at b=2
    rng = random.Random(f"{seed}/extractor-b2")
    ip2 = builtin_gadget("ip2")
    universe = list(range(4))
    for k in range(samples_b2):
        x = flats2[seeded_support(rng, universe)]
        y = flats2[seeded_support(rng, universe)]
        eta, lam, gam = (rng.choice(grid) for _ in range(3))
        _corollary_sweep(reps, f"b2/{k}", ip2, 1, [(x, y)], [((eta, lam), [(gam, lam, eta)])])
    return list(reps)


def _corollary_sweep(reps: Tuple[SectionReport, SectionReport], tag: str, g: Gadget, m: int,
                     pairs, points: list) -> None:
    """extractor_check's and sampling_check's verdicts for g^xor m on each
    (X, Y) of `pairs`, in order, at each of `points`: ((eta, lam), [(gamma,
    lam, eta), ...]), an extractor grid point and the sampling points that
    follow it.  Each point's exponents and _disc_ok are computed once per
    call.  A conclusion, and the zero weights it reads, is computed only
    where its hypothesis holds, since a vacuous verdict reads nothing else;
    all on ints, with measured and bound rendered only for a FAIL."""
    rep_e, rep_s = reps
    b, gx = g.b, xor_power(g, m)
    disc = _ratio(discrepancy(g).value)
    grid = [((_disc_ok(disc, _ratio(eta), b), *_extractor_bits(_ratio(eta), _ratio(lam), m, b)),
             [(_disc_ok(disc, _ratio(eta), b),
               *_sampling_bits(_ratio(gam), _ratio(lam), _ratio(eta), m, b))
              for gam, lam, eta in samplings])
            for (eta, lam), samplings in points]
    for x, y in pairs:
        total = x.total * y.total
        top = max(x.weights.values()) * max(y.weights.values())
        for (disc_ok, entropy_bits, bound_bits), samplings in grid:
            if disc_ok and cmp_pow2_ratio(top, total, entropy_bits) <= 0:
                gap = abs(2 * sum(w * _zero_weight(gx, a, y) for a, w in x.weights.items())
                          - total)
                _count_corollary(rep_e, tag, gap, total, bound_bits,
                                 cmp_pow2_ratio(gap, total, bound_bits) <= 0)
            else:
                rep_e.count("vacuous", None)
            for disc_ok, entropy_bits, bias_bits, bound_bits in samplings:
                if disc_ok and cmp_pow2_ratio(top, total, entropy_bits) <= 0:
                    y_total = y.total
                    bad = sum(w for a, w in x.weights.items()
                              if cmp_pow2_ratio(abs(2 * _zero_weight(gx, a, y) - y_total),
                                                y_total, bias_bits) > 0)
                    _count_corollary(rep_s, tag, bad, x.total, bound_bits,
                                     cmp_pow2_ratio(bad, x.total, bound_bits) < 0)
                else:
                    rep_s.count("vacuous", None)


def _count_corollary(rep: SectionReport, tag: str, num: int, den: int, bound_bits: Fraction,
                     conclusion: bool) -> None:
    """One extractor or sampling verdict whose hypothesis holds: a FAIL
    shows num/den as measured against 2^-(bound_bits)."""
    rep.count("pass" if conclusion else "FAIL", lambda: LemmaInstance(
        tag, "FAIL", measured=frac_str(Fraction(num, den)), bound=f"2^-({frac_str(bound_bits)})"))


def _section_kraft(seed: int, max_len: int = 4, assignments: int = 100) -> List[SectionReport]:
    """A seeded weighting of every prefix-free code of words up to max_len
    long, and assignments - 1 more (none at 0) of each code of words up to 3
    long, all drawn from one _weight_stream."""
    rep = SectionReport("kraft_heavy_message")
    draw = _weight_stream(random.Random(f"{seed}/kraft"))
    codes = list(all_prefix_free_codes(max_len))
    rep.info["codes"] = len(codes)
    _kraft_sweep(rep, draw, codes, 1, "kraft")
    # the codes whose words are all of length <= 3, in the same order
    _kraft_sweep(rep, draw, all_prefix_free_codes(min(max_len, 3)), max(assignments - 1, 0),
                 "kraft-small")
    return [rep]


# 32-bit words per getrandbits block of a _weight_stream: about 2,200 weights
# at SEED_MAX_WEIGHT = 16.
_KRAFT_BLOCK_WORDS = 1 << 12


def _weight_stream(rng: random.Random) -> Callable[[int], bytes]:
    """draw(size): the weights seeded_weights(rng, size) gives, as bytes,
    one call after another, drawn in blocks.  getrandbits(32*N) is the N
    32-bit outputs that N getrandbits(bits) calls would take the top bits
    of, the first least significant, so the top byte of each word, shifted
    right, is one call's value.  One translate maps each top byte to that
    value, or to 0xff past SEED_MAX_WEIGHT, and the rejects are removed.
    A draw is the next `size` values of that stream, skipped when all are
    zero as seeded_weights redraws it.  The rng is drawn past the last
    weight used, so it must have no other reader."""
    bound = SEED_MAX_WEIGHT + 1
    bits = bound.bit_length()  # at most 8: SEED_MAX_WEIGHT is below 255
    table = bytes(v >> (8 - bits) if v >> (8 - bits) < bound else 0xff for v in range(256))
    getrandbits = rng.getrandbits
    buf, pos = b"", 0

    def draw(size: int) -> bytes:
        nonlocal buf, pos
        while True:
            end = pos + size
            if end > len(buf):
                buf, pos, end = buf[pos:], 0, size
                while len(buf) < size:
                    words = getrandbits(32 * _KRAFT_BLOCK_WORDS)
                    top = words.to_bytes(4 * _KRAFT_BLOCK_WORDS, "little")[3::4]
                    buf += top.translate(table).replace(b"\xff", b"")
            weights = buf[pos:end]
            pos = end
            if any(weights):
                return weights

    return draw


def _kraft_sweep(rep: SectionReport, draw: Callable[[int], bytes], codes, draws: int,
                 label: str) -> None:
    """`draws` weightings of each code (a tuple of sorted words) from `draw`,
    each a pass iff some message is Kraft-heavy, as kraft_heavy_pick tests
    it: weight << len(word) >= total.  Prefix-freeness is checked once per
    code, since every support drawn on it is a subset: sorted words are
    prefix-free iff none starts the next.  A code that is not prefix-free
    makes every draw a FAIL."""
    for code in codes:
        prefix_free = not any(map(str.startswith, code[1:], code))
        lens = list(map(len, code))
        size = len(code)
        fails = 0
        for _ in range(draws):
            weights = draw(size)
            if not (prefix_free and max(map(lshift, weights, lens)) >= sum(weights)):
                fails += 1
        rep.count("pass", None, draws - fails)
        if fails:
            rep.count("FAIL", lambda: LemmaInstance(f"{label}/{'|'.join(code)}", "FAIL"), fails)


def _section_density(seed: int, count: int = 200) -> List[SectionReport]:
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
    return [rep]


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
                flagged = scan.dangerous_among(universe)
                for x_val in universe:
                    leak, dangerous = scan.witness("leaking", x_val), x_val in flagged
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


def _section_structure_lemmas(seed: int, count: int = 40) -> List[SectionReport]:
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
    return [rep]


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


def _section_fixture(seed: int) -> List[SectionReport]:
    """Self-test: a deliberately wrong bound must register as a FAIL."""
    rep = SectionReport("fixture_planted_violation")
    fair = DistributionTable.uniform([0, 1])
    wrong = xor_bias(fair, 1, (0,)) < 0  # bias is 0; the planted claim is 'negative'
    rep.record(LemmaInstance("fixture/planted", "pass" if wrong else "FAIL",
                             detail="planted violation (expected FAIL)"))
    return [rep]


# The corpus's sections, one row each: the job, (seed, **params) -> reports;
# the params at a scale in the shipped corpus, none for an opt-in flag; and
# the range of each integer param, checked by CorpusSpec.from_json before any
# section runs.  At its upper end a section takes at most about half a minute
# on 2 CPUs; kraft.max_len = 5 alone would enumerate more prefix-free codes
# than any run can, and an XOR power past RECT_SIDE_LIMIT.bit_length() - 1
# fits the rectangle budget at no b.  Each section draws from its own
# random.Random(f"{seed}/<section>").  run_corpus deals them out round-robin
# in this order, chosen by timing on 2 CPUs, and kept since.  With the Kraft
# and extractor/sampling sweeps as batch kernels (2 CPUs, Python 3.11.7), the
# scale-10 shares take about 47 ms (lifting, kraft, structure_lemmas,
# vazirani, xor_lemma: the caller's) and 39 ms (claims, extractor_sampling,
# fourier, density: the child's); in the full corpus the Kraft sweep, 1.7 of
# 2.2 s, shares its process with the lighter half of the rest.
class _Section(Record):
    def __init__(self, job: Callable[..., List[SectionReport]],
                 shipped: Optional[Callable[[int], dict]], budgets: Dict[str, Tuple[int, int]]):
        self.job = job
        self.shipped = shipped
        self.budgets = budgets


SECTIONS: Dict[str, _Section] = {
    "lifting": _Section(_section_lifting, lambda scale: {"gadget": "ip2", "rand_seeds": 3},
                        {"rand_seeds": (0, 300)}),
    "claims": _Section(_section_claims, lambda scale: {"supports": max(20 // scale, 4)},
                       {"supports": (0, 2_000)}),
    "kraft": _Section(_section_kraft, lambda scale: {"max_len": 4 if scale == 1 else 3,
                                                     "assignments": 100 // scale + 1},
                      {"max_len": (0, 4), "assignments": (0, 10_000)}),
    "extractor_sampling": _Section(_section_extractor_sampling,
                                   lambda scale: {"samples_b2": max(200 // scale, 20)},
                                   {"samples_b2": (0, 20_000)}),
    "structure_lemmas": _Section(_section_structure_lemmas,
                                 lambda scale: {"count": max(40 // scale, 8)},
                                 {"count": (0, 4_000)}),
    "fourier": _Section(_section_fourier, lambda scale: {"count": max(1000 // scale, 50)},
                        {"count": (0, 100_000)}),
    "vazirani": _Section(_section_vazirani, lambda scale: {"count": max(1000 // scale, 50)},
                         {"count": (0, 100_000)}),
    "density": _Section(_section_density, lambda scale: {"count": max(200 // scale, 20)},
                        {"count": (0, 20_000)}),
    "xor_lemma": _Section(_section_xor_lemma,
                          lambda scale: {"gadgets": list(_XOR_GADGETS),
                                         "powers": list(_XOR_POWERS), "extra": [["ip2", 1]]},
                          dict.fromkeys(("powers", "extra"), (1, RECT_SIDE_LIMIT.bit_length() - 1))),
    "fixture_planted_violation": _Section(_section_fixture, None, {}),
}
# "<section>.<param>": the range of that integer param, from the rows
SPEC_BUDGETS = {f"{key}.{param}": bounds
                for key, row in SECTIONS.items() for param, bounds in row.budgets.items()}
