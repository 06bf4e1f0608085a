"""Round-by-round extraction of decision trees from communication protocols.

Both engines walk the protocol one round (maximal same-speaker segment) at a
time while maintaining a rectangle X x Y of surviving inputs, held as the pair
(X inputs, Y inputs) and indexed by side (0 for speaker A, 1 for B).  Every
step shrinks one side: the speaker's (dangerous values, message, density fix
or partition class) or the silent one (conditioning on the gadget outputs).
A step that would empty its side leaves the rectangle as it was.  The steps:

  deterministic: discard dangerous values, follow a Kraft-heavy message, fix
  a maximal density-violating block set, query those coordinates, condition
  the silent side on the gadget outputs;

  randomized: one walk branches on the message and on a density-restoring
  partition class instead, tracks the information total K as an exact
  product of message probabilities, and halts with an error when K exceeds
  C+b or a class falls below the truncation threshold.  The sampler follows
  one exact seeded draw per step; the enumerator follows every branch and
  carries any seeded samplers along, each drawing at the picks on its path.

Desk-scale parameters generally violate the asymptotic hypotheses; the
engines run faithfully anyway and record every violated hypothesis in the
trace instead of refusing.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm
from typing import Dict, List, Optional, Tuple
from weakref import proxy

from .dist import DistributionTable, ZERO, _places
from .errors import BudgetError, DomainError, LiftsimError
from .exact import cmp_pow2, cmp_pow2_ratio, exact_log2, frac_str
from .gadgets import Gadget, block_table, blocks_of, inputs_with_blocks
from .protocols import (
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedProtocol,
    complexity,
    kraft_heavy_message,
    message_distribution,
    run_protocol,
)
from .dtrees import DLeaf, DNode, ParallelDecisionTree, answer_index, z_bits
from .records import Record, dump_json
from .structure import (
    DangerScan,
    DensityPart,
    Restriction,
    _density_bracket,
    _density_parts,
    _worst_marginal,
    density_restoring_partition,
)

__all__ = [
    "LiftingParams",
    "RoundRecord",
    "SimResult",
    "lift_deterministic",
    "lift_randomized",
    "lift_randomized_protocol",
    "enumerate_output_distribution",
    "enumerate_randomized_protocol",
    "reference_distribution",
    "certify_transcript",
    "extract_parallel_tree",
    "ledger_assertions",
    "LedgerReport",
    "RoundLedger",
    "compose_eval",
    "ERROR_K",
    "ERROR_TRUNCATION",
    "VIOLATION_PREFIX",
]

ERROR_K = "<ERROR:K>"
ERROR_TRUNCATION = "<ERROR:TRUNCATION>"
VIOLATION_PREFIX = "<VIOLATION:"
ENUM_BRANCH_LIMIT = 10 ** 6
FIBER_LIMIT_BITS = 18
ENGINE_INPUT_BITS = 16  # b*n of ip4 at n=4: each side holds 2^16 inputs
DENSITY_WITNESS_BITS = 12
ONE = Fraction(1)


class LiftingParams(Record):
    """Simulation parameters; the derived trio follows the standard recipe.

    deterministic: eps = h/(c*eta);  randomized: eps = h*log2(c)/(c*eta),
    which is rational only when c is a power of two.  Either way
    delta = 1 - eta/4 + eps/2 and tau = 2*delta - eps.  An explicit eps or
    delta replaces the derived one; eta, c, h and eps must be positive.
    """

    def __init__(self, eta: Fraction, c: Fraction, h: Fraction, b: int, n: int,
                 mode: str = "det", eps: Optional[Fraction] = None,
                 delta: Optional[Fraction] = None):
        self.eta = eta = Fraction(eta)
        self.c = c = Fraction(c)
        self.h = h = Fraction(h)
        self.b = b
        self.n = n
        self.mode = mode
        if mode not in ("det", "rand"):
            raise DomainError("mode must be 'det' or 'rand'")
        if eta <= 0 or c <= 0 or h <= 0:
            raise DomainError("eta, c and h must be positive")
        if eps is None:
            if mode == "det":
                eps = h / (c * eta)
            else:
                log2c = exact_log2(c)
                if log2c is None:
                    raise DomainError(
                        "randomized eps needs log2(c) rational; use a power-of-two c "
                        "or pass eps explicitly"
                    )
                eps = h * log2c / (c * eta)
        self.eps = eps = Fraction(eps)
        if eps <= 0:
            raise DomainError(f"eps must be positive, got {frac_str(eps)}")
        self.delta = Fraction(1 - eta / 4 + eps / 2 if delta is None else delta)

    @property
    def tau(self) -> Fraction:
        return 2 * self.delta - self.eps

    @classmethod
    def standard(cls, b: int, n: int, mode: str = "det",
                 eta=Fraction(1), c=Fraction(2), h=Fraction(1), **kw) -> "LiftingParams":
        return cls(eta=eta, c=c, h=h, b=b, n=n, mode=mode, **kw)

    def trunc_cmp(self, p_geq: Fraction) -> int:
        """Sign of p_geq minus the step-5 truncation threshold
        2**(-eta*b/8) / (16*n*b), exact: p_geq * 16*n*b against 2**(-eta*b/8)."""
        return cmp_pow2_ratio(16 * self.n * self.b * p_geq.numerator, p_geq.denominator,
                              self.eta * self.b / 8)


class RoundRecord(Record):
    def __init__(self, index: int, speaker: str, free_before: Tuple[int, ...],
                 delta_witness: Optional[Fraction] = None, dangerous_values: Tuple = (),
                 discarded_mass: Fraction = ZERO, message: str = "", p_message: Fraction = ONE,
                 heavy_value_prob: Optional[Fraction] = None, class_index: Optional[int] = None,
                 p_class: Optional[Fraction] = None, p_geq: Optional[Fraction] = None,
                 query_coords: Tuple[int, ...] = (), fixed_value: Tuple[int, ...] = (),
                 step5_prob: Optional[Fraction] = None,
                 snapshots: Optional[Dict[str, Tuple[int, Fraction, Fraction]]] = None,
                 flags: Optional[Dict[str, bool]] = None):
        self.index = index
        self.speaker = speaker
        self.free_before = free_before
        self.delta_witness = delta_witness
        self.dangerous_values = dangerous_values
        self.discarded_mass = discarded_mass
        self.message = message
        self.p_message = p_message
        self.heavy_value_prob = heavy_value_prob  # det step 3 conditioning prob
        self.class_index = class_index            # rand step 4 (1-based)
        self.p_class = p_class
        self.p_geq = p_geq
        self.query_coords = query_coords
        self.fixed_value = fixed_value
        self.step5_prob = step5_prob
        self.snapshots = {} if snapshots is None else snapshots
        self.flags = {} if flags is None else flags

    def to_obj(self) -> dict:
        """The round's trace: its fields, with the snapshots written as
        deficiency_snapshots {name: {free, maxp_x, maxp_y}}."""
        return dict(self.fields_obj("snapshots"), deficiency_snapshots={
            name: {"free": free, "maxp_x": frac_str(mx), "maxp_y": frac_str(my)}
            for name, (free, mx, my) in self.snapshots.items()})


class SimResult(Record):
    def __init__(self, status: str, violation: Optional[str], transcript: str, output: object,
                 rho: str, queries: Tuple[Tuple[int, ...], ...], depth: int,
                 xset: Tuple[int, ...], yset: Tuple[int, ...], rounds: List[RoundRecord],
                 k_product: Optional[Fraction] = None, component: Optional[int] = None):
        self.status = status
        self.violation = violation
        self.transcript = transcript
        self.output = output
        self.rho = rho
        self.queries = queries
        self.depth = depth
        self.xset = xset
        self.yset = yset
        self.rounds = rounds
        self.k_product = k_product
        self.component = component  # sampled index, randomized mixtures only

    @property
    def total_queries(self) -> int:
        return sum(len(q) for q in self.queries)

    def to_obj(self) -> dict:
        """The run trace: the fields but the rectangle's inputs and the sampled
        component, plus total_queries and the rectangle's size."""
        return dict(self.fields_obj("xset", "yset", "component"), total_queries=self.total_queries,
                    final_rectangle={"x_size": len(self.xset), "y_size": len(self.yset)})

    def to_json(self) -> str:
        return dump_json(self.to_obj())


def compose_eval(g: Gadget, x: int, y: int, n: int) -> int:
    """The composed map: n gadget outputs packed into an n-bit integer."""
    xb = blocks_of(x, n, g.b)
    yb = blocks_of(y, n, g.b)
    z = 0
    for xi, yi in zip(xb, yb):
        z = (z << 1) | g.eval(xi, yi)
    return z


def _side(speaker: str) -> int:
    """Index of the speaker's side in the rectangle: 0 for A (X), 1 for B (Y)."""
    return 0 if speaker == "A" else 1


def _select(inputs: Tuple[int, ...], keys, allowed) -> Tuple[int, ...]:
    """The inputs v with keys[v] in `allowed`, in order."""
    return tuple(compress(inputs, map(allowed.__contains__, map(keys.__getitem__, inputs))))


@lru_cache(maxsize=64)
def _free_keys(n: int, b: int, free: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Every input's blocks at the coordinates `free`, indexed by input (memoised)."""
    return tuple(map(_places(free), block_table(n, b)))


class _EngineCache:
    """Everything the engines read that depends only on (gadget, eps, delta,
    b, n) and one side's inputs, each entry built once and shared across
    the rounds, branches, runs and inputs z of whoever holds the cache.  It
    lives as long as its holder (there is no process-wide cache), and the
    engines refuse one built for another gadget or other (eps, delta, b, n).
    These methods are memoised per cache by lru_cache, so each one's
    cache_info() counts its hits, and each DangerScan memoises its own
    per-(C, x_C) witnesses.  The memos reach the cache through a weak proxy,
    so no reference cycle keeps a run's own cache alive after it:

      marginal(inputs, free):       the inputs' marginal on the free coordinates
      maxprob(inputs, free):        its maxprob
      worst(inputs, free):          its worst marginal, which decides its density
      partition(inputs, free):      its density-restoring partition
      context(side, silent, free):  the silent side's density witness and its
                                    DangerScan against the speaker's gadget
    """

    def __init__(self, g: Gadget, params: LiftingParams):
        # by speaker side: the gadget with the speaker's block as first input
        self.gadgets = (g, g.transpose())
        self.params = params
        self.key = _cache_key(g, params)
        memo, me = lru_cache(maxsize=None), proxy(self)
        for name in ("marginal", "maxprob", "worst", "partition", "context"):
            setattr(self, name, memo(getattr(_EngineCache, name).__get__(me)))

    def marginal(self, inputs: Tuple[int, ...], free: Tuple[int, ...]) -> DistributionTable:
        keys = _free_keys(self.params.n, self.params.b, free)
        return DistributionTable.from_weights(Counter(map(keys.__getitem__, inputs)))

    def maxprob(self, inputs: Tuple[int, ...], free: Tuple[int, ...]) -> Fraction:
        return self.marginal(inputs, free).maxprob()

    def worst(self, inputs: Tuple[int, ...], free: Tuple[int, ...]):
        return _worst_marginal(self.marginal(inputs, free))

    def dense(self, inputs: Tuple[int, ...], free: Tuple[int, ...], delta: Fraction) -> bool:
        """Whether the marginal is delta-dense: iff its worst one (p, s) is."""
        p, s = self.worst(inputs, free)
        return cmp_pow2(p, delta * self.params.b * s) <= 0

    def partition(self, inputs: Tuple[int, ...], free: Tuple[int, ...]):
        """The partition depends on the marginal alone, not on whose it is."""
        return density_restoring_partition(
            self.marginal(inputs, free), self.params.delta, self.params.b)

    def context(self, side: int, silent: Tuple[int, ...], free: Tuple[int, ...]):
        """(density witness of the silent side, its DangerScan)."""
        p = self.params
        delta_w = _density_bracket(self.worst(silent, free), p.b, DENSITY_WITNESS_BITS)[0]
        return delta_w, DangerScan(self.marginal(silent, free), self.gadgets[side], delta_w,
                                   p.eps, coord_limit=len(free))


def _cache_key(g: Gadget, params: LiftingParams) -> tuple:
    """What every entry of an engine cache depends on."""
    return g.table, params.eps, params.delta, params.b, params.n


class _Engine:
    """State and steps of one simulation run; `fork` copies it for another branch."""

    def __init__(self, p: ProtocolTree, g: Gadget, z: int, params: LiftingParams,
                 cache: Optional[_EngineCache] = None):
        if g.b != p.b or params.b != p.b or params.n != p.n:
            raise DomainError("protocol, gadget and parameter dimensions disagree")
        if not 0 <= z < (1 << p.n):
            raise DomainError(f"z must be an {p.n}-bit value")
        if p.b * p.n > ENGINE_INPUT_BITS:
            raise BudgetError("lifting engine input bits", p.b * p.n, ENGINE_INPUT_BITS)
        self.z = z
        self.params = params
        if cache is not None and cache.key != _cache_key(g, params):  # its entries would be wrong
            raise DomainError("the engine cache was built for another gadget "
                              "or other (eps, delta, b, n)")
        self.cache = cache or _EngineCache(g, params)
        full = tuple(range(p.input_size))
        self.sets = (full, full)
        self.rho = Restriction.all_free(p.n)
        self.transcript: List[str] = []
        self.rounds: List[RoundRecord] = []
        self.queries: List[Tuple[int, ...]] = []

    def fork(self) -> "_Engine":
        """A copy for another branch of the round in progress (its record copied)."""
        twin = object.__new__(_Engine)
        twin.__dict__.update(self.__dict__)
        twin.transcript = self.transcript.copy()
        twin.queries = self.queries.copy()
        rec = RoundRecord(*self.rounds[-1]._values())
        rec.snapshots = dict(rec.snapshots)
        rec.flags = dict(rec.flags)
        twin.rounds = self.rounds[:-1] + [rec]
        return twin

    # -- step helpers ---------------------------------------------------------

    def restrict(self, side: int, kept: Tuple[int, ...]) -> bool:
        """Keep only the inputs `kept` of one side.  When none would remain,
        the rectangle is left unchanged and the step returns False."""
        if not kept:
            return False
        self.sets = (kept, self.sets[1]) if side == 0 else (self.sets[0], kept)
        return True

    def begin_round(self, node: PNode) -> RoundRecord:
        rec = RoundRecord(index=len(self.rounds) + 1, speaker=node.speaker,
                          free_before=self.rho.free())
        self.rounds.append(rec)
        self._density_invariant(rec)
        rec.snapshots["start"] = self.snapshot(rec.free_before)
        return rec

    def snapshot(self, free: Tuple[int, ...]):
        """(free count, maxp_x, maxp_y); with nothing free, each maxprob is 1."""
        if not free:
            return 0, ONE, ONE
        xset, yset = self.sets
        return len(free), self.cache.maxprob(xset, free), self.cache.maxprob(yset, free)

    def _density_invariant(self, rec: RoundRecord) -> None:
        free, pr, side = rec.free_before, self.params, _side(rec.speaker)
        rec.flags["invariant_speaker_dense"] = not free or self.cache.dense(
            self.sets[side], free, pr.delta - pr.eps)
        rec.flags["invariant_silent_dense"] = not free or self.cache.dense(
            self.sets[1 - side], free, pr.delta)

    def discard_dangerous(self, rec: RoundRecord) -> bool:
        """Step 1: returns False when the speaker's set empties."""
        free = rec.free_before
        if not free:
            rec.snapshots["after_discard"] = self.snapshot(free)
            return True
        side = _side(rec.speaker)
        spk_set, silent = self.sets[side], self.sets[1 - side]
        rec.delta_witness, scan = self.cache.context(side, silent, free)
        keys = _free_keys(self.params.n, self.params.b, free)
        vals = self.cache.marginal(spk_set, free).weights.keys()
        bad = scan.dangerous_among(vals)
        kept = _select(spk_set, keys, vals - bad)
        rec.dangerous_values = tuple(sorted(bad))
        rec.discarded_mass = Fraction(len(spk_set) - len(kept), len(spk_set))
        ok = self.restrict(side, kept)
        rec.snapshots["after_discard"] = self.snapshot(free)
        return ok

    def take_message(self, rec: RoundRecord, message: str, p_message: Fraction,
                     inputs: Tuple[int, ...]):
        """Step 2: the speaker keeps `inputs`, the ones sending `message`."""
        rec.message = message
        rec.p_message = p_message
        rec.flags["kraft_heavy"] = p_message.numerator << len(message) >= p_message.denominator
        self.transcript.append(message)
        self.restrict(_side(rec.speaker), inputs)
        rec.snapshots["after_message"] = self.snapshot(rec.free_before)

    def fix_blocks(self, rec: RoundRecord, part: Optional[DensityPart]) -> None:
        """Step 3 (det) / 4 (rand): condition the speaker on a density-restoring
        class's members, values of all the free coordinates, and record the
        coordinates it fixes; `part` is None when no coordinate is free."""
        free, side = rec.free_before, _side(rec.speaker)
        if part is not None:
            rec.query_coords = tuple(free[i] for i in part.coords)
            rec.fixed_value = part.value
            keys = _free_keys(self.params.n, self.params.b, free)
            self.restrict(side, _select(self.sets[side], keys, set(part.members)))
        rec.snapshots["after_fix"] = self.snapshot(free)

    def query_and_condition(self, rec: RoundRecord):
        """Steps 4-5 (det) / 6-7 (rand): query z and condition the silent side."""
        abs_coords = rec.query_coords
        self.queries.append(abs_coords)
        if not abs_coords:  # nothing queried or conditioned since the fix
            rec.snapshots["after_query"] = rec.snapshots["end"] = rec.snapshots["after_fix"]
            return True
        zbits = z_bits(self.z, self.params.n, abs_coords)
        self.rho = self.rho.fix(abs_coords, zbits)
        free = self.rho.free()
        rec.snapshots["after_query"] = self.snapshot(free)
        side = _side(rec.speaker)
        g, kept = self.cache.gadgets[side], self.sets[1 - side]
        silent_size = len(kept)
        # per queried coordinate, the blocks y with g(xb, y) = bit, read off
        # the speaker's row of xb
        allowed = {coord: [y for y in range(g.side) if g.table[xb * g.side + y] == bit]
                   for coord, xb, bit in zip(abs_coords, rec.fixed_value, zbits)}
        if silent_size == 1 << (self.params.b * self.params.n):
            # the whole universe: the product of each coordinate's allowed
            # blocks, read off the universe (input v is kept[v]) to share its ints
            kept = tuple(map(kept.__getitem__, inputs_with_blocks(
                [allowed.get(i, range(g.side)) for i in range(self.params.n)], g.b)))
        else:
            for coord, blocks in allowed.items():
                keys = _free_keys(self.params.n, self.params.b, (coord,))
                kept = _select(kept, keys, {(y,) for y in blocks})
        ok = self.restrict(1 - side, kept)
        rec.step5_prob = Fraction(len(kept), silent_size)
        rec.flags["nonleaking_event"] = len(kept) << (len(abs_coords) + 1) >= silent_size
        rec.snapshots["end"] = self.snapshot(free)
        return ok

    def result(self, status: str, violation=None, output=None,
               k_product: Optional[Fraction] = None) -> SimResult:
        xset, yset = self.sets
        return SimResult(
            status=status, violation=violation, transcript="".join(self.transcript),
            output=output, rho=self.rho.cells, queries=tuple(self.queries),
            depth=len(self.rounds), xset=xset, yset=yset,
            rounds=self.rounds, k_product=k_product)


def lift_deterministic(p: ProtocolTree, g: Gadget, z: int, params: LiftingParams,
                       cache: Optional[_EngineCache] = None) -> SimResult:
    """Deterministic five-step simulation of one protocol run on input z."""
    eng = _Engine(p, g, z, params, cache=cache)
    node = p.root
    while isinstance(node, PNode):
        rec = eng.begin_round(node)
        if not eng.discard_dangerous(rec):
            return eng.result("invariant_violation",
                              "step1: every surviving value is dangerous")
        table, senders, ends = message_distribution(node, eng.sets[_side(node.speaker)])
        message = kraft_heavy_message(table)
        eng.take_message(rec, message, table.prob(message), senders[message])
        node = ends[message]
        part = None
        if rec.free_before:  # step 3: the first class of the speaker's partition
            marg = eng.cache.marginal(eng.sets[_side(rec.speaker)], rec.free_before)
            part = next(_density_parts(marg, params.delta, params.b))
            if part.coords:
                rec.heavy_value_prob = part.prob
                rec.flags["heavy_value"] = cmp_pow2(
                    part.prob, params.delta * params.b * len(part.coords)) > 0
        eng.fix_blocks(rec, part)
        if not eng.query_and_condition(rec):
            return eng.result("invariant_violation",
                              "step5: conditioning emptied the silent side")
    return eng.result("done", output=node.output)


# -- randomized engine ---------------------------------------------------------

def _draw(rng: random.Random, probs) -> int:
    """Index of one exact draw from the Fraction probabilities `probs`, in order."""
    denom = lcm(*[p.denominator for p in probs])
    r = rng.randrange(denom)
    for i, p in enumerate(probs):
        r -= p.numerator * (denom // p.denominator)
        if r < 0:
            return i
    return len(probs) - 1


def _randomized_runs(p: ProtocolTree, g: Gadget, z: int, params: LiftingParams,
                     cache: Optional[_EngineCache], pick):
    """(probability, path, SimResult) for each run of the randomized
    simulation that `pick` follows, depth first.  At each message step and
    each class step, `pick(path, probs)` gets the branch's path and the
    step's exact probabilities in canonical order, and returns the indices
    of the items to follow; the engine is forked for all but the last of
    them.  A path is the tuple of item indices followed at the picks above
    it, so each branch has its own, and a run that ends at a branch is
    yielded with that branch's path.  ENUM_BRANCH_LIMIT caps the protocol
    nodes entered."""
    if params.mode != "rand":
        raise DomainError("the randomized simulation needs randomized-mode parameters")
    cap = complexity(p)[0] + params.b
    # (engine, node it enters, K product, run probability, path), the next branch last
    todo = [(_Engine(p, g, z, params, cache=cache), p.root, ONE, ONE, ())]
    branches = 0
    while todo:
        eng, node, k_product, prob, path = todo.pop()
        branches += 1
        if branches > ENUM_BRANCH_LIMIT:
            raise BudgetError("randomized enumeration branches", branches, ENUM_BRANCH_LIMIT)
        if isinstance(node, PLeaf):
            yield prob, path, eng.result("done", output=node.output, k_product=k_product)
            continue
        rec = eng.begin_round(node)
        if not eng.discard_dangerous(rec):
            yield prob, path, eng.result("invariant_violation",
                                         "step1: every surviving value is dangerous",
                                         k_product=k_product)
            continue
        table, senders, ends = message_distribution(node, eng.sets[_side(node.speaker)])
        support = table.support()
        probs = [table.prob(w) for w in support]
        picked = pick(path, probs)
        children = []
        for i, mi in enumerate(picked):
            message, p_msg, m_path = support[mi], probs[mi], path + (mi,)
            m_eng = eng.fork() if i < len(picked) - 1 else eng
            rec = m_eng.rounds[-1]
            m_eng.take_message(rec, message, p_msg, senders[message])
            k_msg, p_run = k_product * p_msg, prob * p_msg
            # step 3: halt when K = sum log(1/p_M) exceeds C + b
            if cmp_pow2(k_msg, cap) < 0:
                rec.flags["k_halt"] = True
                yield p_run, m_path, m_eng.result("error_halt_k", "step3: K exceeded C+b",
                                                  k_product=k_msg)
                continue
            if rec.free_before:  # step 4: the speaker's density-restoring partition
                parts = m_eng.cache.partition(m_eng.sets[_side(rec.speaker)], rec.free_before)
                classes = [(parts[j], m_path + (j,))
                           for j in pick(m_path, [part.prob for part in parts])]
            else:  # no free coordinates: nothing to fix or draw
                m_eng.fix_blocks(rec, None)
                classes = [(None, m_path)]
            for j, (part, c_path) in enumerate(classes):
                c_eng = m_eng.fork() if j < len(classes) - 1 else m_eng
                rec = c_eng.rounds[-1]
                p_cls = p_run if part is None else p_run * part.prob
                if part is not None:
                    rec.class_index, rec.p_class, rec.p_geq = part.index, part.prob, part.p_geq
                    c_eng.fix_blocks(rec, part)
                    if params.trunc_cmp(part.p_geq) < 0:
                        rec.flags["trunc_halt"] = True
                        yield p_cls, c_path, c_eng.result(
                            "error_halt_truncation",
                            "step5: sampled class below truncation threshold", k_product=k_msg)
                        continue
                if not c_eng.query_and_condition(rec):
                    yield p_cls, c_path, c_eng.result(
                        "invariant_violation",
                        "step7: conditioning emptied the silent side", k_product=k_msg)
                    continue
                children.append((c_eng, ends[message], k_msg, p_cls, c_path))
        todo += reversed(children)  # the first branch is entered first


def lift_randomized(p: ProtocolTree, g: Gadget, z: int, params: LiftingParams,
                    seed: int = 0, cache: Optional[_EngineCache] = None) -> SimResult:
    """Sampled randomized simulation (messages and partition classes drawn
    from a deterministic seeded source); K is tracked as an exact product.
    One path of the walk: the oracle of the seeded runs that `_enumerate`
    carries through its whole walk."""
    rng = random.Random(seed)
    [(_, _, res)] = _randomized_runs(p, g, z, params, cache,
                                     lambda path, probs: (_draw(rng, probs),))
    return res


def lift_randomized_protocol(rp: RandomizedProtocol, g: Gadget, z: int,
                             params: LiftingParams, seed: int = 0) -> SimResult:
    """Sample a deterministic component by weight, then run the simulation."""
    rng = random.Random(seed)
    comp = _draw(rng, [w for w, _ in rp.components])
    res = lift_randomized(rp.components[comp][1], g, z, params, seed=rng.randrange(2 ** 32))
    res.component = comp
    return res


def _enumerate(p: ProtocolTree, g: Gadget, z: int, params: LiftingParams,
               cache: Optional[_EngineCache] = None,
               seeds=()) -> Tuple[DistributionTable, List[SimResult]]:
    """The exact output distribution, as enumerate_output_distribution gives
    it, and lift_randomized's result for each seed, from one walk of every
    branch.  Each seed's walker is a random.Random(seed) waiting at a path:
    at the pick on that path it makes the draw lift_randomized(seed) makes
    there and moves to the branch drawn, and the run that ends at its path
    is its result.  The walk is depth first and a branch's picks come before
    its children's, so a walker meets its picks in the order its one-path
    walk makes them; nothing of the tree is stored."""
    markers = {"error_halt_k": ERROR_K, "error_halt_truncation": ERROR_TRUNCATION}
    outcomes: Dict[str, Fraction] = {}
    samples: List[Optional[SimResult]] = [None] * len(seeds)
    waiting: Dict[tuple, list] = {}  # path -> [(seed's index, its rng)] waiting there
    if seeds:
        waiting[()] = [(k, random.Random(seed)) for k, seed in enumerate(seeds)]

    def pick(path, probs):
        if waiting:  # once every walker has its run, no path is looked up
            for k, rng in waiting.pop(path, ()):
                waiting.setdefault(path + (_draw(rng, probs),), []).append((k, rng))
        return range(len(probs))

    for prob, path, res in _randomized_runs(p, g, z, params, cache, pick):
        if res.status == "invariant_violation":
            key = f"{VIOLATION_PREFIX}{res.violation.split(':')[0]}>"
        else:
            key = markers.get(res.status, res.transcript)
        outcomes[key] = outcomes.get(key, ZERO) + prob
        for k, _ in waiting.pop(path, ()):
            samples[k] = res
    return DistributionTable(outcomes), samples


def enumerate_output_distribution(p: ProtocolTree, g: Gadget, z: int,
                                  params: LiftingParams,
                                  cache: Optional[_EngineCache] = None) -> DistributionTable:
    """Exact output distribution of the randomized simulation: every run,
    with its exact probability, keyed by its transcript, one of the two
    error markers, or a violation marker naming the step that would have
    emptied a rectangle (the desk-scale regime)."""
    return _enumerate(p, g, z, params, cache)[0]


def enumerate_randomized_protocol(rp: RandomizedProtocol, g: Gadget, z: int,
                                  params: LiftingParams) -> DistributionTable:
    """Exact mixture of per-component enumerations."""
    cache = _EngineCache(g, params)
    return DistributionTable.mixture(
        (w, enumerate_output_distribution(proto, g, z, params, cache))
        for w, proto in rp.components)


def reference_distribution(p: ProtocolTree, g: Gadget, z: int) -> DistributionTable:
    """Transcript distribution of the protocol on uniform preimages of z."""
    n, b = p.n, p.b
    if 2 * b * n > FIBER_LIMIT_BITS:
        raise BudgetError("preimage enumeration input bits", 2 * b * n, FIBER_LIMIT_BITS)
    size = p.input_size
    counts: Dict[str, int] = {}
    for x in range(size):
        for y in range(size):
            if compose_eval(g, x, y, n) == z:
                t, _, _ = run_protocol(p, x, y)
                counts[t] = counts.get(t, 0) + 1
    if not counts:
        raise LiftsimError(f"z = {z:0{n}b} has no preimage under the composed map")
    return DistributionTable.from_weights(counts)


def certify_transcript(result: SimResult, p: ProtocolTree, g: Gadget, z: int):
    """Brute-force search for a preimage of z in the final rectangle that
    reproduces the simulated transcript; None reports a regime failure."""
    for x in result.xset:
        for y in result.yset:
            if compose_eval(g, x, y, p.n) != z:
                continue
            t, _, _ = run_protocol(p, x, y)
            if t == result.transcript:
                return x, y
    return None


def extract_parallel_tree(p: ProtocolTree, g: Gadget, params: LiftingParams) -> ParallelDecisionTree:
    """Materialize the full extracted tree by running every input z.

    The deterministic run depends on z only through the answers to its own
    queries, so runs merge into a well-formed parallel decision tree whose
    depth is the number of simulated rounds.
    """
    n = p.n
    cache = _EngineCache(g, params)
    runs = {}
    for z in range(1 << n):
        res = lift_deterministic(p, g, z, params, cache=cache)
        if res.status != "done":
            raise LiftsimError(
                f"run on z={z:0{n}b} ended with {res.status} ({res.violation}); "
                "cannot assemble a total tree")
        runs[z] = res

    def build_node(zs: List[int], round_idx: int):
        r0 = runs[zs[0]]
        if round_idx >= len(r0.queries):
            # inputs agreeing on every queried answer have identical runs
            for z in zs[1:]:
                if runs[z].output != r0.output or runs[z].transcript != r0.transcript:
                    raise LiftsimError("runs diverged without an answer split")
            return DLeaf(r0.output)
        coords = r0.queries[round_idx]
        for z in zs[1:]:
            if runs[z].queries[round_idx] != coords:
                raise LiftsimError("query sets diverged without an answer split")
        groups: Dict[int, List[int]] = {}
        for z in zs:
            groups.setdefault(answer_index(z, n, coords), []).append(z)
        children = tuple(
            build_node(groups[i], round_idx + 1) for i in range(1 << len(coords)))
        return DNode(coords, children)

    return ParallelDecisionTree(n, build_node(list(range(1 << n)), 0))


# -- deficiency ledger -----------------------------------------------------------

class RoundLedger(Record):
    def __init__(self, index: int, checks: Dict[str, Optional[bool]],
                 preconditions: Dict[str, bool]):
        self.index = index
        self.checks = checks
        self.preconditions = preconditions

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.checks.values())


class LedgerReport(Record):
    def __init__(self, rounds: List[RoundLedger], deficiency_nonnegative: bool):
        self.rounds = rounds
        self.deficiency_nonnegative = deficiency_nonnegative

    @property
    def ok(self) -> bool:
        return self.deficiency_nonnegative and all(r.ok for r in self.rounds)


def _over(da, db, e, p: Fraction = ONE) -> int:
    """Sign of p*da/db - 2**e, for deficiency values held as int (num, den) pairs."""
    return cmp_pow2_ratio(p.numerator * da[0] * db[1], p.denominator * da[1] * db[0], -e)


@lru_cache(maxsize=256)
def _ledger_bounds(b: int, n: int, delta: Fraction, eta: Fraction, c: Fraction,
                   eps: Fraction, isize: int) -> tuple:
    """A round's exponents at |I| = isize, keyed by the values they read:
    delta*b*|I|, the det and rand net decrease bounds, slack_ok, and the rand
    bound under the alternative delta reading."""
    # slack: 16nb * 2^(|I|+1) <= 2^((7/c)b|I| + (eta/8)b(|I|-1))
    slack_rhs = (Fraction(7, 1) / c) * b * isize + eta * b * (isize - 1) / 8
    delta_alt = 1 - eta / 8 + eps / 2
    return (delta * b * isize, (1 - delta - Fraction(2, b)) * b * isize,
            (1 - delta - eta / 8 - 7 / c) * b * isize,
            cmp_pow2_ratio(16 * n * b << (isize + 1), 1, -slack_rhs) <= 0,
            (1 - delta_alt - eta / 8 - 7 / c) * b * isize)


def ledger_assertions(result: SimResult, params: LiftingParams) -> LedgerReport:
    """Recompute every deficiency delta from the trace and check the bounds.

    Deficiency is 2b|free| - H_inf(X_free) - H_inf(Y_free); it is carried in
    the cleared form 4^(b|free|) * maxp_x * maxp_y, an int (num, den) pair
    computed once per snapshot of a round, so every clause is decided by
    cmp_pow2_ratio on ints.  Conditional clauses are checked only when their
    recorded preconditions hold; failed preconditions are reported.
    """
    b = params.b
    rounds_out: List[RoundLedger] = []
    nonneg = True
    for rec in result.rounds:
        dvals = {name: (mpx.numerator * mpy.numerator << 2 * b * free,
                        mpx.denominator * mpy.denominator)
                 for name, (free, mpx, mpy) in rec.snapshots.items()}
        checks: Dict[str, Optional[bool]] = {}
        pre: Dict[str, bool] = {}
        if any(num < den for num, den in dvals.values()):
            nonneg = False
        if "after_discard" in dvals and "start" in dvals:
            d0, d1 = dvals["start"], dvals["after_discard"]
            pre["discard_at_most_half"] = rec.discarded_mass * 2 <= 1
            checks["discard_increase_le_1_bit"] = (
                _over(d1, d0, 1) <= 0 if pre["discard_at_most_half"] else None)
        if "after_message" in dvals and "after_discard" in dvals:
            d1, d2 = dvals["after_discard"], dvals["after_message"]
            if params.mode == "det":
                pre["kraft_heavy"] = bool(rec.flags.get("kraft_heavy"))
                checks["message_increase_le_len"] = (
                    _over(d2, d1, len(rec.message)) <= 0 if pre["kraft_heavy"] else None)
            else:
                checks["message_increase_le_log"] = _over(d2, d1, 0, rec.p_message) <= 0
            if "start" in dvals:
                d0 = dvals["start"]
                if pre.get("discard_at_most_half"):
                    checks["steps12_increase_le_log_plus_1"] = _over(d2, d0, 1, rec.p_message) <= 0
        if rec.query_coords and "after_message" in dvals and "end" in dvals:
            isize = len(rec.query_coords)
            fix, det_bound, rand_bound, slack_ok, alt_bound = _ledger_bounds(
                b, params.n, params.delta, params.eta, params.c, params.eps, isize)
            d2 = dvals["after_message"]
            d5 = dvals["end"]
            pre["nonleaking_event"] = bool(rec.flags.get("nonleaking_event"))
            if "after_fix" in dvals:
                d3 = dvals["after_fix"]
                if params.mode == "det":
                    pre["heavy_value"] = bool(rec.flags.get("heavy_value", True))
                    checks["fix_increase_lt_delta_b_I"] = (
                        _over(d3, d2, fix) < 0 if pre["heavy_value"] else None)
                else:
                    checks["partition_increase_bound"] = (
                        _over(d3, d2, fix, rec.p_geq) <= 0
                        if rec.p_geq is not None else None)
            if "after_query" in dvals and "after_fix" in dvals:
                d3 = dvals["after_fix"]
                d4 = dvals["after_query"]
                checks["query_decrease_ge_b_I"] = _over(d4, d3, -b * isize) <= 0
            if params.mode == "det":
                applicable = pre.get("heavy_value", False) and pre["nonleaking_event"]
                checks["net_decrease_det"] = (
                    _over(d5, d2, -det_bound) <= 0 if applicable else None)
            else:
                pre["trunc_ok"] = (
                    rec.p_geq is not None and params.trunc_cmp(rec.p_geq) >= 0)
                pre["slack_ok"] = slack_ok
                applicable = pre["trunc_ok"] and pre["nonleaking_event"] and pre["slack_ok"]
                checks["net_decrease_rand"] = (
                    _over(d5, d2, -rand_bound) <= 0 if applicable else None)
                checks["net_decrease_rand_alt_delta_reading"] = (
                    _over(d5, d2, -alt_bound) <= 0 if applicable else None)
        rounds_out.append(RoundLedger(rec.index, checks, pre))
    return LedgerReport(rounds_out, nonneg)
