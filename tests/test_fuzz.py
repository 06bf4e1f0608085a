"""A seeded boundary fuzzer over every input file kind.

Each case starts from a valid gadget, protocol, randomized-protocol, problem,
decision-tree or corpus-spec document, sets one or two of its fields (a dict
value or a list element, at any depth) to null, -1, 2**70, 1.5, "x" or [], or
deletes a key, and runs the command that reads that file kind through
``liftsim.cli.main`` in process.  Each kind's valid document is run first and
must be accepted.  Every case must end with exit code 0, 1 or
2 and no traceback, and exit code 1 ("counterexamples found") only from
``verify``.  No CLI command reads a decision tree, so tree files go through
``tree_from_json``, which must return a tree or raise a ``LiftsimError``.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction as F

from liftsim.cli import main
from liftsim.dtrees import (brute_force_Ddt, first_bit_problem, parity_problem, problem_to_json,
                            tree_from_json, tree_to_json)
from liftsim.errors import LiftsimError
from liftsim.gadgets import builtin_gadget, gadget_to_json
from liftsim.protocols import (RandomizedProtocol, canonical_protocol, protocol_to_json,
                               randomized_protocol_to_json)

SEED = 17
CASES = 300
VALUES = (None, -1, 2 ** 70, 1.5, "x", [])
DELETE = object()

_XOR1 = builtin_gadget("xor1")
_PARITY = canonical_protocol(brute_force_Ddt(parity_problem(2))[1], _XOR1)
_FIRST_BIT = canonical_protocol(brute_force_Ddt(first_bit_problem(2))[1], _XOR1)

# file kind -> (valid document, the command that reads it, given the file's path)
KINDS = {
    "gadget": (json.loads(gadget_to_json(builtin_gadget("ip1"))),
               lambda path: ["gadget", "analyze", "--gadget", path, "--xor-power", "2"]),
    "protocol": (json.loads(protocol_to_json(_PARITY)),
                 lambda path: ["lift", "--protocol", path, "--gadget", "xor1", "--z", "01",
                               "--mode", "rand", "--enumerate"]),
    "randomized_protocol": (
        json.loads(randomized_protocol_to_json(RandomizedProtocol(
            ((F(1, 2), _PARITY), (F(1, 2), _FIRST_BIT))))),
        lambda path: ["lift", "--protocol", path, "--gadget", "xor1", "--z", "10",
                      "--mode", "rand", "--seed", "3"]),
    "problem": (json.loads(problem_to_json(parity_problem(2))),
                lambda path: ["oracle", "dt", "--problem", path]),
    "tree": (json.loads(tree_to_json(brute_force_Ddt(parity_problem(2))[1])), None),
    # one key per section where a deleted key would fall back to a long
    # default (kraft.max_len defaults to 4, the full Kraft sweep), so that
    # deleting it leaves an empty section, which is skipped
    "corpus_spec": ({"seed": 3, "fourier": {"count": 2}, "vazirani": {"count": 2},
                     "xor_lemma": {"gadgets": ["xor1"], "powers": [1], "extra": [["ip1", 1]]},
                     "extractor_sampling": {"samples_b2": 1}, "kraft": {"max_len": 2},
                     "density": {"count": 2}, "claims": {"supports": 1},
                     "structure_lemmas": {"count": 1},
                     "lifting": {"gadget": "xor1", "rand_seeds": 1},
                     "fixture_planted_violation": False},
                    lambda path: ["verify", path]),
}


def _places(doc, at=()):
    """Every (container path, key or index) in doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield at, key
        if isinstance(value, (dict, list)):
            yield from _places(value, at + (key,))


def _mutate(rng: random.Random, doc):
    """doc with one or two fields changed; the changes, for the failure message."""
    changes = []
    for _ in range(rng.choice((1, 2))):
        places = list(_places(doc))
        if not places:
            break
        at, key = rng.choice(places)
        parent = doc
        for step in at:
            parent = parent[step]
        value = rng.choice(VALUES + ((DELETE,) if isinstance(parent, dict) else ()))
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = value
        changes.append((at + (key,), "deleted" if value is DELETE else value))
    return changes


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def _outcome(kind, text, path, where):
    """The exit code that reading `text` as a `kind` file ends with; a tree
    file goes through tree_from_json, and a refused one counts as 2."""
    command = KINDS[kind][1]
    if command is None:
        try:
            tree_from_json(text)
            return 0
        except LiftsimError:
            return 2
    path.write_text(text)
    code, printed = _run(command(str(path)))
    assert code in ((0, 1, 2) if kind == "corpus_spec" else (0, 2)), where
    assert "Traceback" not in printed, where
    return code


def test_mutated_inputs_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    names = sorted(KINDS)
    # the valid spec's corpus holds the documented n=2 biasing
    # counterexamples, so an accepted spec exits 1
    accepted = {kind: 1 if kind == "corpus_spec" else 0 for kind in KINDS}
    outcomes = set()
    start = time.perf_counter()
    for kind in names:  # each kind's document as it is
        code = _outcome(kind, json.dumps(KINDS[kind][0]), tmp_path / f"{kind}.json", kind)
        assert code == accepted[kind], kind
        outcomes.add((kind, code))
    for case in range(CASES):
        kind = names[case % len(names)]
        doc = json.loads(json.dumps(KINDS[kind][0]))
        changes = _mutate(rng, doc)
        where = f"case {case}, {kind}, {changes}"
        outcomes.add((kind, _outcome(kind, json.dumps(doc), tmp_path / f"{case}.json", where)))
    assert time.perf_counter() - start < 5
    # every kind is both accepted and refused
    assert outcomes == {(kind, code) for kind in KINDS for code in (accepted[kind], 2)}
