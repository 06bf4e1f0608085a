import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liftsim.cli import build_parser, main
from liftsim.dtrees import (DTREE_N_LIMIT, brute_force_Ddt, parity_problem, problem_from_json,
                            problem_to_json, tree_from_json)
from liftsim.errors import FormatError
from liftsim.gadgets import builtin_gadget, gadget_from_json
from liftsim.protocols import (canonical_protocol, protocol_from_json, protocol_to_json,
                               randomized_protocol_from_json)
from liftsim.verify import CorpusSpec


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    problem = parity_problem(2)
    (root / "parity2.json").write_text(problem_to_json(problem))
    (root / "parity3.json").write_text(problem_to_json(parity_problem(3)))
    _, tree = brute_force_Ddt(problem)
    proto = canonical_protocol(tree, builtin_gadget("ip2"))
    (root / "proto.json").write_text(protocol_to_json(proto))
    (root / "bad_gadget.json").write_text('{"b": 1, "rows": ["01"]}')
    return root


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gadget_analyze(capsys):
    code, out, _ = run_cli(["gadget", "analyze", "--gadget", "xor1",
                            "--xor-power", "1", "2"], capsys)
    assert code == 0
    assert "discrepancy: 1/4" in out
    assert "sandwich=holds" in out
    code, out, _ = run_cli(["gadget", "analyze", "--gadget", "and1"], capsys)
    assert "discrepancy: 1/2" in out


def test_gadget_analyze_bad_file(files, capsys):
    code, _, err = run_cli(["gadget", "analyze", "--gadget",
                            str(files / "bad_gadget.json")], capsys)
    assert code == 2
    assert "error:" in err


def test_lift_det(files, capsys):
    code, out, _ = run_cli(["lift", "--protocol", str(files / "proto.json"),
                            "--gadget", "ip2", "--z", "10",
                            "--out", str(files / "trace.json")], capsys)
    assert code == 0
    assert "status: done" in out
    assert "certification: x=" in out
    doc = json.loads((files / "trace.json").read_text())
    assert doc["rho"] == "10"


# sha256 of the `lift --out` traces of the fixture protocol (parity of 2 bits,
# ip2), det at z=10 and rand seed 4 at z=01; the params block records
# trunc_scaled_by_b and density_witness_bits.
TRACE_SHA256 = {
    "det": ("d35776766d558eb172c8261c965f6fa3e9bb252d93df479f43da717492c1fe7d",
            ["--z", "10"]),
    "rand": ("259062b3fddd6511b38679c8a25d4aac494498191a9a0f42fe83a55fa6c16a00",
             ["--z", "01", "--mode", "rand", "--seed", "4"]),
}


@pytest.mark.parametrize("mode", sorted(TRACE_SHA256))
def test_lift_trace_digest_pinned(files, capsys, mode):
    digest, args = TRACE_SHA256[mode]
    out = files / f"pinned_{mode}.json"
    code, _, _ = run_cli(["lift", "--protocol", str(files / "proto.json"),
                          "--gadget", "ip2", *args, "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    params = doc["params"]
    assert params["trunc_scaled_by_b"] is True and params["density_witness_bits"] == 12
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # the trace doc as json.dumps writes it (the doc holds no float, so it reads back exactly)
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2)


def test_lift_rand_enumerate(files, capsys):
    code, out, _ = run_cli(["lift", "--protocol", str(files / "proto.json"),
                            "--gadget", "ip2", "--z", "01", "--mode", "rand",
                            "--enumerate", "--seed", "4"], capsys)
    assert code == 0
    assert "error-halt mass (K)" in out
    assert "TV distance" in out


# sha256 of the stdout of `lift --mode rand --enumerate --seed 4` on the
# fixture protocol at z = 00, 01, 10 and 11, concatenated in that order
ENUMERATE_STDOUT_SHA256 = "02b7ebe479944426b50bdb7555d5fb58501facbbd152effb5167465ab1e63d01"


def test_lift_rand_enumerate_stdout_pinned(files, capsys):
    digest = hashlib.sha256()
    for z in ("00", "01", "10", "11"):
        code, out, _ = run_cli(["lift", "--protocol", str(files / "proto.json"),
                                "--gadget", "ip2", "--z", z, "--mode", "rand",
                                "--enumerate", "--seed", "4"], capsys)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == ENUMERATE_STDOUT_SHA256


def test_lift_randomized_protocol_file(files, capsys):
    import json as _json
    from fractions import Fraction
    from liftsim.protocols import (RandomizedProtocol, protocol_from_json,
                                   randomized_protocol_to_json)
    proto = protocol_from_json((files / "proto.json").read_text())
    rp = RandomizedProtocol(((Fraction(1, 2), proto), (Fraction(1, 2), proto)))
    (files / "rproto.json").write_text(randomized_protocol_to_json(rp))
    code, out, _ = run_cli(["lift", "--protocol", str(files / "rproto.json"),
                            "--gadget", "ip2", "--z", "11", "--mode", "rand",
                            "--enumerate", "--seed", "2"], capsys)
    assert code == 0
    assert "sampled component:" in out
    assert "TV distance" in out
    code, _, err = run_cli(["lift", "--protocol", str(files / "rproto.json"),
                            "--gadget", "ip2", "--z", "11"], capsys)
    assert code == 2 and "--mode rand" in err


def test_lift_refuses_a_negative_mixture_weight(files, capsys):
    # weights -1/2 and 3/2 sum to 1 but are no mixture: refused when loaded
    doc = json.loads((files / "proto.json").read_text())
    path = files / "negative_weight.json"
    path.write_text(json.dumps({"components": [{"weight": "-1/2", "protocol": doc},
                                               {"weight": "3/2", "protocol": doc}]}))
    code, out, err = run_cli(["lift", "--protocol", str(path), "--gadget", "ip2",
                              "--z", "11", "--mode", "rand", "--enumerate"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: mixture weights must be nonnegative, got -1/2\n"


def test_lift_protocol_with_a_leaf_named_components(files, capsys):
    # a file's kind is read off its top-level keys: a deterministic protocol
    # whose leaf output is the string "components" is not a mixture
    path = files / "components_leaf.json"
    path.write_text(json.dumps({"n": 1, "b": 1, "tree": {"leaf": "components"}}))
    code, out, err = run_cli(["lift", "--protocol", str(path), "--gadget", "xor1",
                              "--z", "0"], capsys)
    assert (code, err) == (0, "")
    assert "status: done" in out and "sampled component" not in out


# A leaf output is carried into the run trace, whose writer takes no float:
# a protocol with one anywhere in a leaf is refused when it is loaded.
FLOAT_LEAVES = ("0.5", '{"v": 1.5}', "[1, 2.0]", "1e400", "NaN")


@pytest.mark.parametrize("leaf", FLOAT_LEAVES)
def test_lift_refuses_a_float_leaf_output(files, capsys, leaf):
    tree = '{"speaker": "A", "bit_map": [0, 1, 0, 1], "children": [{"leaf": 0}, {"leaf": %s}]}'
    path = files / "float_leaf.json"
    path.write_text('{"n": 1, "b": 2, "tree": %s}' % (tree % leaf))
    out_path = files / "float_leaf_trace.json"
    code, out, err = run_cli(["lift", "--protocol", str(path), "--gadget", "ip2", "--z", "1",
                              "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: leaf output must be a string, an integer, true, false, null")
    assert not out_path.exists()


def test_lift_trace_carries_a_nested_leaf_output(files, capsys):
    output = {"v": [1, "a", None, True], "w": {}}
    path = files / "nested_leaf.json"
    path.write_text(json.dumps({"n": 1, "b": 2, "tree": {
        "speaker": "A", "bit_map": [0, 1, 0, 1], "children": [{"leaf": output}, {"leaf": output}]}}))
    out_path = files / "nested_leaf_trace.json"
    code, _, err = run_cli(["lift", "--protocol", str(path), "--gadget", "ip2", "--z", "0",
                            "--out", str(out_path)], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out_path.read_text())
    assert doc["output"] == output
    assert out_path.read_text() == json.dumps(doc, sort_keys=True, indent=2)


def _nested_protocol(depth):
    """A protocol file nested `depth` nodes deep (n = b = 1), written as text."""
    node = '{"speaker": "A", "bit_map": [0, 0], "children": ['
    return ('{"n": 1, "b": 1, "tree": ' + node * depth + '{"leaf": 0}'
            + ', {"leaf": 1}]}' * depth + '}')


def _no_b_protocol(root):
    doc = json.loads((root / "proto.json").read_text())
    del doc["b"]
    (root / "no_b.json").write_text(json.dumps(doc))
    return root / "no_b.json"


def _bad_json(root):
    (root / "bad.json").write_text("{not json")
    return root / "bad.json"


def _spec(root, name, doc):
    return _text(root, name, json.dumps(doc))


def _text(root, name, text):
    (root / f"spec_{name}.json").write_text(text)
    return root / f"spec_{name}.json"


# One case per class of malformed input: each is a LiftsimError (exit 2, one
# "error:" line), never a traceback with exit 1, which means "counterexamples".
MALFORMED = {
    "gadget-spec-field": lambda root: ["gadget", "analyze", "--gadget", "rand:x:1"],
    # int() reads these as rand:4:1 or rand:4:10, which used to be analysed
    "gadget-spec-space": lambda root: ["gadget", "analyze", "--gadget", "rand: 4:1"],
    "gadget-spec-plus": lambda root: ["gadget", "analyze", "--gadget", "rand:+4:1"],
    "gadget-spec-arabic-indic-digit": lambda root: [
        "gadget", "analyze", "--gadget", "rand:\u0664:1"],
    "gadget-spec-underscore": lambda root: ["gadget", "analyze", "--gadget", "rand:4:1_0"],
    "verify-spec-not-json": lambda root: ["verify", str(_bad_json(root))],
    "protocol-missing-key": lambda root: [
        "lift", "--protocol", str(_no_b_protocol(root)), "--gadget", "ip2", "--z", "01"],
    "protocol-file-missing": lambda root: [
        "lift", "--protocol", str(root / "absent.json"), "--gadget", "ip2", "--z", "01"],
    "lift-z-not-bits": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "2"],
    "verify-spec-value-type": lambda root: [
        "verify", str(_spec(root, "value_type", {"fourier": {"count": "x"}}))],
    "verify-spec-section-not-object": lambda root: [
        "verify", str(_spec(root, "section_not_object", {"fourier": 5}))],
    "verify-spec-unknown-param": lambda root: [
        "verify", str(_spec(root, "unknown_param", {"fourier": {"cnt": 5}}))],
    "verify-spec-seed-not-int": lambda root: [
        "verify", str(_spec(root, "seed_not_int", {"seed": "1"}))],
    # the fixture flag is a JSON boolean; any other value used to plant the FAIL (exit 1)
    "verify-spec-fixture-flag-string": lambda root: [
        "verify", str(_spec(root, "fixture_string", {"fixture_planted_violation": "no"}))],
    "verify-spec-fixture-flag-object": lambda root: [
        "verify", str(_spec(root, "fixture_object", {"fixture_planted_violation": {"a": 1}}))],
    # corpus-spec sizes are refused on the parsed value, before any section runs
    "verify-spec-count-over-budget": lambda root: [
        "verify", str(_spec(root, "count_over", {"fourier": {"count": 2 ** 70}}))],
    "verify-spec-count-negative": lambda root: [
        "verify", str(_spec(root, "count_negative", {"vazirani": {"count": -1}}))],
    # gadget names and the lifting gadget's block length, refused on parsing
    "verify-spec-gadget-part-not-int": lambda root: [
        "verify", str(_spec(root, "rand_x", {"lifting": {"gadget": "rand:x:1"}}))],
    "verify-spec-gadget-b-negative": lambda root: [
        "verify", str(_spec(root, "rand_neg", {"xor_lemma": {"gadgets": ["rand:-1:1"]}}))],
    "verify-spec-gadget-parts-missing": lambda root: [
        "verify", str(_spec(root, "rand_short", {"xor_lemma": {"extra": [["rand:1", 1]]}}))],
    "verify-spec-lifting-block-over-budget": lambda root: [
        "verify", str(_spec(root, "lift_b6", {"lifting": {"gadget": "rand:6:1"}}))],
    "out-dir-missing": lambda root: [
        "gadget", "analyze", "--gadget", "xor1", "--out", str(root / "absent" / "x.json")],
    "verify-scale-zero": lambda root: ["verify", "--scale", "0"],
    "verify-scale-negative": lambda root: ["verify", "--scale", "-3"],
    "gadget-block-too-long": lambda root: ["gadget", "analyze", "--gadget", "rand:40:1"],
    # side 128 is past the rectangle budget, and past the exact packed scan
    "gadget-side-past-exact-range": lambda root: [
        "gadget", "analyze", "--gadget", "rand:7:1"],
    "gadget-file-block-too-long": lambda root: [
        "gadget", "analyze", "--gadget", str(_spec(root, "long_block", {"b": 40, "rows": []}))],
    "lift-eta-zero": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--eta", "0"],
    "lift-c-zero": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--c", "0"],
    "lift-c-negative-det": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--c", "-2"],
    "lift-c-negative-rand": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--mode", "rand", "--c", "-2"],
    "lift-h-zero": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--h", "0"],
    "lift-h-negative": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--h", "-1"],
    "lift-eps-zero": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--eps", "0"],
    "lift-eps-negative": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--eps", "-3"],
    # derived eps = h*log2(c)/(c*eta) is 0 at c = 1
    "lift-eps-derived-zero-rand": lambda root: [
        "lift", "--protocol", str(root / "proto.json"), "--gadget", "ip2", "--z", "01",
        "--mode", "rand", "--c", "1"],
    "problem-table-not-object": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "problem", {"n": 1, "outputs": [0],
                                                                 "table": []}))],
    "problem-key-not-n-bits": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "short_key", {
            "n": 2, "outputs": [0], "table": {"00": [0], "1": [0], "0010": [0], "11": [0]}}))],
    "protocol-n-overflows-input-size": lambda root: [
        "lift", "--protocol", str(_spec(root, "huge_n", {
            "n": 2 ** 70, "b": 1, "tree": {"leaf": 0}})), "--gadget", "xor1", "--z", "0"],
    "protocol-nested-too-deep": lambda root: [
        "lift", "--protocol", str(_text(root, "deep", _nested_protocol(900))),
        "--gadget", "xor1", "--z", "0"],
    "problem-n-negative": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "negative_n", {
            "n": -1, "outputs": [0], "table": {"0": [0]}}))],
    # refused on the key count, before a 2^n-entry table is allocated
    "problem-table-shorter-than-2^n": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "n40", {
            "n": 40, "outputs": [0], "table": {"0" * 40: [0]}}))],
    "problem-n-overflows": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "n70", {
            "n": 2 ** 70, "outputs": [0], "table": {"0": [0]}}))],
    "problem-key-duplicate": lambda root: [
        "oracle", "dt", "--problem", str(_text(root, "dup_key", '{"n": 1, "outputs": [0, 1], '
                                               '"table": {"0": [0], "1": [0], "1": [1]}}'))],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(files, capsys, case):
    code, out, err = run_cli(MALFORMED[case](files), capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err


def test_xor_power_refused_before_its_table(capsys, monkeypatch):
    # the side 2^(b*m) is refused before xor_power builds 4^(b*m) entries
    import liftsim.gadgets as gadgets

    def never(g, m):
        raise AssertionError(f"xor_power table built for m={m}")

    monkeypatch.setattr(gadgets, "xor_power", never)
    for m in (5, 9, 16):
        start = time.perf_counter()
        code, _, err = run_cli(["gadget", "analyze", "--gadget", "xor1",
                                "--xor-power", str(m)], capsys)
        assert code == 2 and time.perf_counter() - start < 1
        assert err == f"error: rectangle enumeration side domain: size 2^{m} exceeds budget 16\n"
    monkeypatch.undo()
    # side 2^4 is the budget itself: still analysed
    code, out, _ = run_cli(["gadget", "analyze", "--gadget", "xor1", "--xor-power", "4"], capsys)
    assert code == 0 and "disc(g^xor4)=1/4" in out


def test_xor_power_checked_before_any_output():
    # every --xor-power is refused before the gadget line, its discrepancy
    # and witness are printed: m < 1 and a side past RECT_SIDE_LIMIT
    for powers, message in ((["0"], "xor power needs m >= 1"),
                            (["3"], "rectangle enumeration side domain: "
                                    "size 2^6 exceeds budget 16"),
                            (["1", "-2"], "xor power needs m >= 1")):
        proc = subprocess.run([sys.executable, "-m", "liftsim", "gadget", "analyze",
                               "--gadget", "ip2", "--xor-power", *powers],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


# Called as a library, every loader reports malformed text as a FormatError
# (a LiftsimError), never as a raw KeyError, ValueError or JSONDecodeError.
LOADER_INPUTS = {
    "problem_from_json": (problem_from_json, (
        "{}", "not json", '{"n": 1, "outputs": [0], "table": []}',
        '{"n": "x", "outputs": [], "table": {}}',
        '{"n": -1, "outputs": [0], "table": {}}',
        '{"n": 40, "outputs": [0], "table": {"0": [0]}}')),
    "tree_from_json": (tree_from_json, (
        "{}", "[1]", '{"n": 1, "tree": {"queries": ["q"], "children": []}}',
        '{"n": 1, "tree": {"queries": [0], "children": [{"leaf": 0}]}}',
        # query coordinates outside [0, n) or repeated in one node
        '{"n": 2, "tree": {"queries": [5], "children": [{"leaf": 0}, {"leaf": 1}]}}',
        '{"n": 2, "tree": {"queries": [-1], "children": [{"leaf": 0}, {"leaf": 1}]}}',
        '{"n": 2, "tree": {"queries": [0, 0], "children": '
        '[{"leaf": 0}, {"leaf": 1}, {"leaf": 1}, {"leaf": 0}]}}')),
    "protocol_from_json": (protocol_from_json, (
        "{}", "not json", '{"n": 1, "b": 1, "tree": {"speaker": "A"}}',
        '{"n": 1, "b": 1, "tree": {"speaker": "C"}}',
        '{"n": 1180591620717411303424, "b": 1, "tree": {"leaf": 0}}', _nested_protocol(900),
        '{"n": 1, "b": 1, "tree": {"leaf": 0.5}}')),
    "randomized_protocol_from_json": (randomized_protocol_from_json, (
        "{}", "not json", '{"components": [{"weight": "x"}]}',
        '{"components": [{"weight": "1", "protocol": {}}]}',
        '{"components": [{"weight": "1", "protocol": ' + _nested_protocol(900) + '}]}',
        '{"components": [{"weight": "1", "protocol": {"n": 1, "b": 1, "tree": {"leaf": [0.5]}}}]}')),
    "CorpusSpec.from_json": (CorpusSpec.from_json, (
        "not json", "[]", '{"fourier": {"cnt": 5}}', '{"fixture_planted_violation": "no"}',
        '{"fixture_planted_violation": {"a": 1}}')),
    "gadget_from_json": (gadget_from_json, (
        "not json", '{"b": "x", "rows": []}', '{"b": 1, "rows": 5}')),
}


@pytest.mark.parametrize("loader", sorted(LOADER_INPUTS))
def test_library_loaders_raise_format_error(loader):
    parse, texts = LOADER_INPUTS[loader]
    for text in texts:
        with pytest.raises(FormatError):
            parse(text)


# Integer fields take JSON integers only: int() used to round a float or a
# boolean down (n = 1.9 loaded as 1, bit 0.7 as 0, b = true as 1).
_ONE_BIT_PROTOCOL = {"speaker": "A", "bit_map": [0, 1], "children": [{"leaf": 0}, {"leaf": 1}]}
INTEGER_FIELDS = {
    "gadget_from_json": (gadget_from_json, {"b": 1, "rows": ["01", "10"]}, [("b",)]),
    "protocol_from_json": (protocol_from_json, {"n": 1, "b": 1, "tree": _ONE_BIT_PROTOCOL},
                           [("n",), ("b",), ("tree", "bit_map", 0), ("tree", "bit_map", 1)]),
    "problem_from_json": (problem_from_json,
                          {"n": 1, "outputs": ["a", "b"], "table": {"0": [0], "1": [1]}},
                          [("n",), ("table", "1", 0)]),
    "tree_from_json": (tree_from_json, {"n": 1, "tree": {
        "queries": [0], "children": [{"leaf": 0}, {"leaf": 1}]}}, [("n",), ("tree", "queries", 0)]),
}


@pytest.mark.parametrize("loader", sorted(INTEGER_FIELDS))
def test_loaders_refuse_non_integer_numbers(loader):
    parse, doc, fields = INTEGER_FIELDS[loader]
    parse(json.dumps(doc))
    for *at, key in fields:
        for value in (1.9, 0.7, 1.0, True, False, "1"):
            bad = json.loads(json.dumps(doc))
            parent = bad
            for step in at:
                parent = parent[step]
            parent[key] = value
            with pytest.raises(FormatError, match="must be an integer"):
                parse(json.dumps(bad))


def test_cli_refuses_non_integer_numbers(files, capsys):
    proto = files / "fractional_n.json"
    tree = dict(_ONE_BIT_PROTOCOL, bit_map=[0.7, 1.2])
    proto.write_text(json.dumps({"n": 1.9, "b": 1, "tree": tree}))
    problem = files / "fractional_problem.json"
    problem.write_text(json.dumps({"n": 1.9, "outputs": ["a"], "table": {"0": [0], "1": [0]}}))
    for argv in (["lift", "--protocol", str(proto), "--gadget", "xor1", "--z", "0"],
                 ["oracle", "dt", "--problem", str(problem)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and "n must be an integer, got 1.9" in err


def test_problem_outputs_must_be_a_list(files, capsys):
    # outputs used to be read with list(...), so a string loaded as its
    # characters and `oracle dt` exited 0 on it
    doc = {"n": 1, "outputs": ["a", "b"], "table": {"0": [0], "1": [1]}}
    assert problem_from_json(json.dumps(doc)).outputs == ("a", "b")
    for outputs in ("ab", {"a": 0, "b": 1}, 2, None):
        with pytest.raises(FormatError, match="outputs must be a list"):
            problem_from_json(json.dumps(dict(doc, outputs=outputs)))
    path = files / "string_outputs.json"
    path.write_text(json.dumps(dict(doc, outputs="ab")))
    code, out, err = run_cli(["oracle", "dt", "--problem", str(path)], capsys)
    assert (code, out) == (2, "") and "outputs must be a list, got 'ab'" in err


def _subcommand(parser, *names):
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def test_no_budget_options(capsys):
    # every budget is a library constant: no option overrides one
    for names in (("lift",), ("oracle", "dt")):
        options = [s for a in _subcommand(build_parser(), *names)._actions
                   for s in a.option_strings]
        assert "--out" in options and not [s for s in options if s.startswith("--budget")]
    for argv in (["lift", "--protocol", "p.json", "--gadget", "ip2", "--z", "01",
                  "--budget-branches", "5"],
                 ["oracle", "dt", "--problem", "p.json", "--budget-n", "2"]):
        with pytest.raises(SystemExit) as exit:
            build_parser().parse_args(argv)
        assert exit.value.code == 2
    assert "unrecognized arguments: --budget-" in capsys.readouterr().err


def test_lift_past_the_engine_input_budget_exits_2(files, capsys):
    path = files / "wide_leaf.json"
    path.write_text(json.dumps({"n": 17, "b": 1, "tree": {"leaf": 0}}))
    code, out, err = run_cli(["lift", "--protocol", str(path), "--gadget", "xor1",
                              "--z", "0"], capsys)
    assert (code, out) == (2, "")
    assert "lifting engine input bits: size 17 exceeds budget 16" in err


def test_lift_dimension_mismatch(files, capsys):
    code, _, err = run_cli(["lift", "--protocol", str(files / "proto.json"),
                            "--gadget", "xor1", "--z", "01"], capsys)
    assert code == 2 and "block length" in err


def test_oracle_dt(files, capsys):
    code, out, _ = run_cli(["oracle", "dt", "--problem", str(files / "parity3.json"),
                            "--out", str(files / "tree.json")], capsys)
    assert code == 0
    assert "deterministic query complexity: 3" in out
    # emitted files round-trip through their own parsers
    from liftsim.dtrees import tree_from_json, run_tree
    tree = tree_from_json((files / "tree.json").read_text())
    assert tree.query_complexity() == 3
    assert run_tree(tree, 0b101)[0] == "0"
    # past DTREE_N_LIMIT the search is refused before any work
    big = files / f"parity{DTREE_N_LIMIT + 1}.json"
    big.write_text(problem_to_json(parity_problem(DTREE_N_LIMIT + 1)))
    code, out, err = run_cli(["oracle", "dt", "--problem", str(big)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: decision tree search dimension: size {DTREE_N_LIMIT + 1} "
                   f"exceeds budget {DTREE_N_LIMIT}\n")


def test_gadget_out_roundtrip(files, capsys):
    out_path = files / "ip2.json"
    code, _, _ = run_cli(["gadget", "analyze", "--gadget", "ip2",
                          "--out", str(out_path)], capsys)
    assert code == 0
    from liftsim.gadgets import builtin_gadget, gadget_from_json
    assert gadget_from_json(out_path.read_text()) == builtin_gadget("ip2")


def test_verify_empty_spec(files, capsys):
    spec = files / "empty.json"
    spec.write_text("{}")
    code, out, _ = run_cli(["verify", str(spec)], capsys)
    assert code == 0
    assert "overall: OK" in out


def test_verify_fixture_violation(files, capsys):
    spec = files / "fixture.json"
    spec.write_text('{"seed": 3, "fixture_planted_violation": true}')
    code, out, _ = run_cli(["verify", str(spec)], capsys)
    assert code == 1
    assert "COUNTEREXAMPLES FOUND" in out


def test_verify_small_spec_deterministic(files, capsys):
    spec = files / "small.json"
    spec.write_text(json.dumps({
        "seed": 11,
        "fourier": {"count": 5},
        "xor_lemma": {"gadgets": ["xor1"], "powers": [1, 2]},
    }))
    out_a = files / "rep_a.json"
    out_b = files / "rep_b.json"
    code_a, _, _ = run_cli(["verify", str(spec), "--out", str(out_a)], capsys)
    code_b, _, _ = run_cli(["verify", str(spec), "--out", str(out_b)], capsys)
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "liftsim.cli", "gadget",
                           "analyze", "--gadget", "ip1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "discrepancy: 1/2" in proc.stdout


def test_gadget_analyze_loads_no_engine():
    # each subcommand imports its engine when it runs, so analysing a gadget
    # loads neither the simulation, the structure layer nor the verifier
    code = ("import sys; from liftsim.cli import main; "
            "main(['gadget', 'analyze', '--gadget', 'ip2']); "
            "print(sorted({'liftsim.simulate', 'liftsim.structure', 'liftsim.verify'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "discrepancy: " in proc.stdout and proc.stdout.endswith("\n[]\n")


def test_module_entry_point(tmp_path):
    # python -m liftsim is the same command line: --help exits 0, and a
    # missing problem file is a named error with exit code 2
    def run(*args):
        return subprocess.run([sys.executable, "-m", "liftsim", *args],
                              capture_output=True, text=True)

    proc = run("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: liftsim")
    proc = run("oracle", "dt", "--problem", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read search problem file")
    assert "Traceback" not in proc.stderr
