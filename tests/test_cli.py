import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liftsim.cli import main
from liftsim.dtrees import (brute_force_Ddt, parity_problem, problem_from_json,
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
    params = json.loads(out.read_text())["params"]
    assert params["trunc_scaled_by_b"] is True and params["density_witness_bits"] == 12
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_lift_rand_enumerate(files, capsys):
    code, out, _ = run_cli(["lift", "--protocol", str(files / "proto.json"),
                            "--gadget", "ip2", "--z", "01", "--mode", "rand",
                            "--enumerate", "--seed", "4"], capsys)
    assert code == 0
    assert "error-halt mass (K)" in out
    assert "TV distance" in out


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


def _no_b_protocol(root):
    doc = json.loads((root / "proto.json").read_text())
    del doc["b"]
    (root / "no_b.json").write_text(json.dumps(doc))
    return root / "no_b.json"


def _bad_json(root):
    (root / "bad.json").write_text("{not json")
    return root / "bad.json"


def _spec(root, name, doc):
    (root / f"spec_{name}.json").write_text(json.dumps(doc))
    return root / f"spec_{name}.json"


# One case per class of malformed input: each is a LiftsimError (exit 2, one
# "error:" line), never a traceback with exit 1, which means "counterexamples".
MALFORMED = {
    "gadget-spec-field": lambda root: ["gadget", "analyze", "--gadget", "rand:x:1"],
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
    "out-dir-missing": lambda root: [
        "gadget", "analyze", "--gadget", "xor1", "--out", str(root / "absent" / "x.json")],
    "verify-scale-zero": lambda root: ["verify", "--scale", "0"],
    "verify-scale-negative": lambda root: ["verify", "--scale", "-3"],
    "gadget-block-too-long": lambda root: ["gadget", "analyze", "--gadget", "rand:40:1"],
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
    "problem-table-not-object": lambda root: [
        "oracle", "dt", "--problem", str(_spec(root, "problem", {"n": 1, "outputs": [0],
                                                                 "table": []}))],
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


# Called as a library, every loader reports malformed text as a FormatError
# (a LiftsimError), never as a raw KeyError, ValueError or JSONDecodeError.
LOADER_INPUTS = {
    "problem_from_json": (problem_from_json, (
        "{}", "not json", '{"n": 1, "outputs": [0], "table": []}',
        '{"n": "x", "outputs": [], "table": {}}')),
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
        '{"n": 1, "b": 1, "tree": {"speaker": "C"}}')),
    "randomized_protocol_from_json": (randomized_protocol_from_json, (
        "{}", "not json", '{"components": [{"weight": "x"}]}',
        '{"components": [{"weight": "1", "protocol": {}}]}')),
    "CorpusSpec.from_json": (CorpusSpec.from_json, (
        "not json", "[]", '{"fourier": {"cnt": 5}}')),
    "gadget_from_json": (gadget_from_json, (
        "not json", '{"b": "x", "rows": []}', '{"b": 1, "rows": 5}')),
}


@pytest.mark.parametrize("loader", sorted(LOADER_INPUTS))
def test_library_loaders_raise_format_error(loader):
    parse, texts = LOADER_INPUTS[loader]
    for text in texts:
        with pytest.raises(FormatError):
            parse(text)


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
    code, _, err = run_cli(["oracle", "dt", "--problem", str(files / "parity3.json"),
                            "--budget-n", "2"], capsys)
    assert code == 2 and "budget" in err


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
