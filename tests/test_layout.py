"""The input layout is written once.

Input x is n blocks of b bits, and block i of x and y feeds bit i of
z = g^n(x, y).  Each piece of that layout has one home, and the library's
modules import it from there rather than spelling it out:

* coordinate i of z is bit (n-1-i): ``dtrees.z_bits`` and ``dtrees.answer_index``;
* subsets of coordinates in (size, lex) order: ``dist.subsets_by_size``;
* the universe of block tuples: ``gadgets.block_table``.

The lifting engines take a round's messages set-at-a-time, from
``protocols.message_distribution``; the per-input walk ``round_message`` is
its test oracle and appears in no source module.

Records are plain classes on ``liftsim.records.Record``: no source module
imports ``dataclasses`` or calls ``exec``/``eval``, and importing liftsim
loads neither ``dataclasses`` nor ``inspect``.

A density-restoring class is made in one place: only ``structure`` builds a
``DensityPart``, and the engines' deterministic fix is its partition's first
class.

A writer builds its document as an object first (``to_obj``,
``_protocol_to_obj``), and a caller that needs the object takes it from
there: no source module passes a ``*to_json`` writer's text to ``json.loads``.

A gadget fixes its block length: no source function takes both a gadget
``g`` and a ``b``, and a function given ``g`` reads ``g.b``.

The engines ask each question of a side once, through their cache: the
simulation calls neither ``is_dense`` nor ``max_density`` (a side's density
is its cached worst marginal's), and it evaluates the gadget only in
``compose_eval`` (conditioning selects blocks off the gadget's rows).
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftsim

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "liftsim").glob("*.py"))


def _lines_with(text: str, home: str = ""):
    """file:line of every source line outside the module `home` containing `text`."""
    return [f"{path.name}:{number}"
            for path in SOURCES if path.name != home
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if text in line]


def test_sources_found():
    assert {"dist.py", "dtrees.py", "gadgets.py"} <= {path.name for path in SOURCES}


def test_z_bit_shift_only_in_dtrees():
    found = _lines_with(">> (n - 1 -", home="dtrees.py")
    assert not found, f"read z's bits with dtrees.z_bits or answer_index: {found}"


def test_combinations_imported_only_in_dist():
    found = []
    for path in SOURCES:
        if path.name == "dist.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "combinations" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"enumerate subsets with dist.subsets_by_size: {found}"


def test_block_universe_only_from_block_table():
    found = _lines_with("product(range(1 <<")
    assert not found, f"build the block universe with gadgets.block_table: {found}"


def test_round_message_in_no_source_module():
    found = _lines_with("round_message(")
    assert not found, f"split a set by message with protocols.message_distribution: {found}"


def test_import_loads_neither_dataclasses_nor_inspect():
    # records are plain classes on liftsim.records, so importing the library,
    # the verifier and the CLI leaves both modules (and what they pull in,
    # ast, dis and tokenize) unloaded; and pickle is imported only when
    # run_corpus forks, so it stays unloaded too
    code = ("import sys, liftsim, liftsim.verify, liftsim.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pickle'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def test_package_names_load_only_their_home_modules():
    # the package's public names resolve on first use, so a caller of the
    # gadgets layer pays for neither the simulation nor the structure layer;
    # every name still resolves, to its home module's object
    code = ("import sys; from liftsim import discrepancy; "
            "print(sorted({'liftsim.simulate', 'liftsim.structure'} & set(sys.modules)), "
            "'liftsim.gadgets' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[] True\n"
    for name in liftsim.__all__:
        home = importlib.import_module(f"liftsim.{liftsim._HOMES[name]}")
        assert getattr(liftsim, name) is getattr(home, name), name
    assert set(liftsim.__all__) <= set(dir(liftsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        liftsim.no_such_name


def test_no_source_module_imports_dataclasses_or_calls_exec():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"records derive from liftsim.records.Record: {found}"


def _called(node) -> str:
    """The name a call node calls (``f(...)`` or ``x.f(...)``), else ''."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_no_source_module_parses_its_own_json_output():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if _called(node) == "loads"
             and any(_called(inner).endswith("to_json")
                     for arg in node.args for inner in ast.walk(arg))]
    assert not found, f"use the writer's object (to_obj, _protocol_to_obj): {found}"


def test_density_parts_built_only_in_structure():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "structure.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _called(node) == "DensityPart"]
    assert not found, f"take density-restoring classes from structure._density_parts: {found}"


def test_no_function_takes_both_a_gadget_and_b():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if {"g", "b"} <= names:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, f"read b from the gadget, g.b: {found}"


def test_simulate_reads_density_and_gadget_through_its_cache():
    tree = ast.parse((SOURCES[0].parent / "simulate.py").read_text())
    composed = {id(node) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "compose_eval"
                for node in ast.walk(f)}
    found = [f"simulate.py:{node.lineno} {_called(node)}"
             for node in ast.walk(tree) if id(node) not in composed
             and (_called(node) in ("is_dense", "max_density")
                  or _called(node) == "eval" and isinstance(node.func, ast.Attribute))]
    assert not found, f"read density off _EngineCache.worst, select blocks off g.table: {found}"
