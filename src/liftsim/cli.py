"""Command-line front end: gadget analysis, lifting runs, corpus verification,
and the decision-tree oracle.

Subcommands
-----------
  gadget analyze   exact discrepancy, witness rectangle, XOR-power sandwich
  lift             run a simulation (det or rand) and write the trace
  verify           run a corpus spec (default: the shipped desk-scale corpus)
  oracle dt        exact deterministic query complexity plus a witness tree

Every exact rational is printed as num/den; decimal renderings carry 12
significant digits and are labeled approximate.  Identical invocations with
identical seeds produce byte-identical output.  Each subcommand imports the
engine it runs when it runs, so `gadget analyze` loads no simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import LiftsimError, malformed
from .exact import frac_decimal, frac_str, parse_frac
from .gadgets import (
    BUILTIN_NAMES,
    _check_xor_power,
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    gadget_from_json,
    gadget_to_json,
)


def _parse(what: str, parse, text: str):
    """parse(text); malformed input is a FormatError, i.e. exit code 2, not 1."""
    with malformed(what):
        return parse(text)


def _load(what: str, parse, path: str):
    """Parse the file at `path`; an unreadable file is a LiftsimError too."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise LiftsimError(f"cannot read {what} {path}: {e}") from None
    return _parse(what, parse, text)


def _write(what: str, path: str, text: str) -> None:
    """Write `text` to `path`; an unwritable path is a LiftsimError (exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise LiftsimError(f"cannot write {what} {path}: {e}") from None


def _load_gadget(spec: str):
    if spec in BUILTIN_NAMES or spec.startswith("rand:"):
        return builtin_gadget(spec)
    return _load("gadget file", gadget_from_json, spec)


def _parse_protocol(text: str):
    """(mixture or None, protocol run first) from a protocol file of either
    kind, told apart by the keys of its top-level object."""
    from .protocols import _protocol_from_obj, _randomized_protocol_from_obj

    doc = json.loads(text)
    if "components" in doc:
        mixture = _randomized_protocol_from_obj(doc)
        return mixture, mixture.components[0][1]
    return None, _protocol_from_obj(doc)


def _print_frac(label: str, value: Fraction) -> None:
    print(f"{label}: {frac_str(value)} (~{frac_decimal(value)})")


def cmd_gadget_analyze(args) -> int:
    g = _load_gadget(args.gadget)
    # every power is refused before the first scan or printed line
    for m in args.xor_power:
        _check_xor_power(g, m)
    res = discrepancy(g)
    print(f"gadget: {g.name or args.gadget}  b={g.b}  domain side={g.side}")
    _print_frac("discrepancy", res.value)
    fmt = lambda idx: format(idx, f"0{g.b}b")
    print(f"witness rectangle: A={{{', '.join(map(fmt, res.argmax.a))}}} "
          f"B={{{', '.join(map(fmt, res.argmax.b))}}}")
    for m in args.xor_power:
        r = check_xor_lemma(g, m)
        print(f"xor power m={m}: disc^m={frac_str(r.lower)} <= "
              f"disc(g^xor{m})={frac_str(r.value)} <= {frac_str(r.upper)}  "
              f"sandwich={'holds' if r.sandwich_holds else 'VIOLATED'}")
    if args.out:
        _write("gadget table", args.out, gadget_to_json(g))
        print(f"gadget table written to {args.out}")
    return 0


def _params_from_args(args, b: int, n: int):
    from .simulate import LiftingParams

    eps = None if args.eps is None else _parse("--eps", parse_frac, args.eps)
    return LiftingParams(
        eta=_parse("--eta", parse_frac, args.eta), c=_parse("--c", parse_frac, args.c),
        h=_parse("--h", parse_frac, args.h), b=b, n=n, mode=args.mode, eps=eps)


def cmd_lift(args) -> int:
    from .dist import DistributionTable, align_domains, statistical_distance
    from .protocols import RandomizedProtocol
    from .records import dump_json
    from .simulate import (
        DENSITY_WITNESS_BITS,
        ERROR_K,
        ERROR_TRUNCATION,
        certify_transcript,
        enumerate_randomized_protocol,
        ledger_assertions,
        lift_deterministic,
        lift_randomized,
        lift_randomized_protocol,
        reference_distribution,
    )

    mixture, proto = _load("protocol file", _parse_protocol, args.protocol)
    g = _load_gadget(args.gadget)
    if g.b != proto.b:
        raise LiftsimError(
            f"gadget block length {g.b} does not match protocol block length {proto.b}")
    z = _parse("--z", lambda text: int(text, 2), args.z)
    params = _params_from_args(args, proto.b, proto.n)
    if mixture is not None and args.mode != "rand":
        raise LiftsimError("randomized protocol files need --mode rand")
    if args.mode == "det":
        res = lift_deterministic(proto, g, z, params)
    elif mixture is not None:
        res = lift_randomized_protocol(mixture, g, z, params, seed=args.seed)
    else:
        res = lift_randomized(proto, g, z, params, seed=args.seed)
    run_proto = proto if res.component is None else mixture.components[res.component][1]
    if res.component is not None:
        print(f"sampled component: {res.component}")
    print(f"status: {res.status}" + (f" ({res.violation})" if res.violation else ""))
    print(f"transcript: {res.transcript or '(empty)'}")
    print(f"queries: {res.total_queries} in rounds {[list(q) for q in res.queries]}")
    print(f"depth: {res.depth}   rho: {res.rho}")
    if res.status == "done":
        cert = certify_transcript(res, run_proto, g, z)
        if cert is None:
            print("certification: NO preimage in the final rectangle reproduces the transcript")
        else:
            x, y = cert
            w = proto.b * proto.n
            print(f"certification: x={x:0{w}b} y={y:0{w}b}")
    led = ledger_assertions(res, params)
    print(f"deficiency ledger: {'all clauses hold' if led.ok else 'MISMATCH'}")
    if args.enumerate:
        if args.mode != "rand":
            print("(--enumerate applies to --mode rand only)")
        else:  # a plain protocol is the mixture of itself alone
            mixture = mixture or RandomizedProtocol(((Fraction(1), proto),))
            dist = enumerate_randomized_protocol(mixture, g, z, params)
            err_k = dist.prob(ERROR_K)
            err_t = dist.prob(ERROR_TRUNCATION)
            _print_frac("error-halt mass (K)", err_k)
            _print_frac("error-halt mass (truncation)", err_t)
            _print_frac("2^-b bound", Fraction(1, 1 << proto.b))
            ref = DistributionTable.mixture(
                (w, reference_distribution(comp, g, z)) for w, comp in mixture.components)
            a, bb = align_domains(dist, ref)
            _print_frac("TV distance to reference transcripts", statistical_distance(a, bb))
    if args.out:
        doc = res.to_obj()
        doc["params"] = dict(params.fields_obj(), tau=frac_str(params.tau),
                             trunc_scaled_by_b=True, density_witness_bits=DENSITY_WITNESS_BITS)
        _write("trace", args.out, dump_json(doc))
        print(f"trace written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verify import CorpusSpec, default_corpus_spec, run_corpus

    if args.spec:
        spec = _load("corpus spec", CorpusSpec.from_json, args.spec)
    else:
        spec = default_corpus_spec(scale=args.scale)
    if args.seed is not None:
        spec.seed = args.seed
    report = run_corpus(spec)
    print(report.to_table())
    if args.out:
        _write("report", args.out, report.to_json())
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def cmd_oracle_dt(args) -> int:
    from .dtrees import brute_force_Ddt, problem_from_json, tree_to_json

    problem = _load("search problem file", problem_from_json, args.problem)
    depth, tree = brute_force_Ddt(problem)
    print(f"deterministic query complexity: {depth}")
    print(f"tree depth: {tree.depth()}  query complexity: {tree.query_complexity()}")
    if args.out:
        _write("optimal tree", args.out, tree_to_json(tree))
        print(f"optimal tree written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liftsim",
        description="Exact desk-scale toolkit for query-to-communication lifting.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gadget", help="gadget analysis")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    ga = gsub.add_parser("analyze", help="discrepancy and XOR-power sandwich")
    ga.add_argument("--gadget", required=True,
                    help=f"builtin ({', '.join(BUILTIN_NAMES)}, rand:<b>:<seed>) or a JSON file")
    ga.add_argument("--xor-power", type=int, nargs="*", default=[],
                    metavar="M", help="check the sandwich at these powers")
    ga.add_argument("--out", help="write the gadget table as JSON")
    ga.set_defaults(func=cmd_gadget_analyze)

    l = sub.add_parser("lift", help="run a protocol-to-tree simulation")
    l.add_argument("--protocol", required=True, help="protocol JSON file")
    l.add_argument("--gadget", required=True)
    l.add_argument("--z", required=True, help="input bitstring, e.g. 01")
    l.add_argument("--mode", choices=("det", "rand"), default="det")
    l.add_argument("--eta", default="1")
    l.add_argument("--c", default="2")
    l.add_argument("--h", default="1")
    l.add_argument("--eps", default=None, help="override the derived eps")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--enumerate", action="store_true",
                   help="exact output distribution, error-halt mass, TV to reference")
    l.add_argument("--out", help="write the run trace as JSON")
    l.set_defaults(func=cmd_lift)

    v = sub.add_parser("verify", help="run a verification corpus")
    v.add_argument("spec", nargs="?", help="corpus spec JSON (default: shipped corpus)")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--scale", type=int, default=1,
                   help="shrink seeded sweeps by this factor (shipped corpus only)")
    v.add_argument("--out", help="write the aggregate report as JSON")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="brute-force oracles")
    osub = o.add_subparsers(dest="subcommand", required=True)
    od = osub.add_parser("dt", help="exact deterministic query complexity")
    od.add_argument("--problem", required=True, help="search problem JSON file")
    od.add_argument("--out", help="write the optimal tree as JSON")
    od.set_defaults(func=cmd_oracle_dt)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except LiftsimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
