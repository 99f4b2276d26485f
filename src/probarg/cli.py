"""Command-line interface.

Subcommands: eval, check, corpus, counterfactual, stats (fisher | mc | holm).
Exit codes: 0 success, 1 input error, 2 incoherent premises (eval only).
An input error is a ValueError; main alone prints it as "error: ..." and
returns 1.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction

from .coherence import (
    ClassificationConfig,
    Coherent,
    IncoherentPremises,
    as_fraction,
    check_coherence,
    classify,
    propagate,
)
from .corpus import agreement_report, report_structured, report_text
from .dsl import ParseError, lower, parse, parse_formula
from .events import Interpretation, atoms_of, constituents, is_satisfiable

# The subcommands import json, csv, .stats and .prevision themselves, so that
# a start-up loads only what its subcommand needs (.prevision is loaded anyway
# by the package's __init__, for the public API).


def _rational(text: str) -> Fraction:
    try:
        if re.search(r"[\d.][eE]", text):
            # Fraction() writes out an exponent's digits before any check
            raise ValueError("exponent notation")
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({err})")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="probarg",
        description=(
            "Coherent probability bounds for uncertain argument forms with "
            "conditionals."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    readings = sorted(i.value for i in Interpretation)

    ev = sub.add_parser("eval", help="evaluate tasks from a .arg file")
    ev.add_argument("file")
    ev.add_argument(
        "--interp",
        choices=readings + ["all"],
        default="all",
    )
    ev.add_argument("--theta", type=_rational, default=Fraction(9, 10))
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(run=_cmd_eval)

    ck = sub.add_parser("check", help="coherence verdict for the premise sets")
    ck.add_argument("file")
    ck.add_argument(
        "--interp",
        choices=readings,
        default=Interpretation.CONDITIONAL_EVENT.value,
    )
    ck.add_argument("--theta", type=_rational, default=Fraction(9, 10))
    ck.set_defaults(run=_cmd_check)

    co = sub.add_parser("corpus", help="agreement report for the built-in tasks")
    co.add_argument("--theta", type=_rational, default=Fraction(9, 10))
    co.add_argument("--json", action="store_true")
    co.set_defaults(run=_cmd_corpus)

    cf = sub.add_parser("counterfactual", help="nested prevision demo")
    cf.add_argument("--c", required=True, help="consequent formula")
    cf.add_argument("--b", required=True, help="inner antecedent formula")
    cf.add_argument("--a", required=True, help="outer conditioning formula")
    cf.add_argument("--p", required=True, type=_rational, help="p(c|b)")
    cf.set_defaults(run=_cmd_counterfactual)

    st = sub.add_parser("stats", help="statistical methods")
    st_sub = st.add_subparsers(dest="stats_command", required=True)
    fi = st_sub.add_parser("fisher", help="exact 2x2 Fisher test")
    fi.add_argument("table", help="CSV file, integers, no header")
    fi.set_defaults(run=_cmd_fisher)
    mc = st_sub.add_parser("mc", help="Monte Carlo r x c test")
    mc.add_argument("table")
    mc.add_argument("--iters", type=int, default=10000)
    mc.add_argument("--seed", type=int, default=42)
    mc.set_defaults(run=_cmd_mc)
    ho = st_sub.add_parser("holm", help="Holm-Bonferroni correction")
    ho.add_argument("pvals", help="comma-separated p-values")
    ho.add_argument("--alpha", type=_rational, default=Fraction(1, 20))
    ho.set_defaults(run=_cmd_holm)
    return p


def _parse_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}")
    try:
        return parse(text)
    except ParseError as err:
        raise ValueError(f"{path}:{err}")


def _lower(path: str, spec, interp: Interpretation, cfg: ClassificationConfig):
    try:
        return lower(spec, interp, cfg)
    except ValueError as err:
        raise ValueError(f"{path}: task {spec.name} [{interp.value}]: {err}")


def _formula_arg(option: str, text: str):
    try:
        return parse_formula(text)
    except ParseError as err:
        raise ValueError(f"{option} {text!r}: {err}")


def _cmd_eval(args) -> int:
    specs = _parse_file(args.file)
    cfg = ClassificationConfig(theta=args.theta)
    interps = list(Interpretation) if args.interp == "all" else [Interpretation(args.interp)]
    results = []
    for spec in specs:
        for interp in interps:
            assessment, query = _lower(args.file, spec, interp, cfg)
            try:
                bounds = propagate(assessment, query, spec.atoms)
            except IncoherentPremises as err:
                sys.stderr.write(
                    f"task {spec.name} [{interp.value}]: premises incoherent: "
                    f"{err.certificate.description}\n"
                )
                return 2
            category = classify(bounds, cfg)
            results.append(
                {
                    "task": spec.name,
                    "interpretation": interp.value,
                    "lo": str(bounds.lo),
                    "hi": str(bounds.hi),
                    "category": category.value,
                }
            )
    if args.json:
        import json

        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for r in results:
            print(
                f"{r['task']:<8} [{r['interpretation']}] "
                f"bounds [{r['lo']}, {r['hi']}] -> {r['category']}"
            )
    return 0


def _cmd_check(args) -> int:
    specs = _parse_file(args.file)
    cfg = ClassificationConfig(theta=args.theta)
    interp = Interpretation(args.interp)
    for spec in specs:
        assessment, _ = _lower(args.file, spec, interp, cfg)
        verdict = check_coherence(assessment, spec.atoms)
        if isinstance(verdict, Coherent):
            masses = ", ".join(str(m) for m in verdict.witness)
            print(f"{spec.name}: coherent; witness masses ({masses})")
        else:
            print(f"{spec.name}: incoherent at level {verdict.level}: {verdict.description}")
    return 0


def _cmd_corpus(args) -> int:
    cfg = ClassificationConfig(theta=args.theta)
    report = agreement_report(cfg)
    if args.json:
        import json

        print(json.dumps(report_structured(report), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report_text(report))
    return 0


def _cmd_counterfactual(args) -> int:
    from .prevision import crq_of, nested_prevision

    c = _formula_arg("--c", args.c)
    b = _formula_arg("--b", args.b)
    a = _formula_arg("--a", args.a)
    for option, text, f in (("--b", args.b, b), ("--a", args.a, a)):
        if not is_satisfiable(f):
            raise ValueError(f"{option} {text!r}: conditioning event is unsatisfiable")
    atoms = sorted(atoms_of(c) | atoms_of(b) | atoms_of(a))
    if not (0 <= args.p <= 1):
        raise ValueError(f"--p must be in [0, 1], got {args.p}")
    quantity = crq_of(c, b, args.p, atoms)
    value = nested_prevision(c, b, a, args.p, atoms)
    print(f"quantity ({c} | {b}) with void value {args.p} over atoms {', '.join(atoms)}:")
    for v, val in zip(constituents(atoms), quantity.values):
        bits = " ".join(f"{k}={'T' if v[k] else 'F'}" for k in atoms)
        print(f"  {bits}: {val}")
    print(f"prevision of (({c} | {b}) | {a}) = {value}")
    return 0


def _read_table(path: str):
    import csv

    from .stats import ContingencyTable

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[int(cell) for cell in row] for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}")
    except ValueError as err:
        raise ValueError(f"{path}: malformed integer table: {err}")
    try:
        return ContingencyTable(tuple(tuple(r) for r in rows))
    except ValueError as err:
        raise ValueError(f"{path}: {err}")


def _cmd_fisher(args) -> int:
    from .stats import fisher_exact_2x2

    table = _read_table(args.table)
    rows, cols = len(table.counts), len(table.counts[0])
    if (rows, cols) != (2, 2):
        raise ValueError(f"{args.table}: fisher needs a 2x2 table, got {rows}x{cols}")
    p = fisher_exact_2x2(table)
    print(f"p = {p} (~{float(p):.6g})")
    return 0


def _cmd_mc(args) -> int:
    from .stats import monte_carlo_rxc

    res = monte_carlo_rxc(_read_table(args.table), args.iters, args.seed)
    print(
        f"p ~= {res.p_estimate:.6f} +/- {res.halfwidth_99:.6f} "
        f"(99% half-width, {res.iters} iterations, seed {res.seed})"
    )
    return 0


def _p_value(text: str) -> float:
    try:
        p = float(text)
        if 0 <= p <= 1:
            return p
    except ValueError:
        pass
    raise ValueError(f"not a p-value in [0, 1]: {text!r}")


def _cmd_holm(args) -> int:
    from .stats import holm_bonferroni

    pvals = [_p_value(x.strip()) for x in args.pvals.split(",") if x.strip()]
    if not pvals:
        raise ValueError("no p-values given")
    for p, rej in zip(pvals, holm_bonferroni(pvals, args.alpha)):
        print(f"p = {p:g}: {'reject' if rej else 'keep'}")
    return 0


def main(argv=None) -> int:
    """Run the CLI on argv, or on the process's own command line when argv
    is None, and return the exit code.

    Only with argv None, as `python -m probarg` and the console script call
    it, does main first freeze the heap (gc.freeze()): what start-up and
    import made lives until exit, so no collection walks it, during the run
    or at exit. A call with a list, from a test or a library caller, leaves
    the collector as it is."""
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if err.code in (0, None) else 1
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at interpreter exit finds nothing to write (the recipe in the
        # signal module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
