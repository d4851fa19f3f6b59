"""Command-line entry point.

Subcommands: admissible, rep, density, diagrams, action, duality.  Reports
are emitted as JSON (schema 1) by default, with pretty and CSV modes.

Exit codes: 0 all requested checks pass; 1 a check failed (the report
carries the witness); 2 usage or parameter domain error, or the run ran
out of memory or overflowed a double; 3 the parameter q was refused as
inadmissible (pass --force to proceed anyway).

Each subcommand imports only the modules it runs, in its own body, so
``admissible`` loads no module beyond this one and ``scalars``, and neither
``admissible`` nor ``diagrams`` loads numpy.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import sys
from fractions import Fraction

from .scalars import (
    DomainError,
    InadmissibleParameterError,
    QContext,
    is_q_admissible,
    rational_sqrt,
    scalar_from_json,
    scalar_to_json,
)

SCHEMA = 1


class UsageError(Exception):
    pass


def _parse(parse, text: str, flag: str):
    """``parse(text)``, with a malformed value reported as a usage error."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {flag} {text!r}: {exc}") from None


def _add_q_arguments(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True, help="dimension n >= 2")
    q = p.add_mutually_exclusive_group()
    q.add_argument("--q", type=str, help="rational q as p/q or an integer")
    q.add_argument("--approx", type=str, metavar="RE,IM",
                   help="complex q; switches to approx mode (write --approx=RE,IM when RE < 0)")
    p.add_argument("--mode", choices=["exact", "approx"],
                   help="scalar mode of --q (default exact); --approx is always approx")


def _add_output_arguments(p: argparse.ArgumentParser):
    p.add_argument("--output", choices=["json", "pretty", "csv"], default="json")
    p.add_argument("--out", type=str, help="write the report to this file instead of stdout")


def _complex_q(text: str) -> complex:
    """A complex number (q, delta or delta') written "re" or "re,im"."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError("expected RE or RE,IM")
    return complex(*map(float, parts))


def build_qcontext(args) -> QContext:
    if args.approx:
        if args.mode == "exact":
            raise UsageError("--mode exact cannot run --approx, a complex q; pass --q")
        return QContext.approx(_parse(_complex_q, args.approx, "--approx"))
    if not args.q:
        raise UsageError("--q is required (or --approx for a complex value)")
    q = _parse(Fraction, args.q, "--q")
    if args.mode == "approx":
        return QContext.approx(q)
    s = rational_sqrt(q)
    if s is None:
        raise UsageError(f"q = {q} is not a perfect rational square, so exact mode has no "
                         "rational sqrt; pass --mode approx or --approx RE,IM instead")
    return QContext.exact(s)


def build_repcontext(args):
    from .hecke import RepContext

    return RepContext(args.n, build_qcontext(args))


def emit(payload: dict, args) -> None:
    if args.output == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    elif args.output == "pretty":
        text = _pretty(payload)
    else:
        text = _csv(payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        print(text)


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(lines)


CSV_COLUMNS = ("n", "r", "delta_prime", "space", "mode", "dim_commutant",
               "dim_diagram_image", "dim_pb_abstract", "faithful",
               "double_centralizer_ok", "center_dim", "lambda_count", "ok")


def _csv(payload: dict) -> str:
    """One row per duality report: an unset cell empty, a complex scalar
    as ``str(complex)``."""
    buf = io.StringIO()
    writer = csv_module.DictWriter(buf, fieldnames=CSV_COLUMNS, restval="")
    writer.writeheader()
    for report in payload["reports"]:
        writer.writerow({k: str(scalar_from_json(v)) if isinstance(v, dict) else v
                         for k, v in report.items() if k in CSV_COLUMNS})
    return buf.getvalue().rstrip("\n")


# -- subcommands -------------------------------------------------------------


def cmd_admissible(args):
    qc = build_qcontext(args)
    report = is_q_admissible(qc, args.n)
    return {"schema": SCHEMA, "command": "admissible", "report": report.to_json(),
            "ok": report.admissible}


REP_CHECKS = ("hecke", "twin", "braid-dev", "projection", "appendix")


def cmd_rep(args):
    from . import hecke as hecke_mod

    rc = build_repcontext(args)
    suites = {
        "hecke": (hecke_mod.hecke_quadratic_check, hecke_mod.hecke_braid_check),
        "twin": (hecke_mod.check_twin_relations, hecke_mod.orthogonality_check),
        "braid-dev": (hecke_mod.braid_deviation_check,) if rc.n >= 3 else (),
        "projection": (hecke_mod.projection_check,),
        "appendix": (hecke_mod.appendix_check,),
    }
    reports = [check(rc) for name in args.check or REP_CHECKS for check in suites[name]]
    return {"schema": SCHEMA, "command": "rep", "n": args.n,
            "q": scalar_to_json(rc.q), "mode": rc.mode,
            "reports": [r.to_json() for r in reports], "ok": all(r.ok for r in reports)}


DENSITY_CHECKS = ("rodrigues", "powers", "order", "independence", "alt")


def cmd_density(args):
    from . import density as density_mod

    if args.k_powers < 1:
        raise UsageError(f"--k-powers must be at least 1, not {args.k_powers}")
    rc = build_repcontext(args)
    wanted = args.check or list(DENSITY_CHECKS)
    payload = {"schema": SCHEMA, "command": "density", "n": args.n,
               "q": scalar_to_json(rc.q), "mode": rc.mode}
    ok = True
    reports = []
    for name in wanted:
        if name == "rodrigues":
            for i in range(1, rc.n - 1):
                reports.append(density_mod.rotation_block_check(i, rc))
                reports.append(density_mod.rodrigues_check(i, rc))
        elif name == "powers":
            for i in range(1, rc.n - 1):
                for k in range(1, args.k_powers + 1):
                    reports.append(density_mod.power_formula_check(i, k, rc))
        elif name == "order":
            orders = [density_mod.finite_order_detect(i, rc).to_json() for i in range(1, rc.n - 1)]
            payload["orders"] = orders
            ok = ok and all(o["agree"] for o in orders)
        elif name == "independence":
            rep = density_mod.independence_test(rc)
            payload["independence"] = rep.to_json()
            ok = ok and (rep.independent or not rep.hypothesis_ok)
        elif name == "alt":
            rep = density_mod.alt_density_check(rc)
            payload["alt_density"] = rep.to_json()
    ok = ok and all(r.ok for r in reports)
    if reports:
        payload["reports"] = [r.to_json() for r in reports]
    payload["ok"] = ok
    return payload


def _scalar(text: str):
    """A rational "p/q", or a complex number written "re,im"."""
    return _complex_q(text) if "," in text else Fraction(text)


def _delta_prime(text: str, rc):
    """One --delta-prime value; a complex one needs approx mode."""
    value = _parse(_scalar, text, "--delta-prime")
    if isinstance(value, complex) and rc.mode == "exact":
        raise UsageError(f"--delta-prime {text!r} is complex; exact mode needs a rational")
    return value


def cmd_diagrams(args):
    from . import diagrams as diagrams_mod

    delta = _parse(_scalar, args.delta, "--delta")
    delta_prime = _parse(_scalar, args.delta_prime, "--delta-prime")
    payload = {"schema": SCHEMA, "command": "diagrams", "r": args.r}
    ok = True
    payload["counts"] = {family: diagrams_mod.family_count(args.r, family)
                         for family in diagrams_mod.FAMILIES}
    if args.list_family:
        payload["diagrams"] = [d.to_text()
                               for d in diagrams_mod.enumerate_diagrams(args.r, args.list_family)]
    if args.verify_presentation:
        rep = diagrams_mod.verify_presentation(args.r, delta, delta_prime)
        payload["presentation"] = rep.to_json()
        ok = ok and rep.ok
    if args.scaling_check:
        rep = diagrams_mod.scaling_iso_check(args.r, delta, delta_prime)
        payload["scaling_isomorphism"] = rep.to_json()
        ok = ok and rep.ok
    payload["ok"] = ok
    return payload


def cmd_action(args):
    from . import diagrams as diagrams_mod
    from . import tensor_action as tensor_mod
    from .cache import MatrixCache, cache_key

    rc = build_repcontext(args)
    tc = tensor_mod.TensorContext(rc, args.r, tensor_mod.SPACE_FULL)
    delta_prime = _delta_prime(args.delta_prime, rc)
    cache = MatrixCache(args.cache_dir)
    emitted = {}
    for spec in args.emit:
        kind, _, detail = spec.partition(":")
        key = cache_key(command="action", kind=kind, detail=detail, n=rc.n,
                        q=rc.q, r=args.r, mode=rc.mode, delta_prime=delta_prime)
        if kind in ("s", "e", "p"):
            diagram = diagrams_mod.generator(kind, _parse(int, detail, "--emit"), args.r)
        elif kind == "diagram":
            diagram = _parse(lambda t: diagrams_mod.PartialDiagram.from_text(args.r, t),
                             detail, "--emit")
        else:
            raise UsageError(f"unknown emit spec {spec!r}")
        matrix = cache.get_or_build(key, lambda: tensor_mod.diagram_matrix(diagram, tc, delta_prime))
        emitted[spec] = matrix.to_json()
    return {"schema": SCHEMA, "command": "action", "n": rc.n, "r": args.r,
            "mode": rc.mode, "matrices": emitted, "ok": True}


def cmd_duality(args):
    from . import duality as duality_mod

    rc = build_repcontext(args)
    r_values = [_parse(int, x, "--r") for x in args.r.split(",")]
    delta_primes = [_delta_prime(x, rc) for x in args.delta_prime.split(";")]
    for dp in delta_primes:  # refuse a bad delta' before any configuration runs
        duality_mod.check_duality_inputs(args.on, dp, args.center)
    reports = [duality_mod.duality_check(rc, r, args.on, dp, center=args.center,
                                         force=args.force)
               for r in r_values for dp in delta_primes]
    return {"schema": SCHEMA, "command": "duality", "n": rc.n,
            "q": scalar_to_json(rc.q), "mode": rc.mode,
            "reports": [rep.to_json() for rep in reports],
            "ok": all(rep.ok for rep in reports)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twindual",
        description="Twin-group reflection representations, partial Brauer "
                    "diagram algebras, and duality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="check the duality hypotheses for q")
    _add_q_arguments(p)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("rep", help="relation checks for the representation matrices")
    _add_q_arguments(p)
    _add_output_arguments(p)
    p.add_argument("--check", action="append", choices=list(REP_CHECKS),
                   help="which suites to run (default: all)")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("density", help="rotation, order, and independence checks")
    _add_q_arguments(p)
    _add_output_arguments(p)
    p.add_argument("--check", action="append", choices=list(DENSITY_CHECKS))
    p.add_argument("--k-powers", type=int, default=20, dest="k_powers",
                   help="verify the power formula for k = 1..K")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("diagrams", help="diagram enumeration and presentation checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify-presentation", action="store_true")
    p.add_argument("--scaling-check", action="store_true")
    p.add_argument("--delta", type=str, default="1",
                   help="rational or RE,IM (write --delta=VALUE when it starts with -)")
    p.add_argument("--delta-prime", type=str, default="1",
                   help="rational or RE,IM (write --delta-prime=VALUE when it starts with -)")
    p.add_argument("--list", dest="list_family",
                   choices=["all", "brauer", "rook", "permutation"],
                   help="include the diagrams of this family in the report")
    _add_output_arguments(p)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("action", help="emit tensor-space operator matrices")
    _add_q_arguments(p)
    _add_output_arguments(p)
    p.add_argument("--cache-dir", type=str, help="matrix cache directory (or $TWINDUAL_CACHE)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta-prime", type=str, default="1",
                   help="rational, or RE,IM in approx mode (write --delta-prime=VALUE "
                        "when it starts with -)")
    p.add_argument("--emit", action="append", required=True,
                   metavar="KIND:DETAIL", help="s:i | e:i | p:j | diagram:TEXT")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("duality", help="double-centralizer verification")
    _add_q_arguments(p)
    _add_output_arguments(p)
    p.add_argument("--r", type=str, required=True, help="tensor power, or comma list for a sweep")
    p.add_argument("--delta-prime", type=str, default="1",
                   help="semicolon-separated list of delta' values (write "
                        "--delta-prime=LIST when it starts with -)")
    p.add_argument("--on", choices=["E", "F"], default="E")
    p.add_argument("--center", action="store_true", help="also compute the center dimension")
    p.add_argument("--force", action="store_true", help="run even at inadmissible q")
    p.set_defaults(func=cmd_duality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output == "csv" and args.func is not cmd_duality:
            raise UsageError("csv output is only available for duality sweeps")
        payload = args.func(args)
        emit(payload, args)
    except InadmissibleParameterError as exc:
        refusal = {"schema": SCHEMA, "command": args.command, "refused": True,
                   "reason": str(exc), "report": exc.report.to_json(),
                   "hint": "pass --force to run anyway"}
        print(json.dumps(refusal, sort_keys=True, indent=2), file=sys.stderr)
        return 3
    except (UsageError, DomainError) as exc:
        print(f"twindual: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"twindual: error: out of memory in {args.command}", file=sys.stderr)
        return 2
    except OverflowError:
        print(f"twindual: error: numeric overflow in {args.command}", file=sys.stderr)
        return 2
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
