"""Library operations of the diagram-rank workload, one per process.

    python3 perfbench/libops.py image-rank --r 4 --dim 5 [--family brauer]
    python3 perfbench/libops.py presentation --r 5 --delta 5 --delta-prime 3/2
    python3 perfbench/libops.py associativity --r 5 --count 1000 --seed 7 \\
        --delta 5 --delta-prime 3/2

Each prints one JSON object on stdout.  ``twindual`` must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction


def image_rank(args) -> dict:
    from twindual.diagrams import enumerate_diagrams
    from twindual.duality import image_gram_rank

    diagrams = enumerate_diagrams(args.r, args.family)
    return {"rank": image_gram_rank(diagrams, args.dim), "diagrams": len(diagrams)}


def presentation(args) -> dict:
    from twindual.diagrams import verify_presentation

    report = verify_presentation(args.r, Fraction(args.delta), Fraction(args.delta_prime))
    return {"ok": report.ok, "relations": len(report.items)}


def associativity(args) -> dict:
    from twindual.diagrams import AlgebraElement, multiply, random_diagram

    rng = random.Random(args.seed)
    delta, delta_prime = Fraction(args.delta), Fraction(args.delta_prime)
    good = 0
    for _ in range(args.count):
        a, b, c = (AlgebraElement.from_diagram(random_diagram(args.r, rng)) for _ in range(3))
        left = multiply(multiply(a, b, delta, delta_prime), c, delta, delta_prime)
        right = multiply(a, multiply(b, c, delta, delta_prime), delta, delta_prime)
        good += left.equals(right)
    return {"associative": good}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="libops")
    sub = parser.add_subparsers(dest="op", required=True)
    p = sub.add_parser("image-rank")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--family", default="all")
    p.set_defaults(func=image_rank)
    for name, func in (("presentation", presentation), ("associativity", associativity)):
        p = sub.add_parser(name)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--delta", required=True)
        p.add_argument("--delta-prime", required=True)
        p.set_defaults(func=func)
        if name == "associativity":
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(json.dumps(args.func(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
