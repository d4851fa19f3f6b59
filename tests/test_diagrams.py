import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twindual
from twindual.diagrams import (
    FAMILIES,
    AlgebraElement,
    PartialDiagram,
    ProductTrace,
    compose,
    enumerate_diagrams,
    family_count,
    generator,
    multiply,
    random_diagram,
    scaling_iso_check,
    scaling_isomorphism,
    verify_presentation,
)
from twindual.scalars import DomainError


def brute_force_small_block_partitions(points):
    """Independent oracle: all set partitions of ``points`` with blocks of
    size at most two, by direct recursion on the smallest element."""
    points = list(points)
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    out = []
    for sub in brute_force_small_block_partitions(rest):
        out.append([[first]] + sub)
    for idx, other in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1:]
        for sub in brute_force_small_block_partitions(remaining):
            out.append([[first, other]] + sub)
    return out


def test_generators_r2():
    assert generator("s", 1, 2).blocks == ((1, 4), (2, 3))
    assert generator("e", 1, 2).blocks == ((1, 2), (3, 4))
    assert generator("p", 1, 2).blocks == ((1,), (2, 4), (3,))
    with pytest.raises(DomainError):
        generator("s", 2, 2)
    with pytest.raises(DomainError):
        generator("p", 3, 2)


def test_compose_generator_squares():
    e1, p1, s1 = (generator(k, 1, 2) for k in "eps")
    tr = compose(e1, e1)
    assert tr.result == e1 and tr.loops == 1 and tr.non_loops == 0
    tr = compose(p1, p1)
    assert tr.result == p1 and tr.loops == 0 and tr.non_loops == 1
    tr = compose(s1, s1)
    assert tr.result == PartialDiagram.identity(2) and tr.loops == 0 and tr.non_loops == 0


def test_strand_mismatch():
    with pytest.raises(DomainError):
        compose(generator("s", 1, 2), generator("s", 1, 3))


def union_find_compose(d1, d2):
    """Reference stacking product: stack labels 1..r (d1 top), r+1..2r
    (middle), 2r+1..3r (d2 bottom); a union-find with cycle flags merges
    the pair-blocks of both diagrams into components."""
    r = d1.r
    parent = list(range(3 * r + 1))
    cyclic = [False] * (3 * r + 1)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            cyclic[rx] = True
        else:
            parent[ry] = rx
            cyclic[rx] = cyclic[rx] or cyclic[ry]

    for b in d1.blocks:
        if len(b) == 2:
            union(b[0], b[1])
    for b in d2.blocks:
        if len(b) == 2:
            union(b[0] + r, b[1] + r)
    components = {}
    for v in range(1, 3 * r + 1):
        components.setdefault(find(v), []).append(v)
    blocks, loops, non_loops = [], 0, 0
    for root, members in components.items():
        outer = [v for v in members if v <= r or v > 2 * r]
        if outer:
            blocks.append(tuple(v if v <= r else v - r for v in outer))
        elif cyclic[root]:
            loops += 1
        else:
            non_loops += 1
    return ProductTrace(PartialDiagram.make(r, blocks), loops, non_loops)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_compose_matches_union_find_on_all_pairs(r):
    diagrams = enumerate_diagrams(r)
    for d1 in diagrams:
        for d2 in diagrams:
            assert compose(d1, d2) == union_find_compose(d1, d2), (d1, d2)


def test_compose_matches_union_find_on_random_r5_pairs():
    rng = random.Random(2024)
    for _ in range(2000):
        d1, d2 = random_diagram(5, rng), random_diagram(5, rng)
        assert compose(d1, d2) == union_find_compose(d1, d2), (d1, d2)


def test_partner_is_the_involution_of_the_blocks():
    d = PartialDiagram.from_text(3, "1-2',3,1'-3',2")
    assert d.partner == (4, 1, 2, 5, 0, 3)
    for d in enumerate_diagrams(3):
        assert all(d.partner[w] == v for v, w in enumerate(d.partner))


def test_one_diagram_encoding_outside_diagrams():
    # blocks are read only where they are stored; every other module reads
    # the partner array, and the retired decoders stay gone
    offenders = []
    for path in sorted(Path(twindual.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "blocks"
                    and path.name != "diagrams.py"):
                offenders.append(f"{path.name}:{node.lineno} reads .blocks")
            name = getattr(node, "name", None) or getattr(node, "attr", None) or getattr(
                node, "id", None)
            if name in ("_UnionFind", "index_tuples", "flat_index"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders


def test_diagram_work_never_loads_numpy():
    # the algebra side is pure combinatorics, and the package root imports
    # nothing, so a presentation check loads only what diagrams imports
    import subprocess
    import sys

    script = """
import sys
from twindual.diagrams import verify_presentation
print(verify_presentation(3, 3, 1).ok, "numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "True False", proc.stderr[-2000:]
    root = ast.parse((Path(twindual.__file__).parent / "__init__.py").read_text())
    assert not [node for node in ast.walk(root)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_equals_compares_exact_coefficients_exactly():
    zero = AlgebraElement.zero(2)
    tiny = AlgebraElement.unit(2).scale(Fraction(1, 10 ** 13))
    assert not zero.equals(tiny)
    assert not tiny.equals(zero)
    assert tiny.equals(AlgebraElement.unit(2).scale(Fraction(2, 2 * 10 ** 13)))
    assert AlgebraElement.unit(2).equals(AlgebraElement(2, {PartialDiagram.identity(2): 1}))


def test_multiply_mixed_relations():
    delta, dp = Fraction(4), Fraction(7)
    e1 = AlgebraElement.from_diagram(generator("e", 1, 2))
    p1 = AlgebraElement.from_diagram(generator("p", 1, 2))
    p2 = AlgebraElement.from_diagram(generator("p", 2, 2))
    epe = multiply(multiply(e1, p1, delta, dp), e1, delta, dp)
    assert epe.equals(e1.scale(dp))
    pep = multiply(multiply(p1, e1, delta, dp), p1, delta, dp)
    assert pep.equals(multiply(p1, p2, delta, dp))
    se = multiply(AlgebraElement.from_diagram(generator("s", 1, 2)), e1, delta, dp)
    assert se.equals(e1)


def test_identity_is_unit():
    rng = random.Random(0)
    delta, dp = Fraction(3), Fraction(5)
    unit = AlgebraElement.unit(3)
    for _ in range(25):
        d = AlgebraElement.from_diagram(random_diagram(3, rng))
        assert multiply(unit, d, delta, dp).equals(d)
        assert multiply(d, unit, delta, dp).equals(d)


def test_multiply_distributes_over_sums():
    rng = random.Random(7)
    delta, dp = Fraction(3, 2), Fraction(-2, 5)
    for _ in range(25):
        a, b, c = (AlgebraElement.from_diagram(random_diagram(3, rng), Fraction(rng.randint(-3, 3)))
                   for _ in range(3))
        assert multiply(a, b + c, delta, dp).equals(
            multiply(a, b, delta, dp) + multiply(a, c, delta, dp))
        assert multiply(a + b, c, delta, dp).equals(
            multiply(a, c, delta, dp) + multiply(b, c, delta, dp))
        difference = (a + b) - a
        assert difference.equals(b)
        assert (a - a).equals(AlgebraElement.zero(3)) and not (a - a).terms
        assert repr(a - a) == "0"


def test_enumeration_counts_against_oracle():
    telephone = {1: 2, 2: 10, 3: 76, 4: 764}
    for r, expected in telephone.items():
        diagrams = enumerate_diagrams(r)
        assert len(diagrams) == expected
        oracle = brute_force_small_block_partitions(range(1, 2 * r + 1))
        assert len(oracle) == expected
        oracle_set = {tuple(sorted(tuple(sorted(b)) for b in part)) for part in oracle}
        assert {d.blocks for d in diagrams} == oracle_set
        assert len({d.blocks for d in diagrams}) == len(diagrams)  # duplicate-free


def test_family_counts():
    # family_count's closed forms against the enumeration and the predicates,
    # every family at r <= 6
    import math

    def double_factorial(k):
        return math.prod(range(k, 0, -2))

    for r in range(1, 7):
        every = enumerate_diagrams(r)
        expected = {
            "all": sum(math.comb(2 * r, 2 * k) * double_factorial(2 * k - 1) for k in range(r + 1)),
            "brauer": double_factorial(2 * r - 1),
            "rook": sum(math.comb(r, k) ** 2 * math.factorial(k) for k in range(r + 1)),
            "permutation": math.factorial(r),
        }
        for family, keep in FAMILIES.items():
            assert family_count(r, family) == sum(map(keep, every)) == expected[family], (r, family)
    with pytest.raises(DomainError):
        family_count(0)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_compose_and_random_diagram_build_canonical_forms(r, seed):
    # both build PartialDiagram directly, so each result must already be
    # make's canonical form
    rng = random.Random(seed)
    d1, d2 = random_diagram(r, rng), random_diagram(r, rng)
    for d in (d1, d2, compose(d1, d2).result):
        assert d == PartialDiagram.make(r, d.blocks)


def test_canonical_order_and_sorting():
    # the enumeration builds each diagram without make and sorts nothing:
    # every list strictly increases, and each diagram is make's canonical form
    for family in FAMILIES:
        for r in range(1, 6):
            diagrams = enumerate_diagrams(r, family)
            assert all(a.blocks < b.blocks for a, b in zip(diagrams, diagrams[1:])), (r, family)
            assert all(d == PartialDiagram.make(r, d.blocks) for d in diagrams), (r, family)


def test_partition_validation():
    with pytest.raises(DomainError):
        PartialDiagram.make(2, [(1, 2, 3), (4,)])
    with pytest.raises(DomainError):
        PartialDiagram.make(2, [(1, 2), (2, 3), (4,)])
    with pytest.raises(DomainError):
        PartialDiagram.make(2, [(1, 2)])


def test_text_and_json_roundtrip():
    d = PartialDiagram.from_text(3, "1-2',3,1'-3',2")
    assert PartialDiagram.from_text(3, d.to_text()) == d
    assert d.singleton_count() == 2
    assert d.flip().flip() == d


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=120, deadline=None)
def test_associativity_random_triples(seed):
    rng = random.Random(seed)
    delta, dp = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 6))
    a, b, c = (AlgebraElement.from_diagram(random_diagram(4, rng)) for _ in range(3))
    lhs = multiply(multiply(a, b, delta, dp), c, delta, dp)
    rhs = multiply(a, multiply(b, c, delta, dp), delta, dp)
    assert lhs.equals(rhs)


def test_presentation_r2_to_r4():
    rng = random.Random(42)
    for r in (2, 3, 4):
        for _ in range(2):
            delta = Fraction(rng.randint(-5, 5))
            dp = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            report = verify_presentation(r, delta, dp)
            assert report.ok, [i.name for i in report.items if not i.passed]


def test_presentation_degenerate_parameters():
    # relations hold for all parameter values, including delta = 0
    assert verify_presentation(4, Fraction(0), Fraction(5)).ok


def test_scaling_isomorphism_examples():
    dp = Fraction(7)
    p1 = AlgebraElement.from_diagram(generator("p", 1, 2))
    image = scaling_isomorphism(p1, dp)
    assert image.equals(p1.scale(dp))
    unit = AlgebraElement.unit(2)
    assert scaling_isomorphism(unit, dp).equals(unit)
    # p^2 = dp * p maps consistently into the delta' = 1 algebra
    lhs = scaling_isomorphism(multiply(p1, p1, Fraction(4), dp), dp)
    rhs = multiply(image, image, Fraction(4), 1)
    assert lhs.equals(rhs)


def test_scaling_iso_check():
    for r in (2, 3):
        assert scaling_iso_check(r, Fraction(3), Fraction(7)).ok
    with pytest.raises(DomainError):
        scaling_iso_check(2, Fraction(3), Fraction(0))


def test_flip_is_antiautomorphism():
    rng = random.Random(9)
    delta, dp = Fraction(2), Fraction(3)
    for _ in range(40):
        a, b = random_diagram(3, rng), random_diagram(3, rng)
        ab = compose(a, b)
        ba = compose(b.flip(), a.flip())
        assert ba.result == ab.result.flip()
        assert (ba.loops, ba.non_loops) == (ab.loops, ab.non_loops)
