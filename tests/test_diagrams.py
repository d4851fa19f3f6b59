import ast
import dataclasses
import hashlib
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
    # make takes blocks in any order and a pair either way round
    assert PartialDiagram.make(3, [(6, 4), (2,), (5, 1), (3,)]) == d
    for d in enumerate_diagrams(3):
        assert all(d.partner[w] == v for v, w in enumerate(d.partner))


def test_one_diagram_encoding_outside_diagrams():
    # a diagram stores its partner array and nothing else; blocks are derived
    # for text inside diagrams and read nowhere else, no module caches a
    # second form, and the retired decoders stay gone
    assert tuple(f.name for f in dataclasses.fields(PartialDiagram)) == ("r", "partner")
    offenders = []
    for path in sorted(Path(twindual.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "cached_property" in {
                    alias.name for alias in node.names}:
                offenders.append(f"{path.name}:{node.lineno} imports cached_property")
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
    # both write the partner array without make, so each must be the
    # involution make validates and rebuilds from the derived blocks
    rng = random.Random(seed)
    d1, d2 = random_diagram(r, rng), random_diagram(r, rng)
    for d in (d1, d2, compose(d1, d2).result):
        assert d == PartialDiagram.make(r, d.blocks)


def test_canonical_order_and_sorting():
    # the enumeration builds each diagram without make and sorts nothing:
    # every list strictly increases, in the partner tuples and in the block
    # form alike, and each diagram is make's canonical form
    for family in FAMILIES:
        for r in range(1, 6):
            diagrams = enumerate_diagrams(r, family)
            assert all(a.partner < b.partner for a, b in zip(diagrams, diagrams[1:])), (r, family)
            assert all(a.blocks < b.blocks for a, b in zip(diagrams, diagrams[1:])), (r, family)
            assert all(d == PartialDiagram.make(r, d.blocks) for d in diagrams), (r, family)


# sha256 of the newline-joined to_text of 600 random_diagram draws from
# random.Random(7) at each r, and of enumerate_diagrams(r, family) in order;
# the associativity benchmark draws from the first, `diagrams --list` prints
# the second
RANDOM_STREAM_SHA = {
    1: "8483a61b5d236e5f2d801e2f1a173c449a299fc72eff018610e61b9c2f326109",
    2: "34f32fff78f18eb0b78727d0ec7e58a39b2f0b913b8f30e04cc22f41514feefe",
    3: "1ac800970b5f43e997a8160af713997a658194c871485baa1a9bb0ebb84d8608",
    4: "7b665ff59bda51fc48aeb1f09bacd4d0bccf6329e40aeb5ad33c8a5de6be6827",
    5: "aadfb5892bebd1c1927b1a25644a9ab06b0484871d45b7d63a17fb6b32ae3f36",
}
ENUMERATION_SHA = {
    (1, "all"): "c6eabfdc7c6bc613819649007d0e22a6972dab88300cafda7ecec3a09c9cab8c",
    (1, "brauer"): "7db98085d62e945ef1e5bc23be45dc5c54b30a3d9407b2e93e9618f5efa6e56b",
    (1, "rook"): "c6eabfdc7c6bc613819649007d0e22a6972dab88300cafda7ecec3a09c9cab8c",
    (1, "permutation"): "7db98085d62e945ef1e5bc23be45dc5c54b30a3d9407b2e93e9618f5efa6e56b",
    (2, "all"): "5977d8145969904503ae7a80af6a7b629d91d84841fddfed4b1e7eae6b15c754",
    (2, "brauer"): "93cfcdf9df872c35188b641b569829f9981c06467d374446680fd91bfc75c803",
    (2, "rook"): "09bf7032779ae1e12226f2f5fcd54cbf60409ec1d27fa1c4a09fd3cc875199c6",
    (2, "permutation"): "f77d530a746af2092405870af72dea872715f32f518fd608d5935b3c1718fca4",
    (3, "all"): "1abcf2fc6589ccf3708b41c9edee9385bf3addf342ac186cd4707a98ee43afd9",
    (3, "brauer"): "a32a3465f333867376371ea5b1b6ad9f569bf659d2b26b869d5e294943eaa023",
    (3, "rook"): "30d20533a783dd4b7edc190357640dd6f6eff2cc81c4371b9b38899d1bec7479",
    (3, "permutation"): "979f92710fff6a66bdfccd82bd6a26db09e1e439d40e26ae2b7832dba7ed32d4",
    (4, "all"): "cac40f6a68a700aec504acdb50fa04f90e5aaa1e52ad843da740e5e284b6b4f1",
    (4, "brauer"): "1ae44fe7dee9e30a791605572d79415111a40eddac6215cf61cab4e21b70414b",
    (4, "rook"): "07a18d9e97d64fea46f476d1262168d434b492ab6e473549f223bd000e84cfef",
    (4, "permutation"): "2980c5950312a043b89594e7c1b150289296d0a99afe5ea4c5844c3d34f00d5c",
}


def _text_sha(diagrams) -> str:
    return hashlib.sha256("\n".join(d.to_text() for d in diagrams).encode()).hexdigest()


def test_random_diagram_stream_is_pinned():
    for r, sha in RANDOM_STREAM_SHA.items():
        rng = random.Random(7)
        assert _text_sha(random_diagram(r, rng) for _ in range(600)) == sha, r


def test_enumeration_order_is_pinned():
    for (r, family), sha in ENUMERATION_SHA.items():
        assert _text_sha(enumerate_diagrams(r, family)) == sha, (r, family)


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
