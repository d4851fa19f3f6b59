"""The partial Brauer diagram algebra: set partitions of 2r points with
blocks of size at most two, the two-parameter stacking product, enumeration,
generators, and a verifier for the full presentation.

Vertices are labelled 1..r across the top row and 1'..r' across the bottom;
internally the bottom vertex i' is stored as r + i.  A diagram is a
partition of the 2r vertices into blocks of size one or two, held in
canonical form (each block sorted, blocks sorted lexicographically); that
form is what text, ordering and hashing read.

Every other reader takes the diagram as an involution of its vertices, the
``partner`` array: 0-based, the top row at 0..r-1 and the bottom row at
r..2r-1, each vertex mapped to the other end of its pair and a singleton to
itself.

The product d1 * d2 stacks d1 above d2, identifies d1's bottom row with
d2's top row, and traces connected components.  Components that touch
neither outer row are removed and counted: closed loops weigh delta,
open paths and isolated middle vertices weigh delta_prime:

    d1 d2 = delta^N1 * delta_prime^N2 * (d1 o d2).

Every vertex of the stack has at most one partner in each of the two
diagrams, so every component is a path or a cycle, and ``compose`` walks
each one by alternating between the two partner arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .reporting import CheckReport
from .scalars import DomainError, approx_eq, scalar_is_zero


def _vertex(r: int, token) -> int:
    """The vertex a label names: "k" the top vertex k, "k'" the bottom r + k."""
    token = str(token).strip()
    return r + int(token[:-1]) if token.endswith("'") else int(token)


@dataclass(frozen=True)
class PartialDiagram:
    """Canonical partition of {1..r, 1'..r'} with blocks of size <= 2."""

    r: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, r: int, blocks) -> "PartialDiagram":
        if r < 1:
            raise DomainError("r must be positive")
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen: set[int] = set()
        for b in canon:
            if not 1 <= len(b) <= 2:
                raise DomainError(f"block {b} has size {len(b)}; only 1 or 2 allowed")
            for v in b:
                if not 1 <= v <= 2 * r:
                    raise DomainError(f"vertex {v} out of range for r={r}")
                if v in seen:
                    raise DomainError(f"vertex {v} appears twice")
                seen.add(v)
        if len(seen) != 2 * r:
            missing = sorted(set(range(1, 2 * r + 1)) - seen)
            raise DomainError(f"not a partition: vertices {missing} uncovered")
        return cls(r, canon)

    @classmethod
    def identity(cls, r: int) -> "PartialDiagram":
        return cls.make(r, [(i, r + i) for i in range(1, r + 1)])

    @cached_property
    def partner(self) -> tuple[int, ...]:
        """The diagram as an involution of its 0-based vertices (top row
        0..r-1, bottom row r..2r-1); a singleton is its own partner."""
        partner = list(range(2 * self.r))
        for b in self.blocks:
            partner[b[0] - 1], partner[b[-1] - 1] = b[-1] - 1, b[0] - 1
        return tuple(partner)

    # -- structure ------------------------------------------------------

    def singleton_count(self) -> int:
        return sum(1 for b in self.blocks if len(b) == 1)

    def is_brauer(self) -> bool:
        """All blocks are pairs."""
        return self.singleton_count() == 0

    def is_rook(self) -> bool:
        """No two vertices of the same row are paired."""
        r = self.r
        return all((v < r) != (w < r) for v, w in enumerate(self.partner) if v != w)

    def is_permutation(self) -> bool:
        return self.is_brauer() and self.is_rook()

    def flip(self) -> "PartialDiagram":
        """Swap the top and bottom rows (the algebra anti-automorphism)."""
        r = self.r
        return PartialDiagram.make(
            r, [tuple(v - r if v > r else v + r for v in b) for b in self.blocks]
        )

    # -- text form -------------------------------------------------------

    def _label(self, v: int) -> str:
        return f"{v - self.r}'" if v > self.r else str(v)

    def to_text(self) -> str:
        """Blocks as "1-2',3,4-5": pairs with '-', singletons bare,
        primes for the bottom row."""
        return ",".join("-".join(self._label(v) for v in b) for b in self.blocks)

    @classmethod
    def from_text(cls, r: int, text: str) -> "PartialDiagram":
        blocks = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            blocks.append(tuple(_vertex(r, t) for t in part.split("-")))
        return cls.make(r, blocks)

    def __str__(self):
        return f"<{self.r}|{self.to_text()}>"


@dataclass(frozen=True)
class ProductTrace:
    """Composition result with the counts of removed middle components."""

    result: PartialDiagram
    loops: int       # closed middle cycles, each weighing delta
    non_loops: int   # open middle paths / isolated middle vertices, weighing delta_prime


def compose(d1: PartialDiagram, d2: PartialDiagram) -> ProductTrace:
    """Stack d1 above d2 and trace components.

    The middle row is d1's bottom row glued to d2's top row.  Each path from
    an outer vertex (d1's top row, d2's bottom row) ends at another outer
    vertex, giving a pair of the result, or at a singleton, giving a
    singleton of the result.  The components left over lie in the middle
    row and are counted as loops (cycles) or non-loops (paths, isolated
    vertices).
    """
    if d1.r != d2.r:
        raise DomainError(f"strand mismatch: {d1.r} vs {d2.r}")
    r, p1, p2 = d1.r, d1.partner, d2.partner
    seen = [False] * r  # middle vertices already walked

    def walk(upper: bool, v: int):
        """Follow the stack from vertex v of d1 (upper) or d2: the outer
        vertex the path leaves by (0-based, as a vertex of the result), None
        at a singleton, or -1 on returning to a middle vertex already seen."""
        while True:
            w = (p1 if upper else p2)[v]
            if w == v:
                return None
            if (w < r) == upper:
                return w
            m = w - r if upper else w
            if seen[m]:
                return -1
            seen[m] = True
            upper, v = not upper, (m if upper else m + r)

    # blocks come in the order of their first vertex, and a pair's end w > v
    # (an earlier w would have put v in ends): the canonical form, no make
    blocks = []
    ends = set()
    for v in range(2 * r):
        if v not in ends:
            w = walk(v < r, v)
            ends.add(w)
            blocks.append((v + 1,) if w is None else (v + 1, w + 1))
    loops = non_loops = 0
    for m in range(r):
        if not seen[m]:
            seen[m] = True
            if walk(True, m + r) == -1:
                loops += 1
            else:
                walk(False, m)
                non_loops += 1
    return ProductTrace(PartialDiagram(r, tuple(blocks)), loops, non_loops)


# -- the algebra ------------------------------------------------------------


class AlgebraElement:
    """Finite formal linear combination of diagrams with scalar coefficients.

    Zero coefficients are never stored (exact zeros are dropped eagerly;
    approx coefficients are kept and compared with a tolerance).
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict | None = None):
        self.r = r
        self.terms: dict[PartialDiagram, object] = {}
        for d, c in (terms or {}).items():
            if d.r != r:
                raise DomainError("strand mismatch inside an element")
            if not _coeff_is_exact_zero(c):
                self.terms[d] = c

    @classmethod
    def from_diagram(cls, d: PartialDiagram, coeff=Fraction(1)) -> "AlgebraElement":
        return cls(d.r, {d: coeff})

    @classmethod
    def unit(cls, r: int) -> "AlgebraElement":
        return cls.from_diagram(PartialDiagram.identity(r))

    @classmethod
    def zero(cls, r: int) -> "AlgebraElement":
        return cls(r, {})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.r != other.r:
            raise DomainError("strand mismatch")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, 0) + c
        return AlgebraElement(self.r, {d: c for d, c in terms.items() if not _coeff_is_exact_zero(c)})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, scalar) -> "AlgebraElement":
        if _coeff_is_exact_zero(scalar):
            return AlgebraElement.zero(self.r)
        return AlgebraElement(self.r, {d: c * scalar for d, c in self.terms.items()})

    def equals(self, other: "AlgebraElement") -> bool:
        if self.r != other.r:
            return False
        keys = set(self.terms) | set(other.terms)
        for d in keys:
            a = self.terms.get(d, 0)
            b = other.terms.get(d, 0)
            if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
                if a != b:
                    return False
            elif not approx_eq(a, b):
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{d}" for d, c in sorted(self.terms.items(), key=lambda t: t[0].blocks))


def _coeff_is_exact_zero(c) -> bool:
    return isinstance(c, (int, Fraction)) and c == 0


def multiply(a: AlgebraElement, b: AlgebraElement, delta, delta_prime) -> AlgebraElement:
    """Bilinear extension of the stacking product with weights
    delta^loops * delta_prime^non_loops."""
    if a.r != b.r:
        raise DomainError("strand mismatch")
    terms: dict[PartialDiagram, object] = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            trace = compose(d1, d2)
            coeff = c1 * c2
            if trace.loops:
                coeff = coeff * delta ** trace.loops
            if trace.non_loops:
                coeff = coeff * delta_prime ** trace.non_loops
            key = trace.result
            terms[key] = terms.get(key, 0) + coeff
    return AlgebraElement(a.r, {d: c for d, c in terms.items() if not _coeff_is_exact_zero(c)})


def generator(kind: str, index: int, r: int) -> PartialDiagram:
    """The presentation generators: s_i and e_i for 1 <= i <= r-1, p_j for
    1 <= j <= r."""
    if kind == "s":
        if not 1 <= index <= r - 1:
            raise DomainError(f"s-index {index} out of range 1..{r - 1}")
        blocks = [(index, r + index + 1), (index + 1, r + index)]
        blocks += [(j, r + j) for j in range(1, r + 1) if j not in (index, index + 1)]
        return PartialDiagram.make(r, blocks)
    if kind == "e":
        if not 1 <= index <= r - 1:
            raise DomainError(f"e-index {index} out of range 1..{r - 1}")
        blocks = [(index, index + 1), (r + index, r + index + 1)]
        blocks += [(j, r + j) for j in range(1, r + 1) if j not in (index, index + 1)]
        return PartialDiagram.make(r, blocks)
    if kind == "p":
        if not 1 <= index <= r:
            raise DomainError(f"p-index {index} out of range 1..{r}")
        blocks = [(index,), (r + index,)]
        blocks += [(j, r + j) for j in range(1, r + 1) if j != index]
        return PartialDiagram.make(r, blocks)
    raise DomainError(f"unknown generator kind {kind!r}")


#: each diagram family, as the predicate its members satisfy
FAMILIES = {
    "all": lambda d: True,
    "brauer": PartialDiagram.is_brauer,
    "rook": PartialDiagram.is_rook,
    "permutation": PartialDiagram.is_permutation,
}


def family_count(r: int, family: str = "all") -> int:
    """The size of a family on 2r vertices by its closed form: the
    sum_k C(2r, 2k) (2k - 1)!! involutions, the (2r - 1)!! Brauer
    matchings, the sum_k C(r, k)^2 k! rook diagrams, the r! permutations."""
    if r < 1:
        raise DomainError("r must be positive")
    matchings = [math.prod(range(1, 2 * k, 2)) for k in range(r + 1)]
    return {"all": sum(math.comb(2 * r, 2 * k) * x for k, x in enumerate(matchings)),
            "brauer": matchings[r],
            "rook": sum(math.comb(r, k) ** 2 * math.factorial(k) for k in range(r + 1)),
            "permutation": math.factorial(r)}[family]


def enumerate_diagrams(r: int, family: str = "all") -> list[PartialDiagram]:
    """All partial diagrams on 2r vertices (partitions with blocks <= 2,
    i.e. involutions), optionally filtered to the Brauer (all pairs), rook
    (no same-row pairs) or permutation sub-families; canonical order."""
    if r < 1:
        raise DomainError("r must be positive")
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    total = 2 * r
    results: list[PartialDiagram] = []

    def extend(unused: list[int], blocks: list[tuple[int, ...]]):
        if not unused:
            # extend emits sorted blocks in canonical order, and diagrams in order
            results.append(PartialDiagram(r, tuple(blocks)))
            return
        v = unused[0]
        rest = unused[1:]
        blocks.append((v,))
        extend(rest, blocks)
        blocks.pop()
        for idx, w in enumerate(rest):
            blocks.append((v, w))
            extend(rest[:idx] + rest[idx + 1:], blocks)
            blocks.pop()

    extend(list(range(1, total + 1)), [])
    return list(filter(FAMILIES[family], results))


# -- presentation -----------------------------------------------------------


def _word(r: int, gens, delta, delta_prime) -> AlgebraElement:
    out = AlgebraElement.unit(r)
    for kind, idx in gens:
        out = multiply(out, AlgebraElement.from_diagram(generator(kind, idx, r)), delta, delta_prime)
    return out


def presentation_relations(r: int):
    """Yield (name, lhs_word, rhs_word, rhs_scalar) tuples covering every
    defining relation at every valid index; words are tuples of (kind, i)."""
    rels = []

    def add(name, lhs, rhs, scalar=1):
        rels.append((name, lhs, rhs, scalar))

    s, e, p = "s", "e", "p"
    for i in range(1, r):
        add(f"s_{i}^2 = 1", [(s, i), (s, i)], [])
    for i in range(1, r - 1):
        add(
            f"s_{i}s_{i+1}s_{i} = s_{i+1}s_{i}s_{i+1}",
            [(s, i), (s, i + 1), (s, i)],
            [(s, i + 1), (s, i), (s, i + 1)],
        )
    for i in range(1, r):
        for j in range(i + 2, r):
            add(f"s_{i}s_{j} = s_{j}s_{i}", [(s, i), (s, j)], [(s, j), (s, i)])

    for i in range(1, r):
        add(f"e_{i}^2 = delta e_{i}", [(e, i), (e, i)], [(e, i)], "delta")
        add(f"s_{i}e_{i} = e_{i}", [(s, i), (e, i)], [(e, i)])
        add(f"e_{i}s_{i} = e_{i}", [(e, i), (s, i)], [(e, i)])
    for i in range(1, r):
        for eps in (-1, 1):
            j = i + eps
            if 1 <= j <= r - 1:
                add(f"e_{i}e_{j}e_{i} = e_{i}", [(e, i), (e, j), (e, i)], [(e, i)])
                add(f"s_{i}e_{j}e_{i} = s_{j}e_{i}", [(s, i), (e, j), (e, i)], [(s, j), (e, i)])
                add(f"e_{i}e_{j}s_{i} = e_{i}s_{j}", [(e, i), (e, j), (s, i)], [(e, i), (s, j)])
    for i in range(1, r):
        for j in range(1, r):
            if abs(i - j) > 1:
                add(f"e_{i}e_{j} = e_{j}e_{i}", [(e, i), (e, j)], [(e, j), (e, i)])
                add(f"e_{i}s_{j} = s_{j}e_{i}", [(e, i), (s, j)], [(s, j), (e, i)])

    for i in range(1, r + 1):
        add(f"p_{i}^2 = delta' p_{i}", [(p, i), (p, i)], [(p, i)], "delta_prime")
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i != j:
                add(f"p_{i}p_{j} = p_{j}p_{i}", [(p, i), (p, j)], [(p, j), (p, i)])
    for i in range(1, r):
        add(f"p_{i}s_{i}p_{i} = p_{i}p_{i+1}", [(p, i), (s, i), (p, i)], [(p, i), (p, i + 1)])
        add(f"s_{i}p_{i} = p_{i+1}s_{i}", [(s, i), (p, i)], [(p, i + 1), (s, i)])
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                add(f"s_{i}p_{j} = p_{j}s_{i}", [(s, i), (p, j)], [(p, j), (s, i)])

    for i in range(1, r):
        add(f"e_{i}p_{i}e_{i} = delta' e_{i}", [(e, i), (p, i), (e, i)], [(e, i)], "delta_prime")
        add(
            f"e_{i}p_{i}p_{i+1} = delta' e_{i}p_{i}",
            [(e, i), (p, i), (p, i + 1)],
            [(e, i), (p, i)],
            "delta_prime",
        )
        add(
            f"p_{i}p_{i+1}e_{i} = delta' p_{i}e_{i}",
            [(p, i), (p, i + 1), (e, i)],
            [(p, i), (e, i)],
            "delta_prime",
        )
        add(f"p_{i}e_{i}p_{i} = p_{i}p_{i+1}", [(p, i), (e, i), (p, i)], [(p, i), (p, i + 1)])
        add(f"e_{i}p_{i} = e_{i}p_{i+1}", [(e, i), (p, i)], [(e, i), (p, i + 1)])
        add(f"p_{i}e_{i} = p_{i+1}e_{i}", [(p, i), (e, i)], [(p, i + 1), (e, i)])
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                add(f"e_{i}p_{j} = p_{j}e_{i}", [(e, i), (p, j)], [(p, j), (e, i)])
    return rels


def verify_presentation(r: int, delta, delta_prime) -> CheckReport:
    """Instantiate every defining relation at every valid index combination
    and compare both sides as algebra elements."""
    if r < 2:
        raise DomainError("presentation verification needs r >= 2")
    report = CheckReport(f"presentation r={r} delta={delta} delta'={delta_prime}")
    for name, lhs_word, rhs_word, scalar in presentation_relations(r):
        lhs = _word(r, lhs_word, delta, delta_prime)
        rhs = _word(r, rhs_word, delta, delta_prime)
        if scalar == "delta":
            rhs = rhs.scale(delta)
        elif scalar == "delta_prime":
            rhs = rhs.scale(delta_prime)
        report.add(name, lhs.equals(rhs))
    return report


def scaling_isomorphism(elem: AlgebraElement, delta_prime) -> AlgebraElement:
    """The algebra isomorphism onto the delta' = 1 normalization: each
    diagram d maps to delta'^(singletons(d)/2) d, so p_j -> delta' p_j while
    s_i and e_i are fixed (singleton counts are always even).

    Sanity anchor for the direction: p^2 = delta' p maps to
    delta' * (delta' p) on the right and (delta' p)^2 = delta'^2 p on the
    left, which agree; the inverse isomorphism is the one sending
    p_j to p_j / delta'.
    """
    if scalar_is_zero(delta_prime):
        raise DomainError("delta' must be nonzero")
    out: dict[PartialDiagram, object] = {}
    for d, c in elem.terms.items():
        k = d.singleton_count() // 2
        out[d] = c * delta_prime ** k if k else c
    return AlgebraElement(elem.r, out)


def scaling_iso_check(r: int, delta, delta_prime) -> CheckReport:
    """On all ordered pairs of generators g, h: mapping commutes with
    multiplication, i.e. phi(g *_(d,d') h) = phi(g) *_(d,1) phi(h)."""
    if scalar_is_zero(delta_prime):
        raise DomainError("delta' must be nonzero")
    report = CheckReport(f"scaling-isomorphism r={r} delta={delta} delta'={delta_prime}")
    gens = [("s", i) for i in range(1, r)] + [("e", i) for i in range(1, r)] + [
        ("p", j) for j in range(1, r + 1)
    ]
    ident = AlgebraElement.unit(r)
    report.add("identity diagram is fixed", scaling_isomorphism(ident, delta_prime).equals(ident))
    for kind1, i1 in gens:
        for kind2, i2 in gens:
            g = AlgebraElement.from_diagram(generator(kind1, i1, r))
            h = AlgebraElement.from_diagram(generator(kind2, i2, r))
            lhs = scaling_isomorphism(multiply(g, h, delta, delta_prime), delta_prime)
            rhs = multiply(
                scaling_isomorphism(g, delta_prime),
                scaling_isomorphism(h, delta_prime),
                delta,
                1,
            )
            report.add(
                f"{kind1}_{i1} * {kind2}_{i2} intertwines", lhs.equals(rhs)
            )
    return report


def random_diagram(r: int, rng) -> PartialDiagram:
    """Uniform-ish random diagram: random involution built greedily, each
    vertex single or paired with a later one, so in canonical form."""
    if r < 1:
        raise DomainError("r must be positive")
    unused = list(range(1, 2 * r + 1))
    blocks = []
    while unused:
        v = unused.pop(0)
        choices = [None] + list(unused)
        pick = rng.choice(choices)
        if pick is None:
            blocks.append((v,))
        else:
            unused.remove(pick)
            blocks.append((v, pick))
    return PartialDiagram(r, tuple(blocks))
