"""Finite groups as explicit multiplication tables, with the coset-class
catalog needed to label Frobenius data at ramified primes.

The catalog indexes conjugacy classes of cosets sigma*I (I a subgroup) and
stores the splitting triple per class: e = |I|, f = [<sigma, I> : I],
g = |G| / (e*f).  Conjugacy classes of elements are the cosets of the trivial
subgroup, so they embed into the catalog; `class_to_omega` records that map
and `omega_to_class` inverts it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import DomainError, InvariantViolated

_PERM_CHECK_LIMIT = 24


@dataclass(frozen=True)
class OmegaClass:
    """One conjugacy class of cosets, with its splitting triple."""

    index: int
    e: int
    f: int
    g: int
    rep: tuple[int, ...]  # sorted representative coset
    members: tuple[tuple[int, ...], ...]  # all cosets in the class, sorted


class GroupTable:
    """Immutable finite group defined by its multiplication table.

    Index 0 is the identity.  `table[i][j]` is the product of elements i and j
    (for permutation-backed tables, composition applies j first).
    """

    def __init__(self, table, perms=None):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.perms = tuple(perms) if perms is not None else None
        self._check_axioms()
        self.inverse = self._build_inverses()
        self.element_orders = tuple(self._order_of(i) for i in range(self.n))
        self.classes = self._conjugacy_classes()
        self.class_of = [0] * self.n
        for ci, cls in enumerate(self.classes):
            for x in cls:
                self.class_of[x] = ci
        self.centralizer_sizes = tuple(self.n // len(c) for c in self.classes)
        self.subgroups = self._all_subgroups()
        self._build_omega()

    # ---- construction checks ------------------------------------------

    def _check_axioms(self) -> None:
        n = self.n
        rng_elems = range(n)
        for row in self.table:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise DomainError("multiplication table is not closed")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in rng_elems):
            raise DomainError("index 0 is not an identity")
        for i in rng_elems:
            if not any(self.table[i][j] == 0 for j in rng_elems):
                raise DomainError(f"element {i} has no inverse")
        if n <= _PERM_CHECK_LIMIT:
            triples = itertools.product(rng_elems, repeat=3)
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(2000)
            )
        t = self.table
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise DomainError("multiplication table is not associative")

    def _build_inverses(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == 0:
                    inv[i] = j
                    break
        return tuple(inv)

    # ---- basic operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def power(self, a: int, m: int) -> int:
        if m < 0:
            a, m = self.inverse[a], -m
        acc, base = 0, a
        while m:
            if m & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            m >>= 1
        return acc

    def _order_of(self, a: int) -> int:
        t, cur, k = self.table, a, 1
        while cur != 0:
            cur = t[cur][a]
            k += 1
        return k

    def _conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.n
        classes = []
        for x in range(self.n):
            if seen[x]:
                continue
            orbit = sorted({self.conj(g, x) for g in range(self.n)})
            for y in orbit:
                seen[y] = True
            classes.append(tuple(orbit))
        classes.sort(key=lambda c: c[0])
        return tuple(classes)

    # ---- subgroups and the coset-class catalog ---------------------------

    def _closure(self, gens) -> frozenset[int]:
        cur = {0}
        frontier = set(gens) | {0}
        while frontier:
            nxt = set()
            for a in frontier:
                for b in list(cur) + list(frontier):
                    for v in (self.table[a][b], self.table[b][a]):
                        if v not in cur and v not in frontier and v not in nxt:
                            nxt.add(v)
            cur |= frontier
            frontier = nxt
        return frozenset(cur)

    def _all_subgroups(self) -> tuple[frozenset[int], ...]:
        subs = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            new = []
            for H in frontier:
                for g in range(1, self.n):
                    if g in H:
                        continue
                    H2 = self._closure(H | {g})
                    if H2 not in subs:
                        subs.add(H2)
                        new.append(H2)
            frontier = new
        return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))

    def _build_omega(self) -> None:
        coset_subgroup: dict[frozenset[int], frozenset[int]] = {}
        for H in self.subgroups:
            assigned = set()
            for x in range(self.n):
                if x in assigned:
                    continue
                coset = frozenset(self.table[x][h] for h in H)
                assigned |= coset
                coset_subgroup[coset] = H
        # orbits under conjugation
        all_cosets = sorted(coset_subgroup, key=lambda s: (len(s), sorted(s)))
        orbit_of: dict[frozenset[int], int] = {}
        orbits: list[list[frozenset[int]]] = []
        for S in all_cosets:
            if S in orbit_of:
                continue
            idx = len(orbits)
            orbit = [S]
            orbit_of[S] = idx
            queue = [S]
            while queue:
                cur = queue.pop()
                for g in range(self.n):
                    img = frozenset(self.conj(g, x) for x in cur)
                    if img not in orbit_of:
                        orbit_of[img] = idx
                        orbit.append(img)
                        queue.append(img)
            orbits.append(orbit)
        entries = []
        for orbit in orbits:
            rep = min(tuple(sorted(S)) for S in orbit)
            I = coset_subgroup[frozenset(rep)]
            sigma = rep[0]
            gen = self._closure(I | {sigma})
            e = len(I)
            f = len(gen) // e
            g = self.n // (e * f)
            if e * f * g != self.n:
                raise InvariantViolated("splitting triple does not multiply to |G|")
            entries.append((e, f, g, rep, tuple(sorted(tuple(sorted(S)) for S in orbit))))
        entries.sort(key=lambda t: (t[0], t[1], t[3]))
        self.omega = tuple(
            OmegaClass(i, e, f, g, rep, members)
            for i, (e, f, g, rep, members) in enumerate(entries)
        )
        self._coset_to_omega = {}
        for oc in self.omega:
            for S in oc.members:
                self._coset_to_omega[frozenset(S)] = oc.index
        self.class_to_omega = tuple(
            self._coset_to_omega[frozenset({c[0]})] for c in self.classes
        )
        self.omega_to_class = {w: ci for ci, w in enumerate(self.class_to_omega)}

    def omega_of_coset(self, coset) -> int:
        """Catalog index of the conjugacy class of a coset, given as a set."""
        key = frozenset(coset)
        try:
            return self._coset_to_omega[key]
        except KeyError:
            raise DomainError(f"{sorted(key)} is not a coset of a subgroup") from None

    # ---- constructors -----------------------------------------------------

    @staticmethod
    def cyclic(d: int) -> "GroupTable":
        return GroupTable([[(i + j) % d for j in range(d)] for i in range(d)])

    @staticmethod
    def from_perms(gens: list[tuple[int, ...]]) -> "GroupTable":
        if not gens:
            raise DomainError("need at least one generator")
        deg = len(gens[0])
        ident = tuple(range(deg))
        if any(len(g) != deg or sorted(g) != list(ident) for g in gens):
            raise DomainError("generators are not permutations of the same degree")
        elems = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    prod = tuple(g[a[i]] for i in range(deg))
                    if prod not in elems:
                        elems.add(prod)
                        new.append(prod)
            frontier = new
        perms = sorted(elems)
        if perms[0] != ident:
            raise InvariantViolated("closure of the generators lacks the identity")
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(a[b[i]] for i in range(deg))] for b in perms] for a in perms
        ]
        return GroupTable(table, perms=perms)

    @staticmethod
    def symmetric(m: int) -> "GroupTable":
        perms = sorted(itertools.permutations(range(m)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(a[b[i]] for i in range(m))] for b in perms] for a in perms
        ]
        return GroupTable(table, perms=perms)

    @staticmethod
    def direct_product(factors: list["GroupTable"]) -> "GroupTable":
        # element tuples in mixed-radix order, the first factor most significant
        elems = list(itertools.product(*(range(G.n) for G in factors)))
        index = {t: i for i, t in enumerate(elems)}
        table = [
            [index[tuple(G.mul(a, b) for G, a, b in zip(factors, x, y))] for y in elems]
            for x in elems
        ]
        G = GroupTable(table)
        G.factor_sizes = tuple(F.n for F in factors)
        return G

    # ---- misc ---------------------------------------------------------------

    def decode_product(self, i: int) -> tuple[int, ...]:
        sizes = self.factor_sizes
        out = []
        for s in reversed(sizes):
            out.append(i % s)
            i //= s
        return tuple(reversed(out))

    def encode_product(self, tup) -> int:
        i = 0
        for s, t in zip(self.factor_sizes, tup):
            i = i * s + t
        return i

    def cycle_type(self, i: int) -> tuple[int, ...]:
        """Descending cycle type of a permutation-backed element."""
        if self.perms is None:
            raise DomainError("group has no permutation representation")
        p = self.perms[i]
        seen = [False] * len(p)
        parts = []
        for s in range(len(p)):
            if seen[s]:
                continue
            ln, cur = 0, s
            while not seen[cur]:
                seen[cur] = True
                cur = p[cur]
                ln += 1
            parts.append(ln)
        return tuple(sorted(parts, reverse=True))

    def __repr__(self) -> str:
        return f"GroupTable(order {self.n})"


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)" into a permutation."""
    perm = list(range(degree))
    body = text.strip()
    if body in ("()", "e", "id", ""):
        return tuple(perm)
    depth_chunks = []
    cur = ""
    for ch in body:
        if ch == "(":
            cur = ""
        elif ch == ")":
            depth_chunks.append(cur)
        else:
            cur += ch
    for chunk in depth_chunks:
        tokens = chunk.replace(",", " ").split()
        pts = [int(t) - 1 for t in tokens if t.isdecimal()]
        bad = len(pts) != len(tokens) or len(set(pts)) != len(pts)
        if bad or any(not 0 <= x < degree for x in pts):
            raise DomainError(f"bad cycle {chunk!r} for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def cycles_text(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s] or perm[s] == s:
            seen[s] = True
            continue
        cyc = []
        cur = s
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur + 1)
            cur = perm[cur]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"
