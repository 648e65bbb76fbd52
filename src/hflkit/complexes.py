"""Graded chain complexes over Z and their homology.

A :class:`GradedComplex` is a finitely generated free complex whose
generators carry a Spin^c label and a Maslov grading, both exact
half-integers.  The differential is an integer matrix whose column g
holds the boundary of generator g; every nonzero entry must preserve
the Spin^c label and drop the Maslov grading by exactly 1.

Once the grading rules hold, the differential is a set of blocks
d_(s,m): C_(s,m) -> C_(s,m-1), one per grading (see
:meth:`GradedComplex.blocks`), and everything else works on those
blocks alone.  d^2 = 0 is checked as d_(s,m-1) d_(s,m) = 0 for each
pair of consecutive blocks.  Homology takes one Smith normal form per
block: at grading m the free rank is dim - rank(d_m) - rank(d_(m+1))
and the torsion is read off the invariant factors (> 1) of d_(m+1).

Euler characteristics use the fixed sign convention (-1)^floor(maslov);
only relative Maslov gradings are canonical, so the overall sign of the
result is a convention and is applied uniformly everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .halfint import HalfInt
from .laurent import LaurentPoly
from .matrices import IntMatrix, smith_normal_form


class MalformedComplexError(ValueError):
    """A malformed complex document, or a differential that breaks a grading
    rule or does not square to zero."""


class Generator(NamedTuple):
    label: str
    spinc: HalfInt
    maslov: HalfInt


@dataclass(frozen=True)
class GradedComplex:
    generators: tuple[Generator, ...]
    differential: IntMatrix

    def __init__(self, generators: Iterable[Generator], differential: IntMatrix):
        gens = tuple(Generator(*g) for g in generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "differential", differential)
        n = len(gens)
        if differential.rows != n or differential.cols != n:
            raise MalformedComplexError(
                f"differential is {differential.rows}x{differential.cols} "
                f"for {n} generators"
            )

    def __len__(self) -> int:
        return len(self.generators)

    def validate(self) -> None:
        """Raise MalformedComplexError unless gradings are compatible and d^2 = 0."""
        d = self.differential
        for r in range(d.rows):
            for c in range(d.cols):
                if d[r, c] == 0:
                    continue
                src, dst = self.generators[c], self.generators[r]
                if src.spinc != dst.spinc:
                    raise MalformedComplexError(
                        f"arrow {src.label} -> {dst.label} changes the Spin^c class"
                    )
                if src.maslov - dst.maslov != HalfInt(1):
                    raise MalformedComplexError(
                        f"arrow {src.label} -> {dst.label} does not drop "
                        f"the Maslov grading by 1"
                    )
        blocks = self.blocks()
        for (s, m), block in blocks.items():
            below = blocks.get((s, m - 1))
            if below is not None and not below.mul(block).is_zero():
                raise MalformedComplexError("differential does not square to zero")

    def blocks(self) -> dict[tuple[HalfInt, HalfInt], IntMatrix]:
        """For each grading (s, m), the block of d from (s, m) to (s, m - 1).

        These blocks hold every nonzero entry of d once validate's grading
        rules hold.
        """
        groups = self.grading_index()
        return {
            (s, m): self.differential.submatrix(groups.get((s, m - 1), []), here)
            for (s, m), here in groups.items()
        }

    def grading_index(self) -> dict[tuple[HalfInt, HalfInt], list[int]]:
        groups: dict[tuple[HalfInt, HalfInt], list[int]] = {}
        for i, g in enumerate(self.generators):
            groups.setdefault((g.spinc, g.maslov), []).append(i)
        return groups

    def to_json_dict(self) -> dict:
        """Documented JSON form: generators array plus sparse triplets."""
        gens = [
            {
                "label": g.label,
                "spinc": g.spinc.as_json(),
                "maslov": g.maslov.as_json(),
            }
            for g in self.generators
        ]
        d = self.differential
        triplets = [
            [r, c, d[r, c]]
            for r in range(d.rows)
            for c in range(d.cols)
            if d[r, c]
        ]
        return {"generators": gens, "differential": triplets}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> GradedComplex:
        """Inverse of to_json_dict; raises MalformedComplexError on a bad document."""
        try:
            gens = [
                Generator(
                    label=g["label"],
                    spinc=HalfInt.from_twice(g["spinc"]["twice"]),
                    maslov=HalfInt.from_twice(g["maslov"]["twice"]),
                )
                for g in doc["generators"]
            ]
            triplets = doc["differential"]
        except KeyError as exc:
            raise MalformedComplexError(f"complex is missing the field {exc}") from None
        n = len(gens)
        entries = [[0] * n for _ in range(n)]
        seen = set()
        for triplet in triplets:
            if (
                not isinstance(triplet, (list, tuple))
                or len(triplet) != 3
                or not all(type(x) is int for x in triplet)  # no bool, no float
            ):
                raise MalformedComplexError(
                    f"differential entry {triplet!r} is not an integer triplet"
                )
            r, c, value = triplet
            if not (0 <= r < n and 0 <= c < n):
                raise MalformedComplexError(
                    f"differential entry {triplet!r} is out of range "
                    f"for {n} generators"
                )
            if (r, c) in seen:
                raise MalformedComplexError(
                    f"differential entry ({r}, {c}) is given twice"
                )
            seen.add((r, c))
            entries[r][c] = value
        return cls(gens, IntMatrix(entries, cols=n))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class GroupSummand(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]


class HomologyTable:
    """Map (spinc, maslov) -> free rank and torsion divisors.

    Gradings where the homology vanishes are absent, so two tables are
    equal exactly when they describe the same groups.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[tuple[HalfInt, HalfInt], GroupSummand | tuple] | None = None,
    ) -> None:
        data: dict[tuple[HalfInt, HalfInt], GroupSummand] = {}
        if entries:
            for key, value in entries.items():
                summand = GroupSummand(value[0], tuple(value[1]))
                if summand.free_rank or summand.torsion:
                    data[key] = summand
        self._entries = data

    def items(self) -> Iterator[tuple[tuple[HalfInt, HalfInt], GroupSummand]]:
        """Entries in canonical order: by Spin^c class, then Maslov grading."""
        for key in sorted(self._entries, key=lambda k: (k[0].twice, k[1].twice)):
            yield key, self._entries[key]

    def get(self, spinc: HalfInt, maslov: HalfInt) -> GroupSummand:
        return self._entries.get((spinc, maslov), GroupSummand(0, ()))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomologyTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(
            f"(s={s}, m={m}): Z^{e.free_rank}"
            + ("".join(f"+Z/{t}" for t in e.torsion))
            for (s, m), e in self.items()
        )
        return f"HomologyTable({{{body}}})"

    def spinc_classes(self) -> list[HalfInt]:
        return sorted({s for s, _ in self._entries}, key=lambda h: h.twice)

    def restrict(self, spinc: HalfInt) -> HomologyTable:
        return HomologyTable(
            {k: v for k, v in self._entries.items() if k[0] == spinc}
        )

    def total_free_rank(self) -> int:
        return sum(e.free_rank for e in self._entries.values())

    def has_torsion(self) -> bool:
        return any(e.torsion for e in self._entries.values())

    def merged(self, other: HomologyTable) -> HomologyTable:
        """Direct sum, gradewise."""
        out = dict(self._entries)
        for key, e in other._entries.items():
            if key in out:
                prev = out[key]
                out[key] = GroupSummand(
                    prev.free_rank + e.free_rank, prev.torsion + e.torsion
                )
            else:
                out[key] = e
        return HomologyTable(out)

    def to_json_list(self) -> list[dict]:
        return [
            {
                "spinc": s.as_json(),
                "maslov": m.as_json(),
                "free_rank": e.free_rank,
                "torsion": list(e.torsion),
            }
            for (s, m), e in self.items()
        ]


def homology(cx: GradedComplex) -> HomologyTable:
    """Integer homology of a graded complex, gradewise.

    Raises MalformedComplexError for inputs violating the complex
    invariants (see GradedComplex.validate).
    """
    cx.validate()
    blocks = cx.blocks()
    factors = {
        key: smith_normal_form(block).invariant_factors()
        for key, block in blocks.items()
    }
    entries = {}
    for (s, m), block in blocks.items():
        incoming = factors.get((s, m + 1), ())
        free = block.cols - len(factors[(s, m)]) - len(incoming)
        entries[(s, m)] = GroupSummand(free, tuple(f for f in incoming if f > 1))
    return HomologyTable(entries)


def euler_characteristic(cx: GradedComplex) -> LaurentPoly:
    """Graded Euler characteristic: sum of (-1)^floor(maslov) * t^spinc.

    Requires a single Maslov parity within each Spin^c class; otherwise
    the alternating sum is not well defined and a ValueError is raised.
    """
    parity: dict[HalfInt, int] = {}
    for g in cx.generators:
        p = g.maslov.twice % 2
        if parity.setdefault(g.spinc, p) != p:
            raise ValueError(
                f"mixed Maslov parity in Spin^c class {g.spinc}: "
                "Euler characteristic is ill-defined"
            )
    total = LaurentPoly.zero()
    for g in cx.generators:
        sign = -1 if g.maslov.floor() % 2 else 1
        total = total + LaurentPoly.monomial(sign, g.spinc)
    return total
