"""Satellite Alexander polynomials and the Whitehead-double knot Floer table.

For a satellite with companion K, pattern L and winding number w the
Alexander polynomial is Delta_K(t^w) * Delta_L(t), returned in the
symmetric representative with positive top coefficient.  The Whitehead
double (winding 0, unknot pattern) therefore always has trivial
Alexander polynomial.

The knot Floer homology of the Whitehead double of T(2,2n+1) in its
outermost Spin^c structures (+-1) equals the total longitude Floer
homology of the companion with the Spin^c coordinate forgotten.  So
whitehead_from_hfl derives the double's table from an already computed
hfl_compute(n) table, and whitehead_hfk_one(n) is that derivation
applied to a fresh hfl_compute(n).  Both sides are only relatively
Maslov graded; the table here shifts every grading by +1/2 so the labels
land on the integers used for the double: rank 2 at n, n-2, ..., -n+2
and rank 2n at -n+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import GroupSummand, HomologyTable
from .halfint import HalfInt
from .laurent import LaurentPoly
from .longitude import hfl_compute

# Single Spin^c label for the double's table; the structures +1 and -1
# carry the same groups by the symmetry of knot Floer homology.
WHITEHEAD_SPINC = HalfInt(1)


@dataclass(frozen=True)
class SatelliteSpec:
    """Companion and pattern Alexander polynomials plus the winding number."""

    companion_alexander: LaurentPoly
    pattern_alexander: LaurentPoly
    winding: int

    def __post_init__(self) -> None:
        for name, poly in (
            ("companion", self.companion_alexander),
            ("pattern", self.pattern_alexander),
        ):
            if not poly.equal_up_to_unit(poly.substitute(-1)):
                raise ValueError(
                    f"{name} polynomial is not symmetric up to a unit: {poly}"
                )


def satellite_alexander(spec: SatelliteSpec) -> LaurentPoly:
    """Delta_companion(t^winding) * Delta_pattern(t), symmetrized."""
    product = spec.companion_alexander.substitute(spec.winding)
    product = product * spec.pattern_alexander
    return product.symmetrized()


def torus_alexander(n: int) -> LaurentPoly:
    """Closed form for T(2,2n+1): sum of (-1)^(n+k) t^k over k in [-n, n]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return LaurentPoly(
        {HalfInt(k): (-1) ** (n + k) for k in range(-n, n + 1)}
    )


def whitehead_from_hfl(table: HomologyTable) -> HomologyTable:
    """Knot Floer table of the Whitehead double at Spin^c +-1, from hfl_compute(n).

    Collapses the table over Spin^c classes and shifts all Maslov
    gradings by +1/2 onto integer labels.
    """
    collapsed = HomologyTable()
    for (_, maslov), summand in table.items():
        key = (WHITEHEAD_SPINC, maslov + HalfInt(1, 2))
        collapsed = collapsed.merged(HomologyTable({key: summand}))
    return collapsed


def whitehead_hfk_one(n: int) -> HomologyTable:
    """Knot Floer table of the Whitehead double of T(2,2n+1) at Spin^c +-1."""
    return whitehead_from_hfl(hfl_compute(n))


def whitehead_closed_form(n: int) -> HomologyTable:
    """Closed form for the double: rank 2 at n, n-2, ..., -n+2, rank 2n at -n+1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entries: dict[tuple[HalfInt, HalfInt], GroupSummand] = {
        (WHITEHEAD_SPINC, HalfInt(-n + 1)): GroupSummand(2 * n, ())
    }
    for mu in range(n, -n + 1, -2):
        key = (WHITEHEAD_SPINC, HalfInt(mu))
        if key in entries:
            entries[key] = GroupSummand(entries[key].free_rank + 2, ())
        else:
            entries[key] = GroupSummand(2, ())
    return HomologyTable(entries)
