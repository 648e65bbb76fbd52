"""hflkit: exact longitude Floer homology of (2,2n+1) torus knots.

Builds the combinatorial longitude Floer chain complexes, computes their
integer homology via Smith normal form, enumerates Kauffman states of
planar diagrams, and evaluates satellite Alexander polynomial formulas,
including the Whitehead-double knot Floer table.
"""

from .halfint import HalfInt
from .laurent import LaurentPoly
from .matrices import IntMatrix, SmithDecomposition, smith_normal_form, xgcd
from .complexes import (
    Generator,
    GradedComplex,
    GroupSummand,
    HomologyTable,
    MalformedComplexError,
    euler_characteristic,
    homology,
)
from .kauffman import (
    KauffmanState,
    PlanarDiagram,
    Region,
    alexander_from_states,
    build_torus_diagram,
    enumerate_states,
    regions,
    torus_state_complex,
    torus_state_gradings,
    torus_states_with_gradings,
)
from .longitude import (
    build_hfl_complex,
    epsilon,
    hfl_closed_form,
    hfl_compute,
    spinc_classes,
    verify_genus_and_fibered,
    verify_symmetry,
)
from .satellite import (
    SatelliteSpec,
    satellite_alexander,
    torus_alexander,
    whitehead_closed_form,
    whitehead_from_hfl,
    whitehead_hfk_one,
)

__version__ = "0.1.0"

__all__ = [
    "HalfInt",
    "LaurentPoly",
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "xgcd",
    "Generator",
    "GradedComplex",
    "GroupSummand",
    "HomologyTable",
    "MalformedComplexError",
    "euler_characteristic",
    "homology",
    "KauffmanState",
    "PlanarDiagram",
    "Region",
    "alexander_from_states",
    "build_torus_diagram",
    "enumerate_states",
    "regions",
    "torus_state_complex",
    "torus_state_gradings",
    "torus_states_with_gradings",
    "build_hfl_complex",
    "epsilon",
    "hfl_closed_form",
    "hfl_compute",
    "spinc_classes",
    "verify_genus_and_fibered",
    "verify_symmetry",
    "SatelliteSpec",
    "satellite_alexander",
    "torus_alexander",
    "whitehead_closed_form",
    "whitehead_from_hfl",
    "whitehead_hfk_one",
    "__version__",
]
