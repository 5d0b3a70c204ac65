"""Finite lattice computations: adjoints, dualities, dagger calculus, weak
morphism extensions, closure operators and spaces, transition structures,
and state-property systems, with an exhaustive law sweep over a small
built-in corpus."""

from .core import (
    FiniteLattice,
    FinitePoset,
    LatticeMap,
    build_poset,
    direct_product,
    horizontal_sum,
    identity_map,
    lattice_from_poset,
    lattice_of_sets,
    lower_interval,
    sublattice_on,
    upper_extension,
)
from .errors import LatkitError, ParseError, SizeLimit, ValidationError
from .maps import (
    check_adjunction,
    classify_morphism,
    compose,
    hom_set,
    left_adjoint,
    preservation_profile,
    right_adjoint,
    special_maps,
)

__all__ = [
    "FiniteLattice",
    "FinitePoset",
    "LatticeMap",
    "LatkitError",
    "ParseError",
    "SizeLimit",
    "ValidationError",
    "build_poset",
    "check_adjunction",
    "classify_morphism",
    "compose",
    "direct_product",
    "hom_set",
    "horizontal_sum",
    "identity_map",
    "lattice_from_poset",
    "lattice_of_sets",
    "left_adjoint",
    "lower_interval",
    "preservation_profile",
    "right_adjoint",
    "special_maps",
    "sublattice_on",
    "upper_extension",
]

__version__ = "0.1.0"
