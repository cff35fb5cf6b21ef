"""Exact computation in free nilpotent groups: normal forms, subgroup
standard bases, retraction-based distortion decisions, and empirical
distortion measurement in Cayley balls."""

from .distortion import enumerate_ball, estimate_exponent, measure_distortion
from .errors import (
    CapExceededError,
    ExponentOverflowError,
    InternalInconsistencyError,
    NildistError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from .hall import from_coordinates, hall_basis, normal_form_str, to_coordinates
from .magnus import embed, evaluate
from .presentation import Presentation
from .subgroups import (
    cyclic_distortion_exponent,
    decide_undistorted,
    induced_basis,
    member,
)
from .words import parse, parse_word

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ExponentOverflowError",
    "InternalInconsistencyError",
    "NildistError",
    "Presentation",
    "UnknownGeneratorError",
    "WordSyntaxError",
    "cyclic_distortion_exponent",
    "decide_undistorted",
    "embed",
    "enumerate_ball",
    "estimate_exponent",
    "evaluate",
    "from_coordinates",
    "hall_basis",
    "induced_basis",
    "measure_distortion",
    "member",
    "normal_form_str",
    "parse",
    "parse_word",
    "to_coordinates",
]
