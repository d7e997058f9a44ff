"""Exact probabilistic logic programming with a verifying argumentation back end.

Success probabilities are computed twice, by independent routes: once by
enumerating total choices and evaluating well-founded models, and once by
restricting an assumption-based argumentation framework to each possible
world and reading off grounded extensions. The two provably agree, and the
equivalence checker enforces the agreement on every query.
"""

from .distribution import success_probability
from .equivalence import (
    EquivalenceReport,
    WorldTrace,
    check_program,
    check_query,
    random_program,
    world_traces,
)
from .errors import ArglogError, CapExceeded, GroundingError, ParseError, ValidationError
from .grounder import ground
from .limits import Caps
from .model import Atom, GroundProgram, Program, format_probability, matches
from .paa import PaaEngine
from .parser import parse_program, parse_query

__version__ = "0.1.0"
