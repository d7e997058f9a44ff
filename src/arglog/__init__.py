"""Exact probabilistic logic programming with a verifying argumentation back end.

Success probabilities are computed twice, by independent routes: once by
enumerating total choices and evaluating well-founded models, and once by
restricting an assumption-based argumentation framework to each possible
world and reading off grounded extensions. The two provably agree, and the
equivalence checker enforces the agreement on every query.
"""

from .aba import (
    FACT_CONTRARY,
    AaFramework,
    AbaFramework,
    Argument,
    argument_sort_key,
    build_aa_framework,
    build_problog_aba,
    compute_attacks,
    enumerate_arguments,
)
from .distribution import (
    induced_program,
    program_probability,
    success_probability,
    total_choices,
)
from .equivalence import (
    EquivalenceReport,
    GenLimits,
    WorldTrace,
    check_program,
    check_query,
    random_program,
    world_traces,
)
from .errors import (
    ArglogError,
    CapExceeded,
    GroundingError,
    ParseError,
    SourceSpan,
    ValidationError,
)
from .grounder import ground, ground_program_from_parts
from .limits import Caps
from .model import (
    Atom,
    GroundProgram,
    Literal,
    ProbFact,
    Program,
    Rule,
    Violation,
    format_probability,
    herbrand_base,
    matches,
    unifies,
    validate,
)
from .paa import PaaEngine, applicable, restrict
from .parser import parse_program, parse_query
from .semantics import (
    Label,
    Labelling,
    grounded_extension,
    grounded_labelling,
    stable_extensions,
)
from .wfm import (
    ThreeValuedModel,
    least_model,
    reduct,
    stable_models,
    succeeds,
    well_founded_model,
)
from .worlds import world_probability, world_table

__version__ = "0.1.0"
