"""Structured argumentation with deductive joint support.

Builds arguments from strict and defeasible rules, derives undercut and
unrestricted-rebuttal attacks plus the joint-support relation induced by
strict rule applications, flattens joint-support bipolar frameworks to plain
attack graphs, computes extensions under the four admissibility-based
semantics, and checks the closure and consistency rationality postulates.
"""

from .arguments import (
    Argument,
    ArgumentStore,
    AttackWitness,
    AttackWitnesses,
    attack_witnesses,
    build_aspic_minus_af,
    build_da_jsbaf,
    construct_arguments,
    strict_argument_nodes,
    support_pairs,
)
from .core import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    StrictRule,
    atom,
    complement,
    defeasible_rule,
    neg,
    strict_rule,
)
from .dsl import parse_system, print_system
from .errors import (
    GenerationFailedError,
    InconsistentSystemError,
    JsbafError,
    LimitExceededError,
    ParseError,
    SearchLimitExceededError,
    ValidationError,
)
from .frameworks import (
    AF,
    JSBAF,
    HigherLevelAF,
    bar,
    base,
    e_node,
    flatten_one_step,
    flatten_simplified,
    flatten_two_step,
    is_meta,
    sort_nodes,
)
from .oracle import brute_force_extensions
from .postulates import (
    DEFAULT_NODE_BOUND,
    MODES,
    POSTULATES,
    ConclusionSet,
    Evaluation,
    GeneratedSystem,
    JsbafParams,
    PostulateReport,
    Prepared,
    SystemParams,
    evaluate,
    prepare,
    random_jsbaf,
    random_system,
)
from .reporting import emit_apx, emit_dot, write_report
from .semantics import (
    SEMANTICS,
    extension_ids,
    extensions,
    is_conflict_free_jsbaf,
    is_deductive_extension,
    jsbaf_extensions,
    project_ids,
)

__version__ = "0.1.0"
