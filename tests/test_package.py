"""The names ``import jsbaf`` exports, pinned, so that a change to the
package's public surface shows in the diff of this list."""

import types

import jsbaf

PUBLIC_NAMES = [
    "AF", "Argument", "ArgumentStore", "ArgumentationSystem", "AttackWitness",
    "AttackWitnesses", "ConclusionSet", "DEFAULT_NODE_BOUND", "DefeasibleRule", "Evaluation",
    "Formula", "GeneratedSystem", "GenerationFailedError", "HigherLevelAF",
    "InconsistentSystemError", "JSBAF", "JsbafError", "JsbafParams", "LimitExceededError",
    "MODES", "POSTULATES", "ParseError", "PostulateReport", "Prepared", "SEMANTICS",
    "SearchLimitExceededError", "StrictRule", "SystemParams", "ValidationError", "atom",
    "attack_witnesses", "bar", "base", "brute_force_extensions", "build_aspic_minus_af",
    "build_da_jsbaf", "complement", "construct_arguments", "defeasible_rule", "e_node",
    "emit_apx", "emit_dot", "evaluate", "extension_ids", "extensions", "flatten_one_step",
    "flatten_simplified", "flatten_two_step", "is_conflict_free_jsbaf",
    "is_deductive_extension", "is_meta", "jsbaf_extensions", "neg", "parse_system",
    "prepare", "print_system", "project_ids", "random_jsbaf", "random_system",
    "sort_nodes", "strict_argument_nodes", "strict_rule", "support_pairs", "write_report",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(jsbaf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
