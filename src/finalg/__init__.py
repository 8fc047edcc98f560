"""Finite universal-algebra workbench: operation-table algebras, identity
checking, catalog constructions, derived groups, and small-model search."""

from .core import (
    AlgebraError,
    Apply,
    BudgetError,
    CheckReport,
    Constant,
    DenseTable,
    EvalError,
    FiniteAlgebra,
    Identity,
    InputError,
    ProductTable,
    Signature,
    SymbolError,
    Variable,
    eval_term,
    standard_algebra,
    standard_signature,
    table_from_fn,
    validate_algebra,
)
from .dsl import DslError, parse_algebra, parse_file, parse_identity, serialize
from .identities import (
    IdentitySuite,
    check_2assoc_functional,
    check_identity,
    check_strict_equivalence,
    check_suite,
    identities_1assoc,
    identities_malcev,
    identities_strict,
    identity_2assoc,
    identity_malcev_assoc,
    identity_malcev_assoc_expanded,
    identity_unit_expansion,
    identity_unit_law,
    resolve_suite,
    suite_identities,
    suite_protomodular,
    suite_semiabelian,
)
from .groups import (
    GroupLawError,
    PreconditionError,
    check_diagonal_cancellation,
    check_malcev_assoc_expanded,
    count_enriched_groups,
    derive_group,
    from_enriched,
    malcev_term,
    to_enriched,
)
from .search import (
    SearchResult,
    SearchSpec,
    count_2assoc_semiabelian,
    parse_search_spec,
    prove_no_strict_2assoc,
)

__version__ = "0.1.0"
