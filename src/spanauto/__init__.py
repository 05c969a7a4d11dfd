"""Automata as span-valued assignments over free categories.

The package models nondeterministic automata whose transitions are spans
of finite sets, so parallel transitions are counted rather than merged.
Two determinizations are provided: the powerset machine, which forgets
the counts, and the multiset machine, which keeps them.  Both come with
canonical simulations, a bisimulation checker and universal-property
factorizations, cross-checked against the classical subset construction
and brute-force path enumeration.
"""

from .spans import (
    FinSet,
    Multiset,
    NatMatrix,
    Relation,
    Span,
    SpanMorphism,
    Token,
    compose_relations,
    compose_spans,
    dagger_relation,
    dagger_span,
    from_matrix,
    from_relation,
    identity_matrix,
    identity_relation,
    identity_span,
    image,
    image_unit,
    matrix_compose,
    multiset_extend,
    multiset_flatten,
    multiset_unit,
    powerset_map,
    rel_counit,
    rel_unit,
    span_iso_eq,
    span_morphism_search,
    to_matrix,
)
from .automata import (
    BaseGraph,
    DetAutomaton,
    Edge,
    RelAutomaton,
    SpanAutomaton,
    Word,
    accepted,
    accepted_counts,
    count_paths,
    enumerate_words,
    is_deterministic,
    language,
)
from .determinize import (
    ClassicalNFA,
    ExpandedMachine,
    classical_subset_construction,
    det,
    mdet_expand,
    mdet_run,
    prune_reachable,
    reachable_iso_check,
    rel_of,
)
from .simulation import (
    CheckResult,
    FactorizationResult,
    Simulation,
    canonical_det_simulation,
    canonical_mdet_simulation,
    check_bisimulation,
    check_rel_simulation,
    check_span_simulation,
    compose_simulations,
    dagger_simulation,
    factor_det,
    factor_mdet,
    identity_simulation,
)

__version__ = "0.1.0"
