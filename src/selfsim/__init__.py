"""Exact truncated computation with self-similar abelian groups of
automorphisms of the one-rooted m-ary tree."""

from .adic import (
    AllDivisible, ContextMismatch, MAdicInt, Modulus, NonUnit, PowerSeries,
    QuotientElement, congruence_exponent, format_series, idempotents,
    madic_add, madic_invert, madic_mul, madic_neg, parse_series,
    pro_m_generators, reduce_mod_r, relator_parts, series_add, series_invert,
    series_mul, series_to_json, series_from_json, unit_decompose,
)
from .tree import (
    AutExpr, Context, ContextError, DepthExceeded, ExponentNotStabilized,
    FoldSystem, GeneratorDef, NotAbelian, Permutation, Portrait,
    ShapeMismatch, System, act, adding_machine, commutator, diagonal,
    equal_to_depth, invert, level_perm_fast, multiply, portrait, pow_series,
    rooted_portrait, state,
)
from .closure import (
    ClosureReport, DedupeCollision, PermSolveFail, RelationPresentation,
    SaturationOverflow, ZetaUnbounded, annihilator_check, as_machine,
    extract_relations, order_to_depth, peel, restrict_to_orbit,
    state_closure, zeta,
)
from .endo import (
    AddingMachineConjugation, FgAbelianGroup, NonUnitSum, SelfSimilarMachine,
    StageRootDrift, Transversal, VirtualEndo, adding_machine_conjugator,
    closed_form_conjugator, closed_form_sequences, coset_permutation,
    phi_rep, transversal_change, transversal_conjugator, triple_from_json,
)
from .suites import CRITERIA, SUITES, run_criterion, run_suite

__version__ = "0.1.0"
