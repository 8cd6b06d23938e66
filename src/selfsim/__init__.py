"""Exact truncated computation with self-similar abelian groups of
automorphisms of the one-rooted m-ary tree."""

from .adic import (
    AllDivisible, ContextMismatch, MAdicInt, Modulus, NonUnit, PowerSeries,
    QuotientElement, congruence_exponent, format_series, idempotents,
    parse_series, pro_m_generators, reduce_mod_r, relator_parts,
    series_to_json, series_from_json, unit_decompose,
)
from .tree import (
    AutExpr, Context, ContextError, DepthExceeded, ExponentNotStabilized,
    FoldSystem, GeneratorDef, NotAbelian, Permutation, Portrait,
    ShapeMismatch, System, adding_machine, level_perm_fast, rooted_portrait,
)
from .closure import (
    ClosureReport, DedupeCollision, PermSolveFail, RelationPresentation,
    SaturationOverflow, ZetaUnbounded, as_machine, extract_relations,
    order_to_depth, peel, restrict_to_orbit, state_closure, zeta,
)
from .endo import (
    AddingMachineConjugation, FgAbelianGroup, MalformedTriple, NonUnitSum,
    SelfSimilarMachine, StageRootDrift, Transversal, VirtualEndo,
    adding_machine_conjugator, closed_form_conjugator, closed_form_sequences,
    coset_permutation, phi_rep, transversal_change, triple_from_json,
)
from .suites import CRITERIA, SUITES, run_criterion, run_suite

__version__ = "0.1.0"
