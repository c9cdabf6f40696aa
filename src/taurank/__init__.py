"""Exact computations with bound quiver algebras: Hom spaces, minimal
projective presentations, maximal presentation rank, the Auslander-Reiten
translate, and tau-regularity verdicts.

All arithmetic is exact (rationals by default, prime fields on request);
randomized operations take explicit seeds and are reproducible."""

from .fields import DEFAULT_PRIME, QQ, PrimeField, RationalField, SeedStream
from .linalg import Matrix
from .polyrank import OracleBudgetError, Poly, PolyMatrix, poly_rank
from .quiver import Arrow, Quiver, QuiverSyntaxError, RelationPoly, parse_quiver_file
from .algebra import (Algebra, BasisElement, Ideal, NotDefinedOverField,
                      NotFiniteDimensional, build_algebra)
from .reps import (
    Morphism,
    Representation,
    act_element,
    act_word,
    annihilator,
    check_relations,
    cokernel,
    direct_sum,
    dual_rep,
    hom_basis,
    hom_dim,
    injective,
    injective_envelope_mults,
    iso_test,
    kernel,
    proj_dim,
    projective,
    projective_cover,
    simple,
    syzygy,
    zero_rep,
)
from .presentations import (
    GenericRankResult,
    ProjDecomp,
    RankScanReport,
    TwoComplex,
    additivity_scan,
    generic_rank,
    min_presentation,
    random_module,
    random_presentation,
)
from .artheory import (
    HierarchyReport,
    ReduceReport,
    Verdict,
    ar_formula_check,
    e_invariant,
    ext1_dim,
    hierarchy_report,
    is_tau_regular,
    nakayama_complex,
    reduce_and_compare,
    stable_hom_dim_inj,
    tau,
    tau_minus,
)
from .io import load_module_arg, load_module_file, module_from_expr
from .fixtures import FIXTURE_NAMES, load_fixture

__version__ = "0.1.0"
