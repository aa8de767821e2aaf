"""Three-valued demonstrability logic and its probability engines.

The package walks one idea through four formalisms: propositions tagged
T (provable), F (refutable) or U (neither), classical probability as
geometry over complete states, measure-valued probability over T/F/U
cells, and complex state vectors with Hermitian projectors. The wde
module stages the Wigner-d'Espagnat inequality in each regime, and the
command line (`tfuprob eval | check | search`) drives everything from
JSON problem files.
"""

__version__ = "0.1.0"

from .errors import (
    FormulaError,
    ProblemFileError,
    TfuProbError,
    UndefinedConditionalError,
    ValidationError,
)
from .logic import (
    AMBIGUOUS,
    Ambiguous,
    CompleteStateTable,
    Implication,
    Literal,
    TfuValue,
    conjoin,
    conjunction_value,
    derive_value,
    derived_values,
    detect_nexus,
    negate,
)
from .classical import (
    ClassicalDistribution,
    Direction,
    RealStateVector,
    and_op,
    build_state_vector,
    conditional,
    cos2,
    negation_op,
    or_op,
    probability,
    projected_direction,
    projector_for,
    state_direction,
)
from .measures import (
    DecidabilityAugmentedSpace,
    TfuMeasureAssignment,
    complement_check,
    noncommutativity_gap,
    tfu_conditional,
    tfu_from_augmented,
    tfu_probability,
)
from .quantum import (
    ComplexStateVector,
    HermitianProjector,
    QubitDirection,
    SubspaceSpan,
    born,
    commutator_norm,
    orthonormalize,
    product_asymmetry,
    projector_from_spec,
    qubit_state,
    sequential_conditional,
)
from .wde import (
    AngleGrid,
    TfuPopulation,
    ViolationWitness,
    WdeTriple,
    search_violation,
    singlet_state,
    wde_classical,
    wde_quantum,
    wde_tfu_sets,
)

__all__ = [name for name in dir() if not name.startswith("_")]
