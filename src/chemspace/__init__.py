"""Coverage measures of chemical space over binary molecular fingerprints.

The package bundles a measure catalog (distance-based, reference-based, and
packing-based), a property-test harness for the two validity axioms, and the
two empirical correlation protocols against a label-count gold standard.
"""

__version__ = "0.1.0"

from .axioms import (
    EXPECTED_CLASSIFICATION,
    AxiomReport,
    GeodesicConfig,
    check_dissimilarity,
    check_subadditivity,
    quadrant_table,
    replay_counterexample,
)
from .circles import (
    PackingResult,
    circles_auto,
    circles_exact,
    circles_greedy,
)
from .distances import MatrixOracle, TanimotoOracle
from .errors import ChemSpaceError
from .fingerprints import (
    Dataset,
    Fingerprint,
    MoleculeRecord,
    load_dataset,
    tanimoto_distance,
    write_dataset,
)
from .measures import (
    MeasureResult,
    MeasureSpec,
    bottleneck,
    diameter,
    diversity,
    dpp,
    evaluate_measure,
    parse_measure_spec,
    richness,
    sum_bottleneck,
    sum_diameter,
    sum_diversity,
)
from .novelty import (
    NoveltyContext,
    novelty_circles,
    novelty_diversity,
    novelty_sum_bottleneck,
)
from .protocols import (
    CurveSeries,
    ProtocolResult,
    protocol_fixed,
    protocol_growing,
    threshold_sweep,
)
from .reference import ReferenceSet, coverage, load_universe
from .stats import dtw, spearman
from .synthetic import SyntheticConfig, generate_synthetic

__all__ = [
    "AxiomReport",
    "ChemSpaceError",
    "CurveSeries",
    "Dataset",
    "EXPECTED_CLASSIFICATION",
    "Fingerprint",
    "GeodesicConfig",
    "MatrixOracle",
    "MeasureResult",
    "MeasureSpec",
    "MoleculeRecord",
    "NoveltyContext",
    "PackingResult",
    "ProtocolResult",
    "ReferenceSet",
    "SyntheticConfig",
    "TanimotoOracle",
    "bottleneck",
    "check_dissimilarity",
    "check_subadditivity",
    "circles_auto",
    "circles_exact",
    "circles_greedy",
    "coverage",
    "diameter",
    "diversity",
    "dpp",
    "dtw",
    "evaluate_measure",
    "generate_synthetic",
    "load_dataset",
    "load_universe",
    "novelty_circles",
    "novelty_diversity",
    "novelty_sum_bottleneck",
    "parse_measure_spec",
    "protocol_fixed",
    "protocol_growing",
    "quadrant_table",
    "replay_counterexample",
    "richness",
    "spearman",
    "sum_bottleneck",
    "sum_diameter",
    "sum_diversity",
    "tanimoto_distance",
    "threshold_sweep",
    "write_dataset",
]
