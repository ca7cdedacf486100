"""Coverage measures of chemical space over binary molecular fingerprints.

The package bundles a measure catalog (distance-based, reference-based, and
packing-based), a property-test harness for the two validity axioms, and the
two empirical correlation protocols against a label-count gold standard.

Each public name is imported from its submodule on first access (PEP 562), so
``import chemspace`` and a command that needs a few submodules load only
those.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "axioms": (
        "EXPECTED_CLASSIFICATION",
        "AxiomReport",
        "GeodesicConfig",
        "check_dissimilarity",
        "check_subadditivity",
        "quadrant_table",
        "replay_counterexample",
    ),
    "circles": ("PackingPolicy", "PackingResult", "circles_exact", "packing_policy"),
    "distances": ("MatrixOracle", "TanimotoOracle"),
    "errors": ("ChemSpaceError",),
    "fingerprints": (
        "Dataset",
        "Fingerprint",
        "MoleculeRecord",
        "load_dataset",
        "load_universe",
        "tanimoto_distance",
        "write_dataset",
    ),
    "measures": ("MeasureResult", "MeasureSpec", "evaluate_measure", "parse_measure_spec"),
    "novelty": ("NoveltyContext", "novelty_circles", "novelty_diversity", "novelty_sum_bottleneck"),
    "protocols": (
        "CurveSeries",
        "ProtocolResult",
        "protocol_fixed",
        "protocol_growing",
        "threshold_sweep",
    ),
    "stats": ("dtw", "spearman"),
    "synthetic": ("SyntheticConfig", "generate_synthetic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
