"""The public surface: names, call signatures and the entry points the
benchmark scripts use must survive refactors unchanged."""

from __future__ import annotations

import enum
import inspect

import paircomp
from paircomp import fileio

PUBLIC_NAMES = [
    "BadDiagonal",
    "BadHeader",
    "ComparisonGraph",
    "ConsistencyReport",
    "DataMatrix",
    "DEFAULT_CYCLE_TOL",
    "DisconnectedGraph",
    "DuplicatePair",
    "EmResult",
    "ExpectedValueVector",
    "FordViolation",
    "GraphClass",
    "GraphProperties",
    "HIGHER_IS_BETTER",
    "IPCM",
    "MEASURE_NAMES",
    "MeasureSet",
    "MeasureStats",
    "MissingSlice",
    "MleResult",
    "ModelKind",
    "NegativeCount",
    "NoConvergence",
    "NonPositiveEntry",
    "NotReciprocal",
    "PaircompError",
    "ParseError",
    "SimulationConfig",
    "SimulationSummary",
    "TooLarge",
    "WeightVector",
    "bt_mle",
    "canonical_code",
    "data_consistency",
    "draw_initial_weights",
    "em",
    "enumerate_connected",
    "error_bound",
    "exact_probabilities",
    "ford_condition",
    "llsm",
    "log_likelihood",
    "log_likelihood_gradient",
    "m_from_weights",
    "mm_step",
    "pcm_consistency",
    "pcm_from_data",
    "perturb_data",
    "properties",
    "run",
    "similarity",
    "single_edge_extensions",
    "star_class",
    "weights_from_m",
    "__version__",
]

#: Signature of every callable export; an exception class that keeps the
#: built-in constructor is pinned by its base class instead, as <Base>.
PUBLIC_SIGNATURES = {
    "BadDiagonal": "<ParseError>",
    "BadHeader": "<ParseError>",
    "ComparisonGraph": "(n: 'int', edges: 'Iterable[tuple[int, int]]')",
    "ConsistencyReport": (
        "(consistent: 'bool', max_cycle_deviation: 'float', witness: 'tuple[int, "
        "...] | None' = None) -> None"
    ),
    "DataMatrix": "(n: 'int', entries: 'Mapping[tuple[int, int], tuple[float, float]]') -> None",
    "DisconnectedGraph": "<PaircompError>",
    "DuplicatePair": "<ParseError>",
    "EmResult": "(weights: 'WeightVector', lambda_max: 'float', iterations: 'int' = 0) -> None",
    "ExpectedValueVector": "(values: 'np.ndarray') -> None",
    "FordViolation": "<PaircompError>",
    "GraphClass": "(n: 'int', canonical_code: 'int', edge_count: 'int', id: 'int') -> None",
    "GraphProperties": (
        "(degree_sequence: 'tuple[int, ...]', is_regular: 'bool', is_bipartite: 'bool', "
        "is_star: 'bool', is_spanning_tree: 'bool', diameter: 'int') -> None"
    ),
    "IPCM": "(n: 'int', entries: 'Mapping[tuple[int, int], float]') -> None",
    "MeasureSet": (
        "(eu_m: 'float', eu_w: 'float', pe_m: 'float', pe_w: 'float', "
        "spearman_rho: 'float', kendall_tau: 'float') -> None"
    ),
    "MeasureStats": "(mean: 'float', stddev: 'float', count: 'int') -> None",
    "MissingSlice": "<PaircompError>",
    "MleResult": (
        "(m: 'ExpectedValueVector', loglik: 'float', iterations: 'int', "
        "converged: 'bool') -> None"
    ),
    "NegativeCount": "<ParseError>",
    "NoConvergence": "(message: 'str', iterations: 'int')",
    "NonPositiveEntry": "<ParseError>",
    "NotReciprocal": "<ParseError>",
    "PaircompError": "<Exception>",
    "ParseError": "<PaircompError>",
    "SimulationConfig": (
        "(n: 'int', perturb: 'float', num_sims: 'int', seed: 'int', "
        "model: 'ModelKind' = <ModelKind.LOGISTIC: 'logistic'>, "
        "epsilon: 'float' = 1e-06) -> None"
    ),
    "SimulationSummary": (
        "(config: 'SimulationConfig', classes: 'tuple[GraphClass, ...]', "
        "stats: 'Mapping[tuple[int, str], MeasureStats]', failures: 'tuple[tuple[int, "
        "int | None], ...]' = ()) -> None"
    ),
    "TooLarge": "<PaircompError>",
    "WeightVector": "(values: 'np.ndarray') -> None",
    "bt_mle": (
        "(data: 'DataMatrix', model: 'ModelKind' = <ModelKind.LOGISTIC: 'logistic'>, *, "
        "tol: 'float' = 1e-10, max_iter: 'int' = 100000) -> 'MleResult'"
    ),
    "canonical_code": "(graph: 'ComparisonGraph') -> 'int'",
    "data_consistency": "(data: 'DataMatrix', tol: 'float' = 1e-09) -> 'ConsistencyReport'",
    "draw_initial_weights": "(rng: 'np.random.Generator', n: 'int') -> 'WeightVector'",
    "em": (
        "(pcm: 'IPCM', *, eig_tol: 'float' = 1e-12, completion_tol: 'float' = 1e-12, "
        "max_iter: 'int' = 100000) -> 'EmResult'"
    ),
    "enumerate_connected": "(n: 'int') -> 'tuple[GraphClass, ...]'",
    "error_bound": "(num_sims: 'int', alpha: 'float', sigma: 'float') -> 'float'",
    "exact_probabilities": (
        "(m: 'ExpectedValueVector', graph: 'ComparisonGraph', "
        "model: 'ModelKind') -> 'DataMatrix'"
    ),
    "ford_condition": "(data: 'DataMatrix') -> 'bool'",
    "llsm": "(pcm: 'IPCM') -> 'WeightVector'",
    "log_likelihood": (
        "(data: 'DataMatrix', m: 'ExpectedValueVector', model: 'ModelKind') -> 'float'"
    ),
    "log_likelihood_gradient": (
        "(data: 'DataMatrix', m: 'ExpectedValueVector', "
        "model: 'ModelKind') -> 'np.ndarray'"
    ),
    "m_from_weights": "(w: 'WeightVector') -> 'ExpectedValueVector'",
    "mm_step": "(data: 'DataMatrix', pi: 'np.ndarray') -> 'np.ndarray'",
    "pcm_consistency": "(pcm: 'IPCM', tol: 'float' = 1e-09) -> 'ConsistencyReport'",
    "pcm_from_data": "(data: 'DataMatrix') -> 'IPCM'",
    "perturb_data": (
        "(data: 'DataMatrix', level: 'float', rng: 'np.random.Generator', "
        "epsilon: 'float' = 1e-06) -> 'DataMatrix'"
    ),
    "properties": "(graph: 'ComparisonGraph') -> 'GraphProperties'",
    "run": (
        "(config: 'SimulationConfig', progress: 'Callable[[int, int], "
        "None] | None' = None) -> 'SimulationSummary'"
    ),
    "similarity": (
        "(m_full: 'ExpectedValueVector', w_full: 'WeightVector', "
        "m_part: 'ExpectedValueVector', w_part: 'WeightVector') -> 'MeasureSet'"
    ),
    "single_edge_extensions": "(a: 'GraphClass', b: 'GraphClass') -> 'bool'",
    "star_class": "(n: 'int') -> 'GraphClass'",
    "weights_from_m": "(m: 'ExpectedValueVector') -> 'WeightVector'",
}


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return f"<{obj.__base__.__name__}>"


def test_exported_names():
    assert paircomp.__all__ == PUBLIC_NAMES


def test_exported_signatures():
    # The enum's constructor comes from the standard library and differs
    # between Python versions; its members are what the package defines.
    callables = {
        name: _signature(obj)
        for name in paircomp.__all__
        if callable(obj := getattr(paircomp, name)) and not isinstance(obj, enum.EnumMeta)
    }
    assert callables == PUBLIC_SIGNATURES
    assert [kind.value for kind in paircomp.ModelKind] == ["logistic", "normal"]


def test_results_writer_signature():
    assert str(inspect.signature(fileio.write_results)) == (
        "(summary: 'SimulationSummary', out: 'TextIO') -> 'None'"
    )
