"""degreewalk: quick detection of the largest-degree nodes in undirected
graphs with a jumping random walk, plus the analytics to reason about it."""

from .analytics import (EvtPrediction, StationaryDist, UnreachableTargetError,
                        evt_predict, expected_correct_count,
                        expected_return_time_max, hitting_time_asymptotic,
                        hitting_time_exact, jump_probability,
                        poisson_error_bound, return_time_from_constants,
                        stationary, transition_matrix)
from .detector import (CandidateList, StopDecision, coverage_score,
                       detect_fixed_m, detect_fixed_m_decision,
                       detect_with_rule, error_score, min_hit_error_score,
                       rule1_threshold, stopping_rule_0, stopping_rule_1,
                       stopping_rule_2)
from .generators import (ConfigModelConfig, PAConfig, ParetoTail,
                         generate_config_model, generate_pa, hill_estimate,
                         pair_stubs, sample_degrees)
from .graph import (DegreeRecord, EdgeListParseError, Graph, exact_top_k,
                    ingest_edge_list, load_edge_list)
from .walk import (EveryStep, Sample, Thinned, WalkConfig, WalkStuckError,
                   sample_stream, walk_until_hit)

__all__ = [name for name in dir() if not name.startswith("_")]
