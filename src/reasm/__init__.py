"""Exact optimization toolkit for linear graph reassembling.

A reassembling of a graph is a binary tree of vertex clusters built from
singletons up to the whole vertex set; its alpha measure is the largest
edge-boundary degree over all clusters and its beta measure is their sum.
This package evaluates both measures, converts between linear reassemblings
and linear arrangements, solves small instances exactly (a subset DP for
beta, a cut-bounded search for alpha, and brute-force references), and runs
the auxiliary-graph reductions between the two linear beta problems and the
degree-3 alpha pipeline.
"""

from .errors import LimitError, ReasmError, ValidationError, VerificationError
from .graph import (Graph, complete_graph, cycle_graph, format_graph,
                    generate, parse_graph, path_graph, qcube3_graph,
                    ring_tree_graph, star_graph)
from .layout import (Arrangement, ArrangementReport, evaluate_arrangement,
                     format_arrangement, induce_arrangement,
                     induce_reassembling, parse_arrangement)
from .reduction import (A2R, R2A, AlphaReductionReport, AuxiliaryGraph,
                        ReductionReport, VCSequence, build_auxiliary,
                        normalize_sequence, reduce_alpha, reduce_beta,
                        scatter, unbalance, vc_sequence)
from .sequential import (MergeStep, SeqTrace, block_tree, canonical_ordering,
                         chain_to_ordering, format_ordering, parse_ordering,
                         seq_reassemble)
from .solvers import (SolveResult, brute_force_arrangement, exact_arrangement,
                      exact_binary_reassembling, exact_linear_reassembling)
from .tree import MeasureReport, ReassemblyTree, measures, parse_tree, print_tree

__version__ = "0.1.0"

__all__ = [
    "A2R", "R2A", "AlphaReductionReport", "Arrangement", "ArrangementReport",
    "AuxiliaryGraph", "Graph", "LimitError", "MeasureReport", "MergeStep",
    "ReasmError", "ReassemblyTree", "ReductionReport", "SeqTrace",
    "SolveResult", "VCSequence", "ValidationError", "VerificationError",
    "block_tree", "brute_force_arrangement", "build_auxiliary",
    "canonical_ordering", "chain_to_ordering", "complete_graph",
    "cycle_graph", "evaluate_arrangement", "exact_arrangement", "exact_binary_reassembling",
    "exact_linear_reassembling", "format_arrangement", "format_graph",
    "format_ordering", "generate",
    "induce_arrangement", "induce_reassembling", "measures",
    "normalize_sequence", "parse_arrangement", "parse_graph",
    "parse_ordering", "parse_tree", "path_graph", "print_tree",
    "qcube3_graph", "reduce_alpha", "reduce_beta",
    "ring_tree_graph", "scatter", "seq_reassemble", "star_graph",
    "unbalance", "vc_sequence",
]
