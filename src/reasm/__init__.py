"""Exact optimization toolkit for linear graph reassembling.

A reassembling of a graph is a binary tree of vertex clusters built from
singletons up to the whole vertex set; its alpha measure is the largest
edge-boundary degree over all clusters and its beta measure is their sum.
This package evaluates both measures, converts between linear reassemblings
and linear arrangements, solves small instances exactly (a subset DP for
beta, a cut-bounded search for alpha, and brute-force references), and runs
the auxiliary-graph reductions between the two linear beta problems and the
degree-3 alpha pipeline.

Each public name lives in the module that defines it, e.g.
`reasm.solvers.exact_arrangement`; importing the package loads none of
them.  `reasm.__main__.main` is the one process entry point.
"""

__version__ = "0.1.0"
