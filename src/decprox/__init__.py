"""Decentralized proximal gradient methods in a unified primal-dual form.

Modules
-------
netgraph : graphs, combination matrices, consensus triples, assumptions
costs    : per-agent smooth costs (quadratic, logistic) and data handling
prox     : proximal operators, incl. the pairwise-difference counterexample
engine   : the algorithm registry and its synchronous iterations
analysis : rate theory, fixed-point residuals, decay classification
cli      : JSON-config experiment runner (`decprox` console script)
"""

__version__ = "0.1.0"
