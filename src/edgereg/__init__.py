"""Edge ideals of vertex-weighted oriented graphs.

Exact graded Betti numbers and Castelnuovo-Mumford regularity of monomial
ideals and their powers, closed-form regularity predictions for weighted
oriented cycles, rooted forests and unicyclic graphs, and a verification
harness that plays the two against each other.
"""

__version__ = "0.1.0"
