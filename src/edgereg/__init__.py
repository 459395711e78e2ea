"""Edge ideals of vertex-weighted oriented graphs.

Exact graded Betti numbers and Castelnuovo-Mumford regularity of monomial
ideals and their powers, closed-form regularity predictions for weighted
oriented cycles, rooted forests and unicyclic graphs, and a verification
harness that plays the two against each other.
"""

from .betti import (
    BettiTable,
    LcmLattice,
    betti_table,
    lcm_lattice,
    regularity,
    regularity_witness,
)
from .constructions import (
    ColonStructure,
    OrderedPowerBasis,
    betti_split_power,
    build_colon_structure,
    cycle_edge_generators,
    edge_divides,
    edge_ideal,
    ordered_power_basis,
)
from .digraph import (
    Family,
    FamilyTag,
    WeightedDigraph,
    classify,
    load_graph,
    make_cycle,
    save_graph,
)
from .formulas import (
    FormulaResult,
    closed_form_value,
    formula_cycle,
    formula_for_family,
    formula_forest,
    formula_unicyclic,
)
from .ideals import (
    MonomialIdeal,
    Polarization,
    VariableMap,
    colon_by_monomial,
    ideal_sum,
    intersect,
    parse_ideal,
    polarize,
    power,
    product,
)
from .ring import Monomial, VariableSet, gcd, lcm, parse_monomial
from .verify import (
    CampaignSpec,
    CampaignReport,
    run_campaign,
    run_reference_examples,
    run_structure_checks,
)

__version__ = "0.1.0"
