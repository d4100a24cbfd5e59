"""(p,1)-total labellings of graphs.

A (p,1)-total labelling colors vertices and edges with integers so that
adjacent vertices differ, adjacent edges differ, and every vertex differs
from each incident edge by at least p. The package provides the graph and
labelling model, complete backtracking solvers for spans and list
assignments, choosability certificates, constructive labellers with
guaranteed list sizes for paths, trees, stars, and outerplanar graphs, and
a deterministic experiment harness behind the `plabel` CLI.
"""

from .constructive import (
    C1,
    C2,
    C3,
    Configuration,
    Leaf,
    OuterplanarAudit,
    TheoremViolation,
    find_configuration,
    label_outerplanar_list,
    label_path_greedy,
    label_star_list,
    label_star_span,
    label_tree_dfs,
)
from .graphs import (
    Graph,
    GraphParseError,
    IncidenceMap,
    emit_graph,
    incidence_graph,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
    parse_graph,
)
from .labelling import (
    Edge,
    Element,
    Vertex,
    elements_of,
    full_lists,
    is_valid,
    lp1_is_valid,
    p_ball,
    pull_back_labelling,
    respects_lists,
    transport_labelling,
)
from .solvers import (
    Certificate,
    InstanceTooLarge,
    SolveResult,
    certify_choosable,
    find_bad_assignment,
    lp1_min_span,
    min_colors,
    min_span,
    recheck_certificate,
    solve_list,
    solve_span,
)

__version__ = "0.1.0"
