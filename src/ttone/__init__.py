"""Multi-tone graph coloring: vertices get t-sets of colors, and labels of
vertices at distance d may share fewer than d colors.

Modules: graphs (representation, generators, density, configurations),
coloring (verifier and greedy extension), bounds (lower-bound certificates),
exact (backtracking solver), blocks and constructions (optimal colorers),
instances (random test graphs), cli (command-line front end).
"""

from .blocks import BLOCK_TABLES, cycle_value
from .bounds import (Certificate, best_lower_bound, c4_lower, c9_t5_counting,
                     certificates, cycle_counting_t3, h_t_bounds, path_tau,
                     star_lower)
from .coloring import (Coloring, ColoringError, StructuralError, Violation,
                       available_labels, greedy_color, greedy_extend, verify,
                       verify_partial)
from .constructions import (ClassPreconditionError, color_cycle,
                            color_fat_triangle, color_grid, color_outerplanar,
                            color_path, color_planar, color_sparse, decompose)
from .exact import (DecideResult, SearchBudget, TauResult, exact_decide, tau)
from .graphs import (Density, Graph, GraphError, gen_cycle, gen_fat_triangle,
                     gen_grid, gen_path, gen_star, mad, read_edge_list,
                     write_edge_list)

__all__ = [
    "BLOCK_TABLES", "Certificate", "ClassPreconditionError", "Coloring",
    "ColoringError", "DecideResult", "Density", "Graph", "GraphError",
    "SearchBudget", "StructuralError", "TauResult", "Violation",
    "available_labels", "best_lower_bound", "c4_lower", "c9_t5_counting",
    "certificates", "color_cycle", "color_fat_triangle", "color_grid",
    "color_outerplanar", "color_path", "color_planar", "color_sparse",
    "cycle_counting_t3", "cycle_value", "decompose",
    "exact_decide", "gen_cycle", "gen_fat_triangle", "gen_grid", "gen_path",
    "gen_star", "greedy_color", "greedy_extend", "h_t_bounds", "mad",
    "path_tau", "read_edge_list", "star_lower", "tau", "verify",
    "verify_partial", "write_edge_list",
]
