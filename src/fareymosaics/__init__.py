"""Exact mosaics and limit densities of Farey fractions with denominators
in arithmetic progression."""

from .continuants import (DenominatorChain, IndexTuple, ValueChain,
                          continuant, continuant_shifted, eval_linear,
                          index_sequence_int, index_sequence_real)
from .density import (DensityLayerWeight, DensityQuery, EmpiricalHistogram,
                      compare, empirical_histogram, g1_eval, gs_first_term,
                      layer_prefactor, layer_weight, support_membership)
from .errors import (AmbiguityError, BudgetError, DomainError,
                     FareyMosaicsError, GeometryError, OrphanWarning,
                     OverlapError, PartnerMissing, RangeError, ShapeError,
                     SizeError)
from .farey import (FareyFraction, ProgressionClass, TupleType, choice_map,
                    consecutive_tuples, farey_filtered, farey_stream,
                    member_pairs)
from .geometry import (ConvexPolygon, HalfPlane, Incidence, Location,
                       Outline, Rational, RatPoint, affine_image, area, clip,
                       locate, parse_rational, rational_str, union_outline)
from .mosaics import (AdjacencyTree, Mosaic, TableRow, adjacency_tree,
                      assemble, assemble_with_orphans, mosaic_name,
                      symmetry_partner, table, vertices)
from .progression import (AdmissibleResidues, CardinalityPrediction,
                          admissible_residues, euler_phi, exact_cardinality,
                          lattice_count_exact, lattice_main_term,
                          predicted_cardinality, residue_trace,
                          squarefree_factor)
from .render import RenderSpec, emit_table, render_mosaic, render_tree
from .tiles import (FAREY_TRIANGLE, Region, StripPolygon, Tile, core_point,
                    enumerate_tiles, region, strip_polygon, tile)

__version__ = "0.1.0"
