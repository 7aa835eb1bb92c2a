"""Exact linear-region and knot analysis of continuous piecewise-linear
networks: enumeration, closed-form bounds, extremal constructions, polygonal
path restrictions, Monte Carlo density experiments, and brute-force oracles.
"""
from .core import (Affine, AffineMap, GroupSort, Layer, Maxout, NetworkSpec,
                   Pointwise, PWLU2D, ScalarCPWL, ValidationError, abs_unit,
                   batch_pieces, compose, compose_scalar, eval_jacobian,
                   eval_scalar, identity_unit, layer_piece, layer_value,
                   leaky_relu_unit, relu_unit, sum_scalar, zero_unit)
from .bounds import (AlphaReport, ArchitectureDescriptor, BoundReport,
                     ChannelAssignment, EnvelopeReport, alpha_lower_constructive,
                     alpha_lower_paper, alpha_report, architecture_bound, beta,
                     beta_simplified, beta_uniform, compositional_upper,
                     compositional_upper_factors, corollary_envelope,
                     layer_factors, projection_to_convex_cap)
from .constructions import (SawtoothPlan, extremal_sum_network,
                            general_position_partitions, sawtooth,
                            sawtooth_decompose, sawtooth_network,
                            sawtooth_network_plan)
from .geometry import (BudgetExceeded, CountReport, HalfSpace,
                       Region, RegionSet, Witness, count_report,
                       count_report_to_csv, enumerate_regions, exact_cell_count,
                       interior_witness_report,
                       network_arrangement_upper, piece_fingerprint,
                       region_set_to_json, regions_containing, render_svg)
from .paths import (InequalityReport, KnotReport, PATH_VERTEX, PolygonalPath,
                    check_composition_bound, check_subadditivity, count_knots,
                    image_length, image_path)
from .oracle import (GridFingerprint, grid_fingerprint, grid_knot_count,
                     grid_region_count)
from .stochastic import (CompositionalBound, InitSpec, McEstimate,
                         compositional_density_bound, default_probe,
                         estimate_directional_expansion, estimate_unit_density,
                         mc_image_length, mc_knot_density,
                         mc_knot_density_by_depth, mc_table_csv, mc_table_row,
                         relu_crossing_density_oracle, sample_network,
                         sampled_architecture, unit_density_bound)
from .serial import (load_network, load_path, network_from_json,
                     network_to_json, path_from_json, path_to_json,
                     save_network, save_path)

__version__ = "1.0.0"
