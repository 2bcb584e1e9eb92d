"""Shape programs for 32x32x32 voxel furniture: a small DSL with a
deterministic executor, token and text codecs, synthetic dataset
templates, reconstruction metrics, stability analysis, and a greedy
program-fitting search.
"""
from .analysis import (Connectivity, StabilityReport, analyze_dataset, center_of_mass,
                       connected_components, convex_hull_2d, format_analysis_json,
                       format_analysis_table, ground_contacts, is_stable, point_in_hull,
                       stability_report)
from .binvox import export_obj, read_binvox, write_binvox
from .dsl import (Axis, DrawStmt, ForStmt, GEOMETRY_ARITY, Limits, LoopMode,
                  Program, Semantics, ShapeKind, Statement, TokenProgram, TokenStep,
                  ValidationReport, Violation, DEFAULT_LIMITS, N_ARG_SLOTS, VOCAB_SIZE,
                  detokenize, draw_token_id, format_token_lines, parse_text,
                  parse_token_lines, print_text, token_program_from_json,
                  token_program_to_json, tokenize, validate_program, vocabulary)
from .errors import (AlignmentError, BinvoxError, BudgetError, CardinalityError,
                     DistributionError, DslSemanticError, DslSyntaxError,
                     EmptyShapeError, InputError, InvalidProgramError, ResourceError,
                     ShapeMismatchError, TemplateInfeasibleError, TokenError,
                     VoxScriptError)
from .executor import DEFAULT_DIMS, empty_grid, execute_block, execute_program, unroll_for
from .inference import (FitResult, SearchConfig, fit_program,
                        propose_candidates, refine_block, score_block)
from .metrics import (BCE_EPS, LossWeights, chamfer, emd, generator_loss, iou,
                      surface_mask, surface_points, weighted_bce)
from .templates import (Category, Template, builtin_templates, generate_dataset, sample)

__version__ = "0.1.0"
