"""Program representation: statements, validation, text form, token form."""
from .ast import (
    Axis,
    DEFAULT_LIMITS,
    DrawStmt,
    ForStmt,
    GEOMETRY_ARITY,
    Limits,
    LoopMode,
    Program,
    Semantics,
    ShapeKind,
    Statement,
    ValidationReport,
    Violation,
    validate_program,
)
from .text import parse_text, print_text
from .tokens import (
    END_FOR_ID,
    FOR_ROTATION_ID,
    FOR_TRANSLATION_ID,
    N_ARG_SLOTS,
    TokenProgram,
    TokenStep,
    VACANT_ID,
    VOCAB_SIZE,
    detokenize,
    draw_token_id,
    format_token_lines,
    parse_token_lines,
    token_program_from_json,
    token_program_to_json,
    tokenize,
    vocabulary,
)

__all__ = [
    "Axis", "DEFAULT_LIMITS", "DrawStmt", "ForStmt", "GEOMETRY_ARITY",
    "Limits", "LoopMode", "Program", "Semantics", "ShapeKind", "Statement",
    "ValidationReport", "Violation", "validate_program",
    "parse_text", "print_text",
    "END_FOR_ID", "FOR_ROTATION_ID", "FOR_TRANSLATION_ID", "N_ARG_SLOTS",
    "TokenProgram", "TokenStep", "VACANT_ID", "VOCAB_SIZE",
    "detokenize", "draw_token_id", "format_token_lines", "parse_token_lines",
    "token_program_from_json", "token_program_to_json", "tokenize", "vocabulary",
]
