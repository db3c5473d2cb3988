"""anticyclo: exact p-adic and group-theoretic machinery for the
invariants of anti-cyclotomic-like towers.

The library works at an explicit precision N throughout (values live in
Z/p^N), so every equality is decidable and every verification run is
reproducible.  See the README for the command-line interface.
"""

__version__ = "0.1.0"

from .cohomology import (
    FinitePModule,
    ObstructionResult,
    fixed_points,
    herbrand_check,
    minus_part,
    norm_image,
    tate_h0,
    tate_hm1,
    theorem2_cyclic_obstruction,
)
from .errors import (
    ModelInvariantError,
    NotInvertibleError,
    PrecisionError,
    SearchSpaceError,
    UndeterminedError,
)
from .iwasawa import (
    ElementaryLambdaModule,
    GammaModel,
    IwasawaInvariants,
    build_gamma_model,
    coinvariants,
    fit_invariants,
    invariants_of,
    layer_exponents,
    parity_audit,
    t_multiplicity,
)
from .linalg import (
    IntertwinerResult,
    PadicMatrix,
    charpoly,
    intertwiner_solve,
    mat_pow_zeta,
    orbit_block_construct,
    random_unipotent_matrix,
    rank_divisibility_check,
    zeta_order,
)
from .metacyclic import GeneratorImages, HomCheck, MetacyclicGroup
from .padic import PadicExponent, PadicInt, pow_one_unit, teichmuller
from .records import ClassGroupRecord, RecordParseError, check_records, parse_record

__all__ = [
    "PadicInt", "PadicExponent", "teichmuller", "pow_one_unit",
    "MetacyclicGroup", "GeneratorImages", "HomCheck",
    "PadicMatrix", "charpoly", "mat_pow_zeta", "intertwiner_solve",
    "IntertwinerResult", "orbit_block_construct", "rank_divisibility_check",
    "random_unipotent_matrix", "zeta_order",
    "ElementaryLambdaModule", "IwasawaInvariants", "GammaModel",
    "layer_exponents", "invariants_of", "fit_invariants",
    "coinvariants",
    "t_multiplicity", "parity_audit", "build_gamma_model",
    "FinitePModule", "fixed_points", "norm_image", "tate_h0", "tate_hm1",
    "minus_part", "herbrand_check", "theorem2_cyclic_obstruction", "ObstructionResult",
    "ClassGroupRecord", "RecordParseError", "check_records", "parse_record",
    "PrecisionError", "NotInvertibleError", "SearchSpaceError",
    "ModelInvariantError", "UndeterminedError",
]
