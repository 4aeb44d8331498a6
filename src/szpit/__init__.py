"""szpit: algebraic circuits over the integers, root compression, identity
testing, hitting sets, and range avoidance.

The pieces fit together as one constructive chain: roots of a circuit on a
finite cube compress into short codes relative to any known non-root, the
code counting bounds the number of roots, the bound makes random points
good identity-test witnesses and random point sequences good hitting sets,
and the same counting run backwards turns verified hitting sets into
range-avoidance solutions.
"""

from .circuit import (
    Circuit,
    DegreeReport,
    Gate,
    analyze_degrees,
    circuit,
    parse_circuit,
    plug_params,
    serialize_circuit,
    validate,
)
from .codec import (
    RootCode,
    SZContext,
    count_roots_brute,
    decode_code,
    encode_root,
    pack_code,
    unpack_code,
)
from .errors import SzpitError
from .evaluator import eval_arithmetic
from .hitting import (
    DefinableClass,
    HittingSet,
    HSVerdict,
    find_small_witness,
    largeness_holds,
    nonrange_is_hitting,
    search_hitting_set,
    verify_hitting_set,
)
from .pit import PitVerdict, equiv_test, pit_cube_brute, pit_random, pit_with_hitting_set
from .unipoly import UniPoly, deflate, enumerate_roots, eval_unipoly, extract_unipoly
from .avoid import (
    AvoidInstance,
    AvoidResult,
    ExhaustiveOracle,
    amplify,
    avoid_via_hitting,
    build_avoid_class,
    desk_schedule,
    invert_amplified,
    normalize,
    solve_avoid_brute,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
