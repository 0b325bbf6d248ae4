"""Equivalence toolkit for three small process calculi: sum-free CCS with a
normal-form decision procedure for strong bisimilarity, CCS with guarded
sums and distributed bisimilarity, and a finite pi fragment with ground,
late, and early bisimilarity plus an erasure back into CCS."""

from .distributed import dsim
from .erasure import ErasureContext, check_erasure_transitions, erase
from .lts import (
    TAU,
    Tau,
    bisimilar_oracle,
    d_transitions,
    distinguishing_depth,
    transitions,
)
from .mirrored import (
    DiagramMdWitness,
    MdWitness,
    search_md_diagram,
    search_md_parallel_shape,
)
from .pi import (
    PI_NIL,
    BoundName,
    FreeName,
    PiInput,
    PiNil,
    PiNu,
    PiOutput,
    PiPar,
    PiTerm,
    classify_transitions,
    early_bisim,
    free_names,
    ground_bisim,
    late_bisim,
    late_transitions,
    pi_size,
    pi_substitute,
)
from .rewrite import (
    decide_bisim,
    normalize,
    normalize_steps,
    prime_decompose,
    rewrite_candidates,
)
from .syntax import (
    ParseError,
    SourceSpan,
    parse_ccs,
    parse_ccs_plus,
    parse_pi,
    print_ccs,
    print_pi,
    print_term,
)
from .terms import (
    NIL,
    Act,
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    contribution,
    instantiate,
    size,
    substitute,
    weight,
)

__version__ = "0.1.0"
