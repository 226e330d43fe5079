"""Rewriting systems on cyclic words, finite pregroups and their universal
groups, and fast conjugacy decision procedures."""

from .words import (
    Alphabet,
    AlphabetError,
    CyclicWord,
    Word,
    involute,
    least_rotation,
    least_rotation_offset,
    rotations,
    shortlex_compare,
    shortlex_key,
    shortlex_less,
)
from .rewrite import (
    Anchor,
    BudgetExhausted,
    ConfluenceReport,
    JoinResult,
    RewriteSystem,
    Rule,
    check_strong_confluence,
    check_weak_termination_sufficient,
    cyclic_joinable,
    cyclic_successors,
    reduce_greedy,
    word_successors,
)
from .completion import (
    CyclicRuleSet,
    InverseAssignment,
    PreconditionViolated,
    cdagger,
    circle_extension,
    enumerate_short_cyclic_words,
    hat_extension,
    resolve_short_pairs,
    thue_completion,
)
from .pregroup import (
    AxiomReport,
    Pregroup,
    PregroupError,
    canonical_subgroup,
    check_axioms,
    check_p6,
    check_p7,
    check_p8,
    derive_system,
    gamma_alphabet,
    is_reduced,
    key_lemma_check,
)
from .universal import (
    CertificateError,
    ConjugacyAnswer,
    UniversalContext,
    conjugate_quadratic,
    cyclic_reduce,
    equal_in_U,
    letter_conjugacy_closure,
    preconjugate,
    reduce_word,
    shortlex_nf,
)
from .constructions import (
    ClassificationVerdict,
    Embedding,
    FiniteGroupTable,
    InHSubgroup,
    InvalidEmbedding,
    NotAmalgamContext,
    NotHnnContext,
    amalgam_pregroup,
    hnn_pregroup,
    standard_cyclic_form,
    verify_collins,
    verify_mks,
)
from .fastconj import conjugate_linear, conjugate_oracle, kmp_search
from .formats import ParseError, emit_grp, emit_pg, emit_rws, parse_grp, parse_pg, parse_rws

__version__ = "0.1.0"
