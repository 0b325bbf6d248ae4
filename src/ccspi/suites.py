"""Named property suites: each one checks a law of the calculi over an
exhaustive enumeration or a seeded random sample and reports the evidence.

The registry at the bottom maps stable suite names to functions so the CLI
and the acceptance tests share a single evidence path.  A suite takes only
the bounds some caller sets (the flags of `ccspi enumerate` and the keys
the benchmark passes); everything else it fixes.  Default bounds are the
desk-scale ones the acceptance run uses.  `run_suite` owns the pi games'
and renamings' memos: they live until the suite it runs ends.
"""

from __future__ import annotations

import inspect
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .distributed import dsim_blocks
from .erasure import ErasureContext, check_erasure_transitions, erase
from .generate import (
    all_substitutions,
    ccs_plus_terms_upto,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_ccs_open,
    random_pi,
)
from .lts import bisimilar_oracle, explore, refine_partition, transitions
from .mirrored import diagram_md_at, search_md_diagram, search_md_parallel_shape
from .pi import (
    PiTerm,
    classify_transitions,
    clear_bisim_memo,
    early_bisim,
    free_names,
    ground_bisim,
    late_bisim,
    pi_blocks,
    pi_substitute,
)
from .rewrite import decide_bisim, normalize, prime_decompose, rewrite_candidates
from .syntax import parse_ccs_plus, print_ccs, print_pi
from .terms import (
    NIL,
    Act,
    Par,
    Prefix,
    Term,
    contribution,
    fresh_names,
    instantiate,
    names,
    parallel_components,
    size,
    substitute,
    variables,
    weight,
)

# the names of every CCS and CCS+ universe, and the observed names of erasure
NAMES = ("a", "b")
# the free names of the random pi terms
RANDOM_FREES = ("a", "b", "c")


@dataclass
class SuiteReport:
    name: str
    checked: int
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} {self.name}: checked={self.checked} elapsed={self.elapsed:.1f}s"
        if self.notes:
            line += f" ({self.notes})"
        return line


def _classes(items: list, key: Callable) -> list[list]:
    """The items grouped by key: the groups in order of their first member,
    each group in item order."""
    groups: dict = {}
    for t in items:
        groups.setdefault(key(t), []).append(t)
    return list(groups.values())


# --------------------------------------------------------------------------
# 1. normal-form decision versus the partition-refinement oracle


def nf_oracle_agreement(size_bound: int = 4, sample: int = 500, seed: int = 0) -> SuiteReport:
    """Over every canonical sum-free term within the size bound, the normal
    form procedure and the oracle agree on every pair.

    The universe is closed under transitions, so one global refinement gives
    the oracle verdict for all pairs at once: agreement holds iff terms share
    a block exactly when they share a normal form.  A seeded sample of pairs
    additionally runs both deciders directly.
    """
    universe = ccs_terms_upto(size_bound, prefix_alphabet(NAMES))
    blocks = refine_partition(universe, transitions)
    by_nf = _classes(universe, normalize)
    by_block = _classes(universe, blocks.__getitem__)
    failures: list[str] = []
    for classes, other, what in (
        (by_nf, blocks.__getitem__, "normal forms equal, oracle differs"),
        (by_block, normalize, "oracle equal, normal forms differ"),
    ):
        for first, *rest in classes:
            failures += [
                f"{what}: {print_ccs(first)} vs {print_ccs(t)}"
                for t in rest
                if other(t) != other(first)
            ]
    rng = random.Random(seed)
    for _ in range(sample):
        p, q = rng.choice(universe), rng.choice(universe)
        want = blocks[p] == blocks[q]
        if decide_bisim(p, q) != want or bisimilar_oracle(p, q) != want:
            failures.append(f"direct decider mismatch: {print_ccs(p)} vs {print_ccs(q)}")
    n = len(universe)
    return SuiteReport(
        "nf-oracle-agreement",
        checked=n * (n - 1) // 2 + sample,
        failures=failures,
        notes=f"{n} terms, {len(by_block)} classes = {len(by_nf)} normal forms",
    )


# --------------------------------------------------------------------------
# 2. the prefix-absorption ladder a.(a.0^n) ~ a.0^(n+1)


def replication_ladder(n_max: int = 10) -> SuiteReport:
    failures: list[str] = []
    a0 = Act(Prefix("a"), NIL)
    for n in range(1, n_max + 1):
        ladder = Act(Prefix("a"), Par([a0] * n))
        target = Par([a0] * (n + 1))
        if not decide_bisim(ladder, target):
            failures.append(f"n={n}: ladder not bisimilar to the {n + 1}-fold product")
        comps = prime_decompose(ladder)
        if len(comps) != n + 1 or any(c != a0 for c in comps):
            failures.append(f"n={n}: decomposition {[print_ccs(c) for c in comps]}")
    return SuiteReport(
        "replication-ladder",
        checked=n_max,
        failures=failures,
    )


# --------------------------------------------------------------------------
# 3. confluence and termination of the distribution-law rewrite


def confluence_termination(size_bound: int = 4) -> SuiteReport:
    """Explore the full reduction graph of every term in the universe: all
    maximal rewrite sequences end in one normal form, and every single step
    strictly decreases the nesting weight (so no sequence outlives it)."""
    universe = ccs_terms_upto(size_bound, prefix_alphabet(NAMES))
    failures: list[str] = []
    edges = 0
    for t in universe:
        table = explore([t], lambda u: [(None, v) for v in rewrite_candidates(u)])
        irreducible = [u for u, moves in table.items() if not moves]
        for u, moves in table.items():
            edges += len(moves)
            failures += [
                f"weight not decreasing: {print_ccs(u)} -> {print_ccs(v)}"
                for _, v in moves
                if weight(v) >= weight(u)
            ]
        if len(irreducible) != 1:
            failures.append(f"{print_ccs(t)}: {len(irreducible)} distinct normal forms")
        elif irreducible[0] != normalize(t):
            failures.append(f"{print_ccs(t)}: strategy disagrees with reduction graph")
    return SuiteReport(
        "confluence-termination",
        checked=len(universe),
        failures=failures,
        notes=f"{edges} rewrite steps explored",
    )


# --------------------------------------------------------------------------
# 4. cancellation of parallel contexts


def cancellation(size_bound: int = 5) -> SuiteReport:
    """p|r ~ q|r implies p ~ q, exhaustively over all triples with both
    composites within the size bound.

    One refinement over the full universe gives every oracle verdict.  For
    each r, mapping the block of x to the block of x|r over all x must be
    well defined (parallel composition is a congruence) and injective (no
    cancellation violation); a violating triple would be recorded with the
    stored block representatives.
    """
    universe = ccs_terms_upto(size_bound, prefix_alphabet(NAMES))
    blocks = refine_partition(universe, transitions)
    # the universe lists terms by ascending size, so group n has size n
    by_size = _classes(universe, size)
    failures: list[str] = []
    checked = 0
    for r in universe:
        budget = size_bound - size(r)
        img_of_block: dict[int, int] = {}
        rep_of_block: dict[int, Term] = {}
        for group in by_size[: budget + 1]:
            for x in group:
                checked += 1
                img = blocks[Par((x, r))]
                b = blocks[x]
                rep_of_block.setdefault(b, x)
                if img_of_block.setdefault(b, img) != img:
                    failures.append(
                        f"congruence anomaly at r={print_ccs(r)}: "
                        f"{print_ccs(rep_of_block[b])} vs {print_ccs(x)}"
                    )
        rev: dict[int, int] = {}
        for b, img in img_of_block.items():
            if img in rev:
                failures.append(
                    f"cancellation violated at r={print_ccs(r)}: "
                    f"{print_ccs(rep_of_block[rev[img]])} vs {print_ccs(rep_of_block[b])}"
                )
            rev[img] = b
    return SuiteReport(
        "cancellation",
        checked=checked,
        failures=failures,
        notes=f"{len(universe)} terms as r",
    )


# --------------------------------------------------------------------------
# 5. bisimilar terms contribute equally at every prefix


def contribution_invariance(size_bound: int = 4) -> SuiteReport:
    alphabet = prefix_alphabet(NAMES)
    universe = ccs_terms_upto(size_bound, alphabet)
    blocks = refine_partition(universe, transitions)
    groups = _classes(universe, blocks.__getitem__)
    failures: list[str] = []
    pairs = 0
    for members in groups:
        pairs += len(members) * (len(members) - 1) // 2
        profiles = {tuple(contribution(t, eta) for eta in alphabet) for t in members}
        if len(profiles) > 1:
            failures.append(
                "contribution differs inside a bisimilarity class: "
                + ", ".join(print_ccs(t) for t in members[:4])
            )
    return SuiteReport(
        "contribution-invariance",
        checked=pairs,
        failures=failures,
        notes=f"{len(groups)} classes",
    )


# --------------------------------------------------------------------------
# 6. no mirrored dependency in the sum-free calculus


def no_md_sumfree(component_size: int = 3, diagram_size: int = 4) -> SuiteReport:
    failures: list[str] = []
    w = search_md_parallel_shape(component_size, NAMES)
    if w is not None:
        failures.append(f"parallel-shape witness: {w}")
    d = search_md_diagram("ccs", diagram_size, NAMES)
    if d is not None:
        failures.append(f"diagram witness: {print_ccs(d.q)}")
    n_par = len(ccs_terms_upto(component_size, prefix_alphabet(NAMES)))
    n_diag = len(ccs_terms_upto(diagram_size, prefix_alphabet(NAMES)))
    return SuiteReport(
        "no-md-sumfree",
        checked=n_par + n_diag,
        failures=failures,
        notes=f"{n_par} component terms (all move pairs), {n_diag} diagram terms",
    )


# --------------------------------------------------------------------------
# 7. sums break substitution closure and introduce mirrored dependencies


def md_with_sums() -> SuiteReport:
    failures: list[str] = []
    left = parse_ccs_plus("a.0 | 'b.0")
    right = parse_ccs_plus("a.'b.0 + 'b.a.0")
    if not bisimilar_oracle(left, right):
        failures.append("expansion pair not strongly bisimilar")
    collapse = {"a": "p", "b": "p"}
    if bisimilar_oracle(substitute(left, collapse), substitute(right, collapse)):
        failures.append("expansion pair still bisimilar after identifying the names")
    # `right` is a witness of size 4, so the search need go no further
    w = search_md_diagram("ccs+", 4, NAMES)
    if w is None:
        failures.append("no diagram witness found with sums")
    else:
        if size(w.q) > 4:
            failures.append(f"witness larger than the known one: {print_ccs(w.q)}")
        if w.eta1 == w.eta2:
            failures.append("witness prefixes not distinct")
        if not bisimilar_oracle(w.end_first, w.end_second):
            failures.append("witness end states not bisimilar")
        if not _two_step(w.q, w.eta1, w.eta2, w.end_first) or not _two_step(
            w.q, w.eta2, w.eta1, w.end_second
        ):
            failures.append("witness end states not two-step reachable")
    if diagram_md_at("ccs+", right) is None:
        failures.append("the known sum witness does not validate")
    return SuiteReport(
        "md-with-sums",
        checked=4,
        failures=failures,
        notes="" if w is None else f"witness q = {print_ccs(w.q)}",
    )


def _two_step(q: Term, a1: Prefix, a2: Prefix, end: Term) -> bool:
    for b1, mid in transitions(q):
        if b1 == a1:
            for b2, e in transitions(mid):
                if b2 == a2 and e == end:
                    return True
    return False


# --------------------------------------------------------------------------
# 8. distributed bisimilarity decides canonical-form equality


def dsim_canonical(size_bound: int = 3) -> SuiteReport:
    """dsim holds between universe terms exactly when they are the same
    canonical form, and the dsim classes stay related under every
    substitution over the names.  Substitution images of universe terms are
    universe terms, so closure asks that each class's images share a block
    of the one refinement; each image counts as one check."""
    universe = ccs_plus_terms_upto(size_bound, prefix_alphabet(NAMES))
    blocks = dsim_blocks(universe)
    groups = _classes(universe, blocks.__getitem__)
    failures: list[str] = []
    for members in groups:
        if len(members) > 1:
            failures.append(
                "distinct canonical forms dsim-related: "
                + " vs ".join(print_ccs(t) for t in members[:2])
            )
    sigmas = all_substitutions(NAMES, NAMES)
    checked = len(universe) * (len(universe) - 1) // 2
    for members in groups:
        for sg in sigmas:
            images = {blocks.get(substitute(t, sg)) for t in members}
            checked += len(members)
            if len(images) > 1 or None in images:
                failures.append(
                    f"substitution broke a dsim class: {print_ccs(members[0])} under {sg}"
                )
    return SuiteReport(
        "dsim-canonical",
        checked=checked,
        failures=failures,
        notes=f"{len(universe)} terms, {len(groups)} dsim classes",
    )


# --------------------------------------------------------------------------
# 9. dsim-related parallel products decompose componentwise


def dsim_separation(size_bound: int = 3) -> SuiteReport:
    """The parallel products of each dsim class have one multiset of
    component dsim blocks.  Since dsim is an equivalence, two products admit
    a perfect dsim-matching of their components exactly when these
    multisets are equal.  Each product counts as one check."""
    universe = ccs_plus_terms_upto(size_bound, prefix_alphabet(NAMES))
    blocks = dsim_blocks(universe)
    products = [t for t in universe if isinstance(t, Par)]
    failures: list[str] = []
    for members in _classes(products, blocks.__getitem__):
        first, *others = [Counter(blocks[c] for c in parallel_components(t)) for t in members]
        for t, components in zip(members[1:], others):
            if components != first:
                failures.append(
                    f"no component matching for {print_ccs(members[0])} vs {print_ccs(t)}"
                )
                break
    return SuiteReport(
        "dsim-separation",
        checked=len(products),
        failures=failures,
    )


# --------------------------------------------------------------------------
# 10. erasure transition correspondence on random terms


def erasure_random(
    count: int = 1000, max_prefixes: int = 6, max_nus: int = 2, seed: int = 20250825
) -> SuiteReport:
    ctx = ErasureContext(*NAMES)
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(count):
        p = random_pi(rng, max_prefixes, max_nus, RANDOM_FREES)
        if not check_erasure_transitions(p, ctx):
            failures.append(f"correspondence failed: {print_pi(p)}")
    return SuiteReport(
        "erasure-random",
        checked=count,
        failures=failures,
    )


# --------------------------------------------------------------------------
# 11. transfer, substitution closure, and mode coincidence over the pi universe


def pi_congruence(
    max_prefixes: int = 3, max_nus: int = 1, frees: tuple[str, ...] = NAMES, seed: int = 7
) -> SuiteReport:
    """Over the enumerated pi universe: ground-bisimilar pairs transfer to
    bisimilar erasures, stay ground-bisimilar under every substitution over
    the free names, and the ground, late, and early verdicts coincide on all
    pairs.

    One `pi_blocks` refinement per mode gives every class, so the modes
    coincide on all pairs exactly when the three partitions of the universe
    are identical.  Substitution images of universe terms are universe
    terms, so closure asks that each ground class's images share a ground
    block.  It counts the (class, substitution) pairs that move some
    member, and fails when none does: closure would then compare each class
    with itself.  Transfer asks that the erasures of each ground class share
    a normal form.  The games stay the independent route: 300 seeded random
    pairs must get the refinement's verdict in all three modes, and up to
    2000 pairs of neighbours in a ground class must win the ground game.
    """
    universe = pi_terms_upto(max_prefixes, max_nus, frees)
    ctx = ErasureContext(frees[0], frees[1])
    sigmas = all_substitutions(frees, frees)
    failures: list[str] = []
    checked = 0

    # classes listed in universe order, so that two modes list identical
    # partitions identically
    ground = pi_blocks(universe, frees, "ground")
    ground_classes = _classes(universe, lambda t: ground[(t, 0)])
    for mode in ("late", "early"):
        block = pi_blocks(universe, frees, mode)
        mode_classes = _classes(universe, lambda t: block[(t, 0)])
        if mode_classes != ground_classes:
            failures.append(
                f"{mode} and ground partitions disagree: "
                f"{len(mode_classes)} and {len(ground_classes)} classes"
            )

    bis_pairs = 0
    moved = 0
    sample_pairs: list[tuple[PiTerm, PiTerm]] = []
    for cls in ground_classes:
        if len(cls) == 1:
            continue
        bis_pairs += len(cls) * (len(cls) - 1) // 2
        if len(sample_pairs) < 2000:
            sample_pairs.extend(zip(cls, cls[1:]))
        erased = {normalize(erase(t, ctx)) for t in cls}
        checked += len(cls)
        if len(erased) > 1:
            failures.append(
                "erasures not bisimilar inside a ground class: "
                + ", ".join(print_pi(t) for t in cls[:2])
            )
        for sg in sigmas:
            images = [pi_substitute(t, sg) for t in cls]
            moved += any(u is not t for u, t in zip(images, cls))
            blocks = {ground.get((u, 0)) for u in images}
            checked += len(cls)
            if len(blocks) > 1 or None in blocks:
                failures.append(f"substitution {sg} broke a ground class near {print_pi(cls[0])}")
    if not moved:
        failures.append("no substitution moved a member of a ground class")

    rng = random.Random(seed)
    for _ in range(300):
        p, q = rng.choice(universe), rng.choice(universe)
        same = ground[(p, 0)] == ground[(q, 0)]
        checked += 1
        if not (ground_bisim(p, q) == late_bisim(p, q) == early_bisim(p, q) == same):
            failures.append(f"games and refinement disagree: {print_pi(p)} vs {print_pi(q)}")
    for p, q in sample_pairs[:2000]:
        checked += 1
        if not ground_bisim(p, q):
            failures.append(f"ground game refutes a ground class: {print_pi(p)} vs {print_pi(q)}")
    return SuiteReport(
        "pi-congruence",
        checked=checked,
        failures=failures,
        notes=(
            f"{len(universe)} terms, {len(ground_classes)} ground classes, "
            f"{bis_pairs} bisimilar pairs covered, "
            f"{moved} class substitutions moved a member"
        ),
    )


# --------------------------------------------------------------------------
# 12. normalization of open terms commutes with fresh instantiation


def open_normalization(count: int = 500, seed: int = 11) -> SuiteReport:
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(count):
        t = random_ccs_open(rng, 5, ("X", "Y", "Z"))
        vs = sorted(variables(t))
        mapping = {
            v: Act(Prefix(n), NIL) for v, n in zip(vs, fresh_names(names(t), len(vs)))
        }
        lhs = instantiate(normalize(t), mapping)
        rhs = normalize(instantiate(t, mapping))
        if lhs != rhs:
            failures.append(f"instantiation does not commute on {t!r}")
    return SuiteReport(
        "open-normalization",
        checked=count,
        failures=failures,
    )


# --------------------------------------------------------------------------
# 13. transitions of substituted pi terms are fully classified


def pi_subst_cases(
    count: int = 1000, max_prefixes: int = 4, max_nus: int = 1, seed: int = 13
) -> SuiteReport:
    """Random (p, sigma) with sigma identifying two free names of p: every
    transition of p.sigma is assigned one explanation case (visible image,
    tau image, or a communication created by the identification)."""
    if max_prefixes < 1:
        # a term needs a prefix to have a free name, so no term qualifies
        raise ValueError("pi-subst-cases needs max_prefixes >= 1")
    rng = random.Random(seed)
    failures: list[str] = []
    case_counts: dict[str, int] = {}
    n_transitions = 0
    for _ in range(count):
        while True:
            p = random_pi(rng, max_prefixes, max_nus, RANDOM_FREES)
            fn = sorted(free_names(p))
            if len(fn) >= 2:
                break
        kept, dropped = rng.sample(fn, 2)
        sg = {dropped: kept}
        for c in classify_transitions(p, sg):
            n_transitions += 1
            key = c.case or "none"
            case_counts[key] = case_counts.get(key, 0) + 1
            if c.case is None:
                failures.append(f"unexplained transition of {print_pi(p)} under {sg}")
    return SuiteReport(
        "pi-subst-cases",
        checked=n_transitions,
        failures=failures,
        notes="cases " + ", ".join(f"{k}={v}" for k, v in sorted(case_counts.items())),
    )


# --------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "nf-oracle-agreement": nf_oracle_agreement,
    "replication-ladder": replication_ladder,
    "confluence-termination": confluence_termination,
    "cancellation": cancellation,
    "contribution-invariance": contribution_invariance,
    "no-md-sumfree": no_md_sumfree,
    "md-with-sums": md_with_sums,
    "dsim-canonical": dsim_canonical,
    "dsim-separation": dsim_separation,
    "erasure-random": erasure_random,
    "pi-congruence": pi_congruence,
    "open-normalization": open_normalization,
    "pi-subst-cases": pi_subst_cases,
}


def run_suite(name: str, **overrides) -> SuiteReport:
    """Run a registered suite with the overrides it takes, timed, keeping
    its first ten failures.  The pi game and renaming memos are emptied when
    the suite ends, however it ends, so a suite leaves no positions or
    renamings behind for the next one."""
    fn = SUITES.get(name)
    if fn is None:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}")
    params = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in overrides.items() if k in params and v is not None}
    t0 = time.time()
    try:
        report = fn(**kwargs)
    finally:
        clear_bisim_memo()
    report.elapsed = time.time() - t0
    del report.failures[10:]
    return report
