"""A test-side Kanellakis-Smolka refinement, written apart from the one-pass
engine in `ccspi.lts` that it checks: every round re-signs every state over
the previous round's blocks, until a round splits no block.  Also the strong
oracle over terms, which the oracle over markings in `ccspi.lts` must agree
with."""

from ccspi.lts import _signature, explore, refine_partition, transitions
from ccspi.pi import BoundOutAct, FreeOutAct, PiTauAct, late_transitions, open_binder


def ks_rounds(states, sig_fn):
    """The partition after each round, ending with the fixpoint.  Round k
    relates the states that no k-move bisimulation game tells apart."""
    states = list(states)
    block = dict.fromkeys(states, 0)
    n_blocks = 1
    rounds = []
    while True:
        ids = {}
        block = {s: ids.setdefault((block[s], sig_fn(s, block)), len(ids)) for s in states}
        rounds.append(block)
        if len(ids) == n_blocks:
            return rounds
        n_blocks = len(ids)


def ks_partition(states, sig_fn):
    return ks_rounds(states, sig_fn)[-1]


def ks_depth(states, sig_fn, p, q):
    """The first round that separates p and q, or None."""
    for k, block in enumerate(ks_rounds(states, sig_fn), start=1):
        if block[p] != block[q]:
            return k
    return None


def same_partition(a: dict, b: dict, states) -> bool:
    """Whether two block assignments induce one equivalence on states,
    whatever ids they use."""
    pairs = {(a[s], b[s]) for s in states}
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


# the flat product moves ---------------------------------------------------
#
# A move with several successors as one flat tuple (label, s1, ..., sn),
# signed as (label, block(s1), ..., block(sn)): a distributed move
# (action, local, concurrent), and a late pi input with one successor per
# instantiation name.  The engine in `ccspi.lts` reads only (label,
# successor) pairs and builds such a product as a state of its own; these
# tables check that encoding.


def flat_explore(roots, step):
    """The moves table {state: moves} of every state reachable from the
    roots, each move a flat tuple (label, successor, ...)."""
    table = {}
    todo = list(roots)
    while todo:
        s = todo.pop()
        if s not in table:
            table[s] = moves = list(step(s))
            for m in moves:
                todo += m[1:]
    return table


def flat_signature(table):
    def sig(s, block):
        return frozenset((m[0], *[block[t] for t in m[1:]]) for m in table[s])

    return sig


def flat_pi_step(frees, mode):
    """The pi step of `ccspi.pi.pi_step` with each late input one flat move
    (label, instance per name) from the state (t, d), and each early input
    one move ((label, name), instance) per name."""
    frees = sorted(frees)

    def step(state):
        t, d = state
        out = []
        for a, res in late_transitions(t):
            if isinstance(a, (FreeOutAct, PiTauAct)):
                out.append((a, (res, d)))
            elif isinstance(a, BoundOutAct) or mode == "ground":
                out.append((a, (open_binder(res, f"#{d}"), d + 1)))
            else:
                names = frees + [f"#{k}" for k in range(d + 1)]
                insts = [(open_binder(res, n), d + (n == names[-1])) for n in names]
                if mode == "late":
                    out.append((a, *insts))
                else:
                    out.extend(((a, n), st) for n, st in zip(names, insts))
        return out

    return step


# the term-level strong oracle ----------------------------------------------
#
# `ccspi.lts.bisimilar_oracle` and `distinguishing_depth` refine the markings
# of a net; these are the same two procedures over the terms themselves,
# stepped by `transitions`, as the library ran them before it had the net.


def bisimilar_oracle(p, q):
    block = refine_partition([p, q], transitions)
    return block[p] == block[q]


def distinguishing_depth(p, q):
    table = explore([p, q], transitions)
    final = refine_partition([p, q], table.__getitem__)
    if final[p] == final[q]:
        return None
    block = dict.fromkeys(table, 0)
    rounds = 0
    while block[p] == block[q]:
        ids = {}
        pairs = {}
        block = {
            s: ids.setdefault(_signature(ms, block, pairs), len(ids)) for s, ms in table.items()
        }
        rounds += 1
    return rounds
