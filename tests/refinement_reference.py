"""A test-side Kanellakis-Smolka refinement, written apart from the one-pass
engine in `ccspi.lts` that it checks: every round re-signs every state over
the previous round's blocks, until a round splits no block."""


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
