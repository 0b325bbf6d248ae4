"""A test-side primality check by the definition, written apart from the
normal-form route in `ccspi.rewrite` that it checks: it searches for a
nontrivial parallel split with the partition-refinement oracle."""

from ccspi.generate import ccs_terms_of_size
from ccspi.lts import bisimilar_oracle
from ccspi.terms import Par, Term, is_ground, prefixes, size


def is_prime_bruteforce(p: Term, *, size_bound: int = 6) -> bool:
    """Primality via the definition: p is prime iff p is not bisimilar to 0
    and every split p ~ q | r has a trivial side.  Candidate q, r range over
    terms built from p's own prefixes with sizes summing to size(p); that is
    exhaustive, since bisimilar terms have equal size and every prefix of a
    sum-free term eventually fires.
    """
    if not is_ground(p):
        raise ValueError("prime decomposition undefined on open terms")
    n = size(p)
    if n > size_bound:
        raise ValueError("brute-force bound exceeded")
    if n == 0:
        return False
    alphabet = tuple(sorted(prefixes(p)))
    for k in range(1, n // 2 + 1):
        for q in ccs_terms_of_size(k, alphabet):
            for r in ccs_terms_of_size(n - k, alphabet):
                if bisimilar_oracle(p, Par((q, r))):
                    return False
    return True
