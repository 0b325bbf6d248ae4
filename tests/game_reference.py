"""The ground, late and early games written branch by branch, one branch per
kind of challenge and per mode, apart from `ccspi.pi._pi_bisim`, which
plays them by one challenge rule.  It reads the moves and renamings of
`ccspi.pi` and keeps its own memo, `MEMO`, keyed as `pi._BISIM_MEMO` is, so
a test can compare the positions both games expanded."""

from ccspi.lts import Tau
from ccspi.pi import (
    BoundOutAct,
    FreeOutAct,
    PiTerm,
    free_names,
    fresh_marker,
    late_transitions,
    open_binder,
)
from ccspi.terms import sort_key

MEMO: dict[tuple[PiTerm, PiTerm, str], bool] = {}


def _labels(ts):
    return frozenset(a for a, _ in ts)


def _grouped(ts):
    g = {}
    for a, res in ts:
        g.setdefault(a, []).append(res)
    return g


def pi_bisim(p: PiTerm, q: PiTerm, mode: str) -> bool:
    if p == q:
        return True
    if sort_key(q) < sort_key(p):
        p, q = q, p
    key = (p, q, mode)
    cached = MEMO.get(key)
    if cached is not None:
        return cached

    tp, tq = late_transitions(p), late_transitions(q)
    if _labels(tp) != _labels(tq):
        MEMO[key] = False
        return False

    fresh = fresh_marker(free_names(p) | free_names(q))
    inst_names = sorted(free_names(p) | free_names(q)) + [fresh]
    gp, gq = _grouped(tp), _grouped(tq)

    def match_all(challenger: dict, responder: dict) -> bool:
        for a, residuals in challenger.items():
            cands = responder[a]
            for res in residuals:
                if isinstance(a, (FreeOutAct, Tau)):
                    if not any(pi_bisim(res, r2, mode) for r2 in cands):
                        return False
                elif isinstance(a, BoundOutAct):
                    opened = open_binder(res, fresh)
                    if not any(pi_bisim(opened, open_binder(r2, fresh), mode) for r2 in cands):
                        return False
                else:  # InputAct
                    if mode == "ground":
                        opened = open_binder(res, fresh)
                        if not any(
                            pi_bisim(opened, open_binder(r2, fresh), mode) for r2 in cands
                        ):
                            return False
                    elif mode == "late":
                        if not any(
                            all(
                                pi_bisim(open_binder(res, n), open_binder(r2, n), mode)
                                for n in inst_names
                            )
                            for r2 in cands
                        ):
                            return False
                    else:  # early
                        for n in inst_names:
                            opened = open_binder(res, n)
                            if not any(
                                pi_bisim(opened, open_binder(r2, n), mode) for r2 in cands
                            ):
                                return False
        return True

    result = match_all(gp, gq) and match_all(gq, gp)
    MEMO[key] = result
    return result
