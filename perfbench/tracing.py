"""Per-layer numbers, taken from outside the program.

Two instruments, each used in its own round so that neither distorts the
other's figures:

- `profile_layers` sums a cProfile run by defining module: a module's self
  time is the self time of its functions plus that of the builtins and
  library functions they call directly; its calls are calls of its
  functions (lru_cache hits run in C and are not seen).
- `Counters` wraps public ccspi functions in every ccspi module namespace
  that holds them and counts what passes through.  A function that no
  longer exists is reported as absent and its counters read 0.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from typing import Callable

MODULES = (
    "terms", "lts", "rewrite", "distributed", "mirrored", "pi",
    "erasure", "syntax", "generate", "suites", "cli",
)

COUNTERS = (
    "lts.states_expanded",
    "pi.states_expanded",
    "distributed.states_expanded",
    "lts.refine_calls",
    "lts.refine_states",
    "rewrite.normalize_distinct",
    "rewrite.steps",
    "terms.canonicalize_noop_ratio",
    "pi.canonicalize_noop_ratio",
    "pi.game_calls",
    "pi.open_binder_calls",
    "generate.terms",
)


def _ccspi_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ccspi" and m]


def profile_layers(stats: dict, package_dir: str) -> dict[str, float]:
    """`<module>.self_s` and `<module>.calls` from `cProfile.Profile.stats`."""
    package_dir = os.path.realpath(package_dir)

    def module_of(filename: str) -> str | None:
        head, tail = os.path.split(filename)
        stem = tail[:-3] if tail.endswith(".py") else None
        if stem in MODULES and os.path.realpath(head) == package_dir:
            return stem
        return None

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (filename, _, _), (_, nc, tt, _, callers) in stats.items():
        mod = module_of(filename)
        if mod is not None:
            self_s[mod] += tt
            calls[mod] += nc
            continue
        for caller, edge in callers.items():
            caller_mod = module_of(caller[0])
            if caller_mod is not None:
                self_s[caller_mod] += edge[2]
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_s[mod]
        out[f"{mod}.calls"] = calls[mod]
    return out


def cache_entries() -> int:
    """Entries held by every lru_cache on a ccspi module-level function."""
    seen: set[int] = set()
    total = 0
    for mod in _ccspi_modules():
        for obj in list(vars(mod).values()):
            info = getattr(obj, "cache_info", None)
            if callable(info) and id(obj) not in seen:
                seen.add(id(obj))
                total += info().currsize
    return total


class Counters:
    """Work counters at the public entry points of the layers."""

    def __init__(self) -> None:
        self.n: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._game_depth = 0

    # wrapper factories ----------------------------------------------------

    def _distinct(self, metric: str) -> Callable:
        def wrap(orig):
            def counted(*args, **kwargs):
                self.distinct[metric].add(args[0])
                return orig(*args, **kwargs)
            return counted
        return wrap

    def _noop(self, metric: str) -> Callable:
        def wrap(orig):
            def counted(t):
                out = orig(t)
                self.n[metric + ".calls"] += 1
                self.n[metric + ".noop"] += out == t
                return out
            return counted
        return wrap

    def _refine(self, orig):
        def counted(states, *args, **kwargs):
            states = list(states)
            self.n["lts.refine_calls"] += 1
            self.n["lts.refine_states"] += len(states)
            return orig(states, *args, **kwargs)
        return counted

    def _steps(self, orig):
        def counted(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.n["rewrite.steps"] += out[1]
            return out
        return counted

    def _game(self, orig):
        def counted(*args, **kwargs):
            if self._game_depth == 0:
                self.n["pi.game_calls"] += 1
            self._game_depth += 1
            try:
                return orig(*args, **kwargs)
            finally:
                self._game_depth -= 1
        return counted

    def _calls(self, metric: str) -> Callable:
        def wrap(orig):
            def counted(*args, **kwargs):
                self.n[metric] += 1
                return orig(*args, **kwargs)
            return counted
        return wrap

    def _terms_returned(self, orig):
        def counted(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.n["generate.terms"] += len(out) if isinstance(out, (list, tuple)) else 1
            return out
        return counted

    def hooks(self) -> list[tuple[str, str, Callable]]:
        enum = self._terms_returned
        return [
            ("lts", "transitions", self._distinct("lts.states_expanded")),
            ("pi", "late_transitions", self._distinct("pi.states_expanded")),
            ("distributed", "d_transitions", self._distinct("distributed.states_expanded")),
            ("lts", "refine_partition", self._refine),
            ("rewrite", "normalize", self._distinct("rewrite.normalize_distinct")),
            ("rewrite", "normalize_steps", self._steps),
            ("terms", "canonicalize", self._noop("terms.canonicalize")),
            ("pi", "pi_canonicalize", self._noop("pi.canonicalize")),
            ("pi", "ground_bisim", self._game),
            ("pi", "late_bisim", self._game),
            ("pi", "early_bisim", self._game),
            ("pi", "open_binder", self._calls("pi.open_binder_calls")),
            ("generate", "ccs_terms_upto", enum),
            ("generate", "ccs_plus_terms_upto", enum),
            ("generate", "pi_terms_upto", enum),
            ("generate", "random_ccs_open", enum),
            ("generate", "random_pi", enum),
        ]

    def install(self) -> None:
        modules = _ccspi_modules()
        for mod_name, fn_name, wrap in self.hooks():
            home = sys.modules.get(f"ccspi.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = wrap(orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in COUNTERS:
            if name.endswith("_ratio"):
                base = name[: -len("_noop_ratio")]
                calls = self.n[base + ".calls"]
                out[name] = self.n[base + ".noop"] / calls if calls else 0.0
            elif name.endswith(("states_expanded", "normalize_distinct")):
                out[name] = len(self.distinct[name])
            else:
                out[name] = self.n[name]
        return out
