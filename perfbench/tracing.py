"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped in every module namespace that
holds them, so calls the package makes internally are seen as well.  A call
of a spanned function becomes a span (name, start, end, parent, operation
id) kept in flat arrays; its self time is its duration minus the time its
child spans cover.  Counted functions are only counted, because they run
millions of times inside one span.  Cache hits and misses are deltas of
`cache_info()`.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter_ns

SPANNED = (
    "tableaux.lr_coefficient",
    "tableaux.lr_complements",
    "tableaux.gen_lr",
    "cone.horn_index_set",
    "cone.member_cone",
    "cone.member_single_row",
    "oracle.witness_search",
    "oracle.rational_member",
    "cli.main",
)
COUNTED = ("partitions.adjusted_conjugate",)
CACHED = ("tableaux.lr_coefficient", "tableaux.lr_complements")
SETUP = -1  # operation id of spans made during set-up


def _post_hooks(tracer: Tracer) -> dict:
    """Counters taken from a spanned call's result."""
    extra = tracer.extra

    def nonzero(result):
        if result:
            extra["tableaux.lr_coefficient.nonzero"] += 1

    def listed(result):
        extra["tableaux.lr_complements.listed"] += len(result)

    def unit(result):
        if result == 1:
            extra["tableaux.gen_lr.unit_results"] += 1

    def search(result):
        extra["oracle.witness_search.states_explored"] += result.explored
        if result.chain is not None:
            extra["oracle.witness_search.found"] += 1

    return {
        "tableaux.lr_coefficient": nonzero,
        "tableaux.lr_complements": listed,
        "tableaux.gen_lr": unit,
        "oracle.witness_search": search,
    }


class Tracer:
    """Wraps the layer functions of one imported program; `installed()` patches them in."""

    def __init__(self, modules: dict):
        self.op_id = SETUP
        self.extra: dict[str, int] = {}
        self.patches = []  # (namespace, attribute, original, wrapper)
        self.cached = {}  # layer function -> its cache, for cache_info()
        namespaces = list(modules.values())
        hooks = _post_hooks(self)
        for nid, key in enumerate(SPANNED + COUNTED):
            mod, _, attr = key.partition(".")
            original = getattr(modules[mod], attr, None)
            if original is None:  # a layer function that no longer exists reports zero
                continue
            if hasattr(original, "cache_info") and key in CACHED:
                self.cached[key] = original
            if key in SPANNED:
                wrapper = self._spanned(nid, original, hooks.get(key))
            else:
                wrapper = self._counted(key, original)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, name, original, wrapper))
        inequality = getattr(modules["cone"], "Inequality", None)
        if inequality is not None:
            self.patches.append((inequality, "value", inequality.value, self._ineq_value(inequality.value)))
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.reset()

    @contextlib.contextmanager
    def installed(self):
        for ns, name, _, wrapper in self.patches:
            setattr(ns, name, wrapper)
        try:
            yield self
        finally:
            for ns, name, original, _ in self.patches:
                setattr(ns, name, original)

    def reset(self) -> None:
        """Drop spans and zero every counter; cache deltas start from now."""
        k = len(SPANNED)
        self.name = array("b")
        self.parent = array("l")
        self.ops = array("l")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")  # time covered by each span's children
        self.stack: list[int] = []
        self.depth = [0] * k
        self.calls = [0] * k
        self.self_ns = [0] * k
        self.busy_ns = [0] * k
        self.exceptions = [0] * k
        self.extra.clear()
        self.extra.update(dict.fromkeys([key + ".calls" for key in COUNTED], 0))
        self.extra.update(
            dict.fromkeys(
                [
                    "tableaux.lr_coefficient.nonzero",
                    "tableaux.lr_complements.listed",
                    "tableaux.gen_lr.unit_results",
                    "oracle.witness_search.states_explored",
                    "oracle.witness_search.found",
                    "cone.member_cone.ineq_evals",
                ],
                0,
            )
        )
        self.hits = dict.fromkeys(CACHED, 0)
        self.misses = dict.fromkeys(CACHED, 0)
        self.entries = dict.fromkeys(CACHED, 0)
        self.rebase()

    def rebase(self) -> None:
        """Take the caches' current statistics as the base of later deltas."""
        for key, fn in self.cached.items():
            info = fn.cache_info()
            self.cache_base[key] = (info.hits, info.misses)

    def harvest(self) -> None:
        """Add cache statistics gathered since the last base; call before clearing a cache."""
        for key, fn in self.cached.items():
            info = fn.cache_info()
            hits, misses = self.cache_base[key]
            self.hits[key] += info.hits - hits
            self.misses[key] += info.misses - misses
            self.entries[key] = max(self.entries[key], info.currsize)
            self.cache_base[key] = (info.hits, info.misses)

    def _spanned(self, nid: int, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.ops.append(self.op_id)
            self.child.append(0)
            self.end.append(0)
            outermost = self.depth[nid] == 0
            self.depth[nid] += 1
            stack.append(sid)
            t0 = perf_counter_ns()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exceptions[nid] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.depth[nid] -= 1
                self.end[sid] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_ns[nid] += dur - self.child[sid]
                if outermost:
                    self.busy_ns[nid] += dur
                if stack:
                    self.child[stack[-1]] += dur
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counter = key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.extra[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _ineq_value(self, fn):
        member_cone = SPANNED.index("cone.member_cone")

        @functools.wraps(fn)
        def value(iq, rows):
            if self.stack and self.name[self.stack[-1]] == member_cone:
                self.extra["cone.member_cone.ineq_evals"] += 1
            return fn(iq, rows)

        return value

    def metrics(self) -> dict[str, float]:
        """Counts and times since the last reset, named <module>.<function>.<stat>."""
        self.harvest()
        out: dict[str, float] = dict(self.extra)
        for nid, key in enumerate(SPANNED):
            out[key + ".calls"] = self.calls[nid]
            out[key + ".self_s"] = self.self_ns[nid] / 1e9
            out[key + ".busy_s"] = self.busy_ns[nid] / 1e9
            out[key + ".exceptions"] = self.exceptions[nid]
        for key in CACHED:
            hits, misses = self.hits[key], self.misses[key]
            out[key + ".cache_hits"] = hits
            out[key + ".cache_misses"] = misses
            out[key + ".cache_entries"] = self.entries[key]
            out[key + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        calls = out["tableaux.lr_coefficient.calls"]
        out["tableaux.lr_coefficient.nonzero_ratio"] = out.pop("tableaux.lr_coefficient.nonzero") / calls if calls else 0.0
        return out

    def write_spans(self, fh) -> None:
        """One tab-separated line per span: op, span, parent, name, start_ns, end_ns."""
        for sid in range(len(self.start)):
            fh.write(
                f"{self.ops[sid]}\t{sid}\t{self.parent[sid]}\t{SPANNED[self.name[sid]]}\t"
                f"{self.start[sid]}\t{self.end[sid]}\n"
            )
