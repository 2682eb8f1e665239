"""Layer attribution from the benchmark's side of the library boundary.

``Tracer.install`` wraps every public function of the eight layer modules in
every module namespace that imports it by name, plus three class hooks
(``GroupHom`` and ``GroupAction`` validation, ``FinGroup`` construction) and
the store methods of ``cli.Workspace``.  Each call becomes an in-memory span
(parent, op id, name, start, end, flags); nothing in ``src/`` changes.

A layer's self time is the time of its spans minus the time of their child
spans, so time spent in a private helper or a method counts toward the layer
of the public function that called it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fingroup", "xmod", "butterfly", "weakmap", "extension", "laws", "jsonio", "cli")

# lru_cache-wrapped functions whose statistics are read with cache_info()
CACHED = {"denormalize", "aut_xmod", "standard_catalog"}

ERROR = 1
RESUMED = 2  # a later step of a traced generator: not a new call


def _index_size(ws) -> int:
    try:
        return ws.index_path.stat().st_size
    except FileNotFoundError:
        return 0


def layer_totals(spans, layer_of):
    """Self time, calls and escaping errors per layer, and calls per name.

    A span's self time is its duration minus the durations of its direct
    children; an error counts once, at the span where it leaves its layer.
    """
    child = [0.0] * len(spans)
    for parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls, errors, per_name_calls = Counter(), Counter(), Counter()
    for i, (parent, _, name, start, end, flags) in enumerate(spans):
        layer = layer_of[name]
        self_s[layer] += (end - start) - child[i]
        if not flags & RESUMED:
            calls[layer] += 1
            per_name_calls[name] += 1
        if flags & ERROR and (parent < 0 or layer_of[spans[parent][2]] != layer):
            errors[layer] += 1
    return self_s, calls, errors, per_name_calls


def inclusive_time(spans, names: set) -> float:
    """Time in spans named in ``names`` that are not nested inside another
    such span, so recursion and mutual calls are counted once."""
    total = 0.0
    for parent, _, name, start, end, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][2] not in names:
            p = spans[p][0]
        if p < 0:
            total += end - start
    return total


class Tracer:
    """Span recorder.  One instance per traced pass."""

    def __init__(self):
        # span i: (parent, op, name, start, end, flags); parent -1 at top level
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self.caches: dict = {}
        self.layer_of: dict[str, str] = {}

    # -- recording -------------------------------------------------------

    def _enter(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _leave(self, sid: int, name: str, start: float, flags: int) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (parent, self.op, name, start, end, flags)

    def wrap(self, name: str, fn, observe=None, before=None):
        """A wrapper that records a span named ``name`` around each call.

        ``before(args)`` runs ahead of the call and its value is passed on to
        ``observe(args, kwargs, result, state)``, which updates counters.
        """
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                flags = 0
                while True:
                    sid = tracer._enter()
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(sid, name, start, flags)
                        return
                    except BaseException:
                        tracer._leave(sid, name, start, flags | ERROR)
                        raise
                    tracer._leave(sid, name, start, flags)
                    flags = RESUMED
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(sid, name, start, ERROR)
                raise
            tracer._leave(sid, name, start, 0)
            if observe is not None:
                observe(args, kwargs, result, state)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the freshly imported package ``pkg`` (see run.load_package)."""
        modules = [getattr(pkg, layer) for layer in LAYERS]
        namespaces = [m for m in vars(pkg).values() if inspect.ismodule(m)]
        observers = self._observers()
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.layer_of[name] = layer
                if attr in CACHED:
                    self.caches[attr] = fn
                wrapped[id(fn)] = (fn, self.wrap(name, fn, observers.get(name)))

        def swap(value):
            original, wrapper = wrapped.get(id(value), (None, None))
            return wrapper if original is value else None

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if swap(value) is not None:
                    setattr(ns, attr, swap(value))
                elif isinstance(value, dict):
                    # registries such as laws.SUITES hold functions by value
                    for key, item in value.items():
                        if swap(item) is not None:
                            value[key] = swap(item)
        self._hook_classes(pkg)

    def _hook_classes(self, pkg) -> None:
        fg = pkg.fingroup
        tracer = self
        for cls, name in ((fg.GroupHom, "fingroup.GroupHom"), (fg.GroupAction, "fingroup.GroupAction")):
            self.layer_of[name] = "fingroup"
            cls.__post_init__ = self.wrap(name, cls.__post_init__)
        init = fg.FinGroup.__init__
        checked, trusted = self.wrap("fingroup.FinGroup.checked", init), self.wrap("fingroup.FinGroup", init)
        self.layer_of["fingroup.FinGroup.checked"] = self.layer_of["fingroup.FinGroup"] = "fingroup"

        def finite_group_init(self_, *args, **kwargs):
            # the library passes _validated=True by keyword for trusted builds
            return (trusted if kwargs.get("_validated") else checked)(self_, *args, **kwargs)

        fg.FinGroup.__init__ = finite_group_init

        ws = pkg.cli.Workspace

        def index_io(method):
            def observe(args, kwargs, result, before):
                # every call reads the whole index; a put that adds a ref rewrites it whole
                after = _index_size(args[0])
                grew = method == "put" and after != before
                tracer.counters["cli.store.index_bytes"] += before + (after if grew else 0)
                tracer.counters["cli.store.objects"] += grew

            return observe

        for method in ("put", "get", "ls"):
            name = f"cli.store.{method}"
            self.layer_of[name] = "cli"
            setattr(ws, method, self.wrap(name, getattr(ws, method), index_io(method), lambda a: _index_size(a[0])))

    def _observers(self) -> dict:
        counters = self.counters

        def hit(name):
            def observe(args, kwargs, result, state):
                counters[name] += result is not None

            return observe

        def add(name, measure):
            def observe(args, kwargs, result, state):
                counters[name] += measure(result)

            return observe

        return {
            "fingroup.isomorphism_search": hit("fingroup.iso_hits"),
            "butterfly.isomorphic_butterflies": hit("butterfly.iso_hits"),
            "extension.enumerate_cocycles": add("extension.cocycles", len),
            "laws.run_bicategory_suite": add("laws.cases", lambda r: r.cases),
            "laws.run_fractions_suite": add("laws.cases", lambda r: r.cases),
            "jsonio.canonical_bytes": add("jsonio.bytes", len),
        }

    # -- analysis --------------------------------------------------------

    def analyse(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, from the spans, the
        counters and the cache statistics."""
        spans = self.spans
        self_s, calls, errors, per_name_calls = layer_totals(spans, self.layer_of)

        def inclusive(*names):
            return inclusive_time(spans, set(names))

        def ratio(num, den):
            return num / den if den else 0.0

        def cache(attr):
            if attr not in self.caches:
                return 0, 0
            info = self.caches[attr].cache_info()
            return info.hits, info.misses

        c = self.counters
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.errors"] = errors[layer]
        m.update(
            {
                "fingroup.hom_checks": per_name_calls["fingroup.GroupHom"],
                "fingroup.hom_check_s": inclusive("fingroup.GroupHom"),
                "fingroup.action_checks": per_name_calls["fingroup.GroupAction"],
                "fingroup.action_check_s": inclusive("fingroup.GroupAction"),
                "fingroup.table_checks": per_name_calls["fingroup.FinGroup.checked"],
                "fingroup.table_check_s": inclusive("fingroup.FinGroup.checked"),
                "fingroup.search_s": inclusive(
                    "fingroup.all_homomorphisms", "fingroup.isomorphism_search", "fingroup.automorphism_group"
                ),
                "fingroup.iso_hit_ratio": ratio(c["fingroup.iso_hits"], per_name_calls["fingroup.isomorphism_search"]),
            }
        )
        hits, misses = cache("denormalize")
        m["xmod.denormalize.hit_ratio"] = ratio(hits, hits + misses)
        m["xmod.denormalize.misses"] = misses
        m["xmod.two_cells_s"] = inclusive("xmod.enumerate_two_cells", "xmod.enumerate_natural_transformations")
        m["xmod.morphism_enum_s"] = inclusive("xmod.all_xmod_morphisms")
        iso_calls = per_name_calls["butterfly.isomorphic_butterflies"]
        m.update(
            {
                "butterfly.iso.calls": iso_calls,
                "butterfly.iso_s": inclusive("butterfly.isomorphic_butterflies"),
                "butterfly.iso.hit_ratio": ratio(c["butterfly.iso_hits"], iso_calls),
                "butterfly.compose.calls": per_name_calls["butterfly.compose"],
                "butterfly.compose_s": inclusive("butterfly.compose"),
                "butterfly.validate.calls": per_name_calls["butterfly.validate_butterfly"],
                "butterfly.validate_s": inclusive("butterfly.validate_butterfly"),
                "weakmap.check_s": inclusive("weakmap.check_monoidal"),
                "weakmap.extract_s": inclusive("weakmap.extract_monoidal"),
                "weakmap.assemble_s": inclusive("weakmap.butterfly_from_monoidal"),
                "extension.cocycles": c["extension.cocycles"],
                "extension.cocycle_s": inclusive("extension.enumerate_cocycles"),
                "extension.twists": per_name_calls["extension.twist_factor_set"],
                "extension.oracle_s": inclusive("extension.factor_set_oracle"),
                "extension.classify_s": inclusive("extension.classify_extensions"),
                "extension.identify_s": inclusive("extension.identify_group"),
            }
        )
        for attr in ("aut_xmod", "standard_catalog"):
            hits, misses = cache(attr)
            m[f"extension.{attr}.hit_ratio"] = ratio(hits, hits + misses)
        m.update(
            {
                "laws.cases": c["laws.cases"],
                "laws.fixtures_s": inclusive("laws.generate_fixtures"),
                "laws.bicategory_s": inclusive("laws.run_bicategory_suite"),
                "laws.fractions_s": inclusive("laws.run_fractions_suite"),
                "jsonio.load_s": inclusive(*(n for n in self.layer_of if n.startswith("jsonio.") and "from_json" in n)),
                "jsonio.dump_s": inclusive("jsonio.to_jsonable", "jsonio.canonical_bytes", "jsonio.content_ref"),
                "jsonio.bytes": c["jsonio.bytes"],
                "cli.store.puts": per_name_calls["cli.store.put"],
                "cli.store.put_s": inclusive("cli.store.put"),
                "cli.store.get_s": inclusive("cli.store.get", "cli.store.ls"),
                "cli.store.index_bytes": c["cli.store.index_bytes"],
                "cli.store.objects": c["cli.store.objects"],
            }
        )
        return m

    def write(self, path) -> None:
        """Write the spans as gzip'd tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart\tend\tflags\n")
            for i, (parent, op, name, start, end, flags) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{flags}\n")
