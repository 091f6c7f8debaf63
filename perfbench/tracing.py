"""Span tracing of functorlab from outside the package.

`Tracer.install()` wraps every public function of the library modules, plus
a few methods, in a span recorder and rebinds each wrapper in every
`functorlab` namespace that holds the original (the `from .gf import ...`
bindings).  `uninstall()` restores the originals.

A span records the wrapped function, its parent span, start and end
(`time.perf_counter`), and busy time.  Busy time is end - start, except for
generator functions, whose span covers creation to exhaustion but is busy
only while the generator body runs.  A span's self time is its busy time
minus the busy time of its direct traced children.

Spans stay in memory until `save()`; `layer_metrics()` derives the per-layer
metrics from them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import LAYERS

PACKAGE = "functorlab"

# (module, class, method) -> span name
METHODS = {
    ("sfunctor", "SetFunctor", "act"): "sfunctor.act",
    ("sfunctor", "SetFunctor", "act_table"): "sfunctor.act_table",
    ("elcat", "Skeleton", "__init__"): "elcat.Skeleton.init",
    ("elcat", "Skeleton", "generating_morphisms"): "elcat.generating_morphisms",
    ("vfunctor", "VecFunctor", "mat"): "vfunctor.VecFunctor.mat",
}

# function span names that differ from module.function
RENAMES = {"elcat.hom_set": "elcat.hom"}

RREF = ("gf.rref_dense", "gf.rref_bits")

# integer attributes recorded on spans; -1 when not recorded
ATTRS = ("rows", "cols", "pivots", "yielded", "returned", "found")


def _rref_attrs(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["mat"])
    rows, cols = (shape + (0, 0))[:2] if len(shape) == 2 else (0, 0)
    return {"rows": int(rows), "cols": int(cols), "pivots": len(result[1])}


# span name -> function(args, kwargs, result) -> attributes
OBSERVERS = {
    "gf.rref_dense": _rref_attrs,
    "gf.rref_bits": _rref_attrs,
    "elcat.hom": lambda args, kwargs, result: {"returned": len(result)},
    "modrep.find_invariant_subspace": lambda args, kwargs, result: {"found": int(result is not None)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # busy time of generator spans; other spans are busy from start to end
        self.gen_busy: dict[int, float] = {}
        self.attrs: dict[str, dict[int, int]] = {a: {} for a in ATTRS}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    def wrap(self, name: str, fn):
        """Span-recording wrapper of fn; generator functions get a traced generator."""
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, start, end, gen_busy, attrs = self._stack, self.start, self.end, self.gen_busy, self.attrs

        if inspect.isgeneratorfunction(fn):

            def traced_gen(gen, idx):
                spent, n = 0.0, 0
                try:
                    while True:
                        stack.append(idx)
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            spent += perf_counter() - t0
                            stack.pop()
                        n += 1
                        yield item
                finally:
                    gen.close()
                    end[idx] = perf_counter()
                    gen_busy[idx] = spent
                    attrs["yielded"][idx] = n

            def gen_wrapper(*args, **kwargs):
                idx = self._open(fid)
                start[idx] = perf_counter()
                return traced_gen(fn(*args, **kwargs), idx)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    attrs[key][idx] = value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for short in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = RENAMES.get(f"{short}.{attr}", f"{short}.{attr}")
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output --------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns; attributes are -1 where a span did not record them."""
        n = len(self.fid)
        out = {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
        busy = out["end"] - out["start"]
        _scatter(busy, self.gen_busy)
        out["busy"] = busy
        for key, vals in self.attrs.items():
            out[key] = _scatter(np.full(n, -1, dtype=np.int64), vals)
        return out

    def save(self, path):
        """Write the span names and the columns of arrays() to an .npz file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _scatter(col: np.ndarray, vals: dict) -> np.ndarray:
    if vals:
        col[np.fromiter(vals.keys(), dtype=np.int64, count=len(vals))] = np.fromiter(
            vals.values(), dtype=col.dtype, count=len(vals))
    return col


# ---------------------------------------------------------------------------
# derived metrics


def self_times(parent: np.ndarray, busy: np.ndarray) -> np.ndarray:
    """Busy time of each span minus the busy time of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=busy[has], minlength=len(busy))
    return busy - child


def under(fid: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Spans that have a span of function `target` among their ancestors.

    Parents are opened before their children, so one forward sweep suffices.
    """
    flag = np.zeros(len(fid), dtype=bool)
    par = parent.tolist()
    hit = (fid == target).tolist()
    out = flag.tolist()
    for i, p in enumerate(par):
        if p >= 0:
            out[i] = out[p] or hit[p]
    return np.asarray(out, dtype=bool)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(names: list[str], cols: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-function calls and self time, plus the counts and ratios read off span attributes.

    Every function in `names` gets `<name>.calls` and `<name>.self_s`, zero
    when it was never called.
    """
    fid, parent, busy = cols["fid"], cols["parent"], cols["busy"]
    nf = len(names)
    idx = {n: k for k, n in enumerate(names)}
    calls = np.bincount(fid, minlength=nf)
    selfs = np.bincount(fid, weights=self_times(parent, busy), minlength=nf)
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.self_s"] = float(selfs[k])

    rows, cols_, piv = cols["rows"], cols["cols"], cols["pivots"]
    is_rref = np.isin(fid, [idx[n] for n in RREF if n in idx])
    for name in RREF:
        sel = fid == idx.get(name, -1)
        out[f"{name}.cells"] = int((rows[sel] * cols_[sel]).sum())
    # base: rows fed to either elimination kernel
    out["gf.rref.rank_ratio"] = _ratio(piv[is_rref].sum(), rows[is_rref].sum())

    emap = fid == idx.get("gf.enumerate_maps", -1)
    # -1 marks a generator that was never started
    yielded = np.maximum(cols["yielded"], 0)
    out["gf.enumerate_maps.yielded"] = int(yielded[emap].sum())

    if "elcat.hom" in idx:
        hom = fid == idx["elcat.hom"]
        in_hom = under(fid, parent, idx["elcat.hom"])
        # base: maps enumerated inside hom-set construction
        out["elcat.hom.keep_ratio"] = _ratio(
            cols["returned"][hom].sum(), yielded[emap & in_hom].sum()
        )
    if "vfunctor.p_n" in idx:
        in_pn = under(fid, parent, idx["vfunctor.p_n"])
        out["vfunctor.p_n.system_rows"] = int(rows[is_rref & in_pn].sum())
    if "modrep.find_invariant_subspace" in idx:
        fis = fid == idx["modrep.find_invariant_subspace"]
        # base: calls of the splitting search
        out["modrep.find_invariant_subspace.found_ratio"] = _ratio(cols["found"][fis].sum(), fis.sum())
    return out
