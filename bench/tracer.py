"""Span tracer for the traced benchmark run.

The tracer rebinds the public functions of each hodgeorbit module, in every
``hodgeorbit.*`` namespace that imported them, with wrappers that record a
span per call.  ``Matrix.__matmul__`` and the datum validators get spans too.
``Matrix`` and ``GaussScalar`` construction is only counted, because a span
per scalar would cost more than the work it measures.  Nothing under
``src/`` is edited: :meth:`Tracer.uninstall` puts every original back.

Spans are kept in parallel lists (name, start, end, parent, op id) and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# Modules that form a layer, bottom to top.  ``catalog`` is left out: the
# benchmark uses it to build inputs and oracles, not as an operation.
LAYERS = (
    "scalars",
    "linalg",
    "filtration",
    "extensions",
    "datum",
    "monodromy",
    "verify",
    "construct",
    "docio",
    "cli",
)

# Calls whose argument is looked up among the arguments already seen within
# the same op, for the ``repeat_ratio`` metrics.
_REPEAT_KEYS = {
    "monodromy.weight_monodromy": lambda a: a["n"].entries,
    "monodromy.relative_monodromy": lambda a: (a["n"].entries, _filtration_key(a["w"])),
    "verify.check_pure_orbit": lambda a: a["o"].canonical_key(),
}


def _filtration_key(f):
    return (f.ambient_dim, f.increasing, tuple((k, s.basis.entries) for k, s in f.steps))


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._seen: dict = {}
        self._rebound: list = []  # (owner, attribute, original value)
        # Hot counters live in lists so the wrappers can bump them cheaply.
        self.scalar_results = [0, 0]  # normalised results, rational ones
        self.matrices = [0]

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._seen = {}

    def end_op(self):
        self.op_id = -1

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"hodgeorbit.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "hodgeorbit" or n.startswith("hodgeorbit.")]
        for layer, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._spanned(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, alias, wrapper)
        linalg, datum, scalars = modules["linalg"], modules["datum"], modules["scalars"]
        self._rebind(linalg.Matrix, "__matmul__", self._spanned("linalg.matmul", linalg.Matrix.__matmul__))
        for cls in (datum.HodgeDatum, datum.OrbitDatum):
            self._rebind(cls, "__post_init__", self._spanned("datum.validate", cls.__post_init__))
        self._install_counters(linalg.Matrix, scalars.GaussScalar)

    def _install_counters(self, matrix_cls, scalar_cls):
        matrices, results = self.matrices, self.scalar_results
        matrix_init = matrix_cls.__init__

        def counted_matrix_init(m, *args, **kwargs):
            matrices[0] += 1
            matrix_init(m, *args, **kwargs)

        scalar_init = scalar_cls.__init__
        raw = scalar_cls._raw

        def counted_scalar_init(s, *args, **kwargs):
            scalar_init(s, *args, **kwargs)
            results[0] += 1
            if s.b == 0:
                results[1] += 1

        def counted_raw(a, b, d):
            results[0] += 1
            if b == 0:
                results[1] += 1
            return raw(a, b, d)

        self._rebind(matrix_cls, "__init__", counted_matrix_init)
        self._rebind(scalar_cls, "__init__", counted_scalar_init)
        self._rebind(scalar_cls, "_raw", staticmethod(counted_raw))

    def _rebind(self, owner, attr, value):
        # Class attributes are read from __dict__ so that a staticmethod is
        # put back as the staticmethod object, not the bare function.
        original = owner.__dict__[attr]
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def _spanned(self, name, fn):
        names, start, end, parent, op, stack = self.names, self.start, self.end, self.parent, self.op, self._stack
        clock, counts = time.perf_counter, self.counts
        repeat_key = _REPEAT_KEYS.get(name)
        signature = inspect.signature(fn) if repeat_key else None
        echelonize = name == "linalg.echelonize"
        observe = {
            "verify.sampled_orbit_membership": self._count_points,
            "docio.serialize": self._count_bytes,
            "docio.serialize_certificate": self._count_bytes,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if repeat_key is not None:
                self._note_repeat(name, repeat_key(signature.bind(*args, **kwargs).arguments))
            if echelonize:
                m = args[0]
                counts["linalg.echelonize.rational"] += m.is_rational()
                counts["linalg.echelonize.cells_max"] = max(counts["linalg.echelonize.cells_max"], m.rows * m.cols)
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _note_repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _count_points(self, report):
        self.counts["verify.sampled_orbit_membership.points"] += len(report.points)

    def _count_bytes(self, text):
        # serialize_certificate calls serialize on its parts: count only the
        # outermost document.
        if not any(self.names[i].startswith("docio.serialize") for i in self._stack):
            self.counts["docio.bytes"] += len(text.encode("utf-8"))

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write the spans as columns: one list per field."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "name": self.names,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "op": self.op,
                },
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Span arithmetic


def exclusive_times(start, end, parent):
    """Each span's duration minus the durations of its direct children."""
    excl = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            excl[par] -= end[idx] - start[idx]
    return excl


def layer_self_times(names, start, end, parent):
    """Per layer, the time during which its span is the innermost one open:
    its span time minus the time of child spans from other layers."""
    out = Counter()
    for name, t in zip(names, exclusive_times(start, end, parent)):
        out[name.split(".", 1)[0]] += t
    return out


def outermost(names, parent, wanted):
    """Indices of spans named in ``wanted`` with no ancestor named in it,
    so that recursive or nested calls are timed once."""
    inside = [False] * len(names)
    out = []
    for idx, name in enumerate(names):
        par = parent[idx]
        # Parents are recorded before their children, so inside[par] is set.
        enclosed = par >= 0 and (inside[par] or names[par] in wanted)
        inside[idx] = enclosed
        if name in wanted and not enclosed:
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# The per-layer report


def layer_metrics(tracer: Tracer, op_kinds) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    ``op_kinds[i]`` is the kind of the op traced with op id ``i``.
    """
    names, start, end, parent, op = tracer.names, tracer.start, tracer.end, tracer.parent, tracer.op
    counts = tracer.counts
    calls = Counter(names)
    self_s = layer_self_times(names, start, end, parent)

    def timed(*fns):
        return sum(end[i] - start[i] for i in outermost(names, parent, set(fns)))

    def share(part, whole):
        return part / whole if whole else 0.0

    results, rational = tracer.scalar_results
    embed_ops = sum(1 for k in op_kinds if k == "embed")
    certify_in_embed = sum(
        1 for n, o in zip(names, op) if n == "construct.certify_embedding" and o >= 0 and op_kinds[o] == "embed"
    )
    m = {}

    def put(name, value, unit):
        m[name] = (float(value) if unit in ("s", "ratio") else value, unit)

    put("scalars.results", results, "count")
    put("scalars.rational_share", share(rational, results), "ratio")
    put("linalg.self_s", self_s["linalg"], "s")
    put("linalg.matrices", tracer.matrices[0], "count")
    put("linalg.echelonize.calls", calls["linalg.echelonize"], "count")
    put("linalg.echelonize.s", timed("linalg.echelonize"), "s")
    put("linalg.echelonize.rational_share",
        share(counts["linalg.echelonize.rational"], calls["linalg.echelonize"]), "ratio")
    put("linalg.echelonize.cells_max", counts["linalg.echelonize.cells_max"], "cells")
    put("linalg.intersect.calls", calls["linalg.intersect"], "count")
    put("linalg.intersect.s", timed("linalg.intersect"), "s")
    put("linalg.kernel.calls", calls["linalg.kernel"], "count")
    put("linalg.solve.calls", calls["linalg.solve"], "count")
    put("linalg.matmul.calls", calls["linalg.matmul"], "count")
    put("linalg.matmul.s", timed("linalg.matmul"), "s")
    put("filtration.self_s", self_s["filtration"], "s")
    put("extensions.self_s", self_s["extensions"], "s")
    put("datum.self_s", self_s["datum"], "s")
    put("datum.graded_maps.calls", calls["datum.graded_maps"], "count")
    put("datum.validate.calls", calls["datum.validate"], "count")
    put("datum.validate.s", timed("datum.validate"), "s")
    put("monodromy.self_s", self_s["monodromy"], "s")
    for fn in ("weight_monodromy", "relative_monodromy"):
        key = f"monodromy.{fn}"
        put(f"{key}.calls", calls[key], "count")
        put(f"{key}.s", timed(key), "s")
    for fn in ("weight_monodromy", "relative_monodromy"):
        key = f"monodromy.{fn}"
        put(f"{key}.repeat_ratio", share(counts[key + ".repeats"], calls[key]), "ratio")
    put("verify.self_s", self_s["verify"], "s")
    put("verify.sampled_orbit_membership.calls", calls["verify.sampled_orbit_membership"], "count")
    put("verify.sampled_orbit_membership.points", counts["verify.sampled_orbit_membership.points"], "count")
    put("verify.sampled_orbit_membership.s", timed("verify.sampled_orbit_membership"), "s")
    put("verify.is_polarized_hs.calls", calls["verify.is_polarized_hs"], "count")
    put("verify.is_polarized_hs.s", timed("verify.is_polarized_hs"), "s")
    put("verify.check_pure_orbit.calls", calls["verify.check_pure_orbit"], "count")
    put("verify.check_pure_orbit.s", timed("verify.check_pure_orbit"), "s")
    put("verify.check_pure_orbit.repeat_ratio",
        share(counts["verify.check_pure_orbit.repeats"], calls["verify.check_pure_orbit"]), "ratio")
    put("construct.self_s", self_s["construct"], "s")
    put("construct.certify_embedding.calls", calls["construct.certify_embedding"], "count")
    put("construct.certify_embedding.s", timed("construct.certify_embedding"), "s")
    put("construct.certify_per_op", share(certify_in_embed, embed_ops), "count/op")
    put("construct.embed_two_weights.calls", calls["construct.embed_two_weights"], "count")
    put("docio.parse.s", timed("docio.parse", "docio.parse_certificate"), "s")
    put("docio.serialize.s", timed("docio.serialize", "docio.serialize_certificate"), "s")
    put("docio.self_s", self_s["docio"], "s")
    put("docio.bytes", counts["docio.bytes"], "B")
    put("cli.self_s", self_s["cli"], "s")
    return m
