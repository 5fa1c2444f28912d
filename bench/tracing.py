"""In-memory span tracer that wraps the library's public functions.

Every traced function is replaced, in each module namespace where a caller
looks it up, by a wrapper that records one span: name, start, end, parent
span and op id, plus a few counts read off the result (B&B nodes, MILP
binaries and rows).  ``MvnnParams.forward`` is called hundreds of thousands
of times per auction, so it gets no span of its own: its calls, rows and
time are folded into the enclosing span, which keeps memory flat and still
lets self time be computed exactly.

``Tracer.uninstall`` puts every original back; nothing in the library is
edited.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

from iterauction import mechanism, training, uub, values, wdp
from iterauction.mvnn import MvnnParams

# Span record layout (a list, for cheap in-place updates).
NAME, START, END, PARENT, OP, ATTRS, FWD_CALLS, FWD_ROWS, FWD_S = range(9)

# (defining module, function name) -> counts read off the return value
TRACED = {
    (mechanism, "run_mlca"): None,
    (mechanism, "fit_bidder_models"): None,
    (mechanism, "next_query"): None,
    (mechanism, "vcg_payments"): None,
    (wdp, "solve_wdp"): lambda sol: {"nodes": sol.nodes, "not_optimal": int(sol.status != "optimal")},
    (wdp, "solve_reported_wdp"): lambda sol: {"nodes": sol.nodes},
    (wdp, "milp_wdp"): None,
    (wdp, "encode_milp"): lambda model: {
        "binaries": sum(model.var_int),
        "rows": len(model.constraints),
    },
    (wdp, "solve_model"): None,
    (training, "train_mean"): None,
    (uub, "train_uub"): None,
    (uub, "build_exact_uub"): None,
    (values, "generate_instance"): None,
}

# Namespaces in which callers look the traced names up.
NAMESPACES = (mechanism, wdp, training, uub, values)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing ---------------------------------------
    def install(self) -> None:
        for (home, name), attrs_fn in TRACED.items():
            original = getattr(home, name)
            wrapper = self._wrap(f"{home.__name__.rsplit('.', 1)[-1]}.{name}", original, attrs_fn)
            for ns in NAMESPACES:
                if getattr(ns, name, None) is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, wrapper)
        original_forward = MvnnParams.__dict__["forward"]
        self._patches.append((MvnnParams, "forward", original_forward))
        MvnnParams.forward = self._wrap_forward(original_forward)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------
    def _wrap(self, span_name, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.op, None, 0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[ATTRS] = attrs_fn(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_forward(self, fn):
        spans, stack = self.spans, self._stack

        def forward(net, x):
            if not self.active:
                return fn(net, x)
            assert stack, "forward called outside every traced span"
            t0 = perf_counter()
            out = fn(net, x)
            rec = spans[stack[-1]]
            rec[FWD_S] += perf_counter() - t0
            rec[FWD_CALLS] += 1
            rec[FWD_ROWS] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
            return out

        forward.__wrapped__ = fn
        return forward

    @contextlib.contextmanager
    def paused(self):
        """Wrapped calls pass straight through inside this block (used for
        the benchmark's own output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus child spans and folded forward time."""
        out = [s[END] - s[START] - s[FWD_S] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path) -> None:
        self_s = self.self_times()
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "self_s": self_s[k],
                    "forward_calls": s[FWD_CALLS], "forward_rows": s[FWD_ROWS],
                    "forward_s": s[FWD_S], **(s[ATTRS] or {}),
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded."""
        by_name: dict[str, dict] = {}
        self_s = self.self_times()
        fwd = [0, 0, 0.0]
        for k, s in enumerate(self.spans):
            agg = by_name.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s[END] - s[START]
            agg["self_s"] += self_s[k]
            for key, v in (s[ATTRS] or {}).items():
                agg[key] = agg.get(key, 0) + v
            fwd[0] += s[FWD_CALLS]
            fwd[1] += s[FWD_ROWS]
            fwd[2] += s[FWD_S]

        def get(name, key):
            return by_name.get(name, {}).get(key, 0)

        bnb_s = get("wdp.solve_wdp", "s")
        mlca_s = get("mechanism.run_mlca", "s")
        m = {
            "mvnn.forward.calls": fwd[0],
            "mvnn.forward.rows": fwd[1],
            "mvnn.forward.s": fwd[2],
            "wdp.solve_wdp.calls": get("wdp.solve_wdp", "calls"),
            "wdp.solve_wdp.s": bnb_s,
            "wdp.solve_wdp.nodes": get("wdp.solve_wdp", "nodes"),
            "wdp.solve_wdp.nodes_per_s": get("wdp.solve_wdp", "nodes") / bnb_s if bnb_s else 0.0,
            "wdp.solve_wdp.not_optimal": get("wdp.solve_wdp", "not_optimal"),
            "wdp.milp_wdp.calls": get("wdp.milp_wdp", "calls"),
            "wdp.milp_wdp.s": get("wdp.milp_wdp", "s"),
            "wdp.encode_milp.s": get("wdp.encode_milp", "s"),
            "wdp.encode_milp.binaries": get("wdp.encode_milp", "binaries"),
            "wdp.encode_milp.rows": get("wdp.encode_milp", "rows"),
            "wdp.solve_model.s": get("wdp.solve_model", "s"),
            "wdp.solve_reported_wdp.calls": get("wdp.solve_reported_wdp", "calls"),
            "wdp.solve_reported_wdp.s": get("wdp.solve_reported_wdp", "s"),
            "wdp.solve_reported_wdp.nodes": get("wdp.solve_reported_wdp", "nodes"),
        }
        for name in ("training.train_mean", "uub.train_uub", "uub.build_exact_uub"):
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.s"] = get(name, "s")
        m["mechanism.next_query.s"] = get("mechanism.next_query", "s")
        m["mechanism.fit_bidder_models.s"] = get("mechanism.fit_bidder_models", "s")
        m["mechanism.vcg_payments.s"] = get("mechanism.vcg_payments", "s")
        m["mechanism.run_mlca.self_s"] = get("mechanism.run_mlca", "self_s")
        m["mechanism.run_mlca.share.query_wdp"] = (
            m["mechanism.next_query.s"] / mlca_s if mlca_s else 0.0
        )
        m["mechanism.run_mlca.share.fit"] = (
            m["mechanism.fit_bidder_models.s"] / mlca_s if mlca_s else 0.0
        )
        m["values.generate_instance.s"] = get("values.generate_instance", "s")
        return m
