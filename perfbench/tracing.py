"""In-memory spans around simca's layers, and the per-layer figures derived from them.

A span is (name, start, end, parent). Operation spans (a train, an evaluate,
a sweep cell) are recorded on every round, because the end-to-end metrics
need their times. Layer spans are recorded only in traced rounds: the
benchmark then replaces the library functions at the names the calling
modules bound them to, and puts the originals back afterwards, so untraced
rounds run the unmodified code.
"""
from __future__ import annotations

import collections
import functools
import time

import simca.cli
import simca.datagen
import simca.metrics
import simca.training

# span name of every layer function, per calling module
_STAGES = {
    "compute_affinity": "model.affinity",
    "extend_with_slack": "sinkhorn.extend",
    "solve_ot": "sinkhorn.solve",
    "round_coupling": "assignment.round",
    "f1_scores": "metrics.f1",
    "mean_embedding_distance": "metrics.embed_dist",
}
LAYER_FUNCTIONS = [
    *[(simca.training, attr, span) for attr, span in _STAGES.items()],
    (simca.training, "cross_entropy_loss", "training.loss"),
    (simca.training, "loss_gradient_items", "training.grad"),
    (simca.training, "adam_step", "training.adam"),
    *[(simca.metrics, attr, span) for attr, span in _STAGES.items()],
    (simca.datagen, "solve_lap", "assignment.solve_lap"),
    *[
        (simca.cli, attr, "bundle.io")
        for attr in (
            "load_dataset", "load_history", "load_sweep", "save_dataset", "save_eval_report",
            "save_history", "save_sweep", "write_matrix_csv", "read_matrix_csv",
        )
    ],
]

# What each layer's figures should move, on which workload. Printed next to
# the numbers by the traced run.
LAYER_EFFECTS = {
    "assignment": "train_epochs_per_s, setup_s and peak_rss_mb on large-train (LAP ~99% of an "
                  "epoch); ~half of train_epochs_per_s on desk-sweep; ~nothing on eval-small-eps",
    "sinkhorn": "evaluate_s on eval-small-eps; ~a third of train_epochs_per_s on desk-sweep; "
                "~1% on large-train",
    "model": "train_epochs_per_s on desk-sweep (per-call overhead); invisible on large-train",
    "training": "train_epochs_per_s on desk-sweep (per-call and validation overhead); "
                "invisible on large-train",
    "metrics": "f1_s and embed_dist_s (per-epoch logging): train_epochs_per_s on desk-sweep; "
               "evaluate_self_s: evaluate_s",
    "datagen": "setup_s, mostly on large-train (a LAP on 3000x3030 slots)",
    "bundle": "wall_s on desk-sweep only",
    "cli": "wall_s on desk-sweep only",
    "trace": "none: traced minus untraced wall_s of one round",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def op_label(self) -> str:
        """Label of the nearest enclosing operation span."""
        span = self
        while span is not None and "label" not in span.info:
            span = span.parent
        return "" if span is None else span.info["label"]


def _describe_solve_ot(result, inst, tol=None, **_) -> dict:
    return {
        "iters": result.iterations,
        "converged": result.converged,
        "to_tol": tol is not None,
        "epsilon": inst.epsilon,
    }


def _describe_lap(result, scores, caps) -> dict:
    # the dense slot-expanded cost matrix one call builds, computed from sizes
    return {"slot_bytes": len(scores) * int(sum(caps)) * 8}


_DESCRIBE = {"sinkhorn.solve": _describe_solve_ot, "assignment.round": _describe_lap,
             "assignment.solve_lap": _describe_lap}


class Tracer:
    """Keeps the spans of the current round and the stack of open ones.

    ``between_ops`` runs after every span named in ``op_names`` ends.
    """

    def __init__(self, op_names=(), between_ops=None):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op_names = op_names
        self._between_ops = between_ops

    def call(self, name: str, fn, *args, label: str | None = None, check=None, **kwargs):
        """Run ``fn`` inside a span and return its result.

        An exception is stored on the span as ``error`` and raised again.
        ``label`` names the operation in reports; ``check(result, *args,
        **kwargs)`` returns figures of the output, with ``error`` set when
        the output is wrong, and runs after the span has ended.
        """
        span = Span(name, self._stack[-1] if self._stack else None)
        if label is not None:
            span.info["label"] = label
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            if name in self._op_names:
                self._between_ops()
        describe = check or _DESCRIBE.get(name)
        if describe is not None:
            span.info.update(describe(result, *args, **kwargs))
        return result

    def attempt(self, name: str, fn, *args, **kwargs):
        """Like :meth:`call`, but an operation that raises returns None; its
        error stays on the span, where it counts as a failed operation."""
        try:
            return self.call(name, fn, *args, **kwargs)
        except Exception:
            return None

    def wrap(self, module, attr: str, name: str, label=None, check=None):
        """Replace ``module.attr`` by a version that records a span per call.
        ``label`` maps the call's arguments to an operation label."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            return self.call(name, original, *args, check=check,
                             label=None if label is None else label(*args, **kwargs), **kwargs)

        setattr(module, attr, recorded)
        self._patched.append((module, attr, original))

    def wrap_layers(self):
        for module, attr, name in LAYER_FUNCTIONS:
            self.wrap(module, attr, name)

    def restore(self, keep: int = 0):
        """Put back every function wrapped after the first ``keep`` ones."""
        while len(self._patched) > keep:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @property
    def wrapped(self) -> int:
        return len(self._patched)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus that of its children."""
    own = {id(s): s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in own:
            own[id(s.parent)] -= s.seconds
    return own


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced round."""
    own = self_seconds(spans)

    def self_of(*prefixes) -> float:
        return sum(own[id(s)] for s in spans if s.name.startswith(prefixes))

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    # a call that raised has no figures; it still counts in count_record's calls
    laps = [s for s in named("assignment.") if "slot_bytes" in s.info]
    solves = [s for s in named("sinkhorn.solve") if "iters" in s.info]
    tol_solves = [s for s in solves if s.info["to_tol"]]
    lap_s = self_of("assignment.")
    solve_s = self_of("sinkhorn.solve")
    iters = sum(s.info["iters"] for s in solves)
    return {
        "assignment.calls": len(laps),
        "assignment.self_s": lap_s,
        "assignment.ms_per_call": 1e3 * lap_s / len(laps) if laps else 0.0,
        "assignment.slot_bytes": max((s.info["slot_bytes"] for s in laps), default=0),
        "sinkhorn.calls": len(solves),
        "sinkhorn.self_s": self_of("sinkhorn."),
        "sinkhorn.iters": iters,
        "sinkhorn.ms_per_iter": 1e3 * solve_s / iters if iters else 0.0,
        "sinkhorn.iters_to_tol": sum(s.info["iters"] for s in tol_solves),
        "sinkhorn.unconverged": sum(not s.info["converged"] for s in tol_solves),
        "model.affinity_s": self_of("model."),
        "training.self_s": self_of("training.train"),
        "training.loss_s": self_of("training.loss"),
        "training.grad_s": self_of("training.grad"),
        "training.adam_s": self_of("training.adam"),
        "metrics.f1_s": self_of("metrics.f1"),
        "metrics.embed_dist_s": self_of("metrics.embed_dist"),
        "metrics.evaluate_self_s": self_of("metrics.evaluate"),
        "bundle.io_s": self_of("bundle."),
        "cli.sweep_self_s": self_of("cli."),
    }


COUNTS = ("assignment.calls", "assignment.slot_bytes", "sinkhorn.calls", "sinkhorn.iters",
          "sinkhorn.iters_to_tol", "sinkhorn.unconverged")


def iters_to_tol(spans: list[Span]) -> list[dict]:
    """Iterations of every solve run to tolerance, by operation and epsilon."""
    return [
        {"op": s.op_label(), "epsilon": s.info["epsilon"], "iters": s.info["iters"],
         "converged": s.info["converged"]}
        for s in spans if s.name == "sinkhorn.solve" and s.info.get("to_tol")
    ]


def count_record(spans: list[Span]) -> dict:
    """The exact counts of one traced round: calls per span name, the count
    figures, and the iterations of every solve run to tolerance."""
    figures = layer_figures(spans)
    return {
        "calls": dict(sorted(collections.Counter(s.name for s in spans).items())),
        **{key: figures[key] for key in COUNTS},
        "iters_to_tol": iters_to_tol(spans),
    }
