"""Where the traced run wraps the program, and how spans become layer metrics.

Every wrapper rebinds a name the way its consumer looks it up, for example
``uncertrack.encoder.gate_positions`` (what ``encode_sequence`` calls) or a
``Tape`` op method, so the program under ``src/`` is never edited.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Tracer

import uncertrack.encoder as encoder
import uncertrack.evaluation as evaluation
import uncertrack.forecaster as forecaster
from uncertrack.detections import FrameArrays
from uncertrack.numerics import Tape

__all__ = ["LayerProbe", "TAPE_OPS", "RECORDED_OPS", "LAYER_METRICS"]

TAPE_OPS = tuple(n for n, f in vars(Tape).items()
                 if callable(f) and not n.startswith("_")
                 and n not in ("param", "const", "lift", "backward"))

# the ops training and forecasting record; the other Tape ops stay unused
RECORDED_OPS = ("linear", "relu", "sigmoid", "concat", "gather_rows", "sub",
                "abs", "gru", "clamp", "logit", "segment_softmax", "mul",
                "segment_sum", "scatter_rows", "add", "affine", "smooth_l1", "bce")

# (module, attribute, span name); spans nest by call order
_FUNCTIONS = (
    (forecaster, "train", "train"),
    (forecaster, "init_model", "init_model"),
    (forecaster, "build_sample", "build_sample"),
    (forecaster, "augment_sample", "augment_sample"),
    (forecaster, "encode_sequence", "encode_sequence"),
    (forecaster, "total_loss", "total_loss"),
    (forecaster, "adam_step", "adam_step"),
    (forecaster, "forecast_sequence", "forecast_sequence"),
    (forecaster, "decode_trajectory", "decode_trajectory"),
    (encoder, "embed_frame", "embed_frame"),
    (encoder, "gate_positions", "gate_positions"),
    (encoder, "pair_features", "pair_features"),
    (encoder, "select_top_k", "select_top_k"),
    (encoder, "asu_update", "asu_update"),
    (encoder, "msa_aggregate", "msa_aggregate"),
    (evaluation, "evaluate_model", "evaluate_model"),
    (evaluation, "forecast_sequence", "evaluation.forecast"),
    (evaluation, "match_for_eval", "match_for_eval"),
    (evaluation, "gt_future", "gt_future"),
)
# spans whose return values are counted, and the LayerProbe method counting them
_COUNTED = {"gate_positions": "_after_gate", "select_top_k": "_after_top_k",
            "match_for_eval": "_after_match"}


class LayerProbe:
    """Installs the wrappers and keeps the counts taken at layer boundaries."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: dict[str, int] = defaultdict(int)
        self.op_nodes: dict[str, int] = defaultdict(int)
        self.tapes: list[tuple[int, int]] = []  # (nodes on tape, nodes seen by op wrappers)
        self._tape = None
        self._tape_ops = 0

    # ---- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the program still has; a boundary it no
        longer has reads 0."""
        t = self.tracer
        for module, attr, name in _FUNCTIONS:
            if hasattr(module, attr):
                after = getattr(self, _COUNTED[name]) if name in _COUNTED else None
                t.patch(module, attr, t.wrap(name, getattr(module, attr), after))
        t.patch(FrameArrays, "from_detections", classmethod(
            t.wrap("from_detections", FrameArrays.from_detections.__func__)))
        t.patch(Tape, "__init__", t.wrap("tape_init", Tape.__init__, self._after_tape))
        t.patch(Tape, "backward", t.wrap("backward", Tape.backward))
        for op in TAPE_OPS:
            t.patch(Tape, op, t.wrap(op, getattr(Tape, op), self._op_hook(op)))

    def restore(self) -> list[str]:
        self._close_tape()
        return self.tracer.restore()

    # ---- counts -------------------------------------------------------------

    def _after_gate(self, result, args):
        pairs = result[0]
        curr = pairs[:, 1]  # sorted by current detection
        linked = int(np.count_nonzero(np.diff(curr))) + 1 if len(curr) else 0
        self.counts["transitions"] += 1
        self.counts["gated"] += len(pairs)
        self.counts["births"] += len(args[1]) - linked

    def _after_top_k(self, result, args):
        self.counts["selected"] += len(result[0])

    def _after_match(self, result, args):
        self.counts["matched"] += len(result)

    def _after_tape(self, result, args):
        self._close_tape()
        self._tape = args[0]

    def _close_tape(self):
        if self._tape is not None:
            self.tapes.append((len(self._tape._nodes), self._tape_ops))
        self._tape, self._tape_ops = None, 0

    def _op_hook(self, op):
        wrap = self.tracer.wrap
        bwd_name = f"bwd.{op}"

        def after(out, args):
            if out.no_grad:  # constant result: no node was recorded
                return
            self.op_nodes[op] += 1
            if args[0] is self._tape:
                self._tape_ops += 1
            out._backward = wrap(bwd_name, out._backward)

        return after

    # ---- metrics --------------------------------------------------------------

    def metrics(self, eval_windows: int) -> tuple[dict, list[str]]:
        """Per-layer values (name -> value) and failed reconciliations.

        "Per window" divides by the windows each layer serves: encoder and
        tape metrics by encoded windows (a tape per window), backward metrics
        by trained windows, evaluation metrics by ``evaluate_model`` windows.
        """
        incl, excl, calls, roots, self_sum = self.tracer.totals()
        problems = []
        if abs(self_sum - roots) > 1e-9 * max(roots, 1.0):
            problems.append(f"self times sum to {self_sum!r} s, root spans to {roots!r} s")
        bad = [t for t in self.tapes if t[0] != t[1]]
        if bad:
            problems.append(f"{len(bad)} tapes whose op nodes do not sum to the "
                            f"tape's node count, e.g. {bad[0]}")
        if sum(n for n, _ in self.tapes) != sum(self.op_nodes.values()):
            problems.append("op node counts do not sum to the tape node counts")

        windows = max(calls["encode_sequence"], 1)
        tapes = max(len(self.tapes), 1)
        trained = calls["backward"]
        c = self.counts
        ms = 1e3

        def per(name, den, kind=incl):
            return kind[name] * ms / den if den else 0.0

        m = {
            "detections.embed_frame_ms": per("embed_frame", windows),
            "detections.from_detections_ms": per("from_detections", windows),
            "affinity.gate_ms": per("gate_positions", windows),
            "affinity.pair_features_ms": per("pair_features", windows),
            "affinity.top_k_ms": per("select_top_k", windows),
            "affinity.pairs_per_transition": c["gated"] / max(c["transitions"], 1),
            "affinity.selected_per_transition": c["selected"] / max(c["transitions"], 1),
            "affinity.topk_keep_ratio": c["selected"] / max(c["gated"], 1),
            "encoder.asu_ms": per("asu_update", windows),
            "encoder.msa_ms": per("msa_aggregate", windows),
            "encoder.encode_self_ms": per("encode_sequence", windows, excl),
            "encoder.births_per_transition": c["births"] / max(c["transitions"], 1),
            "forecaster.build_sample_ms": per("build_sample", calls["build_sample"]),
            "forecaster.augment_ms": per("augment_sample", calls["augment_sample"]),
            "forecaster.total_loss_ms": per("total_loss", calls["total_loss"]),
            "forecaster.decode_ms": per("decode_trajectory", calls["decode_trajectory"]),
            "forecaster.train_self_ms": per("train", trained, excl),
            "numerics.nodes_per_window": sum(n for n, _ in self.tapes) / tapes,
            "numerics.backward_ms": per("backward", trained),
            "numerics.adam_ms": per("adam_step", calls["adam_step"]),
            "evaluation.forecast_ms": per("evaluation.forecast", eval_windows),
            "evaluation.match_ms": per("match_for_eval", eval_windows),
            "evaluation.gt_future_ms": per("gt_future", eval_windows),
            "evaluation.self_ms": per("evaluate_model", eval_windows, excl),
            "evaluation.matched_per_window": c["matched"] / max(eval_windows, 1),
        }
        for op in dict.fromkeys(TAPE_OPS + RECORDED_OPS):
            m[f"numerics.{op}.nodes"] = self.op_nodes[op] / tapes
            m[f"numerics.{op}.fwd_ms"] = per(op, tapes)
            m[f"numerics.{op}.bwd_ms"] = per(f"bwd.{op}", trained)
        return m, problems


# what the traced run reports, in order, with units
LAYER_METRICS = {
    "detections.embed_frame_ms": "ms", "detections.from_detections_ms": "ms",
    "affinity.gate_ms": "ms", "affinity.pair_features_ms": "ms",
    "affinity.top_k_ms": "ms", "affinity.pairs_per_transition": "count",
    "affinity.selected_per_transition": "count", "affinity.topk_keep_ratio": "ratio",
    "encoder.asu_ms": "ms", "encoder.msa_ms": "ms", "encoder.encode_self_ms": "ms",
    "encoder.births_per_transition": "count",
    "forecaster.build_sample_ms": "ms", "forecaster.augment_ms": "ms",
    "forecaster.total_loss_ms": "ms", "forecaster.decode_ms": "ms",
    "forecaster.train_self_ms": "ms",
    "numerics.nodes_per_window": "count", "numerics.backward_ms": "ms",
    "numerics.adam_ms": "ms",
    **{f"numerics.{op}.{kind}": unit for op in RECORDED_OPS
       for kind, unit in (("nodes", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"))},
    "evaluation.forecast_ms": "ms", "evaluation.match_ms": "ms",
    "evaluation.gt_future_ms": "ms", "evaluation.self_ms": "ms",
    "evaluation.matched_per_window": "count",
}
