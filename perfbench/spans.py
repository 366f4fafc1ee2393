"""Per-layer metrics from the span files that ``tracer.py`` writes.

A span's self time is its duration minus the durations of its direct
children.  Over one command, the self times of all spans add up to the time
covered by its top-level spans; the rest of the command's wall time
(interpreter start, the tracer's own set-up and the span dump) is the
untraced remainder.
"""

import json
import os

# Spans whose inclusive time is reported as "<name>.s".
INCLUSIVE = (
    "simulator.spinup", "pipeline.kdtree_map", "simulator.export_samples",
    "pipeline.build_dataset", "pipeline.stack_records",
    "pipeline.normalize_groups", "pipeline.load_dataset",
    "autodiff.GradTape.backward",
    "encoders.TemporalEncoder.encode", "encoders.LayeredEncoder.encode",
    "encoders.StaticEncoder.encode", "encoders.PftEncoder.encode",
    "fusion.TransformerFusion.fuse", "heads.TaskHeads.predict_all",
    "training.Adam.step", "training.total_loss", "ood.fit_ood",
    "metrics.evaluate", "metrics.export_report", "ood.check", "ood.latents",
    "simulator.restart_run",
)
BLOBIO = ("write_model_file", "read_model_file", "save_blob_sequence",
          "load_blob_sequence", "write_restart", "read_restart")
OPS = ("lstm_sequence", "matmul", "conv1d", "layer_norm", "softmax",
       "softplus")


def lstm_flops(B, T, V, H, itemsize):
    """Forward FLOPs of one ``lstm_sequence`` call, computed from its shapes:
    the input projection and recurrent matmuls (2mnk each), the bias and
    recurrent adds, six gate nonlinearity evaluations per unit and step
    (sigmoid on all four gate blocks, two tanh) and four cell-update ops."""
    matmuls = 2 * B * T * V * 4 * H + 2 * B * T * H * 4 * H
    return matmuls + 2 * B * T * 4 * H + 10 * B * T * H


def lstm_cache_bytes(B, T, V, H, itemsize):
    """Bytes the pullback keeps alive for backward: seven [T, B, H] arrays
    (four gates, tanh(c), h_prev, c_prev).  The [B, T, 4H] input projection
    is freed when the forward pass returns."""
    return 7 * T * B * H * itemsize


class Totals:
    """Inclusive time, self time, call count and extras, summed by name."""

    def __init__(self):
        self.total = {}
        self.self = {}
        self.calls = {}
        self.extra = {}
        self.import_s = 0.0
        self.remainder_s = 0.0

    def add_command(self, spans, wall_s):
        children = [0.0] * len(spans)
        roots = 0.0
        for name, start, end, parent, _ in spans:
            if end is None:
                raise ValueError(f"span {name} was never closed")
            if parent < 0:
                roots += end - start
            else:
                children[parent] += end - start
        self_sum = 0.0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            own = duration - children[i]
            self_sum += own
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self[name] = self.self.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in (extra or {}).items():
                bucket = self.extra.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
            if name == "import" and not _inside_import(spans, parent):
                self.import_s += duration
        if abs(self_sum - roots) > 1e-6 * max(1.0, roots):
            raise ValueError(f"self times {self_sum} do not cover the "
                             f"top-level spans {roots}")
        self.remainder_s += wall_s - roots

    def s(self, name):
        return self.total.get(name, 0.0)


def _inside_import(spans, parent):
    while parent >= 0:
        if spans[parent][0] == "import":
            return True
        parent = spans[parent][3]
    return False


def _lstm_shapes(spans_by_command):
    return [extra for spans in spans_by_command
            for name, _, _, _, extra in spans
            if name == "autodiff.lstm_sequence"]


def per_layer(traced, spans_dir, n_cells):
    """(metrics, self-time table) for one traced repeat of a workload."""
    totals = Totals()
    all_spans = []
    for command in traced["commands"]:
        with open(os.path.join(spans_dir, f"{command['step']}.json"),
                  encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        totals.add_command(spans, command["wall_s"])
        all_spans.append(spans)

    m = {"cli.import_s": totals.import_s,
         "simulator.generate_world.self_s":
             totals.self.get("simulator.generate_world", 0.0),
         "simulator.advance_month.calls":
             totals.calls.get("simulator.advance_month", 0),
         "pipeline.aggregate_monthly.calls":
             totals.calls.get("pipeline.aggregate_monthly", 0)}
    for name in INCLUSIVE:
        m[f"{name}.s"] = totals.s(name)
    for fn in BLOBIO:
        name = f"blobio.{fn}"
        m[f"{name}.s"] = totals.s(name)
        m[f"{name}.bytes"] = totals.extra.get(name, {}).get("bytes", 0)
    for op in OPS:
        m[f"autodiff.{op}.fwd_s"] = totals.s(f"autodiff.{op}")
        m[f"autodiff.{op}.bwd_s"] = totals.s(f"autodiff.{op}.backward")
    shapes = _lstm_shapes(all_spans)
    m["autodiff.lstm_sequence.calls"] = len(shapes)
    m["autodiff.lstm_sequence.flops"] = (
        sum(lstm_flops(**s) for s in shapes) / max(len(shapes), 1))
    m["autodiff.lstm_sequence.cache_bytes"] = (
        sum(lstm_cache_bytes(**s) for s in shapes) / max(len(shapes), 1))
    backward_calls = totals.calls.get("autodiff.GradTape.backward", 0)
    nodes = totals.extra.get("autodiff.GradTape.backward", {}).get("nodes", 0)
    m["autodiff.tape_nodes_per_step"] = nodes / max(backward_calls, 1)
    rows = totals.extra.get("model.Surrogate.latent", {}).get("rows", 0)
    m["model.rows_per_cell"] = rows / n_cells
    m["training.steps"] = totals.calls.get("training.Adam.step", 0)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.untraced_s"] = totals.remainder_s

    table = sorted(([name, totals.calls[name], totals.total[name],
                     totals.self[name]] for name in totals.total),
                   key=lambda row: -row[3])
    table.append(["(untraced remainder)", len(traced["commands"]),
                  totals.remainder_s, totals.remainder_s])
    return m, table


def format_table(table, wall_s):
    lines = [f"{'span':44s} {'calls':>8s} {'total s':>10s} {'self s':>10s}"]
    for name, calls, total, own in table:
        lines.append(f"{name:44s} {calls:8d} {total:10.4f} {own:10.4f}")
    accounted = sum(row[3] for row in table)
    lines.append(f"self times + untraced remainder = {accounted:.4f} s; "
                 f"traced wall = {wall_s:.4f} s")
    return "\n".join(lines)
