"""Run one ``phase`` command with spans around the package's public functions.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json -- gen-data --seed 0 --out w

Nothing in ``src/`` knows about tracing.  An import hook wraps the functions
and methods listed in TARGETS, and every public ``autodiff`` op, right after
their module is first imported, so lazy imports inside the CLI are traced
and timed as they happen.  Each call becomes a span ``[name, start, end,
parent, extra]``; ``parent`` is the index of the enclosing span or -1.
Spans stay in memory and are written to SPANS.json when the command ends.

Autodiff backward time is attributed per op: the wrapper around
``GradTape.record`` replaces each recorded pullback with a timed one named
after the op that recorded it (``autodiff.<op>.backward``).
"""

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import sys
import time

PACKAGE = "phase_surrogate"

# Public functions and methods traced per module, by qualified name.  The
# autodiff module is handled separately: all of its public ops are traced.
TARGETS = {
    "simulator": ("generate_world", "spinup", "advance_month",
                  "export_samples", "save_world", "load_world",
                  "load_restart_state", "restart_run"),
    "pipeline": ("kdtree_map", "aggregate_monthly", "build_dataset",
                 "stack_records", "normalize_groups", "load_dataset"),
    "blobio": ("write_model_file", "read_model_file", "save_blob_sequence",
               "load_blob_sequence", "write_restart", "read_restart"),
    "encoders": ("TemporalEncoder.encode", "LayeredEncoder.encode",
                 "StaticEncoder.encode", "PftEncoder.encode"),
    "fusion": ("TransformerFusion.fuse",),
    "heads": ("TaskHeads.predict_all", "write_restart_state"),
    "model": ("Surrogate.latent", "Surrogate.save"),
    "training": ("train", "total_loss", "Adam.step"),
    "ood": ("fit_ood", "check", "latents"),
    "metrics": ("evaluate", "export_report"),
}

# Public autodiff names that are not tape-recording ops.
AUTODIFF_NON_OPS = {"active_tape", "numeric_gradient", "gradcheck"}


class Recorder:
    """Open-span stack plus the flat list of finished and open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ops = []

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()


def _path_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _lstm_shape(args, kwargs):
    x, w_h = args[0].data, args[2].data
    batch, steps, n_vars = x.shape
    return {"B": batch, "T": steps, "V": n_vars, "H": w_h.shape[0],
            "itemsize": x.dtype.itemsize}


def _latent_rows(args, kwargs):
    return {"rows": args[1]["g1"].shape[0]}


def _tape_nodes(args, kwargs):
    return {"nodes": len(args[0].nodes)}


EXTRAS = {
    "blobio": _path_bytes,
    "autodiff.lstm_sequence": _lstm_shape,
    "model.Surrogate.latent": _latent_rows,
    "autodiff.GradTape.backward": _tape_nodes,
}


def _traced(rec, name, fn, is_op=False):
    extra = EXTRAS.get(name) or EXTRAS.get(name.split(".", 1)[0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_op:
            rec.ops.append(name)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
            if is_op:
                rec.ops.pop()
        if extra is not None:
            rec.spans[index][4] = extra(args, kwargs)
        return result

    return wrapper


def _traced_record(rec, record):
    """GradTape.record whose pullbacks open a span named after their op."""

    @functools.wraps(record)
    def wrapper(self, inputs, output, backward_fn):
        name = (rec.ops[-1] if rec.ops else "autodiff.unknown_op") + ".backward"

        def pullback(g):
            index = rec.open(name)
            try:
                return backward_fn(g)
            finally:
                rec.close(index)

        return record(self, inputs, output, pullback)

    return wrapper


def _rebind(old, new):
    """Point names bound by ``from module import f`` at the wrapper too."""
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith(PACKAGE):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _patch(rec, short, module):
    if short == "autodiff":
        for key, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and not key.startswith("_")
                    and fn.__module__ == module.__name__
                    and key not in AUTODIFF_NON_OPS):
                wrapped = _traced(rec, f"autodiff.{key}", fn, is_op=True)
                setattr(module, key, wrapped)
                _rebind(fn, wrapped)
        tape = module.GradTape
        tape.backward = _traced(rec, "autodiff.GradTape.backward",
                                tape.backward)
        tape.record = _traced_record(rec, tape.record)
        return
    for qualname in TARGETS.get(short, ()):
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None) if owner is not None else None
        if not inspect.isfunction(fn):
            continue  # gone from this version: its metrics read 0
        wrapped = _traced(rec, f"{short}.{qualname}", fn)
        setattr(owner, attr, wrapped)
        if owner is module:
            _rebind(fn, wrapped)


class _TracingLoader(importlib.abc.Loader):
    """Times a package module's execution, then wraps its targets."""

    def __init__(self, rec, inner, fullname):
        self.rec = rec
        self.inner = inner
        self.fullname = fullname

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        index = self.rec.open("import")
        try:
            self.inner.exec_module(module)
            short = self.fullname.rpartition(".")[2]
            _patch(self.rec, short, module)
        finally:
            self.rec.close(index)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _TracingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, rec):
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TracingLoader(self.rec, spec.loader, fullname)
        return spec


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <phase arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    sys.meta_path.insert(0, _TracingFinder(rec))
    code = 1
    try:
        from phase_surrogate import cli
        index = rec.open("cli.main")
        try:
            code = cli.main(cli_args)
        finally:
            rec.close(index)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
