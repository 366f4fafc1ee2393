"""Evaluation metrics and report exports.

R-squared and per-dimension scores run on whatever space the caller passes
in; RMSE is reported in physical units, so evaluation denormalizes first.
"""

import dataclasses
import io
import os

import numpy as np

from . import blobio
from . import pipeline
from .errors import (ContractError, RangeError, ShapeError,
                     UndefinedMetricError)
from .heads import denormalize

TROPICS_LAT = 23.0
_QUANTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


def r2(pred, truth):
    """Coefficient of determination over all elements."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if truth.size < 2:
        raise UndefinedMetricError("need at least two samples for R^2")
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        raise UndefinedMetricError("R^2 is undefined for constant truth")
    ss_res = float(np.sum((pred - truth) ** 2))
    return 1.0 - ss_res / ss_tot

def rmse(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def physics_residual(gpp, ar, npp):
    """Mean squared gap in the npp = gpp - ar identity."""
    gpp = np.asarray(gpp, dtype=np.float64)
    ar = np.asarray(ar, dtype=np.float64)
    npp = np.asarray(npp, dtype=np.float64)
    if not gpp.shape == ar.shape == npp.shape:
        raise ShapeError("flux arrays must share one shape")
    return float(np.mean((npp - gpp + ar) ** 2))


def per_dimension_scores(pred, truth):
    """(index, R^2, RMSE) per component along axis 1 of a vector task."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.ndim < 2:
        raise ContractError("per-dimension scores need a vector task")
    rows = []
    for i in range(pred.shape[1]):
        rows.append((i, r2(pred[:, i], truth[:, i]),
                     rmse(pred[:, i], truth[:, i])))
    return rows


def band_mask(lat, band):
    lat = np.asarray(lat, dtype=np.float64)
    if band == "tropics":
        return np.abs(lat) < TROPICS_LAT
    if band == "extratropics":
        return np.abs(lat) >= TROPICS_LAT
    lo, hi = band
    return (lat >= lo) & (lat < hi)


def latitudinal_errors(lat, pred, truth, band):
    """Signed-error summary for one latitude band.

    Vector tasks contribute one error sample per component.  Returns a dict
    with quantiles, mean, std and count.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {truth.shape}")
    mask = band_mask(lat, band)
    if not mask.any():
        raise RangeError(f"no cells in band {band!r}")
    errors = (pred[mask] - truth[mask]).ravel()
    summary = {"band": str(band), "count": int(errors.size),
               "mean": float(errors.mean()), "std": float(errors.std())}
    for q in _QUANTILES:
        summary[f"q{int(q):02d}"] = float(np.percentile(errors, q))
    return summary


# ---------------------------------------------------------------------------
# Whole-model evaluation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EvalReport:
    split: str
    n: int
    tasks: dict
    lat: np.ndarray
    lon: np.ndarray
    cell_id: np.ndarray
    preds: dict
    truths: dict
    latent: np.ndarray

    def mean_r2(self, tasks=pipeline.SLOW_TASKS):
        return float(np.mean([self.tasks[t]["r2"] for t in tasks]))


def evaluate(model, dataset, split="test"):
    """Per-task R^2 and physical-unit RMSE on one split."""
    part = dataset.split(split)
    if part.n == 0:
        raise ContractError(f"{split} split is empty")
    preds_norm, latent = model.predict(part.groups)
    preds_phys = denormalize(preds_norm, model.target_stats)
    tasks = {}
    truths_phys = {}
    for t in pipeline.TASKS:
        pred = preds_phys[t]
        truth = dataset.denorm_target(t, part.targets[t])
        truths_phys[t] = truth
        entry = {"r2": r2(pred, truth), "rmse": rmse(pred, truth)}
        if pred.ndim > 1:
            entry["per_dim"] = per_dimension_scores(pred, truth)
        tasks[t] = entry
    tasks["_phys_residual"] = physics_residual(
        preds_norm["gpp"], preds_norm["ar"], preds_norm["npp"])
    return EvalReport(split=split, n=part.n, tasks=tasks, lat=part.lat,
                      lon=part.lon, cell_id=part.cell_id, preds=preds_phys,
                      truths=truths_phys, latent=latent)


def format_mean_std(mean, std, digits=3):
    return f"{mean:.{digits}f}+-{std:.{digits}f}"


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def export_map_csv(path, lat, lon, pred, truth):
    """(lat, lon, predicted, truth, difference) rows for one task component."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if not lat.shape == lon.shape == pred.shape == truth.shape:
        raise ShapeError("map export needs matching 1-D arrays")
    buf = io.StringIO()
    buf.write("lat,lon,predicted,truth,difference\n")
    cols = [np.asarray(a, dtype=np.float64).tolist()
            for a in (lat, lon, pred, truth, pred - truth)]
    for row in zip(*cols):
        buf.write(",".join(repr(v) for v in row) + "\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))


def read_map_csv(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64)
    data = np.atleast_2d(data)
    return {"lat": data[:, 0], "lon": data[:, 1], "predicted": data[:, 2],
            "truth": data[:, 3], "difference": data[:, 4]}


def export_report(report, out_dir):
    """Writes metrics.csv, per_dimension.csv, latitude_bands.csv and maps/."""
    os.makedirs(os.path.join(out_dir, "maps"), exist_ok=True)
    buf = io.StringIO()
    buf.write("task,r2,rmse\n")
    for t in pipeline.TASKS:
        buf.write(f"{t},{report.tasks[t]['r2']!r},{report.tasks[t]['rmse']!r}\n")
    buf.write(f"_phys_residual,,{report.tasks['_phys_residual']!r}\n")
    blobio.atomic_write_bytes(os.path.join(out_dir, "metrics.csv"),
                              buf.getvalue().encode("ascii"))

    buf = io.StringIO()
    buf.write("task,dim,r2,rmse\n")
    for t in pipeline.SLOW_TASKS:
        for i, score, err in report.tasks[t]["per_dim"]:
            buf.write(f"{t},{i},{score!r},{err!r}\n")
    blobio.atomic_write_bytes(os.path.join(out_dir, "per_dimension.csv"),
                              buf.getvalue().encode("ascii"))

    buf = io.StringIO()
    buf.write("task,band,count,mean,std," +
              ",".join(f"q{int(q):02d}" for q in _QUANTILES) + "\n")
    for t in pipeline.SLOW_TASKS:
        for band in ("tropics", "extratropics"):
            try:
                s = latitudinal_errors(report.lat, report.preds[t],
                                       report.truths[t], band)
            except RangeError:
                continue
            buf.write(f"{t},{band},{s['count']},{s['mean']!r},{s['std']!r},"
                      + ",".join(repr(s[f"q{int(q):02d}"])
                                 for q in _QUANTILES) + "\n")
    blobio.atomic_write_bytes(os.path.join(out_dir, "latitude_bands.csv"),
                              buf.getvalue().encode("ascii"))

    for t in pipeline.SLOW_TASKS:
        for i in range(report.preds[t].shape[1]):
            export_map_csv(os.path.join(out_dir, "maps", f"{t}_{i}.csv"),
                           report.lat, report.lon, report.preds[t][:, i],
                           report.truths[t][:, i])
