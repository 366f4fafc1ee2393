"""Out-of-distribution guard: feature envelopes plus latent distance.

Two criteria, both fitted on the training split only.  A sample is flagged
when any normalized feature leaves the train envelope (widened by tau on
each side) or when its diagonal-standardized squared latent distance exceeds
the q-th percentile of the training scores.
"""

import dataclasses
import io

import numpy as np

from . import blobio
from . import pipeline
from .errors import ContractError, ShapeError

_VAR_FLOOR = 1e-12


@dataclasses.dataclass
class OodStats:
    env_lo: dict
    env_hi: dict
    tau: float
    latent_mean: np.ndarray
    latent_var: np.ndarray
    threshold: float
    q: float

    def to_manifest(self):
        manifest = {"tau": self.tau, "q": self.q, "threshold": self.threshold}
        arrays = {"ood.latent_mean": self.latent_mean,
                  "ood.latent_var": self.latent_var}
        for g in pipeline.GROUPS:
            arrays[f"ood.env_lo.{g}"] = self.env_lo[g]
            arrays[f"ood.env_hi.{g}"] = self.env_hi[g]
        return manifest, arrays

    @classmethod
    def from_manifest(cls, manifest, arrays):
        env_lo = {g: arrays[f"ood.env_lo.{g}"] for g in pipeline.GROUPS}
        env_hi = {g: arrays[f"ood.env_hi.{g}"] for g in pipeline.GROUPS}
        return cls(env_lo=env_lo, env_hi=env_hi, tau=manifest["tau"],
                   latent_mean=arrays["ood.latent_mean"],
                   latent_var=arrays["ood.latent_var"],
                   threshold=manifest["threshold"], q=manifest["q"])


def _channel_extremes(arr):
    """Per-channel min and max over every axis but the last."""
    axes = tuple(range(arr.ndim - 1))
    return arr.min(axis=axes), arr.max(axis=axes)


def _scores(z, stats):
    var = np.maximum(stats.latent_var, _VAR_FLOOR)
    return np.sum((z - stats.latent_mean) ** 2 / var, axis=-1)


def fit_ood(model, dataset, tau=0.05, q=99.0):
    """Envelopes, latent moments, and the score threshold from train data."""
    split = dataset.train
    if split.n == 0:
        raise ContractError("cannot fit the anomaly guard on an empty train "
                            "split")
    env_lo = {}
    env_hi = {}
    for g in pipeline.GROUPS:
        lo, hi = _channel_extremes(split.groups[g])
        env_lo[g] = lo.astype(np.float64)
        env_hi[g] = hi.astype(np.float64)
    _, z = model.predict(split.groups)
    z = z.astype(np.float64)
    mean = z.mean(axis=0)
    var = z.var(axis=0)
    stats = OodStats(env_lo=env_lo, env_hi=env_hi, tau=float(tau),
                     latent_mean=mean, latent_var=var, threshold=0.0,
                     q=float(q))
    stats.threshold = float(np.percentile(_scores(z, stats), q))
    return stats


def check(z, batch, stats):
    """Flags each sample in a batch dict of normalized group arrays, given
    the model's latent ``z`` [n, d] for that batch.

    Returns (flags bool [n], scores float [n], reasons list of name lists);
    reasons name the offending feature channels or "latent".
    """
    n = batch["g1"].shape[0]
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != n:
        raise ShapeError(f"latent must be [{n}, d], got {z.shape}")
    reasons = [[] for _ in range(n)]
    for name, g, i in pipeline.FEATURE_CHANNELS:
        arr = np.asarray(batch[g], dtype=np.float64)[..., i].reshape(n, -1)
        span = stats.env_hi[g][i] - stats.env_lo[g][i]
        lo = stats.env_lo[g][i] - stats.tau * span
        hi = stats.env_hi[g][i] + stats.tau * span
        outside = (arr.min(axis=1) < lo) | (arr.max(axis=1) > hi)
        for j in np.flatnonzero(outside):
            reasons[j].append(name)
    scores = _scores(z, stats)
    for j in np.flatnonzero(scores > stats.threshold):
        reasons[j].append("latent")
    flags = np.array([len(r) > 0 for r in reasons], dtype=bool)
    return flags, scores, reasons


def flag_rate(model, split, stats):
    """Fraction of a dataset split the guard flags."""
    _, z = model.predict(split.groups)
    flags, _, _ = check(z, split.groups, stats)
    return float(np.mean(flags))


def write_report_csv(path, cell_ids, flags, scores, reasons):
    buf = io.StringIO()
    buf.write("cell_id,flagged,score,reasons\n")
    for cid, flag, score, reason in zip(cell_ids, flags, scores, reasons):
        buf.write(f"{int(cid)},{int(flag)},{float(score)!r},{'|'.join(reason)}\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))
