"""Out-of-distribution guard: the model's feature range plus latent distance.

Two criteria, both from the training split only.  A sample is flagged when
any physical-unit feature leaves the model's MinMax range [lo, hi], widened
by tau times its span on each side, or when its diagonal-standardized
squared latent distance exceeds the q-th percentile of the training scores.
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
    tau: float
    latent_mean: np.ndarray
    latent_var: np.ndarray
    threshold: float
    q: float

    def to_manifest(self):
        manifest = {"tau": self.tau, "q": self.q, "threshold": self.threshold}
        arrays = {"ood.latent_mean": self.latent_mean,
                  "ood.latent_var": self.latent_var}
        return manifest, arrays

    @classmethod
    def from_manifest(cls, manifest, arrays):
        return cls(tau=manifest["tau"],
                   latent_mean=arrays["ood.latent_mean"],
                   latent_var=arrays["ood.latent_var"],
                   threshold=manifest["threshold"], q=manifest["q"])


def _scores(z, stats):
    var = np.maximum(stats.latent_var, _VAR_FLOOR)
    return np.sum((z - stats.latent_mean) ** 2 / var, axis=-1)


def fit_ood(model, dataset, tau=0.05, q=99.0):
    """Latent moments and the score threshold from train data."""
    if dataset.train.n == 0:
        raise ContractError("cannot fit the anomaly guard on an empty train "
                            "split")
    z = model.predict(dataset.train.groups)[1].astype(np.float64)
    mean = z.mean(axis=0)
    var = z.var(axis=0)
    stats = OodStats(tau=float(tau), latent_mean=mean, latent_var=var,
                     threshold=0.0, q=float(q))
    stats.threshold = float(np.percentile(_scores(z, stats), q))
    return stats


def check(z, groups, stats, feature_stats):
    """Flags each sample in a dict of physical-unit group arrays, given the
    model's latent ``z`` [n, d] for them and its ``feature_stats``.

    Returns (flags bool [n], scores float [n], reasons list of name lists);
    reasons name the offending feature channels or "latent".
    """
    n = groups["g1"].shape[0]
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != n:
        raise ShapeError(f"latent must be [{n}, d], got {z.shape}")
    reasons = [[] for _ in range(n)]
    for name, g, i in pipeline.FEATURE_CHANNELS:
        arr = np.asarray(groups[g], dtype=np.float64)[..., i].reshape(n, -1)
        lo, hi = feature_stats[name]
        margin = stats.tau * (hi - lo)
        outside = (arr.min(axis=1) < lo - margin) | (arr.max(axis=1) > hi + margin)
        for j in np.flatnonzero(outside):
            reasons[j].append(name)
    scores = _scores(z, stats)
    for j in np.flatnonzero(scores > stats.threshold):
        reasons[j].append("latent")
    flags = np.array([len(r) > 0 for r in reasons], dtype=bool)
    return flags, scores, reasons


def flag_rate(model, dataset, split, stats):
    """Fraction of a dataset split the guard flags."""
    groups = dataset.split(split).groups
    flags, _, _ = check(model.predict(groups)[1], groups, stats,
                        model.feature_stats)
    return float(np.mean(flags))


def write_report_csv(path, cell_ids, flags, scores, reasons):
    buf = io.StringIO()
    buf.write("cell_id,flagged,score,reasons\n")
    for cid, flag, score, reason in zip(cell_ids, flags, scores, reasons):
        buf.write(f"{int(cid)},{int(flag)},{float(score)!r},{'|'.join(reason)}\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))
