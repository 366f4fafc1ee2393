"""Out-of-distribution guard: the model's feature range plus latent distance.

Two criteria.  A sample is flagged when any physical-unit feature leaves
the model's MinMax range [lo, hi], widened by TAU times its span on each
side, or when its diagonal-standardized squared latent distance exceeds the
Q-th percentile of the scores of the rows the weights were last fitted to.
Training fits the guard on the whole train split, fine-tuning refits it on
the tune sample: a threshold only means something for the latent it was
fitted on.  TAU and Q are fixed.
"""

import dataclasses
import io

import numpy as np

from . import blobio
from . import pipeline
from .errors import ContractError, ShapeError

# widening of the feature range, as a fraction of its span
TAU = 0.05
# percentile of the fitted rows' latent scores that sets the threshold
Q = 99.0

_VAR_FLOOR = 1e-12


@dataclasses.dataclass
class OodStats:
    latent_mean: np.ndarray
    latent_var: np.ndarray
    threshold: float

    def to_manifest(self):
        manifest = {"threshold": self.threshold}
        arrays = {"ood.latent_mean": self.latent_mean,
                  "ood.latent_var": self.latent_var}
        return manifest, arrays

    @classmethod
    def from_manifest(cls, manifest, arrays):
        # older files also hold tau and q, which were always TAU and Q
        return cls(latent_mean=arrays["ood.latent_mean"],
                   latent_var=arrays["ood.latent_var"],
                   threshold=manifest["threshold"])


def _scores(z, stats):
    var = np.maximum(stats.latent_var, _VAR_FLOOR)
    return np.sum((z - stats.latent_mean) ** 2 / var, axis=-1)


def fit_ood(model, groups):
    """Latent moments and the score threshold from the physical-unit group
    arrays the model's weights were fitted to."""
    if groups["g1"].shape[0] == 0:
        raise ContractError("cannot fit the anomaly guard on no rows")
    z = model.predict(groups)[1].astype(np.float64)
    stats = OodStats(latent_mean=z.mean(axis=0), latent_var=z.var(axis=0),
                     threshold=0.0)
    stats.threshold = pipeline.sorted_quantile(np.sort(_scores(z, stats)), Q / 100)
    return stats


def check(z, groups, model):
    """Flags each sample in a dict of physical-unit group arrays, given the
    model's latent ``z`` [n, d] for them, against the model's feature range
    and fitted guard.

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
        lo, hi = model.feature_stats[name]
        margin = TAU * (hi - lo)
        outside = (arr.min(axis=1) < lo - margin) | (arr.max(axis=1) > hi + margin)
        for j in np.flatnonzero(outside):
            reasons[j].append(name)
    scores = _scores(z, model.ood_stats)
    for j in np.flatnonzero(scores > model.ood_stats.threshold):
        reasons[j].append("latent")
    flags = np.array([len(r) > 0 for r in reasons], dtype=bool)
    return flags, scores, reasons


def write_report_csv(path, cell_ids, flags, scores, reasons):
    buf = io.StringIO()
    buf.write("cell_id,flagged,score,reasons\n")
    for cid, flag, score, reason in zip(cell_ids, flags, scores, reasons):
        buf.write(f"{int(cid)},{int(flag)},{float(score)!r},{'|'.join(reason)}\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))
