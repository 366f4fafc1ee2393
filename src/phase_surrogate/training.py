"""Loss, Adam optimizer, training loop, and fine-tuning.

Batches carry features in physical units, as the dataset stores them; the
model scales them with the feature stats it adopts from the training split.
The slow targets are mapped once, from the dataset's MinMax space through
physical units to what the model's head predicts: each turnover group's
mean log ratio of u/k to the observed pools, less the sample's prior
(:func:`model.residual_targets`).  The loss is one MSE between those and
the outputs of ``Surrogate.forward``.  A row whose slow target or
observation is 0 has no finite log ratio and is left out of the fit.  The
flux targets take no part: the model computes the fluxes in closed form,
so NPP = GPP - AR holds exactly without a penalty.

Training and fine-tuning end in one step: fit the weights to a split, less
a held-out tenth for early stopping, then fit the OOD guard to that split,
so a model's guard always describes the rows its weights were last fitted
to."""

import dataclasses
import io
import logging

import numpy as np

from . import autodiff as ad
from . import blobio
from . import ood
from . import pipeline
from .autodiff import GradTape, Tensor
from .errors import (ConfigurationError, ContractError, DivergenceError,
                     RangeError, ShapeError)
from .model import (ModelConfig, Surrogate, check_field_types,
                    config_from_dict, observed, residual_targets)

log = logging.getLogger(__name__)


@dataclasses.dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigurationError(
                "batch_size, max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return config_from_dict(cls, data, "train")


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def total_loss(pred, target):
    """Mean squared error over all samples and components, a scalar
    tensor."""
    target = np.asarray(target)
    if pred.data.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.data.shape} does not match "
                         f"target shape {target.shape}")
    diff = ad.sub(pred, Tensor(target.astype(pred.data.dtype)))
    return ad.mean_all(ad.square(diff))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive moment optimizer over a named parameter dict.

    The parameters become views of one flat buffer, and the moments and
    the gathered gradients are flat buffers of the same layout, so a step
    is a fixed number of whole-buffer ops, however many parameters there
    are.  Every op is elementwise, so each element takes the same
    arithmetic as in a per-array update, bit for bit.  A parameter without
    a gradient keeps its value and moments, as if it were skipped.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        tensors = list(self.params.values())
        dtypes = {t.data.dtype for t in tensors}
        if len(dtypes) > 1:
            raise ContractError(f"Adam needs parameters of one dtype, got "
                                f"{sorted(d.name for d in dtypes)}")
        self.flat = np.concatenate([t.data.reshape(-1) for t in tensors])
        ends = np.cumsum([t.data.size for t in tensors])
        self._spans = [slice(end - t.data.size, end)
                       for t, end in zip(tensors, ends)]
        for t, span in zip(tensors, self._spans):
            t.data = self.flat[span].reshape(t.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self._tmp = np.empty_like(self.flat)
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        g, m, v, p, tmp = self._grad, self.m, self.v, self.flat, self._tmp
        grads = [t.grad for t in self.params.values()]
        # a parameter without a gradient takes a zero one, and gets its
        # value and moments back after the update
        kept = [(span, p[span].copy(), m[span].copy(), v[span].copy())
                for span, grad in zip(self._spans, grads) if grad is None]
        np.concatenate([np.zeros(span.stop - span.start, dtype=p.dtype)
                        if grad is None else grad.reshape(-1)
                        for span, grad in zip(self._spans, grads)], out=g)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        # (m / bias1) / (sqrt(v / bias2) + eps), then p - lr * update,
        # with the gradient's buffer as the denominator's
        np.divide(m, bias1, out=tmp)
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        tmp /= g
        tmp *= self.lr
        p -= tmp
        for span, p_old, m_old, v_old in kept:
            p[span], m[span], v[span] = p_old, m_old, v_old

    def zero_grad(self):
        for tensor in self.params.values():
            tensor.zero_grad()


# ---------------------------------------------------------------------------
# Batching helpers
# ---------------------------------------------------------------------------

def _split_indices(n, seed):
    if n < 2:
        raise ContractError("too few samples to hold out a validation set")
    n_val = max(1, n // 10)
    perm = np.random.default_rng([seed, 13]).permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _batches(split, batch_size):
    return [split.take(slice(start, start + batch_size))
            for start in range(0, split.n, batch_size)]


def _batch_loss(model, batch):
    return total_loss(model.forward(batch.groups)[0], batch.targets["residual"])


def _eval_loss(model, batches):
    loss_sum = 0.0
    n = 0
    for batch in batches:
        loss_sum += _batch_loss(model, batch).data.item() * batch.n
        n += batch.n
    return loss_sum / n


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def _snapshot(params):
    return {k: t.data.copy() for k, t in params.items()}


def _restore(params, state):
    """Copies ``state`` into the parameters' own buffers, which may be
    views of an optimizer's flat buffer."""
    for key, tensor in params.items():
        np.copyto(tensor.data, state[key])


def _write_history(path, rows):
    buf = io.StringIO()
    buf.write("epoch,train_loss,val_loss\n")
    for epoch, tr, val in rows:
        buf.write(f"{epoch},{tr!r},{val!r}\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))


def _optimize(model, train_split, val_split, config, history_path=None):
    params = model.named_params()
    opt = Adam(params, lr=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 17])
    batches = _batches(train_split, config.batch_size)
    val_batches = _batches(val_split, config.batch_size)
    best_val = np.inf
    best_state = _snapshot(params)
    bad = 0
    history = []
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(len(batches))
        loss_sum = 0.0
        n_seen = 0
        for b in order:
            batch = batches[b]
            with GradTape() as tape:
                total = _batch_loss(model, batch)
            if not np.isfinite(total.data):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            opt.zero_grad()
            tape.backward(total)
            opt.step()
            loss_sum += total.data.item() * batch.n
            n_seen += batch.n
        train_loss = loss_sum / n_seen
        val_loss = _eval_loss(model, val_batches)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch "
                                  f"{epoch}")
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_state = _snapshot(params)
            bad = 0
        else:
            bad += 1
            if bad >= config.patience:
                break
    _restore(params, best_state)
    if history_path is not None:
        _write_history(history_path, history)
    return history


def _residual_split(dataset, split):
    """``split`` with its one target, ``residual``, what the head fits
    (:func:`model.residual_targets`), less each row where a slow target or
    its observation is 0."""
    pools = {t: dataset.denorm_target(t, split.targets[t])
             for t in pipeline.SLOW_TASKS}
    obs = observed(split.groups)
    zero = np.zeros(split.n, dtype=bool)
    for t in pools:
        zero |= ((pools[t] == 0) | (obs[t] == 0)).reshape(split.n, -1).any(axis=1)
    if zero.any():
        log.warning("left %d of %d rows out of the fit: a slow target or its "
                    "observation is 0", int(zero.sum()), split.n)
        keep = np.flatnonzero(~zero)
        split = split.take(keep)
        pools = {t: v[keep] for t, v in pools.items()}
    return dataclasses.replace(
        split, targets={"residual": residual_targets(split.groups, pools)})


def _fit(model, dataset, split, config, history_path):
    """Fits the model's weights to the residuals of a split of ``dataset``
    (:func:`_residual_split`), less its rows with a zero slow target or observation and a
    held-out tenth for early stopping, then fits its OOD guard to the
    fitted rows."""
    split = _residual_split(dataset, split)
    tr_idx, val_idx = _split_indices(split.n, config.seed)
    model.history = _optimize(model, split.take(tr_idx), split.take(val_idx),
                              config, history_path)
    model.train_config = config.to_dict()
    model.ood_stats = ood.fit_ood(model, split.groups)
    return model


def train(config, dataset, model_config=None, history_path=None):
    """Trains a float32 surrogate, shaped by the dims of the training
    split's arrays, on a built dataset; deterministic under the seed."""
    if dataset.train.n == 0:
        raise ContractError("dataset has no training samples")
    if model_config is None:
        model_config = ModelConfig()
    model = Surrogate(model_config, pipeline.group_dims(dataset.train.groups),
                      rng=np.random.default_rng([config.seed, 5]))
    model.feature_stats = dict(dataset.feature_stats)
    return _fit(model, dataset, dataset.train, config, history_path)


def fine_tune(model, fine_dataset, fraction, config, history_path=None):
    """Continues optimization on a seeded fraction of a new dataset, in the
    source model's width, and refits the guard on that fraction.

    The model scales the fine features with its own stats and predicts
    residuals to each sample's own prior, so neither needs re-scaling for
    another dataset.
    """
    if not 0.0 < fraction <= 1.0:
        raise RangeError(f"fraction must lie in (0, 1], got {fraction}")
    n = fine_dataset.train.n
    k = max(2, int(round(fraction * n)))
    pick = np.sort(np.random.default_rng([config.seed, 23]).choice(
        n, size=min(k, n), replace=False))
    return _fit(model.clone(), fine_dataset, fine_dataset.train.take(pick),
                config, history_path)
