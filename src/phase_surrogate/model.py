"""Surrogate assembly: branch encoders, fusion, task heads, persistence.

A :class:`Surrogate` owns one encoder per input group, a fusion module
producing the unified latent, and one head per task.  Variants swap or drop
components; everything else (heads, loss wiring, persistence) is shared so a
variant differs from the full model by exactly the removed part.
"""

import dataclasses
import json

import numpy as np

from . import blobio
from . import pipeline
from .autodiff import Tensor
from .encoders import (LayeredEncoder, PftEncoder, StaticEncoder,
                       TemporalEncoder, xavier, zeros_param)
from .errors import CompletenessError, ConfigurationError, ContractError, ShapeError
from .fusion import ConcatFusion, TransformerFusion
from .heads import TaskHeads, task_registry
from .simulator import STATIONARY_YEARS

VARIANTS = ("full", "no_cnn", "no_fc", "no_lstm", "no_trans",
            "baseline_mlp", "baseline_pinn")

BRANCHES = ("temporal", "layered", "static", "pft")

_BRANCH_DROPS = {
    "no_lstm": ("temporal",),
    "no_cnn": ("layered",),
    "no_fc": ("static", "pft"),
}

_CHANNEL_NAMES = tuple(name for name, _, _ in pipeline.FEATURE_CHANNELS)

# Rows per forward pass in :meth:`Surrogate.predict`; bounds the inputs and
# activations one forward pass holds at once, whatever the number of cells.
PREDICT_ROWS = 512


def active_branches(variant):
    if variant == "baseline_mlp":
        return ()
    dropped = _BRANCH_DROPS.get(variant, ())
    return tuple(b for b in BRANCHES if b not in dropped)


@dataclasses.dataclass
class ModelConfig:
    dim: int = 64
    hidden: int = 64
    heads: int = 4
    depth: int = 2
    ff_mult: int = 4
    channels: tuple = (16, 32)
    n_pft: int = 5
    n_layers: int = 9
    window_months: int = 12 * STATIONARY_YEARS
    variant: str = "full"
    masked_features: tuple = ()

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.masked_features = tuple(self.masked_features)
        if self.variant == "no_phys":
            raise ConfigurationError(
                "no_phys is a loss setting, not an architecture: use "
                "--variant no_phys or train.phys_weight 0")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        for field in ("dim", "hidden", "heads", "depth", "ff_mult",
                      "n_pft", "n_layers", "window_months"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"{field} must be positive")
        if len(self.channels) != 2 or min(self.channels) < 1:
            raise ConfigurationError("channels must be two positive widths")
        if self.dim % self.heads:
            raise ConfigurationError("dim must be divisible by heads")
        for name in self.masked_features:
            if name not in _CHANNEL_NAMES:
                raise ConfigurationError(f"unknown masked feature {name!r}")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["channels"] = list(self.channels)
        d["masked_features"] = list(self.masked_features)
        return d

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigurationError(f"unknown model config key {key!r}")
        return cls(**data)


class MlpTrunk:
    """Concatenate-everything dense stack used by the plain baseline."""

    def __init__(self, in_dim, hidden, out_dim, rng, dtype=np.float32):
        self.in_dim = in_dim
        self.w1 = xavier(rng, (in_dim, hidden), dtype)
        self.b1 = zeros_param(hidden, dtype)
        self.w2 = xavier(rng, (hidden, hidden), dtype)
        self.b2 = zeros_param(hidden, dtype)
        self.w3 = xavier(rng, (hidden, out_dim), dtype)
        self.b3 = zeros_param(out_dim, dtype)

    def named_params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}

    def encode(self, x):
        from . import autodiff as ad
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise ShapeError(f"expected [batch, {self.in_dim}] input, "
                             f"got {x.data.shape}")
        h = ad.relu(ad.add_rowvec(ad.matmul(x, self.w1), self.b1))
        h = ad.relu(ad.add_rowvec(ad.matmul(h, self.w2), self.b2))
        return ad.add_rowvec(ad.matmul(h, self.w3), self.b3)


def _delta_registry(n_pft, n_layers):
    reg = {}
    for task, entry in task_registry(n_pft, n_layers).items():
        if task in pipeline.SLOW_TASKS:
            reg[task] = {"shape": entry["shape"], "nonneg": False}
    return reg


class Surrogate:
    """Full heterogeneous-input multi-task model."""

    def __init__(self, config, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        self.dtype = dtype
        self.feature_stats = None
        self.target_stats = None
        self.train_config = None
        self.ood_stats = None
        d, hid = config.dim, config.hidden
        n_g1 = len(pipeline.G1_FIELDS)
        n_g2 = len(pipeline.G2_FIELDS)
        n_pft_fields = len(pipeline.G3_FIELDS) + len(pipeline.G4_FIELDS)
        n_g5 = len(pipeline.G5_FIELDS)

        self.branches = {}
        names = active_branches(config.variant)
        if "temporal" in names:
            self.branches["temporal"] = TemporalEncoder(
                n_g1, hidden=hid, out_dim=d, rng=rng, dtype=dtype)
        if "layered" in names:
            self.branches["layered"] = LayeredEncoder(
                config.n_layers, n_g5, channels=config.channels, out_dim=d,
                rng=rng, dtype=dtype)
        if "static" in names:
            self.branches["static"] = StaticEncoder(
                n_g2, hidden=hid, out_dim=d, rng=rng, dtype=dtype)
        if "pft" in names:
            self.branches["pft"] = PftEncoder(
                config.n_pft, n_pft_fields, hidden=hid, out_dim=d,
                rng=rng, dtype=dtype)

        self.trunk = None
        self.fusion = None
        if config.variant == "baseline_mlp":
            flat = (config.window_months * n_g1 + n_g2
                    + config.n_pft * n_pft_fields + config.n_layers * n_g5)
            self.trunk = MlpTrunk(flat, hid, d, rng, dtype)
        elif config.variant == "no_trans":
            self.fusion = ConcatFusion(len(names), d, rng=rng, dtype=dtype)
        else:
            self.fusion = TransformerFusion(
                len(names), dim=d, heads=config.heads, n_layers=config.depth,
                ff_mult=config.ff_mult, rng=rng, dtype=dtype)

        self.heads = TaskHeads(task_registry(config.n_pft, config.n_layers),
                               in_dim=d, hidden=hid, rng=rng, dtype=dtype)
        self.delta_heads = None
        if config.variant == "baseline_pinn":
            self.delta_heads = TaskHeads(
                _delta_registry(config.n_pft, config.n_layers),
                in_dim=d, hidden=hid, rng=rng, dtype=dtype)

    # -- parameters ---------------------------------------------------------

    def named_params(self):
        out = {}
        for name, branch in self.branches.items():
            for key, tensor in branch.named_params().items():
                out[f"{name}.{key}"] = tensor
        if self.trunk is not None:
            for key, tensor in self.trunk.named_params().items():
                out[f"trunk.{key}"] = tensor
        if self.fusion is not None:
            for key, tensor in self.fusion.named_params().items():
                out[f"fusion.{key}"] = tensor
        for key, tensor in self.heads.named_params().items():
            out[f"heads.{key}"] = tensor
        if self.delta_heads is not None:
            for key, tensor in self.delta_heads.named_params().items():
                out[f"delta.{key}"] = tensor
        return out

    # -- forward ------------------------------------------------------------

    def _inputs(self, groups):
        """Physical-unit groups as the network's inputs: scaled with the
        model's own feature stats, cast to its dtype, masked channels
        zeroed."""
        missing = [g for g in pipeline.GROUPS if g not in groups]
        if missing:
            raise ContractError(f"batch lacks groups: {', '.join(missing)}")
        months = groups["g1"].shape[1]
        if months != self.config.window_months:
            raise ShapeError(f"g1 holds {months} months of forcing; the model "
                             f"reads {self.config.window_months}")
        if self.feature_stats is None:
            raise ContractError("model carries no normalization stats")
        arrays = {g: a.astype(self.dtype, copy=False) for g, a in
                  pipeline.normalize_groups(groups, self.feature_stats).items()}
        for name in self.config.masked_features:
            _, group, idx = next(c for c in pipeline.FEATURE_CHANNELS
                                 if c[0] == name)
            arrays[group][..., idx] = 0.0
        return arrays

    def _branch_latents(self, arrays):
        z_list = []
        for name in active_branches(self.config.variant):
            enc = self.branches[name]
            if name == "temporal":
                z_list.append(enc.encode(Tensor(arrays["g1"])))
            elif name == "layered":
                z_list.append(enc.encode(Tensor(arrays["g5"])))
            elif name == "static":
                z_list.append(enc.encode(Tensor(arrays["g2"])))
            else:
                pft_in = np.concatenate([arrays["g3"], arrays["g4"]], axis=-1)
                z_list.append(enc.encode(Tensor(pft_in)))
        return z_list

    def latent(self, batch):
        """Unified latent [B, d] for a dict of physical-unit groups g1..g5."""
        arrays = self._inputs(batch)
        if self.trunk is not None:
            n = arrays["g1"].shape[0]
            flat = np.concatenate(
                [arrays[g].reshape(n, -1) for g in pipeline.GROUPS], axis=1)
            return self.trunk.encode(Tensor(flat))
        return self.fusion.fuse(self._branch_latents(arrays))

    def forward(self, batch):
        """Returns (predictions dict of normalized tensors, latent tensor)
        for a dict of physical-unit groups."""
        z = self.latent(batch)
        return self.heads.predict_all(z), z

    def delta_forward(self, z):
        if self.delta_heads is None:
            raise ContractError("delta heads exist only on the baseline_pinn "
                                "variant")
        return self.delta_heads.predict_all(z)

    def predict(self, groups):
        """Forward pass over a dict of physical-unit group arrays,
        PREDICT_ROWS rows at a time.  Returns (normalized predictions as
        arrays per task, latent array [n, d])."""
        n = groups["g1"].shape[0]
        preds = {t: [] for t in self.heads.registry}
        latents = []
        for start in range(0, n, PREDICT_ROWS):
            out, z = self.forward(
                {g: a[start:start + PREDICT_ROWS] for g, a in groups.items()})
            for t, p in out.items():
                preds[t].append(p.data)
            latents.append(z.data)
        return ({t: np.concatenate(v, axis=0) for t, v in preds.items()},
                np.concatenate(latents, axis=0))

    def attention_weights(self, groups):
        """Fusion attention [batch, heads, n, n] for physical-unit groups."""
        if self.fusion is None:
            raise ContractError("the dense baseline has no attention")
        return self.fusion.attention_weights(
            self._branch_latents(self._inputs(groups)))

    # -- persistence --------------------------------------------------------

    def save(self, path):
        params = self.named_params()
        manifest = {
            "format": "surrogate",
            "version": 1,
            "config": self.config.to_dict(),
            "train_config": self.train_config,
            "feature_stats": self.feature_stats,
            "target_stats": self.target_stats,
            "params": sorted(params),
        }
        arrays = {name: params[name].data for name in params}
        if self.ood_stats is not None:
            ood_manifest, ood_arrays = self.ood_stats.to_manifest()
            manifest["ood"] = ood_manifest
            manifest["params"] = sorted(params) + sorted(ood_arrays)
            arrays.update(ood_arrays)
        blobio.write_model_file(path, manifest, arrays)

    @classmethod
    def load(cls, path):
        manifest, arrays = blobio.read_model_file(path)
        if manifest.get("format") != "surrogate":
            raise ContractError(f"not a surrogate model file: "
                                f"{manifest.get('format')!r}")
        config = ModelConfig.from_dict(manifest["config"])
        # the network is rebuilt in its stored parameters' width
        widths = [a.dtype for n, a in arrays.items() if not n.startswith("ood.")]
        model = cls(config, rng=np.random.default_rng(0),
                    dtype=np.result_type(*widths) if widths else np.float32)
        params = model.named_params()
        missing = [n for n in params if n not in arrays]
        if missing:
            raise CompletenessError(
                f"model file lacks parameters: {', '.join(missing[:5])}")
        for name, tensor in params.items():
            stored = arrays[name]
            if stored.shape != tensor.data.shape:
                raise ShapeError(f"parameter {name} has shape {stored.shape}, "
                                 f"expected {tensor.data.shape}")
            tensor.data = stored.astype(tensor.data.dtype)
        model.train_config = manifest.get("train_config")
        model.feature_stats = manifest.get("feature_stats")
        model.target_stats = manifest.get("target_stats")
        if "ood" in manifest:
            from .ood import OodStats
            model.ood_stats = OodStats.from_manifest(manifest["ood"], arrays)
        return model

    def clone(self):
        twin = Surrogate(self.config, rng=np.random.default_rng(0),
                         dtype=self.dtype)
        source = self.named_params()
        for name, tensor in twin.named_params().items():
            tensor.data = source[name].data.copy()
        twin.feature_stats = self.feature_stats
        twin.target_stats = self.target_stats
        twin.train_config = self.train_config
        twin.ood_stats = self.ood_stats
        return twin


def config_from_file(path):
    """Reads {"model": {...}, "train": {...}} JSON; either section optional."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also undecodable UTF-8
            raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    for key, section in data.items():
        if key not in ("model", "train"):
            raise ConfigurationError(f"unknown config section {key!r}")
        if not isinstance(section, dict):
            raise ConfigurationError(f"config section {key!r} must be a "
                                     "JSON object")
    return data.get("model", {}), data.get("train", {})
