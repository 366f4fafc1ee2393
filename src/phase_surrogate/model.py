"""Surrogate assembly: branch encoders, fusion, the head, persistence.

A :class:`Surrogate` owns one encoder per input branch
(:data:`BRANCH_GROUPS`), a fusion module producing the unified latent,
and one head.  It takes its shapes
(``dims``) and its input scale from its data, so a caller hands it
physical units and gets physical units back.  The physics is the output
and the network a residual (Reichstein et al. 2019): a sample carries the
spin-up prior s, one log factor per turnover group from its observed
window-end pools (g4/g5) to u/k, the head predicts one residual r per
group, and every pool of a group is obs * exp(s + r).  No pool is
negative, and an untrained model, whose output layer starts at zero,
predicts obs * exp(s).  The fluxes are not learned but computed in closed
form, so NPP = GPP - AR holds exactly whatever the weights.
Variants swap or drop components; everything else (the head, loss wiring,
persistence) is shared so a variant differs from the full model by
exactly the removed part.  The dense baseline has one branch, a trunk over
every group, and no fusion.
"""

import dataclasses
import json
import math

import numpy as np

from . import blobio
from . import pipeline
from .autodiff import Tensor
from .encoders import LayeredEncoder, Mlp, TemporalEncoder
from .errors import ConfigurationError, ContractError, ShapeError
from .fusion import ConcatFusion, TransformerFusion
from .ood import OodStats

VARIANTS = ("full", "no_cnn", "no_fc", "no_lstm", "no_trans", "baseline_mlp")

BRANCHES = ("temporal", "layered", "static", "pft")

# The scaled groups each branch reads; several groups are joined along
# their last axis, the trunk's after flattening each sample.
BRANCH_GROUPS = {"temporal": ("g1",), "layered": ("g5",), "static": ("g2",),
                 "pft": ("g3", "g4"), "trunk": pipeline.GROUPS}

_BRANCH_DROPS = {
    "no_lstm": ("temporal",),
    "no_cnn": ("layered",),
    "no_fc": ("static", "pft"),
}

# Model file manifest version.  Version 8 reads only inputs the physics reads;
# version 7 also read five more; version 6 kept a forcing window in its dims.
# Version 6 heads predict one residual per turnover group, added to the prior,
# version 5 heads a log ratio to the observed pools per slow-pool element,
# version 4 MinMax-scaled pools through softplus; version 3 also carries flux
# heads, version 2 keeps the dims in the config, version 1 reads every month.
MODEL_VERSION = 8

# (group, trailing index) of each slow task's observed window-end pools,
# the state its prediction scales
OBSERVED = {task: (g, i) for g in ("g4", "g5")
            for i, task in enumerate(pipeline.GROUP_FIELDS[g])
            if task in pipeline.SLOW_TASKS}

# each slow task's turnover group: its column of the prior and the residual
GROUP_OF = {task: g for g, tasks in enumerate(pipeline.PRIOR_GROUPS)
            for task in tasks}

# Rows per forward pass in :meth:`Surrogate.predict`; bounds the inputs and
# activations one forward pass holds at once, whatever the number of cells.
PREDICT_ROWS = 512


def _fluxes(groups):
    """GPP, AR and NPP [n] of physical-unit samples in closed form: the
    simulator's annual fluxes over each sample's annual forcing cycle (g1),
    under its own alpha, resp_frac and nutrient."""
    g2 = np.asarray(groups["g2"], dtype=np.float64)
    col = pipeline.G2_FIELDS.index
    return dict(zip(pipeline.FLUX_TASKS, pipeline.annual_fluxes(
        pipeline._gbar_of(groups["g1"]), g2[:, col("alpha")],
        g2[:, col("resp_frac")], g2[:, col("nutrient")])))


def observed(groups):
    """Each slow task's observed window-end pools [n, *shape], float64,
    from the physical-unit g4/g5 groups."""
    return {t: np.asarray(groups[g][..., i], dtype=np.float64)
            for t, (g, i) in OBSERVED.items()}


def pools_from(groups, residual):
    """Slow pools in physical units, float64: each task's observed pools
    times exp(prior + residual) of its turnover group, never negative."""
    obs = observed(groups)
    factor = np.exp(np.asarray(groups["prior"], dtype=np.float64) + residual)
    return {t: obs[t] * factor[:, GROUP_OF[t], None] for t in pipeline.SLOW_TASKS}


def residual_targets(groups, pools):
    """What the head fits for positive physical-unit slow ``pools``: each
    turnover group's mean log ratio to the observed pools, less the prior,
    [n, groups], float64."""
    obs = observed(groups)
    n = obs["tlai"].shape[0]
    mean = [np.concatenate([np.log(pools[t] / obs[t]).reshape(n, -1) for t in tasks],
                           axis=1).mean(axis=1) for tasks in pipeline.PRIOR_GROUPS]
    return np.stack(mean, axis=1) - groups["prior"]


def active_branches(variant):
    if variant == "baseline_mlp":
        return ("trunk",)
    dropped = _BRANCH_DROPS.get(variant, ())
    return tuple(b for b in BRANCHES if b not in dropped)


def check_field_types(config):
    """Refuse a config dataclass whose field holds a value of another type
    than the field's; a float field also takes an integer, but neither NaN
    nor an infinity, a tuple field a list, and a tuple holds integers.  A
    bool is not a number here."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        want = {float: (int, float), tuple: (list, tuple)}.get(field.type,
                                                                field.type)
        items = value if field.type is tuple else ()
        if (not isinstance(value, want) or isinstance(value, bool)
                or not all(type(v) is int for v in items)):
            kind = {int: "an integer", float: "a number", str: "a string",
                    tuple: "a list of integers"}[field.type]
            raise ConfigurationError(f"{field.name} must be {kind}, got "
                                     f"{value!r}")
        if field.type is float and not math.isfinite(value):
            raise ConfigurationError(f"{field.name} must be finite, got {value!r}")


def config_from_dict(cls, data, section):
    """A ``cls`` config from a dict, refusing keys it has no field for."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"the {section} config must be an object, "
                                 f"got {data!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigurationError(f"unknown {section} config key {key!r}")
    return cls(**data)


@dataclasses.dataclass
class ModelConfig:
    """Architecture of a :class:`Surrogate`.  The shapes of its inputs and
    outputs are not configured: the model takes them from its data."""

    dim: int = 64
    hidden: int = 64
    heads: int = 4
    depth: int = 2
    ff_mult: int = 4
    channels: tuple = (16, 32)
    variant: str = "full"

    def __post_init__(self):
        check_field_types(self)
        self.channels = tuple(self.channels)
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        for field in ("dim", "hidden", "heads", "depth", "ff_mult"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"{field} must be positive")
        if len(self.channels) != 2 or min(self.channels) < 1:
            raise ConfigurationError("channels must be two positive widths")
        if self.dim % self.heads:
            raise ConfigurationError("dim must be divisible by heads")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return config_from_dict(cls, data, "model")


def _checked_dims(dims):
    """A copy of ``dims``, refused unless it gives each of
    :data:`pipeline.DIMS` as a positive integer."""
    names = pipeline.DIMS
    if not isinstance(dims, dict) or set(dims) != set(names) or not all(
            type(dims[k]) is int and dims[k] >= 1 for k in names):
        raise ContractError(f"dims must give {', '.join(names)} as positive "
                            f"integers, got {dims!r}")
    return dict(dims)


class _NoDraws:
    """Stands in for the random generator when every parameter is about to
    take its value from elsewhere (:meth:`Surrogate.load`,
    :meth:`Surrogate.clone`): each draw the builders ask for comes back as
    zeros of its shape, so the network takes its shapes without drawing, or
    importing, anything random."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)

    @staticmethod
    def standard_normal(size):
        return np.zeros(size)


class Surrogate:
    """Full heterogeneous-input multi-task model for data of shape
    ``dims``: {n_pft, n_layers}, the dims its groups carry
    (:func:`pipeline.group_dims`)."""

    def __init__(self, config, dims, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        self.dims = dims = _checked_dims(dims)
        self.dtype = dtype
        self.feature_stats = None
        self.train_config = None
        self.ood_stats = None
        d, hid = config.dim, config.hidden
        fields = {g: len(pipeline.GROUP_FIELDS[g]) for g in pipeline.GROUPS}
        n_pft, n_layers = dims["n_pft"], dims["n_layers"]
        n_pft_fields = fields["g3"] + fields["g4"]
        flat = (12 * fields["g1"] + fields["g2"] + n_pft * n_pft_fields
                + n_layers * fields["g5"])
        build = {
            "temporal": lambda: TemporalEncoder(
                fields["g1"], hidden=hid, out_dim=d, rng=rng, dtype=dtype),
            "layered": lambda: LayeredEncoder(
                n_layers, fields["g5"], channels=config.channels, out_dim=d,
                rng=rng, dtype=dtype),
            "static": lambda: Mlp((fields["g2"],), (hid, d), rng, dtype),
            "pft": lambda: Mlp((n_pft, n_pft_fields), (hid, d), rng, dtype),
            "trunk": lambda: Mlp((flat,), (hid, hid, d), rng, dtype),
        }
        names = active_branches(config.variant)
        self.branches = {name: build[name]() for name in names}

        self.fusion = None
        if config.variant == "no_trans":
            self.fusion = ConcatFusion(len(names), d, rng=rng, dtype=dtype)
        elif "trunk" not in names:
            self.fusion = TransformerFusion(
                len(names), dim=d, heads=config.heads, n_layers=config.depth,
                ff_mult=config.ff_mult, rng=rng, dtype=dtype)

        # the output layer starts at zero, so an untrained model predicts
        # the prior
        self.heads = Mlp((d,), (hid, len(pipeline.PRIOR_GROUPS)), rng, dtype)
        self.heads.params["w2"].data[...] = 0

    # -- parameters ---------------------------------------------------------

    def named_params(self):
        out = {}
        for name, branch in self.branches.items():
            for key, tensor in branch.named_params().items():
                out[f"{name}.{key}"] = tensor
        if self.fusion is not None:
            for key, tensor in self.fusion.named_params().items():
                out[f"fusion.{key}"] = tensor
        for key, tensor in self.heads.named_params().items():
            out[f"heads.{key}"] = tensor
        return out

    # -- forward ------------------------------------------------------------

    def _inputs(self, groups):
        """Physical-unit groups as the network's inputs: every group scaled
        with the model's own feature stats and cast to its dtype."""
        missing = [g for g in pipeline.GROUPS if g not in groups]
        if missing:
            raise ContractError(f"batch lacks groups: {', '.join(missing)}")
        if np.ndim(groups["g1"]) != 3 or np.shape(groups["g1"])[1] != 12:
            raise ShapeError(f"g1 must be [batch, 12, vars], got shape "
                             f"{np.shape(groups['g1'])}")
        # every variant reads the observed pools of g4 and g5
        for g, dim in (("g3", "n_pft"), ("g4", "n_pft"), ("g5", "n_layers")):
            if np.shape(groups[g])[1:2] != (self.dims[dim],):
                raise ShapeError(f"{g} must be [batch, {dim}, fields] with "
                                 f"{dim} {self.dims[dim]}, got shape "
                                 f"{np.shape(groups[g])}")
        if self.feature_stats is None:
            raise ContractError("model carries no normalization stats")
        return {g: a.astype(self.dtype, copy=False) for g, a in
                pipeline.normalize_groups(groups, self.feature_stats).items()}

    def _branch_latents(self, arrays):
        z_list = []
        for name, enc in self.branches.items():
            parts = [arrays[g] for g in BRANCH_GROUPS[name]]
            if name == "trunk":
                parts = [a.reshape(len(a), -1) for a in parts]
            x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
            z_list.append(enc.encode(Tensor(x)))
        return z_list

    def latent(self, batch):
        """Unified latent [B, d] for a dict of physical-unit groups g1..g5."""
        z_list = self._branch_latents(self._inputs(batch))
        return z_list[0] if self.fusion is None else self.fusion.fuse(z_list)

    def forward(self, batch):
        """Returns (residuals tensor [B, groups], latent tensor) for a dict
        of physical-unit groups."""
        z = self.latent(batch)
        return self.heads.encode(z), z

    def predict(self, groups):
        """Forward pass over a dict of physical-unit group arrays,
        PREDICT_ROWS rows at a time.  Returns (predictions per task in
        physical units, as float64 arrays; latent array [n, d]).  The slow
        pools add the head's residuals to the groups' prior
        (:func:`pools_from`); the fluxes are the closed form of each
        sample's inputs (:func:`_fluxes`)."""
        n = groups["g1"].shape[0]
        width = len(pipeline.PRIOR_GROUPS)
        if np.shape(groups.get("prior")) != (n, width):
            raise ShapeError(f"prior must be [batch, {width}], got shape "
                             f"{np.shape(groups.get('prior'))}")
        preds = {t: [] for t in pipeline.TASKS}
        latents = []
        for start in range(0, n, PREDICT_ROWS):
            chunk = {g: a[start:start + PREDICT_ROWS] for g, a in groups.items()}
            residual, z = self.forward(chunk)
            pools = pools_from(chunk, residual.data)
            for t, v in (*pools.items(), *_fluxes(chunk).items()):
                preds[t].append(v)
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
        if self.ood_stats is None:
            raise ContractError(f"{path}: refusing to save a model without "
                                "an OOD guard")
        params = self.named_params()
        ood_manifest, ood_arrays = self.ood_stats.to_manifest()
        manifest = {
            "format": "surrogate",
            "version": MODEL_VERSION,
            "config": self.config.to_dict(),
            "dims": self.dims,
            "train_config": self.train_config,
            "feature_stats": self.feature_stats,
            "params": sorted(params) + sorted(ood_arrays),
            "ood": ood_manifest,
        }
        arrays = {name: params[name].data for name in params}
        arrays.update(ood_arrays)
        blobio.write_model_file(path, manifest, arrays)

    @classmethod
    def load(cls, path):
        manifest, arrays = blobio.read_model_file(path)
        if manifest.get("format") != "surrogate":
            raise ContractError(f"{path}: not a surrogate model file: "
                                f"{manifest.get('format')!r}")
        if manifest.get("version") != MODEL_VERSION:
            raise ContractError(f"{path}: model file version "
                                f"{manifest.get('version')!r}; this version "
                                f"reads {MODEL_VERSION}: retrain it with train")
        guard = manifest.get("ood")
        if not isinstance(guard, dict):
            raise ContractError(f"{path}: model file carries no OOD guard")
        threshold = guard.get("threshold")
        if type(threshold) not in (int, float) or not math.isfinite(threshold):
            raise ContractError(f"{path}: the OOD threshold must be a finite "
                                f"number, got {threshold!r}")
        feature_stats = pipeline.checked_stats(
            manifest, "feature_stats",
            [c[0] for c in pipeline.FEATURE_CHANNELS], f"{path}: model file")
        # the network is rebuilt in its stored parameters' width
        widths = [a.dtype for n, a in arrays.items() if not n.startswith("ood.")]
        try:
            config = ModelConfig.from_dict(manifest.get("config"))
            model = cls(config, manifest.get("dims"), rng=_NoDraws,
                        dtype=np.result_type(*widths) if widths else np.float32)
        except (ConfigurationError, ContractError) as exc:
            raise ContractError(f"{path}: {exc}") from None
        params = model.named_params()
        layout = {name: tensor.data.shape for name, tensor in params.items()}
        layout.update({name: (config.dim,)
                       for name in ("ood.latent_mean", "ood.latent_var")})
        blobio.check_layout(path, arrays, layout, {})
        for name, tensor in params.items():
            tensor.data = arrays[name].astype(tensor.data.dtype, copy=False)
        model.train_config = manifest.get("train_config")
        model.feature_stats = feature_stats
        model.ood_stats = OodStats.from_manifest(guard, arrays)
        return model

    def clone(self):
        twin = Surrogate(self.config, self.dims, rng=_NoDraws,
                         dtype=self.dtype)
        source = self.named_params()
        for name, tensor in twin.named_params().items():
            np.copyto(tensor.data, source[name].data)
        twin.feature_stats = self.feature_stats
        twin.train_config = self.train_config
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
