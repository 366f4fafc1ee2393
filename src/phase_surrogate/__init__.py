"""Physics-integrated surrogate for land-carbon spin-up.

Submodules are imported lazily so that lightweight uses (for example the
command-line entry point setting thread environment variables) do not pay for
numpy-backed modules they never touch.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "ablation",
    "autodiff",
    "blobio",
    "cli",
    "encoders",
    "errors",
    "fusion",
    "metrics",
    "model",
    "ood",
    "pipeline",
    "simulator",
    "training",
)


def __getattr__(name):
    if name in _SUBMODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
