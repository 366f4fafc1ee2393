"""Binary and JSON file formats shared across the package.

Every binary file (world, model, dataset split, restart) is one container:
magic ``PHM1``, the byte length of a JSON manifest as a little-endian u32,
the manifest, then one tensor blob per name of the manifest's ``params``
list, in that order, and nothing after.  A tensor blob is magic ``PHT1``,
dtype code u8 (0 = f32, 1 = f64), ndim u8, dims as u64 little-endian, then
the raw little-endian values (row-major).

Each file kind declares its arrays once, as a layout: a map from array name
to shape, each dimension an int or a name such as ``n_cells``.
:func:`check_layout` checks a file's arrays against it.  A restart file
(manifest format ``restart``, version 2) holds ``cell_id`` as float64 and
each pool of ``RESTART_POOLS`` as float32.

All writers go through a temp-file + rename so consumers never observe a
partially written file.  Binary writers hand the file over in chunks (a
header, then each array's own buffer), so no writer holds a second copy of
the file in memory.  Readers read each payload once, straight into the
array they return.
"""

import itertools
import json
import math
import os
import struct

import numpy as np

from .errors import CompletenessError, ContractError

BLOB_MAGIC = b"PHT1"
MODEL_MAGIC = b"PHM1"
RESTART_VERSION = 2

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: "<f4", 1: "<f8"}

# The pools of a restart file, in file order, and their shapes.
RESTART_POOLS = {**{name: ("n_cells", "n_pft")
                    for name in ("deadcrootc", "deadstemc", "tlai")},
                 **{name: ("n_cells", "n_layers")
                    for name in ("cwdc", "soil3c", "soil4c")}}
RESTART_LAYOUT = {"cell_id": ("n_cells",), **RESTART_POOLS}


# ---------------------------------------------------------------------------
# Atomic write helpers
# ---------------------------------------------------------------------------

def atomic_write_bytes(path, data):
    """Write ``data``, one bytes-like object or an iterable of them written
    in order, to a temp file, then rename it over ``path``.  Chunks are
    written as they come, so a caller never has to join a file's bytes."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    tmp = f"{path}.tmp-{os.getpid()}"
    fh = open(tmp, "wb")
    try:
        with fh:
            for chunk in data:
                fh.write(chunk)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def save_json(path, obj):
    """Write JSON with sorted keys and a stable layout (byte-reproducible)."""
    text = json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "))
    atomic_write_bytes(path, text.encode("utf-8") + b"\n")


def load_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ContractError(f"undecodable JSON in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Tensor blobs
# ---------------------------------------------------------------------------

def tensor_chunks(arr):
    """Encode one array as a PHT1 blob: (header bytes, payload), where the
    payload is the array itself when it is already contiguous little-endian
    f4/f8, so writing the two back to back copies nothing."""
    arr = np.asarray(arr)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ContractError(f"tensor blobs hold float32/float64 only, got {arr.dtype}")
    if arr.ndim > 255:
        raise ContractError("tensor rank exceeds format limit")
    header = BLOB_MAGIC + struct.pack("<BB", code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + dims, np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code])


def _truncated(nbytes, left):
    return ContractError(f"truncated tensor blob payload: its header "
                         f"claims {nbytes} bytes, {left} remain")


def read_tensor(fh):
    """Decode the next PHT1 blob from a seekable binary stream, reading its
    payload once, into the array returned."""
    magic = fh.read(4)
    if magic != BLOB_MAGIC:
        raise ContractError(f"bad tensor blob magic {magic!r}")
    head = fh.read(2)
    if len(head) != 2:
        raise ContractError("truncated tensor blob header")
    code, ndim = struct.unpack("<BB", head)
    if code not in _CODE_DTYPES:
        raise ContractError(f"unknown tensor dtype code {code}")
    raw_dims = fh.read(8 * ndim)
    if len(raw_dims) != 8 * ndim:
        raise ContractError("truncated tensor blob dims")
    dims = struct.unpack(f"<{ndim}Q", raw_dims) if ndim else ()
    dtype = np.dtype(_CODE_DTYPES[code])
    # exact, so a forged header can neither overflow the count nor make
    # the read allocate more than the stream holds
    nbytes = math.prod(dims) * dtype.itemsize
    start = fh.tell()
    left = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    if nbytes > left:
        raise _truncated(nbytes, left)
    arr = np.empty(dims, dtype)
    got = fh.readinto(arr)
    if got != nbytes:
        raise _truncated(nbytes, got)
    native = dtype.newbyteorder("=")
    return arr if dtype == native else arr.byteswap(inplace=True).view(native)


# ---------------------------------------------------------------------------
# The container
# ---------------------------------------------------------------------------

def write_model_file(path, manifest, arrays):
    """Manifest must carry a "params" name list; ``arrays`` maps each name to
    its tensor.  Blobs are written in manifest order."""
    names = manifest.get("params")
    if names is None:
        raise ContractError("model manifest lacks a params list")
    missing = [n for n in names if n not in arrays]
    if missing:
        raise CompletenessError(f"model arrays missing: {', '.join(missing)}")
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = (MODEL_MAGIC, struct.pack("<I", len(blob)), blob)
    blobs = (part for name in names for part in tensor_chunks(arrays[name]))
    atomic_write_bytes(path, itertools.chain(head, blobs))


def read_model_file(path):
    """The manifest and the arrays of a container; every error it raises
    names ``path``."""
    try:
        with open(path, "rb") as fh:
            return _read_container(fh)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


def _read_container(fh):
    magic = fh.read(4)
    if magic != MODEL_MAGIC:
        raise ContractError(f"bad model file magic {magic!r}")
    head = fh.read(4)
    if len(head) != 4:
        raise ContractError("truncated model file manifest length")
    (mlen,) = struct.unpack("<I", head)
    raw = fh.read(mlen)
    if len(raw) != mlen:
        raise ContractError("truncated model file manifest")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ContractError(f"undecodable model file manifest: {exc}") from None
    names = manifest.get("params") if isinstance(manifest, dict) else None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ContractError("model file manifest must be an object with a "
                            "params list of names")
    arrays = {name: read_tensor(fh) for name in names}
    if fh.read(1):
        raise ContractError("trailing bytes after model parameters")
    return manifest, arrays


def check_layout(path, arrays, layout, dims):
    """Check that ``arrays`` holds every array of ``layout`` in its declared
    shape, and return the dimensions bound.  A dimension is an int or a
    name; a name that ``dims`` does not give is bound by the first array
    that uses it."""
    bound = dict(dims)
    for name, shape in layout.items():
        if name not in arrays:
            raise ContractError(f"{path} lacks array {name!r}")
        have = arrays[name].shape
        if len(have) == len(shape):
            for dim, size in zip(shape, have):
                if isinstance(dim, str):
                    bound.setdefault(dim, size)
        if have != tuple(bound.get(d) if isinstance(d, str) else d for d in shape):
            want = ", ".join(f"{d}={bound[d]}" if d in bound else str(d)
                             for d in shape)
            raise ContractError(f"{path}: array {name!r} has shape {have}, "
                                f"should be ({want})")
    return bound


# ---------------------------------------------------------------------------
# Restart files
# ---------------------------------------------------------------------------

def write_restart(path, cell_ids, pools, n_pft, n_layers):
    """Write the ``RESTART_POOLS`` of ``pools`` (each [n_cells, width]) for
    ``cell_ids`` as a restart file.  A missing pool is refused, and so is a
    pool that is negative or not finite as the float32 the file stores (a
    value past float32's range becomes inf), before any file is opened."""
    missing = [name for name in RESTART_POOLS if name not in pools]
    if missing:
        raise CompletenessError(f"restart state missing pools: {', '.join(missing)}")
    with np.errstate(over="ignore"):
        arrays = {name: np.asarray(pools[name], dtype=np.float32) for name in RESTART_POOLS}
    for name, arr in arrays.items():
        if not np.all((arr >= 0.0) & (arr < np.inf)):
            raise ContractError(f"restart pool {name} must be finite and non-negative "
                                "as float32")
    arrays["cell_id"] = np.asarray(cell_ids, dtype=np.float64)
    check_layout(path, arrays, RESTART_LAYOUT, {"n_pft": n_pft, "n_layers": n_layers})
    write_model_file(path, {"format": "restart", "version": RESTART_VERSION,
                            "params": list(RESTART_LAYOUT)}, arrays)


def read_restart(path):
    """Returns (cell_ids int array, pools dict of [n_cells, width] f32, n_pft, n_layers)."""
    manifest, arrays = read_model_file(path)
    if (manifest.get("format"), manifest.get("version")) != ("restart", RESTART_VERSION):
        raise ContractError(f"{path} is not a version {RESTART_VERSION} restart file")
    dims = check_layout(path, arrays, RESTART_LAYOUT, {})
    pools = {name: arrays[name].astype(np.float32, copy=False) for name in RESTART_POOLS}
    return arrays["cell_id"].astype(np.int64), pools, dims["n_pft"], dims["n_layers"]
