"""Binary and JSON file formats shared across the package.

Three container formats live here:

- tensor blobs: magic ``PHT1``, dtype code u8 (0 = f32, 1 = f64), ndim u8,
  dims as u64 little-endian, then the raw little-endian values (row-major);
- restart state files: magic ``PHRS``, version u8, n_pft u8, n_layers u8,
  n_cells u64, then one fixed-size record per cell: the cell id as a
  little-endian u64 (numpy ``<u8``), then each pool of ``RESTART_POOLS`` in
  order as little-endian f4 values, n_pft wide for the three vegetation
  pools and n_layers wide for the three layered pools;
- model files: magic ``PHM1``, a length-prefixed JSON manifest, then one
  tensor blob per parameter in manifest order.

All writers go through a temp-file + rename so consumers never observe a
partially written file.  Binary writers hand the file over in chunks (a
header, then each array's own buffer), so no writer holds a second copy of
the file in memory.
"""

import itertools
import json
import math
import os
import struct

import numpy as np

from .errors import CompletenessError, ContractError

BLOB_MAGIC = b"PHT1"
RESTART_MAGIC = b"PHRS"
MODEL_MAGIC = b"PHM1"
RESTART_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: "<f4", 1: "<f8"}

# Per-cell vector order inside a restart file.
RESTART_POOLS = ("deadcrootc", "deadstemc", "tlai", "cwdc", "soil3c", "soil4c")
# version, n_pft, n_layers, n_cells after the restart magic
_RESTART_HEAD = "<BBBQ"


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


def read_tensor(fh):
    """Decode the next PHT1 blob from a seekable binary stream."""
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
        raise ContractError(f"truncated tensor blob payload: its header "
                            f"claims {nbytes} bytes, {left} remain")
    payload = fh.read(nbytes)
    arr = np.frombuffer(payload, dtype=dtype)
    return arr.reshape(dims).astype(dtype.newbyteorder("="), copy=True)


def save_blob_sequence(path, arrays):
    """Write several blobs back-to-back; order is the caller's contract."""
    atomic_write_bytes(path, (part for a in arrays for part in tensor_chunks(a)))


def load_blob_sequence(path):
    out = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while fh.tell() < size:
            out.append(read_tensor(fh))
    return out


# ---------------------------------------------------------------------------
# Restart state files
# ---------------------------------------------------------------------------

def _restart_dtype(n_pft, n_layers):
    """One restart record: the cell id, then every pool vector."""
    widths = dict(zip(RESTART_POOLS, (n_pft,) * 3 + (n_layers,) * 3))
    return np.dtype([("cell_id", "<u8")]
                    + [(name, "<f4", (widths[name],)) for name in RESTART_POOLS])


def write_restart(path, cell_ids, pools, n_pft, n_layers):
    """Write ``pools`` (each [n_cells, width]) for ``cell_ids`` as a restart
    file; every pool of ``RESTART_POOLS`` must be present."""
    missing = [name for name in RESTART_POOLS if name not in pools]
    if missing:
        raise CompletenessError(f"restart state missing pools: {', '.join(missing)}")
    cell_ids = np.asarray(cell_ids)
    records = np.empty(cell_ids.shape[0], dtype=_restart_dtype(n_pft, n_layers))
    records["cell_id"] = cell_ids
    for name in RESTART_POOLS:
        arr = np.asarray(pools[name])
        if arr.shape != records[name].shape:
            raise ContractError(f"restart pool {name} has shape {arr.shape}, "
                                f"expected {records[name].shape}")
        records[name] = arr
    head = RESTART_MAGIC + struct.pack(_RESTART_HEAD, RESTART_VERSION, n_pft,
                                       n_layers, records.shape[0])
    atomic_write_bytes(path, (head, records))


def read_restart(path):
    """Returns (cell_ids int array, pools dict of [n_cells, width] f32, n_pft, n_layers)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != RESTART_MAGIC:
        raise ContractError(f"bad restart file magic {data[:4]!r}")
    start = 4 + struct.calcsize(_RESTART_HEAD)
    if len(data) < start:
        raise ContractError("truncated restart file header")
    version, n_pft, n_layers, n_cells = struct.unpack_from(_RESTART_HEAD, data, 4)
    if version != RESTART_VERSION:
        raise ContractError(f"unsupported restart file version {version}")
    dtype = _restart_dtype(n_pft, n_layers)
    if len(data) - start != n_cells * dtype.itemsize:
        raise ContractError(f"restart file holds {len(data) - start} record bytes; "
                            f"its header claims {n_cells} cells of {dtype.itemsize}")
    records = np.frombuffer(data, dtype=dtype, offset=start)
    pools = {name: records[name].astype(np.float32) for name in RESTART_POOLS}
    return records["cell_id"].astype(np.int64), pools, n_pft, n_layers


# ---------------------------------------------------------------------------
# Model files
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
    with open(path, "rb") as fh:
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
