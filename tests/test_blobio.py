"""File format tests: byte-level layout, round-trips, corruption handling."""

import io
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from phase_surrogate import blobio
from phase_surrogate.errors import CompletenessError, ContractError


def blob(arr):
    return b"".join(blobio.tensor_chunks(arr))


def save(path, *arrays):
    """A container holding ``arrays`` under the names a0, a1, ..."""
    names = [f"a{i}" for i in range(len(arrays))]
    blobio.write_model_file(path, {"params": names}, dict(zip(names, arrays)))


def load(path):
    manifest, arrays = blobio.read_model_file(path)
    return [arrays[name] for name in manifest["params"]]


class TestTensorBlobs:
    def test_exact_byte_layout(self):
        arr = np.array([1.0, 2.0], dtype=np.float32)
        expected = (b"PHT1" + struct.pack("<BB", 0, 1) + struct.pack("<Q", 2)
                    + struct.pack("<2f", 1.0, 2.0))
        assert blob(arr) == expected

    def test_float64_code(self):
        arr = np.array([[3.5]], dtype=np.float64)
        raw = blob(arr)
        assert raw[4] == 1
        assert raw[5] == 2
        assert struct.unpack("<2Q", raw[6:22]) == (1, 1)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 3, 4), (1, 2, 3, 4), (0, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / "t.phm"
        save(path, arr)
        (back,) = load(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_sequence_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(3, 2)).astype(np.float32),
                  rng.normal(size=(5,)).astype(np.float64),
                  np.float32(7.0).reshape(())]
        path = tmp_path / "seq.phm"
        save(path, *arrays)
        back = load(path)
        assert len(back) == 3
        for a, b in zip(arrays, back):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_rejects_non_float(self):
        with pytest.raises(ContractError):
            blob(np.arange(3))

    def test_bad_magic(self):
        with pytest.raises(ContractError):
            blobio.read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 16))

    def test_truncated_payload(self):
        raw = blob(np.ones(10, dtype=np.float32))
        with pytest.raises(ContractError):
            blobio.read_tensor(io.BytesIO(raw[:-4]))

    @pytest.mark.parametrize("dims", [(2 ** 59,), (2 ** 40, 2 ** 40),
                                      (2 ** 32, 2 ** 32)])
    def test_claimed_size_beyond_file_rejected(self, tmp_path, dims):
        # a float64 blob of a few bytes whose header claims far more values
        # than it holds; 2**64 values wrap to 0 in int64
        path = tmp_path / "t.phm"
        raw = json.dumps({"params": ["w"]}).encode("utf-8")
        path.write_bytes(blobio.MODEL_MAGIC + struct.pack("<I", len(raw)) + raw
                         + blobio.BLOB_MAGIC
                         + struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims)
                         + b"\x00" * 6)
        with pytest.raises(ContractError, match="truncated"):
            blobio.read_model_file(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "t.phm"
        save(path, np.ones(2, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ContractError, match="trailing"):
            blobio.read_model_file(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "t.phm"
        save(path, np.ones(4, dtype=np.float32))
        save(path, np.zeros(4, dtype=np.float32))
        assert os.listdir(tmp_path) == ["t.phm"]
        (back,) = load(path)
        assert np.array_equal(back, np.zeros(4, dtype=np.float32))

    def test_atomic_write_takes_chunks(self, tmp_path):
        path = tmp_path / "f.bin"
        blobio.atomic_write_bytes(path, [b"ab", bytearray(b"c"),
                                         np.array([1.0], dtype="<f8")])
        assert path.read_bytes() == b"abc" + struct.pack("<d", 1.0)

    def test_failed_chunked_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.phm"
        save(path, np.ones(4, dtype=np.float32))
        with pytest.raises(ContractError, match="float32/float64"):
            save(path, np.zeros(4), np.arange(3))
        assert os.listdir(tmp_path) == ["t.phm"]
        (back,) = load(path)
        assert np.array_equal(back, np.ones(4, dtype=np.float32))


class ShortStream(io.BytesIO):
    """A stream whose reads into a buffer stop 4 bytes short of filling it,
    as a file cut after its length was taken does."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf).cast("B")[:-4])


class TestSingleCopyReads:
    def test_forged_header_refused_before_any_allocation(self, tmp_path):
        # a 128 MiB claim in a file of a few bytes; no buffer of that size
        # may be allocated before the claim is checked
        path = tmp_path / "t.phm"
        raw = json.dumps({"params": ["w"]}).encode("utf-8")
        path.write_bytes(blobio.MODEL_MAGIC + struct.pack("<I", len(raw)) + raw
                         + blobio.BLOB_MAGIC + struct.pack("<BBQ", 1, 1, 2 ** 24)
                         + b"\x00" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="claims 134217728 bytes, 16 remain"):
                blobio.read_model_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_payload_names_both_counts(self):
        raw = blob(np.ones(10, dtype=np.float32))
        with pytest.raises(ContractError, match=r"^truncated tensor blob payload: "
                           r"its header claims 40 bytes, 36 remain$"):
            blobio.read_tensor(io.BytesIO(raw[:-4]))

    def test_short_read_is_the_same_truncation(self):
        raw = blob(np.ones((3, 4), dtype=np.float64))
        with pytest.raises(ContractError, match=r"^truncated tensor blob payload: "
                           r"its header claims 96 bytes, 92 remain$"):
            blobio.read_tensor(ShortStream(raw))

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "t.phm"
        arr = np.ones((64, 1024, 8))  # 4 MiB
        save(path, arr)
        tracemalloc.start()
        try:
            (back,) = load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, arr)
        assert peak < 1.1 * arr.nbytes

    def test_array_is_read_into_its_own_writable_buffer(self):
        arr = np.arange(12.0).reshape(3, 4)
        back = blobio.read_tensor(io.BytesIO(blob(arr)))
        assert back.flags.owndata and back.flags.writeable
        assert back.dtype == np.dtype(np.float64) and np.array_equal(back, arr)


class TestRestartFiles:
    def _pools(self, rng, n_cells, n_pft=5, n_layers=9):
        widths = {"deadcrootc": n_pft, "deadstemc": n_pft, "tlai": n_pft,
                  "cwdc": n_layers, "soil3c": n_layers, "soil4c": n_layers}
        return {name: rng.uniform(0.1, 50.0, size=(n_cells, w)).astype(np.float32)
                for name, w in widths.items()}

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ids = np.array([4, 9, 1150], dtype=np.int64)
        pools = self._pools(rng, 3)
        path = tmp_path / "state.phr"
        blobio.write_restart(path, ids, pools, 5, 9)
        back_ids, back_pools, n_pft, n_layers = blobio.read_restart(path)
        assert (n_pft, n_layers) == (5, 9)
        assert np.array_equal(back_ids, ids)
        for name in blobio.RESTART_POOLS:
            assert np.array_equal(back_pools[name], pools[name])

    def test_header_layout(self, tmp_path):
        # a container: cell ids as float64, then every pool as float32
        rng = np.random.default_rng(4)
        path = tmp_path / "state.phr"
        blobio.write_restart(path, np.array([2]), self._pools(rng, 1), 5, 9)
        manifest, arrays = blobio.read_model_file(path)
        assert manifest == {"format": "restart", "version": 2,
                            "params": ["cell_id", "deadcrootc", "deadstemc",
                                       "tlai", "cwdc", "soil3c", "soil4c"]}
        assert arrays["cell_id"].dtype == np.float64
        assert {arrays[name].dtype for name in blobio.RESTART_POOLS} == {
            np.dtype(np.float32)}

    @pytest.mark.parametrize("value", [1e39, -1e-3, np.nan, np.inf],
                             ids=["past-float32", "negative", "nan", "inf"])
    def test_pool_not_finite_and_non_negative_as_float32_refused(self, tmp_path, value):
        # 1e39 is finite in float64 but past float32's largest value
        pools = {name: arr.astype(np.float64)
                 for name, arr in self._pools(np.random.default_rng(8), 2).items()}
        pools["cwdc"][1, 4] = value
        with pytest.raises(ContractError, match="restart pool cwdc"):
            blobio.write_restart(tmp_path / "x.phr", np.array([0, 1]), pools, 5, 9)
        assert list(tmp_path.iterdir()) == []

    def test_missing_pool_is_completeness_error(self, tmp_path):
        rng = np.random.default_rng(5)
        pools = self._pools(rng, 2)
        del pools["soil4c"]
        with pytest.raises(CompletenessError, match="soil4c"):
            blobio.write_restart(tmp_path / "x.phr", np.array([0, 1]), pools, 5, 9)

    def test_wrong_shape_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        pools = self._pools(rng, 2)
        pools["cwdc"] = pools["cwdc"][:, :5]
        with pytest.raises(ContractError, match="cwdc"):
            blobio.write_restart(tmp_path / "x.phr", np.array([0, 1]), pools, 5, 9)

    def test_float64_pools_stored_as_float32(self, tmp_path):
        # physical-unit predictions arrive as float64
        rng = np.random.default_rng(8)
        pools = {name: arr.astype(np.float64) + 1e-9
                 for name, arr in self._pools(rng, 4).items()}
        ids = np.array([3, 9, 17, 21])
        path = tmp_path / "state.phr"
        blobio.write_restart(path, ids, pools, 5, 9)
        got_ids, back, _, _ = blobio.read_restart(path)
        np.testing.assert_array_equal(got_ids, ids)
        for name, arr in pools.items():
            assert back[name].dtype == np.float32
            np.testing.assert_array_equal(back[name], arr.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.phr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContractError):
            blobio.read_restart(path)

    def test_truncated_header(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(2), self._pools(rng, 2), 5, 9)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(ContractError, match="truncated"):
            blobio.read_restart(path)

    @pytest.mark.parametrize("cut", [1, 64, 2 * (8 + 4 * 42)])
    def test_header_claims_more_cells_than_held(self, tmp_path, cut):
        rng = np.random.default_rng(10)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(3), self._pools(rng, 3), 5, 9)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ContractError, match="truncated"):
            blobio.read_restart(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(2), self._pools(rng, 2), 5, 9)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContractError, match="trailing"):
            blobio.read_restart(path)

    def test_other_version_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(2), self._pools(rng, 2), 5, 9)
        manifest, arrays = blobio.read_model_file(path)
        blobio.write_model_file(path, dict(manifest, version=1), arrays)
        with pytest.raises(ContractError, match="version 2 restart file"):
            blobio.read_restart(path)

    @pytest.mark.parametrize("name,cut", [("cell_id", np.s_[:-1]),
                                          ("soil3c", np.s_[:, :8]),
                                          ("deadstemc", np.s_[:-1])])
    def test_stored_array_of_wrong_shape_rejected(self, tmp_path, name, cut):
        rng = np.random.default_rng(14)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(3), self._pools(rng, 3), 5, 9)
        manifest, arrays = blobio.read_model_file(path)
        arrays[name] = arrays[name][cut]
        blobio.write_model_file(path, manifest, arrays)
        # the cell ids come first and bind n_cells, the first vegetation and
        # layered pools n_pft and n_layers
        bad = "deadcrootc" if name == "cell_id" else name
        with pytest.raises(ContractError, match=f"x.phr: array '{bad}'"):
            blobio.read_restart(path)


class TestModelFiles:
    def test_round_trip_and_rewrite_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        arrays = {"enc.w": rng.normal(size=(4, 3)).astype(np.float32),
                  "enc.b": rng.normal(size=3).astype(np.float32)}
        manifest = {"version": 1, "params": ["enc.w", "enc.b"], "config": {"d": 4}}
        path = tmp_path / "m.phm"
        blobio.write_model_file(path, manifest, arrays)
        back_manifest, back = blobio.read_model_file(path)
        assert back_manifest == manifest
        for name, arr in arrays.items():
            assert np.array_equal(back[name], arr)
        first = path.read_bytes()
        blobio.write_model_file(path, manifest, arrays)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("size", [6, 40])
    def test_truncated_file(self, tmp_path, size):
        # 6 bytes cut the manifest length, 40 bytes the manifest itself
        path = tmp_path / "m.phm"
        blobio.write_model_file(path, {"params": [], "note": "x" * 64}, {})
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ContractError, match="truncated"):
            blobio.read_model_file(path)

    def test_undecodable_manifest(self, tmp_path):
        path = tmp_path / "m.phm"
        path.write_bytes(b"PHM1" + struct.pack("<I", 4) + b"{\xff\xfe}")
        with pytest.raises(ContractError, match="manifest"):
            blobio.read_model_file(path)

    @pytest.mark.parametrize("manifest", [{}, ["params"], {"params": 3},
                                          {"params": [["w"]]}],
                             ids=["no-params", "list", "int-params", "list-name"])
    def test_manifest_must_hold_params_list(self, tmp_path, manifest):
        raw = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "m.phm"
        path.write_bytes(blobio.MODEL_MAGIC + struct.pack("<I", len(raw)) + raw)
        with pytest.raises(ContractError, match="params"):
            blobio.read_model_file(path)

    def test_missing_param_array(self, tmp_path):
        with pytest.raises(CompletenessError, match="enc.b"):
            blobio.write_model_file(tmp_path / "m.phm",
                                    {"params": ["enc.b"]}, {})


    def test_file_is_manifest_then_blobs(self, tmp_path):
        arrays = {"b": np.arange(6, dtype=np.float64).reshape(2, 3).T,
                  "a": np.float32(2.5), "c": np.ones((0, 3), dtype=np.float32)}
        manifest = {"params": ["b", "a", "c"], "note": "x"}
        path = tmp_path / "m.phm"
        blobio.write_model_file(path, manifest, arrays)
        raw = json.dumps(manifest, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        assert path.read_bytes() == (
            b"PHM1" + struct.pack("<I", len(raw)) + raw
            + b"".join(blob(arrays[name]) for name in manifest["params"]))


class TestCheckLayout:
    LAYOUT = {"ids": ("n",), "x": ("n", "k", 3), "y": ("n", "k")}

    def arrays(self, n=4, k=2):
        return {"ids": np.zeros(n), "x": np.zeros((n, k, 3)),
                "y": np.zeros((n, k)), "extra": np.zeros(7)}

    def test_names_bound_by_first_use(self):
        bound = blobio.check_layout("f", self.arrays(), self.LAYOUT, {"m": 1})
        assert bound == {"m": 1, "n": 4, "k": 2}

    def test_given_dims_are_checked(self):
        with pytest.raises(ContractError,
                           match=r"^f: array 'ids' has shape \(4,\), "
                                 r"should be \(n=5\)$"):
            blobio.check_layout("f", self.arrays(), self.LAYOUT, {"n": 5})

    def test_missing_array(self):
        arrays = self.arrays()
        del arrays["y"]
        with pytest.raises(ContractError, match="^f lacks array 'y'$"):
            blobio.check_layout("f", arrays, self.LAYOUT, {})

    @pytest.mark.parametrize("name,shape,want", [
        ("x", (4, 2, 2), "(n=4, k=2, 3)"),
        ("y", (4, 3), "(n=4, k=2)"),
        ("y", (4, 2, 1), "(n=4, k=2)"),
        ("x", (4,), "(n=4, k, 3)"),
    ])
    def test_wrong_shape_names_both_shapes(self, name, shape, want):
        arrays = self.arrays()
        arrays[name] = np.zeros(shape)
        with pytest.raises(ContractError) as info:
            blobio.check_layout("f", arrays, self.LAYOUT, {})
        assert str(info.value) == (f"f: array {name!r} has shape {shape}, "
                                   f"should be {want}")


class TestJson:
    def test_stable_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        blobio.save_json(path, {"b": 2, "a": [1, 2]})
        first = path.read_bytes()
        blobio.save_json(path, {"a": [1, 2], "b": 2})
        assert path.read_bytes() == first
        assert blobio.load_json(path) == {"a": [1, 2], "b": 2}
