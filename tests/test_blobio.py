"""File format tests: byte-level layout, round-trips, corruption handling."""

import io
import json
import os
import struct

import numpy as np
import pytest

from phase_surrogate import blobio
from phase_surrogate.errors import CompletenessError, ContractError


class TestTensorBlobs:
    def test_exact_byte_layout(self):
        arr = np.array([1.0, 2.0], dtype=np.float32)
        expected = (b"PHT1" + struct.pack("<BB", 0, 1) + struct.pack("<Q", 2)
                    + struct.pack("<2f", 1.0, 2.0))
        assert blobio.tensor_bytes(arr) == expected

    def test_float64_code(self):
        arr = np.array([[3.5]], dtype=np.float64)
        raw = blobio.tensor_bytes(arr)
        assert raw[4] == 1
        assert raw[5] == 2
        assert struct.unpack("<2Q", raw[6:22]) == (1, 1)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 3, 4), (1, 2, 3, 4), (0, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / "t.pht"
        blobio.save_blob_sequence(path, [arr])
        (back,) = blobio.load_blob_sequence(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_sequence_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(3, 2)).astype(np.float32),
                  rng.normal(size=(5,)).astype(np.float64),
                  np.float32(7.0).reshape(())]
        path = tmp_path / "seq.pht"
        blobio.save_blob_sequence(path, arrays)
        back = blobio.load_blob_sequence(path)
        assert len(back) == 3
        for a, b in zip(arrays, back):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_rejects_non_float(self):
        with pytest.raises(ContractError):
            blobio.tensor_bytes(np.arange(3))

    def test_bad_magic(self):
        with pytest.raises(ContractError):
            blobio.read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 16))

    def test_truncated_payload(self):
        raw = blobio.tensor_bytes(np.ones(10, dtype=np.float32))
        with pytest.raises(ContractError):
            blobio.read_tensor(io.BytesIO(raw[:-4]))

    @pytest.mark.parametrize("dims", [(2 ** 59,), (2 ** 40, 2 ** 40),
                                      (2 ** 32, 2 ** 32)])
    def test_claimed_size_beyond_file_rejected(self, tmp_path, dims):
        # a float64 blob of a few bytes whose header claims far more values
        # than it holds; 2**64 values wrap to 0 in int64
        path = tmp_path / "t.pht"
        path.write_bytes(blobio.BLOB_MAGIC
                         + struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims)
                         + b"\x00" * 6)
        with pytest.raises(ContractError, match="truncated"):
            blobio.load_blob_sequence(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "t.pht"
        path.write_bytes(blobio.tensor_bytes(np.ones(2, dtype=np.float32)) + b"junk")
        # the junk is read as the next blob's magic
        with pytest.raises(ContractError, match="magic"):
            blobio.load_blob_sequence(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "t.pht"
        blobio.save_blob_sequence(path, [np.ones(4, dtype=np.float32)])
        blobio.save_blob_sequence(path, [np.zeros(4, dtype=np.float32)])
        assert os.listdir(tmp_path) == ["t.pht"]
        (back,) = blobio.load_blob_sequence(path)
        assert np.array_equal(back, np.zeros(4, dtype=np.float32))


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
        rng = np.random.default_rng(4)
        path = tmp_path / "state.phr"
        blobio.write_restart(path, np.array([2]), self._pools(rng, 1), 5, 9)
        raw = path.read_bytes()
        assert raw[:4] == b"PHRS"
        version, n_pft, n_layers, n_cells = struct.unpack("<BBBQ", raw[4:15])
        assert (version, n_pft, n_layers, n_cells) == (1, 5, 9, 1)

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

    def test_record_layout(self, tmp_path):
        # reference: the header, then per cell a u64 id and every pool as f4
        rng = np.random.default_rng(9)
        pools = self._pools(rng, 3, n_pft=2, n_layers=3)
        ids = np.array([7, 1, 40])
        path = tmp_path / "state.phr"
        blobio.write_restart(path, ids, pools, 2, 3)
        want = [b"PHRS", struct.pack("<BBBQ", 1, 2, 3, 3)]
        for c in range(3):
            want.append(struct.pack("<Q", int(ids[c])))
            want += [pools[name][c].astype("<f4").tobytes()
                     for name in blobio.RESTART_POOLS]
        assert path.read_bytes() == b"".join(want)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.phr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContractError):
            blobio.read_restart(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.phr"
        path.write_bytes(b"PHRS" + b"\x01\x05\x09\x00")
        with pytest.raises(ContractError, match="truncated"):
            blobio.read_restart(path)

    @pytest.mark.parametrize("cut", [1, 64, 2 * (8 + 4 * 42)])
    def test_header_claims_more_cells_than_held(self, tmp_path, cut):
        rng = np.random.default_rng(10)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(3), self._pools(rng, 3), 5, 9)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ContractError, match="claims 3 cells"):
            blobio.read_restart(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "x.phr"
        blobio.write_restart(path, np.arange(2), self._pools(rng, 2), 5, 9)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContractError, match="claims 2 cells"):
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


class TestJson:
    def test_stable_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        blobio.save_json(path, {"b": 2, "a": [1, 2]})
        first = path.read_bytes()
        blobio.save_json(path, {"a": [1, 2], "b": 2})
        assert path.read_bytes() == first
        assert blobio.load_json(path) == {"a": [1, 2], "b": 2}
