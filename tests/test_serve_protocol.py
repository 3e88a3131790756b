"""The serve request schema, result codecs, and cache-key identity.

Everything here is registry-derived: the schema tests iterate the
actual :data:`repro.api.registry.KERNELS` entries so a new kernel is
covered the day it is registered, and the codec tests assert
*bit-exact* round trips (sha256 digests, not allclose) because the
serve layer's contract is bit-identity with direct ``repro.api.run``.
"""

import numpy as np
import pytest

from repro.api.registry import KERNELS
from repro.errors import RequestError
from repro.serve.protocol import (
    GENERATORS,
    REQUEST_FIELDS,
    build_operands,
    cache_params,
    decode_message,
    decode_result,
    encode_message,
    encode_result,
    request_fields,
    request_key,
    result_digest,
    validate_request,
)
from repro.workloads import random_csr, random_dense_vector


def csrmv_payload(**overrides):
    payload = {
        "kernel": "csrmv",
        "workload": {
            "matrix": {"gen": "random_csr", "nrows": 16, "ncols": 64,
                       "nnz": 128, "seed": 1},
            "x": {"gen": "random_dense_vector", "dim": 64, "seed": 2},
        },
    }
    payload.update(overrides)
    return payload


class TestValidateRequest:
    def test_defaults_filled(self):
        req = validate_request(csrmv_payload())
        assert req["backend"] == "compiled"
        assert req["variant"] == "issr"  # normalized from None
        assert req["index_bits"] == 32
        assert req["tenant"] == "anon"
        assert req["priority"] == 1
        assert req["timeout"] is None
        assert req["profile"] is False
        assert req["check"] is True
        assert set(REQUEST_FIELDS) <= set(req)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(RequestError, match="unknown kernel"):
            validate_request(csrmv_payload(kernel="nope"))

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="frobnicate"):
            validate_request(csrmv_payload(frobnicate=1))

    def test_non_mapping_rejected(self):
        with pytest.raises(RequestError, match="mapping"):
            validate_request([("kernel", "csrmv")])

    def test_missing_kernel_rejected(self):
        with pytest.raises(RequestError, match="missing 'kernel'"):
            validate_request({"workload": {}})

    @pytest.mark.parametrize("field,value,hint", [
        ("priority", -1, "priority"),
        ("priority", "high", "priority"),
        ("timeout", 0, "timeout"),
        ("timeout", -3.0, "timeout"),
        ("timeout", "soon", "timeout"),
        ("index_bits", 24, "index_bits"),
        ("tenant", "", "tenant"),
        ("tenant", 7, "tenant"),
    ])
    def test_bad_scalar_fields_rejected(self, field, value, hint):
        with pytest.raises(RequestError, match=hint):
            validate_request(csrmv_payload(**{field: value}))

    def test_unknown_backend_rejected(self):
        with pytest.raises(RequestError, match="unknown backend"):
            validate_request(csrmv_payload(backend="gpu"))

    def test_workload_xor_operands(self):
        with pytest.raises(RequestError, match="exactly one"):
            validate_request({"kernel": "csrmv"})
        with pytest.raises(RequestError, match="exactly one"):
            payload = csrmv_payload()
            payload["operands"] = {"matrix": object(), "x": object()}
            validate_request(payload)

    def test_missing_operand_rejected(self):
        payload = csrmv_payload()
        del payload["workload"]["x"]
        with pytest.raises(RequestError, match="missing \\['x'\\]"):
            validate_request(payload)

    def test_unknown_operand_rejected(self):
        payload = csrmv_payload()
        payload["workload"]["y"] = {"gen": "random_dense_vector", "dim": 4}
        with pytest.raises(RequestError, match="unknown \\['y'\\]"):
            validate_request(payload)

    def test_unwhitelisted_generator_rejected(self):
        payload = csrmv_payload()
        payload["workload"]["x"] = {"gen": "os.system", "cmd": "true"}
        with pytest.raises(RequestError, match="unknown generator"):
            validate_request(payload)

    def test_generator_spec_requires_gen_field(self):
        payload = csrmv_payload()
        payload["workload"]["x"] = {"dim": 64}
        with pytest.raises(RequestError, match="'gen'"):
            validate_request(payload)

    def test_bad_select_rejected(self):
        payload = csrmv_payload()
        payload["workload"]["x"] = {"gen": "random_fiber_pair", "dim": 64,
                                    "nnz_a": 8, "nnz_b": 8, "select": 2}
        with pytest.raises(RequestError, match="select"):
            validate_request(payload)

    def test_variantless_kernel_forces_variant_none(self):
        req = validate_request({
            "kernel": "ttv", "variant": "issr",
            "operands": {"tensor": object(), "vector": object()}})
        assert req["variant"] is None

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_operand_schema_enforced(self, kernel):
        """Registry-driven: wrong operand sets always rejected."""
        with pytest.raises(RequestError, match="operands"):
            validate_request({"kernel": kernel,
                              "operands": {"bogus_operand": object()}})

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_request_fields_appends_operands(self, kernel):
        fields = request_fields(kernel)
        assert fields[:len(REQUEST_FIELDS)] == REQUEST_FIELDS
        expected = tuple(f"workload.{op}" for op in KERNELS[kernel].operands)
        assert fields[len(REQUEST_FIELDS):] == expected


class TestBuildOperands:
    def test_workload_rebuilds_bit_identical_arrays(self):
        req = validate_request(csrmv_payload())
        a = build_operands(req)
        b = build_operands(req)
        direct = random_csr(16, 64, 128, seed=1)
        assert np.array_equal(a["matrix"].vals, b["matrix"].vals)
        assert np.array_equal(a["matrix"].vals, direct.vals)
        assert np.array_equal(a["x"], random_dense_vector(64, seed=2))

    def test_select_indexes_pair_generators(self):
        req = validate_request({
            "kernel": "masked_spvv",
            "workload": {
                "fiber_a": {"gen": "random_fiber_pair", "dim": 64,
                            "nnz_a": 8, "nnz_b": 8, "match_density": 0.5,
                            "seed": 5, "select": 0},
                "fiber_b": {"gen": "random_fiber_pair", "dim": 64,
                            "nnz_a": 8, "nnz_b": 8, "match_density": 0.5,
                            "seed": 5, "select": 1},
            }})
        ops = build_operands(req)
        assert (not np.array_equal(ops["fiber_a"].indices,
                                   ops["fiber_b"].indices)
                or not np.array_equal(ops["fiber_a"].values,
                                      ops["fiber_b"].values))

    def test_bad_generator_kwargs_raise_request_error(self):
        req = validate_request(csrmv_payload())
        req["workload"]["x"] = {"gen": "random_dense_vector",
                                "dimension": 64}
        with pytest.raises(RequestError, match="rejected its parameters"):
            build_operands(req)

    def test_prebuilt_operands_pass_through(self):
        matrix = random_csr(8, 16, 32, seed=9)
        x = random_dense_vector(16, seed=9)
        req = validate_request({"kernel": "csrmv",
                                "operands": {"matrix": matrix, "x": x}})
        ops = build_operands(req)
        assert ops["matrix"] is matrix and ops["x"] is x

    def test_all_whitelisted_generators_exist(self):
        import repro.workloads as workloads

        for name in GENERATORS:
            assert callable(getattr(workloads, name))


class TestCacheKeys:
    def test_key_ignores_tenant_priority_timeout_profile(self):
        base = validate_request(csrmv_payload())
        varied = validate_request(csrmv_payload(
            tenant="other", priority=0, timeout=5.0, profile=True))
        assert cache_params(base) == cache_params(varied)
        assert request_key(base) == request_key(varied)

    @pytest.mark.parametrize("override", [
        {"backend": "cycle"},
        {"variant": "ssr"},
        {"index_bits": 16},
        {"check": False},
    ])
    def test_key_tracks_semantic_fields(self, override):
        base = validate_request(csrmv_payload())
        other = validate_request(csrmv_payload(**override))
        assert request_key(base) != request_key(other)

    def test_key_tracks_workload_params(self):
        base = validate_request(csrmv_payload())
        payload = csrmv_payload()
        payload["workload"]["x"]["seed"] = 3
        other = validate_request(payload)
        assert request_key(base) != request_key(other)

    def test_key_is_stable_across_payload_dict_order(self):
        payload = csrmv_payload()
        reordered = dict(reversed(list(payload.items())))
        reordered["workload"] = {
            op: dict(reversed(list(spec.items())))
            for op, spec in reversed(list(payload["workload"].items()))}
        assert (request_key(validate_request(payload))
                == request_key(validate_request(reordered)))


class TestResultCodecs:
    def csr(self, seed):
        return random_csr(12, 24, 60, seed=seed)

    def test_vector_round_trip_is_bit_exact(self):
        vec = random_dense_vector(257, seed=11) * 1e-37 + np.pi
        wire = decode_message(encode_message(
            {"result": encode_result("vector", vec)}))
        back = decode_result("vector", wire["result"])
        assert result_digest("vector", back) == result_digest("vector", vec)
        assert back.tobytes() == np.asarray(vec, np.float64).tobytes()

    def test_scalar_round_trip_is_bit_exact(self):
        value = np.float64(1.0) / np.float64(3.0)
        wire = decode_message(encode_message(
            {"result": encode_result("scalar", value)}))
        back = decode_result("scalar", wire["result"])
        assert back == value
        assert result_digest("scalar", back) == result_digest("scalar", value)

    def test_dense_round_trip_preserves_shape(self):
        mat = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        back = decode_result("dense", decode_message(encode_message(
            {"result": encode_result("dense", mat)}))["result"])
        assert back.shape == (3, 4)
        assert back.tobytes() == mat.tobytes()

    def test_csr_round_trip_is_bit_exact(self):
        mat = self.csr(seed=13)
        back = decode_result("csr", decode_message(encode_message(
            {"result": encode_result("csr", mat)}))["result"])
        assert result_digest("csr", back) == result_digest("csr", mat)
        assert tuple(back.shape) == tuple(mat.shape)

    def test_digest_distinguishes_nearby_results(self):
        vec = random_dense_vector(64, seed=1)
        bumped = vec.copy()
        bumped[17] = np.nextafter(bumped[17], np.inf)
        assert (result_digest("vector", vec)
                != result_digest("vector", bumped))

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown result kind"):
            encode_result("blob", np.zeros(3))
        with pytest.raises(RequestError, match="unknown result kind"):
            decode_result("blob", {})


class TestWireFraming:
    def test_frame_is_newline_terminated_single_line(self):
        frame = encode_message({"op": "ping", "text": "a\nb"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_bad_json_raises_request_error(self):
        with pytest.raises(RequestError, match="undecodable frame"):
            decode_message(b"{not json")

    def test_nan_refused_at_encode_time(self):
        with pytest.raises(ValueError):
            encode_message({"x": float("nan")})
