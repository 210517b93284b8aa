"""Beam-splitter mesh synthesis and resynthesis."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter import (
    BeamSplitterLayer,
    DomainError,
    MeshProgram,
    decompose,
    design,
    recompose,
)
from qfilter.multiport import _layer_count

from conftest import (
    fifty_fifty_ensemble,
    fifty_fifty_expected_unitary,
    symmetric_expected_unitary,
)

RT2 = math.sqrt(2.0)

DECOMPOSE_REFERENCE = (
    pathlib.Path(__file__).resolve().parent / "golden" / "decompose_reference.json"
)


def embed_layer(layer: BeamSplitterLayer, dim: int) -> np.ndarray:
    """Reference for the layer convention: a two-mode layer embedded into a
    `dim` x `dim` identity, with block ``[[t e^{i phi}, r e^{i phi}], [-r, t]]``
    on rows and columns p, q."""
    mat = np.eye(dim, dtype=complex)
    phase = np.exp(1j * layer.phi)
    p, q = layer.p - 1, layer.q - 1
    mat[p, p] = layer.t * phase
    mat[p, q] = layer.r * phase
    mat[q, p] = -layer.r
    mat[q, q] = layer.t
    return mat


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBeamSplitterLayer:
    def test_unit_energy_budget_is_enforced(self):
        BeamSplitterLayer(1, 2, t=0.6, r=0.8)
        with pytest.raises(DomainError):
            BeamSplitterLayer(1, 2, t=0.6, r=0.9)

    def test_mode_ordering_is_enforced(self):
        with pytest.raises(DomainError):
            BeamSplitterLayer(2, 1, t=1.0, r=0.0)
        with pytest.raises(DomainError):
            BeamSplitterLayer(0, 2, t=1.0, r=0.0)
        with pytest.raises(DomainError):
            BeamSplitterLayer(3, 3, t=1.0, r=0.0)

    @pytest.mark.parametrize("p, q", [(1.0, 2), (1, 2.5), ("1", 2)])
    def test_mode_indices_must_be_integers(self, p, q):
        with pytest.raises(DomainError) as err:
            BeamSplitterLayer(p, q, t=1.0, r=0.0)
        assert str(err.value) == "mode indices must be integers"

    @pytest.mark.parametrize(
        "t, r, phi", [("1", 0.0, 0.0), (1.0, None, 0.0), (1.0, 0.0, "x"), (1.0, 0.0, b"0")]
    )
    def test_t_r_and_phi_must_be_real_numbers(self, t, r, phi):
        with pytest.raises(DomainError) as err:
            BeamSplitterLayer(1, 2, t, r, phi)
        assert str(err.value) == f"t, r and phi must be real numbers, got {(t, r, phi)!r}"

    def test_t_r_and_phi_are_kept_as_float(self):
        layer = BeamSplitterLayer(1, 2, np.float64(0.6), 0.8, 0)
        assert (layer.t, layer.r, layer.phi) == (0.6, 0.8, 0.0)
        assert all(type(x) is float for x in (layer.t, layer.r, layer.phi))

    @pytest.mark.parametrize("p, q", [(1, 2), (1, np.int64(2)), (np.int64(3), np.int64(4))])
    def test_integral_mode_indices_are_kept_as_int(self, p, q):
        layer = BeamSplitterLayer(p, q, t=1.0, r=0.0)
        assert (layer.p, layer.q) == (p, q)
        assert type(layer.p) is int and type(layer.q) is int

    def test_phase_defaults_to_zero(self):
        layer = BeamSplitterLayer(1, 4, t=1.0 / RT2, r=-1.0 / RT2)
        assert layer.phi == 0.0

    def test_embedding_structure(self):
        layer = BeamSplitterLayer(2, 4, t=0.6, r=0.8, phi=0.3)
        mat = np.array(recompose(MeshProgram((layer,), (0.0,) * 4)))
        phase = np.exp(0.3j)
        assert mat[1, 1] == pytest.approx(0.6 * phase, abs=1e-15)
        assert mat[1, 3] == pytest.approx(0.8 * phase, abs=1e-15)
        assert mat[3, 1] == pytest.approx(-0.8, abs=1e-15)
        assert mat[3, 3] == pytest.approx(0.6, abs=1e-15)
        assert mat[0, 0] == mat[2, 2] == 1.0
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-14)


class TestDecompose:
    def test_identity_needs_no_layers(self):
        program = decompose(np.eye(4))
        assert program.layers == ()
        np.testing.assert_allclose(program.output_phases, 0.0, atol=1e-15)

    def test_diagonal_phases_need_no_layers(self):
        phases = np.array([0.3, -1.2, 2.5, 0.0])
        program = decompose(np.diag(np.exp(1j * phases)))
        assert program.layers == ()
        np.testing.assert_allclose(
            np.exp(1j * np.asarray(program.output_phases)),
            np.exp(1j * phases),
            atol=1e-12,
        )

    def test_layer_budget_and_ordering(self):
        rng = np.random.default_rng(17)
        program = decompose(haar_unitary(4, rng))
        assert len(program.layers) <= 6
        pairs = [(layer.p, layer.q) for layer in program.layers]
        allowed = [(3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2)]
        order = [allowed.index(p) for p in pairs]
        assert order == sorted(order)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_random_unitaries(self, seed, dim):
        unitary = haar_unitary(dim, np.random.default_rng(seed))
        program = decompose(unitary)
        assert len(program.layers) <= dim * (dim - 1) // 2
        np.testing.assert_allclose(recompose(program), unitary, atol=1e-9)

    def test_real_orthogonal_matrices_use_real_rotations(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        orth = q * np.sign(np.diag(r))
        program = decompose(orth)
        for layer in program.layers:
            assert min(abs(layer.phi), abs(abs(layer.phi) - math.pi)) < 1e-12
        np.testing.assert_allclose(recompose(program), orth, atol=1e-9)

    def test_non_unitary_input_is_rejected_with_residual(self):
        with pytest.raises(DomainError) as err:
            decompose(np.eye(4) * 1.01)
        assert "residual" in str(err.value) or "unitar" in str(err.value)
        with pytest.raises(DomainError):
            decompose(np.ones((4, 3)))
        with pytest.raises(DomainError) as err:
            decompose(5)
        assert str(err.value) == "expected a square matrix of size >= 2, got ()"

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (
                [[1, 0], [0]],
                "expected a square matrix of size >= 2, got rows of lengths [2, 1]",
            ),
            ("ab", "expected a square matrix of size >= 2, got ()"),
            ([[1, 0], [0, "a"]], "matrix rows must be 1-D sequences of numbers, got [0, 'a']"),
            ([1.0, 0.0], "matrix rows must be 1-D sequences of numbers, got 1.0"),
            ([["1", "0"], ["0", "1"]], "matrix rows must be 1-D sequences of numbers, got ['1', '0']"),
        ],
    )
    def test_malformed_input_is_refused_as_a_domain_error(self, matrix, message):
        with pytest.raises(DomainError) as err:
            decompose(matrix)
        assert str(err.value) == message

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_negative_real_diagonal_gives_plus_pi(self, imag):
        program = decompose(np.diag([complex(-1.0, imag), 1.0, 1j, -1j]))
        assert program.layers == ()
        assert program.output_phases == (math.pi, 0.0, math.pi / 2, -math.pi / 2)

    def test_tiny_reflections_are_dropped(self):
        layer = BeamSplitterLayer(1, 2, t=1.0, r=0.0)
        almost_identity = embed_layer(layer, dim=4)
        program = decompose(almost_identity)
        assert program.layers == ()


class TestMeshPrograms:
    def test_recompose_applies_phases_before_layers(self):
        layer = BeamSplitterLayer(1, 2, t=0.6, r=0.8)
        program = MeshProgram(
            layers=(layer,), output_phases=(0.5, 0.0, 0.0, 0.0)
        )
        expected = embed_layer(layer, 4) @ np.diag(
            np.exp(1j * np.array([0.5, 0.0, 0.0, 0.0]))
        )
        np.testing.assert_allclose(recompose(program), expected, atol=1e-14)

    def test_program_validates_mode_indices(self):
        layer = BeamSplitterLayer(3, 4, t=1.0, r=0.0)
        with pytest.raises(DomainError):
            MeshProgram(layers=(layer,), output_phases=(0.0, 0.0))
        with pytest.raises(DomainError) as err:
            MeshProgram(layers=(), output_phases=(0.0,))
        assert str(err.value) == "a mesh program needs at least 2 modes"

    @pytest.mark.parametrize(
        "layers, phases, message",
        [
            ([], ["0", "0"], "output phases must be real numbers, got ['0', '0']"),
            ([], [0, None], "output phases must be real numbers, got [0, None]"),
            (
                [(1, 2, 1.0, 0.0, 0.0)], [0, 0],
                "layers must be BeamSplitterLayer instances, got (1, 2, 1.0, 0.0, 0.0)",
            ),
        ],
    )
    def test_malformed_program_is_refused_as_a_domain_error(self, layers, phases, message):
        with pytest.raises(DomainError) as err:
            MeshProgram(layers, phases)
        assert str(err.value) == message

    def test_recompose_returns_rows_of_python_complex(self):
        rng = np.random.default_rng(29)
        unitary = haar_unitary(4, rng)
        rows = recompose(decompose(unitary))
        assert type(rows) is list and all(type(row) is list for row in rows)
        assert all(type(x) is complex for row in rows for x in row)
        assert np.abs(np.array(rows) - unitary).max() <= 1e-14


class TestReferenceMeshes:
    def test_fifty_fifty_instance_needs_two_balanced_splitters(self):
        program = decompose(fifty_fifty_expected_unitary())
        assert [(l.p, l.q) for l in program.layers] == [(3, 4), (1, 4)]
        for layer in program.layers:
            assert abs(layer.t) == pytest.approx(1.0 / RT2, abs=1e-12)
            assert abs(layer.r) == pytest.approx(1.0 / RT2, abs=1e-12)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.65])
    def test_symmetric_triple_needs_three_layers(self, s):
        unitary = symmetric_expected_unitary(s)
        program = decompose(unitary)
        assert [(l.p, l.q) for l in program.layers] == [(2, 4), (1, 4), (1, 2)]
        np.testing.assert_allclose(recompose(program), unitary, atol=1e-12)

    def test_designed_unitary_roundtrips(self):
        dsn = design(fifty_fifty_ensemble())
        program = decompose(dsn.unitary)
        np.testing.assert_allclose(recompose(program), dsn.unitary, atol=1e-9)


class TestDecomposeReference:
    """``decompose`` reproduces the meshes recorded in ``decompose_reference.json``.

    The file is frozen: it was written at commit 11cbf56, when ``decompose``
    still applied each layer as a full 4x4 matrix product, by a generator
    script that has since been deleted.  Today's ``decompose`` differs from
    it in the last bits, so regenerating it would turn this test into a
    self-comparison.  It holds 299 unitaries: pipeline-pool designs and
    the answered near-parallel designs in all 6 signal-row orders, real
    orthogonal, permutation and diagonal-phase matrices, almost-identity
    layers and Haar-random unitaries of sizes 2, 3 and 5.  The layer
    sequence must match exactly; parameters agree to 1e-14, output phases
    to 1e-14 modulo 2*pi, and ``recompose`` gives back the unitary to 1e-14.
    """

    def test_meshes_match_the_reference(self):
        entries = json.loads(DECOMPOSE_REFERENCE.read_text(encoding="utf-8"))
        assert len(entries) == 299
        for entry in entries:
            dim = entry["dim"]
            unitary = np.frombuffer(
                bytes.fromhex(entry["unitary"]), dtype=complex
            ).reshape(dim, dim)
            program = decompose(unitary)
            got = [(l.p, l.q) for l in program.layers]
            assert got == [(p, q) for p, q, *_ in entry["layers"]], entry["label"]
            for layer, (_, _, t, r, phi) in zip(program.layers, entry["layers"]):
                assert abs(layer.t - t) <= 1e-14, entry["label"]
                assert abs(layer.r - r) <= 1e-14, entry["label"]
                assert abs(layer.phi - phi) <= 1e-14, entry["label"]
            for got_phase, phase in zip(program.output_phases, entry["output_phases"]):
                assert abs(math.remainder(got_phase - phase, 2.0 * math.pi)) <= 1e-14
            assert np.max(np.abs(recompose(program) - unitary)) <= 1e-14, entry["label"]


class TestLayerCount:
    """``_layer_count`` is the layer count of ``decompose``, from Python rows."""

    def test_matches_decompose_on_the_reference(self):
        entries = json.loads(DECOMPOSE_REFERENCE.read_text(encoding="utf-8"))
        for entry in entries:
            dim = entry["dim"]
            unitary = np.frombuffer(
                bytes.fromhex(entry["unitary"]), dtype=complex
            ).reshape(dim, dim)
            rows = unitary.tolist()
            assert _layer_count(rows) == len(decompose(unitary).layers), entry["label"]
            assert rows == unitary.tolist()

