"""Unit tests for the fast Walsh-Hadamard transform."""

import numpy as np
import pytest

from repro.transforms.hadamard import (
    fwht,
    hadamard_matrix,
    is_power_of_two,
    next_power_of_two,
    pad_to_power_of_two,
)


class TestPowerOfTwoHelpers:
    @pytest.mark.parametrize("n,expected", [(1, True), (2, True), (64, True), (3, False), (0, False), (-4, False), (6, False)])
    def test_is_power_of_two(self, n, expected):
        assert is_power_of_two(n) is expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (5, 8), (64, 64), (65, 128)])
    def test_next_power_of_two(self, n, expected):
        assert next_power_of_two(n) == expected

    def test_next_power_rejects_zero(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)


class TestHadamardMatrix:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 32])
    def test_matches_scipy(self, n):
        # the matrices scipy's hadamard(n) builds, Sylvester's
        # construction: entry (i, j) is (-1) ** popcount(i & j),
        # computed here so the check also runs without scipy
        i, j = np.indices((n, n))
        odd = np.vectorize(lambda v: bin(v).count("1") % 2)(i & j)
        assert np.array_equal(hadamard_matrix(n), 1.0 - 2.0 * odd)

    def test_orthogonality(self):
        h = hadamard_matrix(16, normalized=True)
        assert np.allclose(h @ h.T, np.eye(16))

    def test_sign_convention_matches_paper(self):
        # H[f, j] = (-1)^{<f-1, j-1>} / sqrt(d) with 1-based paper indices,
        # i.e. 0-based bit inner products.
        d = 8
        h = hadamard_matrix(d, normalized=True)
        for f in range(d):
            for j in range(d):
                bits = bin(f & j).count("1")
                assert h[f, j] == pytest.approx((-1.0) ** bits / np.sqrt(d))

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            hadamard_matrix(6)


class TestFWHT:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_matches_matrix_multiply(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        assert np.allclose(fwht(x), hadamard_matrix(n) @ x)

    def test_normalized_is_involution(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128)
        assert np.allclose(fwht(fwht(x, normalized=True), normalized=True), x)

    def test_normalized_preserves_norm(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        y = fwht(x, normalized=True)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((5, 32))
        stacked = np.stack([fwht(batch[i]) for i in range(5)])
        assert np.allclose(fwht(batch), stacked)

    def test_input_not_mutated(self):
        x = np.ones(8)
        fwht(x)
        assert np.array_equal(x, np.ones(8))

    def test_rejects_non_power_length(self):
        with pytest.raises(ValueError):
            fwht(np.ones(6))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(32), rng.standard_normal(32)
        assert np.allclose(fwht(x + 2 * y), fwht(x) + 2 * fwht(y))


class TestPadding:
    def test_pads_to_next_power(self):
        out = pad_to_power_of_two(np.ones(5))
        assert out.shape == (8,)
        assert np.array_equal(out[:5], np.ones(5))
        assert np.array_equal(out[5:], np.zeros(3))

    def test_no_copy_needed_when_already_power(self):
        x = np.ones(8)
        assert pad_to_power_of_two(x) is x

    def test_batch_padding(self):
        out = pad_to_power_of_two(np.ones((3, 5)))
        assert out.shape == (3, 8)
