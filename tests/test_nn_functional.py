"""Tests for conv/pool/embedding/loss functional ops."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.nn.tensor import Tensor


def naive_conv2d(x, w, stride=1, padding=0):
    """Direct convolution reference for cross-checking the im2col implementation."""
    n, c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_convolution(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(out.data, naive_conv2d(x, w, stride, padding), atol=1e-10)

    def test_bias_added(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 1, 1)))
        bias = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.conv2d(x, w, bias)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 2], 3.0)

    def test_grouped_conv_matches_split(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=2)
        ref_a = naive_conv2d(x[:, :2], w[:2], 1, 1)
        ref_b = naive_conv2d(x[:, 2:], w[2:], 1, 1)
        assert np.allclose(out.data, np.concatenate([ref_a, ref_b], axis=1), atol=1e-10)

    def test_depthwise_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(3, 3, 3, padding=1, groups=3, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        (conv(x) ** 2).sum().backward()
        index = (1, 0, 2, 1)
        eps = 1e-6
        w = conv.weight
        original = w.data[index]
        w.data[index] = original + eps
        hi = float((conv(x) ** 2).sum().data)
        w.data[index] = original - eps
        lo = float((conv(x) ** 2).sum().data)
        w.data[index] = original
        assert w.grad[index] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_central_differences(self, stride, padding, kernel, groups):
        """Input, weight and bias gradients of the GEMM lowering against
        central finite differences of ``sum(conv2d(x, w, b) * r)``."""
        rng = np.random.default_rng(10 * stride + 4 * padding + kernel + groups)
        c_in = c_out = 4
        x = Tensor(rng.normal(size=(2, c_in, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, c_in // groups, kernel, kernel)),
                   requires_grad=True)
        b = Tensor(rng.normal(size=c_out), requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        per_group = [naive_conv2d(x.data[:, g * c_in // groups:(g + 1) * c_in // groups],
                                  w.data[g * c_out // groups:(g + 1) * c_out // groups],
                                  stride, padding) for g in range(groups)]
        expected = np.concatenate(per_group, axis=1) + b.data.reshape(1, -1, 1, 1)
        assert np.allclose(out.data, expected, atol=1e-10)
        r = rng.normal(size=out.shape)
        (out * Tensor(r)).sum().backward()

        def loss() -> float:
            return float((F.conv2d(x, w, b, stride=stride, padding=padding,
                                   groups=groups).data * r).sum())

        eps = 1e-6
        for param in (x, w, b):
            numeric = np.empty_like(param.data)
            for index in np.ndindex(param.shape):
                original = param.data[index]
                param.data[index] = original + eps
                hi = loss()
                param.data[index] = original - eps
                lo = loss()
                param.data[index] = original
                numeric[index] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(param.grad, numeric, rtol=1e-6, atol=1e-7)

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((4, 1, 3, 3))), groups=2)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        assert np.allclose(out.data.reshape(-1), [5, 7, 13, 15])

    def test_max_pool_gradient_goes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        grad = x.grad.reshape(4, 4)
        assert grad.sum() == 4
        assert grad[1, 1] == 1 and grad[3, 3] == 1

    def test_avg_pool_values_and_grad(self):
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        out = F.avg_pool2d(x, 2)
        assert np.allclose(out.data, 1.0)
        out.sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_global_avg_pool(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        out = F.global_avg_pool2d(x)
        assert out.shape == (1, 2)
        assert np.allclose(out.data, [[1.5, 5.5]])


class TestEmbeddingAndLosses:
    def test_embedding_lookup_and_grad(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([[0, 2], [2, 3]])
        out = F.embedding(idx, table)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 2 used twice, rows 0 and 3 once, row 1 never.
        assert np.allclose(table.grad[:, 0], [1, 0, 2, 1])

    def test_log_softmax_normalization(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        logp = F.log_softmax(x)
        assert np.allclose(np.exp(logp.data).sum(axis=-1), 1.0)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 10)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10))
        loss.backward()
        assert logits.grad.shape == (5, 10)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((3, 4), -100.0)
        logits[np.arange(3), [1, 2, 3]] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2, 3]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_3d_logits(self):
        logits = Tensor(np.zeros((2, 3, 5)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros((2, 3), dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(5))

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        assert np.allclose(pred.grad, [1.0, 2.0])


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        """col2im(im2col(x)) equals x scaled by each pixel's window coverage count."""
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5))
        cols = F.im2col(x, kernel=3, stride=1, padding=1)
        back = F.col2im(cols, x.shape, kernel=3, stride=1, padding=1)
        coverage = F.col2im(F.im2col(np.ones_like(x), 3, 1, 1), x.shape, 3, 1, 1)
        assert back.shape == x.shape
        assert np.allclose(back, x * coverage)

    def test_im2col_shape(self):
        x = np.zeros((2, 3, 8, 8))
        cols = F.im2col(x, kernel=2, stride=2, padding=0)
        assert cols.shape == (2, 16, 12)

    @pytest.mark.parametrize("kernel,stride,padding,groups", [
        (3, 1, 1, 1), (3, 2, 1, 1), (2, 2, 0, 1), (1, 2, 0, 1), (3, 1, 0, 2),
        (3, 2, 1, 4)])
    def test_col2im_is_adjoint_of_im2col(self, kernel, stride, padding, groups):
        """<im2col(x), c> == <x, col2im(c)>: the conv input gradient is exact."""
        rng = np.random.default_rng(kernel + stride + padding + groups)
        x = rng.normal(size=(2, 4, 7, 6))
        cols = F.im2col(x, kernel, stride, padding, groups)
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * F.col2im(c, x.shape, kernel, stride, padding, groups)).sum())
        assert rhs == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_im2col_is_c_contiguous(self, groups):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, kernel=3, stride=2, padding=1, groups=groups)
        assert cols.shape == (2, 9, 27)
        assert cols.flags.c_contiguous
