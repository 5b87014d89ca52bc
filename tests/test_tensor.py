"""Autodiff engine: forward values, backward edges, finite-difference checks."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from flowtok import tensor as T
from flowtok.tensor import (
    NumericFault,
    ShapeError,
    Tensor,
    broadcast_to,
    concat,
    dense,
    div,
    gelu,
    grad_check,
    logsumexp,
    matmul,
    no_grad,
    run_gradient_suite,
    scale,
    softmax,
    square,
    take_along_last,
    take_rows,
    tsum,
)


class TestForwardValues:
    def test_add_matrices(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) + Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(out.data, [[6.0, 8.0], [10.0, 12.0]])

    def test_mul_by_zero_gives_zero(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        out = x * Tensor(np.zeros((4, 3), dtype=np.float32))
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5)).astype(np.float32)
        out = Tensor(a) @ Tensor(np.eye(5, dtype=np.float32))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3d", "4d"])
    def test_dense_matmul_folds_leading_axes(self, lead):
        """A 2-D right operand runs as one GEMM over every row; values and
        both gradients match NumPy's batched matmul and the per-item sum."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(*lead, 5, 4))
        w = rng.normal(size=(4, 6))
        g = rng.normal(size=(*lead, 5, 6))
        x, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        out = matmul(x, wt)
        np.testing.assert_allclose(out.data, np.matmul(a, w), rtol=1e-12)
        (out * Tensor(g)).sum().backward()
        np.testing.assert_allclose(x.grad, g @ w.T, rtol=1e-12)
        per_item = np.swapaxes(a, -1, -2) @ g
        np.testing.assert_allclose(wt.grad, per_item.reshape(-1, 4, 6).sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_equals_the_plain_expression(self, dtype):
        """The in-place forward and VJP keep the plain expressions' rounding,
        bit for bit."""
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(0.0, 3.0, size=4000),
                            [0.0, -0.0, 1e-30, -1e-30, 50.0, -50.0, 1e20, -1e20]]).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        c, k = math.sqrt(2.0 / math.pi), 0.044715
        with np.errstate(over="ignore", invalid="ignore"):
            th = np.tanh(c * (x + k * (x * x * x)))
            plain = 0.5 * x * (1.0 + th)
            d_inner = c * (1.0 + 3.0 * k * x * x)
            derivative = g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * d_inner)
            t = Tensor(x, requires_grad=True)
            out = gelu(t)
            (out * Tensor(g)).sum().backward()
        assert out.data.tobytes() == plain.tobytes()
        assert t.grad.tobytes() == derivative.tobytes()

    def test_forward_identical_with_and_without_tape(self):
        """Recording gradients must not perturb forward values by a single bit."""
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(4, 3))

        def run():
            x = Tensor(a, requires_grad=True)
            w = Tensor(b, requires_grad=True)
            return gelu(x @ w).sum().item()

        tracked = run()
        with no_grad():
            untracked = run()
        assert tracked == untracked

    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


def _matmul_then_add(x, w, b):
    """dense's oracle: the two-node composite it replaces."""
    return matmul(x, w) + b


class TestDense:
    @pytest.mark.parametrize("shape, frozen_input", [
        ((7, 16), False), ((3, 5, 16), False), ((3, 5, 16), True), ((1, 1, 16), False),
    ], ids=["2d", "batched_3d", "frozen_input", "one_row"])
    def test_bytes_equal_matmul_then_add(self, shape, frozen_input):
        """The forward and each VJP are byte-equal, in float32, to matmul
        followed by add; a frozen input gets no edge and no gradient."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=shape).astype(np.float32)
        w = rng.normal(size=(16, 12)).astype(np.float32)
        b = rng.normal(size=(12,)).astype(np.float32)
        g = rng.normal(size=shape[:-1] + (12,)).astype(np.float32)
        results = []
        for op in (_matmul_then_add, dense):
            xt = Tensor(x, requires_grad=not frozen_input)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            out = op(xt, wt, bt)
            (out * Tensor(g)).sum().backward()
            grads = [t.grad for t in (xt, wt, bt)]
            results.append([out.data.tobytes()] + [None if gr is None else gr.tobytes()
                                                   for gr in grads])
            assert out.dtype == np.float32
        assert results[1] == results[0]
        assert (results[1][1] is None) == frozen_input

    def test_one_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = dense(x, Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))
        assert out.op == "dense" and [parent is x for parent, _ in out._edges] == [True]

    @pytest.mark.parametrize("x, w, b, names", [
        ((2, 3), (4, 5), (5,), "xw"), ((2, 3), (3, 5), (4,), "wb"),
        ((2, 3), (3, 5), (1, 5), "wb"), ((2, 3), (2, 3, 5), (5,), "w"),
    ], ids=["inner", "bias_width", "bias_2d", "weight_3d"])
    def test_shape_error_names_the_shapes(self, x, w, b, names):
        with pytest.raises(ShapeError) as e:
            dense(Tensor(np.ones(x)), Tensor(np.ones(w)), Tensor(np.ones(b)))
        shapes = {"x": x, "w": w, "b": b}
        assert all(str(shapes[name]) in str(e.value) for name in names)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        square(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_constant_keeps_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        (x * c).sum().backward()
        assert c.grad is None
        assert x.grad is not None

    def test_only_leaves_keep_gradients(self):
        """y = 2x is an intermediate: backward gives it no .grad, and the
        leaf gets d(sum y*y)/dx = 8x exactly."""
        x = Tensor([1.0, -2.0, 3.5], requires_grad=True)
        y = scale(x, 2)
        (y * y).sum().backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, np.array([8.0, -16.0, 28.0], dtype=np.float32))

    def test_two_backward_calls_accumulate(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = square(x).sum()
        y.backward()
        y.backward()
        np.testing.assert_array_equal(x.grad, [4.0, 8.0, 12.0])

    def test_zero_grad_resets_accumulation(self):
        x = Tensor([2.0], requires_grad=True)
        y = square(x).sum()
        y.backward()
        x.grad = None
        y.backward()
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_backward_requires_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            scale(x, 2.0).backward()

    def test_reused_operand_accumulates_both_paths(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * x + x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_gradient_shape_matches_value_shape(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        (x @ Tensor(rng.normal(size=(5, 3)).astype(np.float32))).sum().backward()
        assert x.grad.shape == x.shape

    def test_determinism_bitwise(self):
        """Same seed and inputs give bit-identical gradients across runs."""

        def run():
            rng = np.random.default_rng(77)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            (softmax(x @ w) * Tensor(rng.normal(size=(4, 4)).astype(np.float64))).sum().backward()
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


class TestEdges:
    def test_no_edge_and_no_vjp_call_for_an_input_needing_no_gradient(self):
        calls = []
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        out = T._record("probe", x.data * c.data,
                        (x, lambda g: calls.append("x") or g * c.data),
                        (c, lambda g: calls.append("c") or g * x.data))
        assert out.requires_grad
        assert [edge[0] is x for edge in out._edges] == [True]
        tsum(out).backward()
        assert calls == ["x"]
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        assert c.grad is None

    def test_requires_grad_exactly_when_an_edge_is_kept(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        assert (x * c)._edges and (x * c).requires_grad
        assert not (c * c)._edges and not (c * c).requires_grad
        with no_grad():
            assert not (x * c)._edges and not (x * c).requires_grad


def _recorded_op_names() -> set[str]:
    """The op name of every _record call in tensor.py; each must be a literal."""
    tree = ast.parse(Path(T.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_record"]
    assert all(isinstance(c.args[0], ast.Constant) for c in calls), "op name not a literal"
    return {c.args[0].value for c in calls}


def test_every_tape_op_has_a_gradient_suite_case():
    """A tape op cannot land without a finite-difference check: every op
    tensor.py records appears on the tape of some run_gradient_suite case."""
    covered = set()
    for _, fn, arrays in T._suite_cases():
        stack = [fn(*[Tensor(x, requires_grad=True) for x in arrays])]
        while stack:
            t = stack.pop()
            covered.add(t.op)
            stack.extend(parent for parent, _ in t._edges)
    recorded = _recorded_op_names()
    assert {"matmul", "concat", "softmax"} <= recorded
    assert not recorded - covered, f"ops without a gradient suite case: {recorded - covered}"


class TestBroadcasting:
    def test_row_bias_broadcast_over_leading_dim(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_broadcast_to_sums_gradient_back(self):
        v = Tensor(np.arange(3.0), requires_grad=True)
        broadcast_to(v, (5, 3)).sum().backward()
        np.testing.assert_array_equal(v.grad, [5.0, 5.0, 5.0])

    @pytest.mark.parametrize("op, form", [
        ("add", lambda x, y: x + y),
        ("sub", lambda x, y: x - y),
        ("mul", lambda x, y: x * y),
        ("div", div),
    ], ids=["add", "sub", "mul", "div"])
    def test_incompatible_shapes_error_names_both(self, op, form):
        with pytest.raises(ShapeError, match=f"^{op}: shapes") as e:
            form(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)

    @pytest.mark.parametrize("form", [
        lambda x: x * 2.0,
        lambda x: x + np.ones(3),
        lambda x: div(x, 2),
    ], ids=["mul_float", "add_array", "div_int"])
    def test_binary_op_refuses_a_non_tensor_operand(self, form):
        with pytest.raises(TypeError, match="takes two Tensors"):
            form(Tensor([1.0, 2.0, 4.0], requires_grad=True))

    @pytest.mark.parametrize("form", [
        lambda x: 2.0 * x, lambda x: 2.0 - x, lambda x: 2.0 / x, lambda x: -x, lambda x: x**2,
    ], ids=["rmul", "rsub", "rdiv", "neg", "pow"])
    def test_removed_operator_forms_raise(self, form):
        with pytest.raises(TypeError):
            form(Tensor([1.0, 2.0, 4.0]))

    def test_matmul_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(ShapeError) as e:
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 5)))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


class TestIndexingOps:
    def test_take_rows_values_and_scatter_add(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = take_rows(table, np.array([1, 1, 3]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [6.0, 7.0]])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_take_rows_range_check(self):
        with pytest.raises(ShapeError):
            take_rows(Tensor(np.zeros((4, 2))), np.array([0, 4]))

    def test_take_along_last_picks_one_per_row(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = take_along_last(a, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [2.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 0, 1], [1, 0, 0]])

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 5)
        scale(out, 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, 2 * np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, 2 * np.ones((2, 3)))


class TestStableReductions:
    def test_logsumexp_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 7))
        out = logsumexp(Tensor(x, dtype=np.float64))
        expected = np.log(np.exp(x).sum(-1))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_logsumexp_survives_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0]]), dtype=np.float64)
        np.testing.assert_allclose(logsumexp(x).data, [1000.0 + np.log(2.0)])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        s = softmax(Tensor(rng.normal(size=(5, 9))))
        np.testing.assert_allclose(s.data.sum(-1), np.ones(5), rtol=1e-6)


class TestGradCheck:
    def test_sum_error_is_rounding_only(self):
        """A sum is linear, so its central difference errs only by the
        rounding of the shifted inputs and of the sums."""
        err = grad_check(lambda x: tsum(x), [np.array([1.0, 2.0, 4.0])])
        assert err < 1e-9

    def test_linear_function_below_1e6(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(5, 3))
        err = grad_check(
            lambda x: (x @ Tensor(w, dtype=np.float64)).sum(),
            [rng.normal(size=(2, 5))],
        )
        assert err < 1e-6

    def test_gelu_float32_against_central_differences(self):
        """Analytic gelu gradient tracks a float64 numeric one to 1e-3 even
        when the forward pass itself would train in float32."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16,)).astype(np.float32)
        err = grad_check(lambda t: gelu(t).sum(), [x])
        assert err < 1e-3

    def test_matmul_against_central_differences(self):
        rng = np.random.default_rng(9)
        err = grad_check(
            lambda a, b: square(a @ b).sum(),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
        )
        assert err < 1e-6

    def test_full_suite_under_1e5(self):
        report = run_gradient_suite()
        bad = {k: v for k, v in report.items() if v >= 1e-5}
        assert not bad, f"ops over tolerance: {bad}"


class TestNanChecks:
    def test_disabled_by_default_and_raises_when_armed(self):
        x = Tensor(np.array([1000.0], dtype=np.float32))
        with np.errstate(over="ignore"):
            T.texp(x)  # silently overflows to inf
            T.set_nan_checks(True)
            try:
                with pytest.raises(NumericFault):
                    T.texp(x)
            finally:
                T.set_nan_checks(False)


class TestNoGrad:
    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = square(x).sum()
        assert not y.requires_grad

    def test_detach_cuts_history(self):
        x = Tensor([2.0], requires_grad=True)
        y = square(x).detach()
        z = scale(y, 3.0).sum()
        assert not z.requires_grad
        np.testing.assert_array_equal(y.data, [4.0])
