import contextlib
import gc
import json
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

from risnoma import autodiff as ad
from risnoma import nn
from risnoma.autodiff import ParamStore, Tensor

from fd import fd_check


class TestTapeBasics:
    def test_add_mul_chain(self):
        x = Tensor(2.0)
        y = (x * 3.0 + 1.0) * x  # 3x^2 + x
        y.backward()
        assert x.grad == pytest.approx(13.0)

    def test_getitem_scatters(self):
        x = Tensor(np.arange(4.0))
        x[1:3].sum().backward()
        assert np.allclose(x.grad, [0, 1, 1, 0])

    KEYS = {"slice": (np.s_[1:3], True), "int": (2, True),
            "slices": (np.s_[1:, ::2], True),
            "ellipsis-none": (np.s_[..., None, 1], True),
            "repeated": ([0, 2, 0], False),
            "repeated-tuple": ((np.array([3, 3]), np.s_[:2]), False)}

    @pytest.mark.parametrize("key, basic", list(KEYS.values()),
                             ids=list(KEYS))
    def test_getitem_gradient_is_the_add_at_gradient_bitwise(self, key,
                                                             basic):
        # a basic key scatters by assignment, an advanced one by np.add.at;
        # every key gives x the bits np.add.at into zeros gives, for a
        # first arrival and an accumulation, -0.0 entries included
        rng = np.random.default_rng(4)
        value = rng.normal(size=(4, 3))
        g = rng.normal(size=value[key].shape)
        g.flat[::2] = -0.0
        assert ad._is_basic(key) == basic
        x = Tensor(value)
        y = x[key]
        y._push(g)
        y._push(3.0 * g)

        def add_at(h):
            full = np.zeros_like(value)
            np.add.at(full, key, h)
            return full

        want = add_at(g) + 0.0
        want += add_at(3.0 * g)
        assert x.grad.tobytes() == want.tobytes()

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.array([5.0, 7.0]))
        x[[0, 0, 1]].sum().backward()
        assert np.array_equal(x.grad, [2.0, 1.0])

    def test_repeated_row_gather_gradients(self):
        # one source row feeding several edges, as the message layers gather
        store = ParamStore(3)
        x = store.param("x", (3, 4))
        weights = np.random.default_rng(0).normal(size=(5, 4))
        src = np.array([2, 0, 2, 2, 1])

        def build():
            return (ad.tanh(store.get("x")[src]) * weights).sum()

        fd_check(build, store)

    def test_constant_inputs_get_no_gradient(self):
        rng = np.random.default_rng(1)
        w0, b0 = rng.normal(size=(3, 2)), rng.normal(size=2)
        x0, y0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        c = rng.normal(size=(4, 7))

        def run(inputs_taped):
            w, b = Tensor(w0), Tensor(b0)
            x = Tensor(x0) if inputs_taped else x0
            y = Tensor(y0) if inputs_taped else y0
            (ad.concat([ad.linear([x], w, b), y]) * c).sum().backward()
            return w, b, x, y

        w, b, _, _ = run(False)
        w_ref, b_ref, x_ref, y_ref = run(True)
        assert x_ref.grad is not None and y_ref.grad is not None
        assert np.array_equal(w.grad, w_ref.grad)
        assert np.array_equal(b.grad, b_ref.grad)

    def test_backward_without_seed_needs_a_scalar_root(self):
        with pytest.raises(ValueError, match="scalar root"):
            (Tensor(np.ones(2)) * 2.0).backward()

    def test_broadcast_add_reduces(self):
        b = Tensor(np.zeros(3))
        x = Tensor(np.ones((4, 3)))
        (x + b).sum().backward()
        assert np.allclose(b.grad, [4, 4, 4])

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(3.0)
        (x * x + x).backward()
        assert x.grad == pytest.approx(7.0)

    def test_log_softmax_probabilities(self):
        x = Tensor(np.array([0.1, -2.0, 1.3]))
        ls = ad.log_softmax(x)
        assert np.exp(ls.value).sum() == pytest.approx(1.0)
        ls[2].backward()
        probs = np.exp(ls.value)
        expect = -probs
        expect[2] += 1
        assert np.allclose(x.grad, expect)


class TestFirstArrival:
    @pytest.mark.parametrize("shape, g", [
        ((3,), [-0.0, 1.5, -2.0]),
        ((2, 3), [[-0.0, 0.0, 4.0], [1e-300, -1e-300, -0.0]]),
        ((2, 3), [-0.0, 2.0, -7.5]),        # broadcast over rows
        ((), -0.0),
    ])
    def test_matches_zeros_plus_gradient_bitwise(self, shape, g):
        x = Tensor(np.ones(shape))
        g = np.asarray(g, dtype=float)
        old = np.zeros(shape)
        old += g
        x._accum(g)
        assert x.grad.shape == old.shape
        assert np.array_equal(x.grad, old)
        assert np.array_equal(np.signbit(x.grad), np.signbit(old))
        assert not np.any(np.signbit(x.grad[x.grad == 0]))  # -0.0 -> +0.0

    def test_first_gradient_is_a_fresh_array(self):
        x = Tensor(np.zeros(2))
        g = np.array([1.0, 2.0])
        x._accum(g)
        x._accum(g)
        assert np.array_equal(g, [1.0, 2.0])  # the caller's array untouched
        assert np.array_equal(x.grad, [2.0, 4.0])


class TestTapeLifetime:
    def test_backward_leaves_no_cycle_and_only_leaf_grads(self):
        # the tape must die by reference counting once the root is dropped
        store = ParamStore(2)
        x = np.random.default_rng(0).normal(size=(5, 3))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            h = nn.dense(store, "a", x, 3, 4, "tanh")
            inner = ad.log_softmax(
                ad.gru_scan(h, h, nn.gru_params(store, "g", 4, 4)))
            root = (ad.concat([inner, h]) * 0.5).sum()
            root.backward()
            del root
            gc.collect()
            found = list(gc.garbage)
        finally:
            gc.garbage.clear()
            gc.set_debug(0)
            gc.enable()
        assert found == []  # no Tensor, closure or order list left over
        assert h.grad is None and inner.grad is None
        for name in store.names():
            assert store.get(name).grad is not None, name

    def test_gradients_hand_out_leaf_arrays_that_survive_the_next_pass(self):
        store = ParamStore(1)
        w = store.param("w", (2,))
        (w * 3.0).sum().backward()
        first = store.gradients()["w"]
        assert first is w.grad
        store.zero_grads()
        (w * 5.0).sum().backward()
        assert np.array_equal(first, [3.0, 3.0])
        assert np.array_equal(store.gradients()["w"], [5.0, 5.0])

    @pytest.mark.parametrize("op", ["linear", "concat"])
    def test_taped_op_keeps_no_ndarray_part(self, op):
        # the backward pass of linear reads the joined input, the weight and
        # the column span of each part that takes a gradient, and that of
        # concat its split points: a constant part, such as edge features,
        # dies with the caller's last reference to it
        rng = np.random.default_rng(7)
        state = Tensor(rng.normal(size=(4, 2)))
        feat = rng.normal(size=(4, 3))
        probe = weakref.ref(feat)
        w = Tensor(rng.normal(size=(5, 3)))
        if op == "linear":
            out = ad.linear([feat, state], w, np.zeros(3))
            want = np.ones((4, 3)) @ w.value[3:].T
        else:
            out = ad.concat([feat, state])
            want = np.ones((4, 2))
        del feat
        assert probe() is None
        out.sum().backward()
        assert np.array_equal(state.grad, want)

    def test_deep_chain_needs_no_recursion(self):
        x = Tensor(np.ones(2))
        y = x
        for _ in range(5 * sys.getrecursionlimit()):
            y = y * 1.0
        y.sum().backward()
        assert np.array_equal(x.grad, [1.0, 1.0])


class TestInferenceOps:
    def test_arrays_in_array_out_and_mixed_inputs_tape(self):
        a = np.array([[0.3, -1.2], [2.0, 0.1]])
        w = Tensor(np.array([[1.0, 2.0], [-0.5, 0.25]]))
        for op in (ad.tanh, ad.sigmoid, ad.relu, ad.elu, ad.exp, ad.absolute,
                   ad.square, ad.softplus, ad.log_softmax,
                   lambda v: ad.clip(v, -0.5, 0.5),
                   lambda v: ad.concat([v, v], axis=0),
                   lambda v: ad.linear([v, a], np.ones((4, 3)), np.ones(3)),
                   lambda v: ad.segment_mean(v, ad.Segments([1, 1], 2))):
            free = op(a)
            assert isinstance(free, np.ndarray)
            taped = op(Tensor(a))
            assert isinstance(taped, Tensor)
            assert np.array_equal(free, taped.value)
        for mixed in (ad.linear([a], w, np.zeros(2)), a + w, a * w, a - w,
                      w - a):
            assert isinstance(mixed, Tensor)
        ad.linear([a], w, np.zeros(2)).sum().backward()
        assert np.array_equal(w.grad, np.broadcast_to(a.sum(axis=0)[:, None],
                                                       (2, 2)))

    def test_no_grad_hands_out_parameter_arrays(self):
        store = ParamStore(0)
        w = store.param("w", (3, 2))
        with store.no_grad():
            raw = store.param("w", (3, 2))
            out = nn.dense(store, "d", np.ones((4, 3)), 3, 2, "tanh")
        assert raw is w.value
        assert isinstance(out, np.ndarray)
        assert isinstance(store.param("w", (3, 2)), Tensor)

    @staticmethod
    def _cases(dtype):
        """(name, op) pairs; ``op(T)`` runs one op with ``T`` applied to
        every array input that could carry a gradient."""
        rng = np.random.default_rng(12)

        def draw(*shape):
            return rng.normal(size=shape).astype(dtype)

        a, b, w, bias = draw(6, 4), draw(6, 3), draw(7, 5), draw(5)
        a64 = rng.normal(size=(6, 4))  # float64 whatever ``dtype`` is
        gru = [draw(4, 9), draw(9), draw(3, 9), draw(9)]
        h0 = draw(2, 3)
        dst = [0, 2, 0, 1, 0, 2]  # segment 0 holds three rows, 2 two
        cases = [(name, lambda T, f=f: f(T(a))) for name, f in (
            ("tanh", ad.tanh), ("sigmoid", ad.sigmoid), ("relu", ad.relu),
            ("elu", ad.elu), ("exp", ad.exp), ("absolute", ad.absolute),
            ("softplus", ad.softplus), ("log_softmax", ad.log_softmax),
            ("clip", lambda v: ad.clip(v, -0.5, 0.5)))]
        cases += [
            ("concat", lambda T: ad.concat([T(a), T(b)])),
            ("concat rows", lambda T: ad.concat([T(a), T(a)], axis=0)),
            ("linear", lambda T: ad.linear([T(np.hstack([a, b]))], T(w),
                                           T(bias))),
            ("linear parts", lambda T: ad.linear([T(a), T(b)], T(w),
                                                 T(bias))),
            ("linear float64 part", lambda T: ad.linear([T(a64), T(b)], T(w),
                                                        T(bias))),
            ("gru_scan", lambda T: ad.gru_scan(T(a), T(h0),
                                               [T(v) for v in gru])),
            ("gru_scan float64 input", lambda T: ad.gru_scan(
                T(a64), T(h0), [T(v) for v in gru])),
        ]
        # the plain path's fallbacks: inputs not in the weight's dtype,
        # Tensors among ndarrays, 1-D rows, one step and many steps
        a64w = rng.normal(size=(6, 7))
        cases += [
            ("linear float64 single part", lambda T: ad.linear(
                [T(a64w)], T(w), T(bias))),
            ("linear float64 bias", lambda T: ad.linear(
                [T(a), T(b)], T(w), T(bias.astype(np.float64)))),
            ("linear Tensor bias", lambda T: ad.linear([a, b], w, T(bias))),
            ("linear Tensor part", lambda T: ad.linear([a, T(b)], w, bias)),
            ("linear 1-D", lambda T: ad.linear([T(a[0]), T(b[0])], T(w),
                                               T(bias))),
            ("gru_scan one step", lambda T: ad.gru_scan(
                T(a[:2]), T(h0), [T(v) for v in gru])),
            ("gru_scan six steps", lambda T: ad.gru_scan(
                T(a), T(h0[:1]), [T(v) for v in gru])),
            ("gru_scan 1-D", lambda T: ad.gru_scan(
                T(a[0]), T(h0[0]), [T(v) for v in gru])),
            ("gru_scan float64 state", lambda T: ad.gru_scan(
                T(a), T(h0.astype(np.float64)), [T(v) for v in gru])),
            ("gru_scan Tensor state", lambda T: ad.gru_scan(a, T(h0), gru)),
        ]
        cases.append(("segment_mean",
                      lambda T: ad.segment_mean(T(a), ad.Segments(dst, 4))))
        cases.append(("segment_mean scatter", lambda T: ad.segment_mean(
            T(a), ad.Segments([3, 0, 6, 1, 2, 5], 7))))
        return cases

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plain_path_is_the_taped_value_bitwise(self, dtype):
        # every op on plain arrays returns the value the tape records, in
        # the same dtype: a float64 input meeting float32 weights is cast
        for name, op in self._cases(dtype):
            plain = op(lambda v: v)
            taped = op(lambda v: Tensor(v))
            assert isinstance(plain, np.ndarray), name
            assert isinstance(taped, Tensor), name
            assert plain.dtype == taped.value.dtype == dtype, name
            assert plain.shape == taped.shape, name
            assert plain.tobytes() == taped.value.tobytes(), name


class TestUnaryGradients:
    @pytest.mark.parametrize("fn", [ad.tanh, ad.sigmoid, ad.elu, ad.exp,
                                    ad.softplus, ad.absolute, ad.relu])
    def test_against_finite_differences(self, fn):
        store = ParamStore(0)
        x = store.param("x", (6,))
        x.value = np.random.default_rng(1).uniform(0.2, 1.5, 6)

        def build():
            return fn(store.get("x")).sum()

        fd_check(build, store)


class TestDense:
    def test_identity_passthrough(self):
        store = ParamStore(0)
        x = np.array([0.3, -0.7])
        w = store.param("lin.w", (2, 2))
        w.value = np.eye(2)
        store.param("lin.b", (2,), kind="zeros")
        out = nn.dense(store, "lin", x, 2, 2)
        assert np.allclose(out.value, x)

    def test_zero_input_zero_bias(self):
        store = ParamStore(0)
        out = nn.dense(store, "z", np.zeros(3), 3, 5)
        assert np.allclose(out.value, 0.0)

    @pytest.mark.parametrize("act", ["linear", "tanh", "relu"])
    def test_gradients(self, act):
        store = ParamStore(7)
        x = np.random.default_rng(2).normal(size=4) + 0.1

        def build():
            return nn.dense(store, "d", x, 4, 3, activation=act).sum()

        fd_check(build, store)

    def test_one_tape_node_per_layer(self, monkeypatch):
        store = ParamStore(0)
        x = np.random.default_rng(3).normal(size=(4, 3))
        nn.dense(store, "d", x, 3, 2)  # creates the parameters
        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        out = nn.dense(store, "d", x, 3, 2, "linear")
        assert isinstance(out, Tensor)
        assert len(made) == 1

    def test_shape_mismatch_rejected(self):
        store = ParamStore(0)
        nn.dense(store, "d", np.zeros(3), 3, 2)
        with pytest.raises(ValueError):
            nn.dense(store, "d", np.zeros(4), 4, 2)


class TestLinear:
    """``ad.linear`` against numpy's ``concatenate(parts) @ w + b`` and the
    closed-form gradients of that expression."""

    @staticmethod
    def _case(widths, ndim):
        rng = np.random.default_rng([len(widths), ndim])
        lead = (5,) if ndim == 2 else ()
        parts = [rng.normal(size=lead + (k,)) for k in widths]
        return (parts, rng.normal(size=(sum(widths), 3)),
                rng.normal(size=3), rng.normal(size=lead + (3,)))

    @pytest.mark.parametrize("widths", [(4,), (3, 5), (2, 1, 4)])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_matches_composed_dense(self, widths, ndim):
        values, w0, b0, g = self._case(widths, ndim)
        w, b = Tensor(w0), Tensor(b0)
        parts = [Tensor(v) for v in values]
        out = ad.linear(parts, w, b)
        out.backward(g)
        a = np.concatenate(values, axis=-1)
        assert np.array_equal(out.value, a @ w0 + b0)
        # a 1-D input is one row: a.T @ g is then the outer product
        assert np.array_equal(w.grad, np.atleast_2d(a).T @ np.atleast_2d(g))
        assert np.array_equal(b.grad, np.atleast_2d(g).sum(0))
        lo = 0
        for p, v in zip(parts, values):
            hi = lo + v.shape[-1]
            ref = g @ w0[lo:hi].T
            assert p.grad.shape == ref.shape
            assert np.abs(p.grad - ref).max() <= 1e-15 * np.abs(ref).max()
            lo = hi
        free = ad.linear(values, w0, b0)
        assert isinstance(free, np.ndarray)
        assert np.array_equal(free, out.value)

    @pytest.mark.parametrize("widths", [(4,), (3, 5), (2, 1, 4)])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_dense_over_parts_keeps_the_bits(self, widths, ndim):
        values, _, _, _ = self._case(widths, ndim)
        store = ParamStore(4)
        args = (sum(widths), 3, "tanh")
        taped = nn.dense(store, "d", list(values), *args)
        assert isinstance(taped, Tensor)
        with store.no_grad():
            free = nn.dense(store, "d", list(values), *args)
            ref = nn.dense(store, "d", ad.concat(values), *args)
        assert isinstance(free, np.ndarray)
        assert np.array_equal(taped.value, ref)
        assert np.array_equal(free, ref)

    def test_constant_parts_get_no_gradient(self):
        rng = np.random.default_rng(6)
        feat = rng.normal(size=(4, 3))
        frozen = rng.normal(size=(4, 2))
        s0, w0 = rng.normal(size=(4, 2)), rng.normal(size=(7, 3))

        def run(frozen_taped):
            state, w = Tensor(s0), Tensor(w0)
            part = Tensor(frozen) if frozen_taped else frozen
            ad.linear([state, feat, part], w, np.zeros(3)).sum().backward()
            return state, w, part

        state, w, _ = run(False)
        assert state.grad.shape == (4, 2) and w.grad.shape == (7, 3)
        state_ref, w_ref, part_ref = run(True)
        assert part_ref.grad is not None
        assert np.array_equal(state.grad, state_ref.grad)
        assert np.array_equal(w.grad, w_ref.grad)

    def test_against_finite_differences(self):
        store = ParamStore(3)
        feat = np.random.default_rng(4).normal(size=(5, 3))

        def build():
            parts = [store.param("z", (5, 2)), feat]
            return ad.tanh(ad.linear(parts, store.param("w", (5, 4)),
                                     store.param("b", (4,)))).sum()

        fd_check(build, store)

    def test_rejects_three_axes(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            ad.linear([np.ones((2, 2, 3))], np.ones((3, 1)), np.zeros(1))


class TestGru:
    def test_closed_update_gate_keeps_state(self):
        store = ParamStore(3)
        h = np.random.default_rng(0).normal(size=5)
        weights = nn.gru_params(store, "g", 4, 5)
        store.get("g.x.b").value[:5] = -40.0  # the z gate's columns
        out = ad.gru_scan(np.ones(4), h, weights)
        assert np.allclose(out.value, h, atol=1e-12)

    def test_zero_params_zero_state_fixed_point(self):
        store = ParamStore(0)
        weights = nn.gru_params(store, "g", 3, 4)
        for name in store.names():
            store.get(name).value[:] = 0.0
        out = ad.gru_scan(np.zeros(3), np.zeros(4), weights)
        # gates sit at 1/2, candidate at tanh(0)=0, so h' = 0.5*0 + 0.5*0
        assert np.allclose(out.value, 0.0)

    def test_gradients_one_step(self):
        store = ParamStore(11)
        x = np.random.default_rng(4).normal(size=3)
        h = np.random.default_rng(5).normal(size=4)

        def build():
            return ad.gru_scan(x, h, nn.gru_params(store, "g", 3, 4)).sum()

        fd_check(build, store)

    def test_gradients_through_five_unrolled_steps(self):
        store = ParamStore(13)
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(5, 3))

        def build():
            h = ad.Tensor(np.zeros(4))
            for t in range(5):
                h = ad.gru_scan(xs[t], h, nn.gru_params(store, "g", 3, 4))
            return h.sum()

        fd_check(build, store)


def _composed_gru_step(store, name, x, h, in_dim, hidden):
    """The GRU cell written out in dense, sigmoid and tanh ops, over the
    weights of ``nn.gru_params``: one dense layer over the input and one
    over the state, each with the z, r and c columns side by side."""
    a = nn.dense(store, f"{name}.x", x, in_dim, 3 * hidden)
    e = nn.dense(store, f"{name}.h", h, hidden, 3 * hidden)

    def gate(k, out):
        return out[..., k * hidden:(k + 1) * hidden]
    z = ad.sigmoid(gate(0, a) + gate(0, e))
    r = ad.sigmoid(gate(1, a) + gate(1, e))
    cand = ad.tanh(gate(2, a) + r * gate(2, e))
    return (1.0 - z) * h + z * cand


class TestGruScan:
    STEPS, ROWS, IN, HIDDEN = 5, 3, 2, 4

    def _setup(self, seed=19):
        store = ParamStore(seed)
        rng = np.random.default_rng(seed)
        weights = nn.gru_params(store, "g", self.IN, self.HIDDEN)
        for name in store.names():  # nonzero biases reach every term
            store.get(name).value[:] = rng.normal(
                scale=0.8, size=store.get(name).shape)
        xs = rng.normal(size=(self.STEPS * self.ROWS, self.IN))
        h0 = rng.normal(size=(self.ROWS, self.HIDDEN))
        return store, weights, xs, h0

    def test_gradients_of_inputs_state_and_every_weight(self):
        store, weights, xs, h0 = self._setup()
        x = store.param("x", xs.shape)
        x.value[:] = xs
        h = store.param("h0", h0.shape)
        h.value[:] = h0
        probe = np.random.default_rng(3).normal(
            size=(self.STEPS * self.ROWS, self.HIDDEN))

        def build():
            return (ad.gru_scan(x, h, weights) * probe).sum()

        assert len(store.names()) == 6  # x, h0, two weights, two biases
        fd_check(build, store)

    @pytest.mark.parametrize("taped", [False, True])
    def test_forward_is_stepping_the_cell_bitwise(self, taped):
        store, _, xs, h0 = self._setup()
        with contextlib.nullcontext() if taped else store.no_grad():
            states = ad.gru_scan(xs, h0, nn.gru_params(store, "g", self.IN,
                                                       self.HIDDEN))
            h, composed = h0, h0
            for t in range(self.STEPS):
                rows = xs[t * self.ROWS:(t + 1) * self.ROWS]
                h = ad.gru_scan(rows, h, nn.gru_params(store, "g", self.IN,
                                                       self.HIDDEN))
                composed = _composed_gru_step(store, "g", rows, composed,
                                              self.IN, self.HIDDEN)
                block = ad.value_of(states)[t * self.ROWS:(t + 1) * self.ROWS]
                assert np.array_equal(block, ad.value_of(h))
                assert np.array_equal(block, ad.value_of(composed))
        assert isinstance(states, Tensor) == taped

    def test_gradients_match_the_composed_cell(self):
        store, weights, xs, h0 = self._setup()
        x = Tensor(xs)
        h = Tensor(h0)
        probe = np.random.default_rng(4).normal(
            size=(self.STEPS * self.ROWS, self.HIDDEN))

        def composed():
            state, out = h, []
            for t in range(self.STEPS):
                state = _composed_gru_step(
                    store, "g", x[t * self.ROWS:(t + 1) * self.ROWS], state,
                    self.IN, self.HIDDEN)
                out.append(state)
            return ad.concat(out, axis=0)

        grads = []
        for run in (lambda: ad.gru_scan(x, h, weights), composed):
            store.zero_grads()
            x.grad = h.grad = None
            (run() * probe).sum().backward()
            grads.append([x.grad, h.grad] + [store.get(n).grad
                                             for n in store.names()])
        for a, b in zip(*grads):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_no_rows_takes_no_step_and_gives_zero_weight_gradients(self):
        # a type without agents: (0, in) inputs from a (0, hidden) state
        store, weights, _, _ = self._setup()
        x = Tensor(np.zeros((0, self.IN)))
        h = Tensor(np.zeros((0, self.HIDDEN)))
        states = ad.gru_scan(x, h, weights)
        assert states.shape == (0, self.HIDDEN)
        store.zero_grads()
        states.sum().backward()
        assert x.grad.shape == (0, self.IN)
        assert h.grad.shape == (0, self.HIDDEN)
        for name in store.names():
            grad = store.get(name).grad
            assert grad.shape == store.get(name).shape
            assert not grad.any()
        with store.no_grad():
            weights = nn.gru_params(store, "g", self.IN, self.HIDDEN)
            states = ad.gru_scan(x.value, h.value, weights)
        assert states.shape == (0, self.HIDDEN)


class TestClipWithoutNpClip:
    """The activations clip with ``np.minimum(np.maximum(...))``, which
    must give the bits ``np.clip`` gave at every bound in use."""
    EDGES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300,
             1e308, -1e308, 0.5, -3.0]

    def _values(self, lo, hi):
        return np.array(self.EDGES + [lo, hi, np.nextafter(lo, -np.inf),
                                      np.nextafter(hi, np.inf), lo - 1.0,
                                      hi + 1.0])

    @pytest.mark.parametrize("lo, hi", [(-20.0, 2.0), (-500, 500)])
    def test_clip_matches_np_clip(self, lo, hi):
        v = self._values(lo, hi)
        assert ad.clip(v, lo, hi).tobytes() == np.clip(v, lo, hi).tobytes()

    def test_sigmoids_match_np_clip_form(self):
        # an ndarray in gives a plain array out, in float32 as in float64
        v = self._values(-500, 500)
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))
            assert type(ad.sigmoid(v)) is np.ndarray
            assert ad.sigmoid(v).tobytes() == want.tobytes()
            # float32 clamps at the largest value whose exp is finite
            narrow = v.astype(np.float32)
            bound = self.F32_EXP_BOUND
            want32 = 1.0 / (1.0 + np.exp(-np.clip(narrow, -bound, bound)))
            assert want32.dtype == np.float32
            assert ad.sigmoid(narrow).tobytes() == want32.tobytes()
            # an input that did not overflow at +-500 keeps its bits
            old32 = 1.0 / (1.0 + np.exp(-np.clip(narrow, -500, 500)))
            kept = np.isfinite(np.exp(-np.clip(narrow, -500, 500)))
            assert kept.sum() > len(v) // 2
            assert ad.sigmoid(narrow)[kept].tobytes() == old32[kept].tobytes()
            x = Tensor(v)
            ad.softplus(x).backward(np.ones_like(v))
        assert x.grad.tobytes() == (want + 0.0).tobytes()

    F32_EXP_BOUND = np.float32(88.72283)

    def test_float32_sigmoid_does_not_overflow(self):
        bound = self.F32_EXP_BOUND
        with np.errstate(over="ignore"):
            assert np.isfinite(np.exp(bound))
            assert np.isinf(np.exp(np.nextafter(bound, np.float32(np.inf))))
        gate = np.zeros((1, 3), np.float32)
        gate[0, 0] = -100.0  # the z gate's input column, h0 = 0
        weights = [np.eye(3, 3, dtype=np.float32), np.zeros(3, np.float32),
                   np.zeros((1, 3), np.float32), np.zeros(3, np.float32)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.float32(-100.0), np.full((2, 2), -100.0, np.float32),
                      Tensor(np.full(3, -1e30, np.float32))):
                y = ad.value_of(ad.sigmoid(x))
                assert y.dtype == np.float32
                assert np.all((0 <= y) & (y < 1e-37))
            h = ad.gru_scan(gate, np.zeros((1, 1), np.float32), weights)
            taped = ad.gru_scan(Tensor(gate),
                                np.zeros((1, 1), np.float32), weights)
        # z = sigmoid(-100) ~ 3e-39 keeps the zero state: h' = z * tanh(0)
        assert h.dtype == np.float32 and h.tobytes() == taped.value.tobytes()


class TestAggregate:
    def test_singleton_identity(self):
        v = Tensor(np.array([[1.0, -2.0]]))
        out = ad.segment_mean(v, ad.Segments([0], 1))
        assert np.array_equal(out.value, v.value)

    def test_empty_set_zeros(self):
        out = ad.segment_mean(np.zeros((0, 3)), ad.Segments([], 2))
        assert np.array_equal(out, np.zeros((2, 3)))  # arrays in, array out
        # a segment no row reaches is empty too
        rows = Tensor(np.ones((2, 3)))
        out = ad.segment_mean(rows, ad.Segments([2, 2], 3))
        assert np.array_equal(out.value[:2], np.zeros((2, 3)))

    def test_bitwise_permutation_invariance(self):
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(9, 4))
        dst = np.array([0, 1, 0, 2, 0, 1, 0, 2, 0])
        base = ad.segment_mean(vecs, ad.Segments(dst, 4))
        for _ in range(20):
            perm = rng.permutation(9)
            got = ad.segment_mean(vecs[perm], ad.Segments(dst[perm], 4))
            assert np.array_equal(got, base)

    @pytest.mark.parametrize("rows, dst", [
        (np.ones((2, 3)), [[0], [1]]),   # ids in a column
        (np.ones(3), [0, 1, 1]),         # one row of values
        (np.ones((3, 2)), [0, 1]),       # an id short
    ], ids=["2-D ids", "1-D rows", "short ids"])
    def test_bad_shapes_rejected(self, rows, dst):
        with pytest.raises(ValueError, match="segment ids must be a 1-D|"
                                             "segment_mean needs"):
            ad.segment_mean(rows, ad.Segments(dst, 2))

    def test_mean_gradients_over_seven_vectors(self):
        store = ParamStore(17)
        rows = store.param("v", (7, 3))
        rows.value = np.random.default_rng(0).normal(size=(7, 3))
        dst = np.array([1, 0, 1, 1, 2, 1, 0])
        weights = np.random.default_rng(1).normal(size=(3, 3))

        def build():
            out = ad.segment_mean(store.get("v"), ad.Segments(dst, 3))
            return (out * weights).sum()

        fd_check(build, store)


class TestHyperMixing:
    def _mix(self, store, s, v):
        return nn.hyper_mixing(store, "mix", s, v, len(s), 4)

    def test_frozen_identity_equivalent(self):
        store = ParamStore(0)
        s = np.array([0.4, -0.2, 0.9])
        v = np.array([0.5, 1.5, 0.25])
        nn.hyper_mixing(store, "mix", s, v, 3, 3)  # create params
        for name in store.names():
            store.get(name).value[:] = 0.0
        store.get("mix.hw1.b").value[:] = np.eye(3).ravel()
        store.get("mix.hw2.b").value[:] = 1.0
        store.get("mix.hb2b.b").value[:] = 2.5
        out = nn.hyper_mixing(store, "mix", s, v, 3, 3)
        assert out.item() == pytest.approx(0.5 + 1.5 + 0.25 + 2.5, rel=1e-12)

    def test_zero_values_leave_state_bias(self):
        store = ParamStore(5)
        s = np.random.default_rng(0).normal(size=4)
        v = np.zeros(3)
        out = self._mix(store, s, v)
        w2 = ad.absolute(nn.dense(store, "mix.hw2", Tensor(s), 4, 4)).value
        b1 = nn.dense(store, "mix.hb1", Tensor(s), 4, 4).value
        b2 = nn.dense(store, "mix.hb2b",
                      nn.dense(store, "mix.hb2a", Tensor(s), 4, 4,
                               activation="relu"), 4, 1).value
        hidden = np.where(b1 > 0, b1, np.exp(np.minimum(b1, 0)) - 1)
        assert out.item() == pytest.approx(float(hidden @ w2 + b2[0]), rel=1e-10)

    def test_matches_hand_computation_over_a_batch(self):
        store = ParamStore(29)
        rng = np.random.default_rng(3)
        s = rng.normal(size=(3, 5))
        v = rng.normal(size=(3, 4))
        out = nn.hyper_mixing(store, "mix", s, v, 5, 6)
        p = {n: store.get(n).value for n in store.names()}
        for b in range(3):
            w1 = np.abs(s[b] @ p["mix.hw1.w"] + p["mix.hw1.b"]).reshape(4, 6)
            pre = v[b] @ w1 + s[b] @ p["mix.hb1.w"] + p["mix.hb1.b"]
            hidden = np.where(pre > 0, pre, np.exp(np.minimum(pre, 0)) - 1)
            w2 = np.abs(s[b] @ p["mix.hw2.w"] + p["mix.hw2.b"])
            b2 = (np.maximum(s[b] @ p["mix.hb2a.w"] + p["mix.hb2a.b"], 0)
                  @ p["mix.hb2b.w"] + p["mix.hb2b.b"])
            assert out.value[b] == pytest.approx(float(hidden @ w2 + b2[0]),
                                                 rel=1e-12)

    def test_monotone_in_every_local_value(self):
        rng = np.random.default_rng(9)
        store = ParamStore(21)
        for _ in range(200):
            s = rng.normal(size=5)
            v = rng.normal(size=4)
            base = nn.hyper_mixing(store, "mix", s, list(v), 5, 6).item()
            for i in range(4):
                bumped = v.copy()
                bumped[i] += 1e-4
                up = nn.hyper_mixing(store, "mix", s, list(bumped), 5, 6).item()
                assert (up - base) / 1e-4 >= -1e-8

    def test_gradients(self):
        store = ParamStore(23)
        s = np.random.default_rng(1).normal(size=3)
        v = np.random.default_rng(2).normal(size=3)

        def build():
            return nn.hyper_mixing(store, "mix", s, list(v), 3, 4)

        fd_check(build, store)


class TestUpdatesAndCheckpoints:
    def test_zero_gradient_no_change(self):
        store = ParamStore(1)
        w = store.param("w", (3, 3))
        before = w.value.copy()
        store.apply_update({"w": np.zeros((3, 3))})
        assert np.array_equal(w.value, before)

    def test_scalar_hand_arithmetic(self):
        store = ParamStore(1)
        w = store.param("w", (1,))
        w.value[:] = 2.0
        store.apply_update({"w": np.array([1.5])})
        assert w.value[0] == pytest.approx(3.5)

    def test_two_updates_commute_with_sum(self):
        a, b = ParamStore(2), ParamStore(2)
        ga = np.array([1.0, -2.0])
        gb = np.array([0.5, 0.5])
        for s in (a, b):
            s.param("w", (2,)).value[:] = 1.0
        a.apply_update({"w": 0.1 * ga})
        a.apply_update({"w": 0.1 * gb})
        b.apply_update({"w": 0.1 * (ga + gb)})
        assert np.allclose(a.get("w").value, b.get("w").value)

    def test_nan_gradient_aborts(self):
        store = ParamStore(1)
        store.param("w", (2,))
        with pytest.raises(FloatingPointError):
            store.apply_update({"w": np.array([np.nan, 0.0])})

    def test_non_finite_update_changes_nothing(self):
        store = ParamStore(1)
        a = store.param("a", (2,))
        before = a.value.copy()
        store.param("w", (2,))
        with pytest.raises(FloatingPointError, match="for w"):
            store.apply_update({"a": np.ones(2), "w": np.array([np.inf, 0.0])})
        assert np.array_equal(a.value, before)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        store = ParamStore(31)
        store.param("a.w", (4, 3))
        store.param("b", (7,))
        store.get("b").value[:] = np.pi * np.arange(7)
        path = tmp_path / "ckpt.npz"
        store.save(path, extra_meta={"algo": "test"})
        loaded, meta = ParamStore.load(path)
        assert meta["algo"] == "test" and meta["seed"] == 31
        for name in store.names():
            assert np.array_equal(loaded.get(name).value, store.get(name).value)

    def test_float32_checkpoint_roundtrip_keeps_the_dtype(self, tmp_path):
        store = ParamStore(31, np.float32)
        store.param("a.w", (4, 3))
        store.param("b", (7,), kind="zeros")
        store.get("b").value[:] = np.pi * np.arange(7)
        path = tmp_path / "ckpt.npz"
        store.save(path)
        loaded, meta = ParamStore.load(path)
        assert meta["dtype"] == "float32"
        assert loaded.dtype == np.float32
        for name in store.names():
            got = loaded.get(name).value
            assert got.dtype == np.float32
            assert got.tobytes() == store.get(name).value.tobytes()
        assert loaded.param("c", (2,)).value.dtype == np.float32

    def test_checkpoint_path_without_a_suffix_round_trips(self, tmp_path):
        # np.savez given a name adds ".npz"; save writes the path it is given
        store = ParamStore(8)
        store.param("w", (3, 2))
        path = str(tmp_path / "ckpt")
        store.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded, _ = ParamStore.load(path)
        assert loaded.get("w").value.tobytes() == store.get("w").value.tobytes()

    def test_checkpoint_without_a_dtype_loads_as_float64(self, tmp_path):
        path = tmp_path / "old.npz"
        meta = json.dumps({"seed": 3, "names": ["w"]}).encode()
        np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8),
                 param_w=np.arange(3.0))
        loaded, _ = ParamStore.load(path)
        assert loaded.dtype == np.float64
        assert loaded.get("w").value.tobytes() == np.arange(3.0).tobytes()

    def test_dtype_is_fixed_at_construction(self):
        wide, narrow = ParamStore(5), ParamStore(5, np.float32)
        assert wide.dtype == np.float64
        for kind in ("fan_in", "zeros"):
            w = wide.param(kind, (4, 3), kind=kind).value
            n = narrow.param(kind, (4, 3), kind=kind).value
            assert n.dtype == np.float32
            assert n.tobytes() == w.astype(np.float32).tobytes()
        with pytest.raises(ValueError, match="float dtype"):
            ParamStore(0, np.int64)

    def test_parameter_shape_clash_rejected(self):
        store = ParamStore(1)
        store.param("w", (2, 3))
        with pytest.raises(ValueError, match="shape clash for parameter w"):
            store.param("w", (3, 2))

    def test_init_deterministic_per_name(self):
        a, b = ParamStore(5), ParamStore(5)
        assert np.array_equal(a.param("x", (4, 4)).value,
                              b.param("x", (4, 4)).value)
        assert not np.array_equal(a.param("x", (4, 4)).value,
                                  a.param("y", (4, 4)).value)


class TestGradientNorm:
    def test_sums_float32_gradients_in_float64(self):
        # 1.2M float32 squares: a float32 sum drifts by about 1e-7 relative
        rng = np.random.default_rng(12)
        grads = {"a": rng.normal(size=(1000, 1000)).astype(np.float32),
                 "b": rng.normal(size=200_000).astype(np.float32),
                 "c": rng.normal(size=(3, 5))}
        got = ad.squared_sums(grads)
        assert list(got) == list(grads)
        for name, g in grads.items():
            want = math.fsum(np.square(g.astype(np.float64)).ravel())
            assert isinstance(got[name], float)
            assert got[name] == pytest.approx(want, rel=1e-12)

    def test_float64_gradients_unchanged(self):
        grads = {"w": np.array([[3.0, 0.0], [0.0, 4.0]]), "b": np.array([12.0])}
        assert ad.squared_sums(grads) == {"w": 25.0, "b": 144.0}


class TestDtype:
    """An op computes in the dtype of its Tensor operands (``linear`` and
    ``gru_scan`` in that of their weight); float64 arrays and constants that
    meet a float32 Tensor are cast, not promoted."""

    @staticmethod
    def _ops():
        rng = np.random.default_rng(8)
        a64 = rng.normal(size=(4, 3))
        w64 = rng.normal(size=(3, 3))
        return [
            ("add", lambda x: x + a64), ("radd", lambda x: a64 + x),
            ("mul", lambda x: x * a64), ("sub", lambda x: a64 - x),
            ("neg", lambda x: -x),
            ("relu", ad.relu), ("clip", lambda x: ad.clip(x, -0.5, 0.5)),
            ("elu", ad.elu), ("softplus", ad.softplus),
            ("sigmoid", ad.sigmoid), ("log_softmax", ad.log_softmax),
            ("concat", lambda x: ad.concat([x, a64])),
            ("linear", lambda x: ad.linear(  # the weight sets the dtype
                [x, a64], np.vstack([w64, w64]).astype(ad.value_of(x).dtype),
                np.zeros(3))),
            ("mean", lambda x: ad.segment_mean(x, ad.Segments([0, 0, 1, 1], 2))),
            ("mean, empty segment",
             lambda x: ad.segment_mean(x, ad.Segments([0, 0, 0, 1], 3))),
            ("mean, interleaved",
             lambda x: ad.segment_mean(x, ad.Segments([1, 0, 1, 0], 2))),
            ("mean, singletons",
             lambda x: ad.segment_mean(x, ad.Segments([1, 0, 3, 2], 4))),
            ("getitem", lambda x: x[[0, 0, 2]]),
            ("reshape", lambda x: x.reshape(3, 4)),
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taped_ops_keep_the_operand_dtype(self, dtype):
        base = np.random.default_rng(9).normal(size=(4, 3))
        for name, op in self._ops():
            x = Tensor(base.astype(dtype))
            out = op(x)
            assert out.value.dtype == dtype, name
            out.sum().backward()
            assert x.grad.dtype == dtype, name

    def test_no_grad_ops_keep_float32_arrays(self):
        base = np.random.default_rng(10).normal(size=(4, 3))
        for name, op in self._ops():
            if name in ("add", "radd", "mul", "sub", "concat"):
                continue  # plain numpy between float32 and float64 arrays
            assert op(base.astype(np.float32)).dtype == np.float32, name

    def test_gru_scan_and_mixer_run_in_the_store_dtype(self):
        store = ParamStore(4, np.float32)
        weights = nn.gru_params(store, "g", 3, 5)
        # float64 input, float32 weights
        x = Tensor(np.random.default_rng(1).normal(size=(6, 3)))
        states = ad.gru_scan(x, np.zeros((2, 5)), weights)
        assert states.value.dtype == np.float32
        states.sum().backward()
        assert x.grad.dtype == np.float32
        assert all(w.grad.dtype == np.float32 for w in weights)
        mixed = nn.hyper_mixing(store, "mix", np.ones((2, 4), np.float32),
                                [[1.0, 2.0], [3.0, 4.0]], 4, 3)
        assert mixed.value.dtype == np.float32
        with store.no_grad():
            free = nn.hyper_mixing(store, "mix", np.ones((2, 4), np.float32),
                                   [[1.0, 2.0], [3.0, 4.0]], 4, 3)
        assert free.dtype == np.float32

    def test_plain_path_casts_to_the_weight_dtype(self):
        # no Tensor anywhere: float64 parts, bias, inputs and state meet
        # float32 weights and are cast, as on the tape, not promoted
        rng = np.random.default_rng(13)
        f32 = np.float32
        a64, b64 = rng.normal(size=(3, 4)), rng.normal(size=2)
        w32 = rng.normal(size=(6, 2)).astype(f32)
        parts = [a64, a64[:, :2].astype(f32)]
        y = ad.linear(parts, w32, b64)
        want = (np.concatenate([a64.astype(f32), parts[1]], axis=-1) @ w32
                + b64.astype(f32))
        assert y.dtype == f32 and y.tobytes() == want.tobytes()
        store = ParamStore(5, f32)
        with store.no_grad():
            weights = nn.gru_params(store, "g", 4, 2)
        states = ad.gru_scan(a64, np.zeros((1, 2)), weights)
        assert states.dtype == f32
        assert states.tobytes() == ad.gru_scan(
            a64.astype(f32), np.zeros((1, 2), f32), weights).tobytes()
        # without a target dtype an integer array still becomes float64
        assert ad.tanh(np.arange(3)).dtype == np.float64

    def test_tensor_keeps_a_float_input_and_widens_the_rest(self):
        assert Tensor(np.ones(2, np.float32)).value.dtype == np.float32
        assert Tensor(np.ones(2, np.int64)).value.dtype == np.float64
        assert Tensor(3).value.dtype == np.float64
