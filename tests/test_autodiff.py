import contextlib
import gc
import sys

import numpy as np
import pytest

from risnoma import autodiff as ad
from risnoma import nn
from risnoma.autodiff import ParamStore, Tensor

from fd import fd_check


class TestTapeBasics:
    def test_add_mul_chain(self):
        x = Tensor(2.0, requires=True)
        y = (x * 3.0 + 1.0) * x  # 3x^2 + x
        y.backward()
        assert x.grad == pytest.approx(13.0)

    def test_matmul_vector(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires=True)
        x = Tensor(np.array([1.0, -1.0]), requires=True)
        (x @ w).sum().backward()
        assert np.allclose(w.grad, [[1, 1], [-1, -1]])
        assert np.allclose(x.grad, [3, 7])

    def test_getitem_scatters(self):
        x = Tensor(np.arange(4.0), requires=True)
        x[1:3].sum().backward()
        assert np.allclose(x.grad, [0, 1, 1, 0])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.array([5.0, 7.0]), requires=True)
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

        def run(inputs_require):
            w, b = Tensor(w0, requires=True), Tensor(b0, requires=True)
            x = Tensor(x0, requires=inputs_require)
            y = Tensor(y0, requires=inputs_require)
            (ad.concat([x @ w + b, y]) * Tensor(c)).sum().backward()
            return w, b, x, y

        w, b, x, y = run(False)
        assert x.grad is None and y.grad is None
        w_ref, b_ref, x_ref, y_ref = run(True)
        assert x_ref.grad is not None and y_ref.grad is not None
        assert np.array_equal(w.grad, w_ref.grad)
        assert np.array_equal(b.grad, b_ref.grad)

    def test_broadcast_add_reduces(self):
        b = Tensor(np.zeros(3), requires=True)
        x = Tensor(np.ones((4, 3)))
        (x + b).sum().backward()
        assert np.allclose(b.grad, [4, 4, 4])

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(3.0, requires=True)
        (x * x + x).backward()
        assert x.grad == pytest.approx(7.0)

    def test_log_softmax_probabilities(self):
        x = Tensor(np.array([0.1, -2.0, 1.3]), requires=True)
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
        x = Tensor(np.ones(shape), requires=True)
        g = np.asarray(g, dtype=float)
        old = np.zeros(shape)
        old += g
        x._accum(g)
        assert x.grad.shape == old.shape
        assert np.array_equal(x.grad, old)
        assert np.array_equal(np.signbit(x.grad), np.signbit(old))
        assert not np.any(np.signbit(x.grad[x.grad == 0]))  # -0.0 -> +0.0

    def test_first_gradient_is_a_fresh_array(self):
        x = Tensor(np.zeros(2), requires=True)
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
            inner = ad.log_softmax(nn.gru_step(store, "g", h, h, 4, 4))
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

    def test_deep_chain_needs_no_recursion(self):
        x = Tensor(np.ones(2), requires=True)
        y = x
        for _ in range(5 * sys.getrecursionlimit()):
            y = y * 1.0
        y.sum().backward()
        assert np.array_equal(x.grad, [1.0, 1.0])


class TestInferenceOps:
    def test_arrays_in_array_out_and_mixed_inputs_tape(self):
        a = np.array([[0.3, -1.2], [2.0, 0.1]])
        w = Tensor(np.array([[1.0, 2.0], [-0.5, 0.25]]), requires=True)
        for op in (ad.tanh, ad.sigmoid, ad.relu, ad.elu, ad.exp, ad.absolute,
                   ad.square, ad.softplus, ad.log_softmax,
                   lambda v: ad.clip(v, -0.5, 0.5),
                   lambda v: ad.concat([v, v], axis=0),
                   lambda v: ad.segment_reduce("max", v, [1, 1], 2)):
            free = op(a)
            assert isinstance(free, np.ndarray)
            taped = op(Tensor(a))
            assert isinstance(taped, Tensor)
            assert np.array_equal(free, taped.value)
        for mixed in (a @ w, a + w, a * w, a - w, w - a):
            assert isinstance(mixed, Tensor) and mixed.requires
        (a @ w).sum().backward()
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

    def test_log_positive_domain(self):
        store = ParamStore(0)
        x = store.param("x", (4,))
        x.value = np.array([0.5, 1.0, 2.0, 3.0])
        fd_check(lambda: ad.log(store.get("x")).sum(), store)


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

    @pytest.mark.parametrize("act", ["linear", "tanh", "relu", "elu", "sigmoid"])
    def test_gradients(self, act):
        store = ParamStore(7)
        x = np.random.default_rng(2).normal(size=4) + 0.1

        def build():
            return nn.dense(store, "d", x, 4, 3, activation=act).sum()

        fd_check(build, store)

    def test_shape_mismatch_rejected(self):
        store = ParamStore(0)
        nn.dense(store, "d", np.zeros(3), 3, 2)
        with pytest.raises(ValueError):
            nn.dense(store, "d", np.zeros(4), 4, 2)


class TestGru:
    def test_closed_update_gate_keeps_state(self):
        store = ParamStore(3)
        h = np.random.default_rng(0).normal(size=5)
        nn.gru_step(store, "g", np.ones(4), h, 4, 5)  # create params
        store.get("g.zx.b").value[:] = -40.0
        out = nn.gru_step(store, "g", np.ones(4), h, 4, 5)
        assert np.allclose(out.value, h, atol=1e-12)

    def test_zero_params_zero_state_fixed_point(self):
        store = ParamStore(0)
        out = nn.gru_step(store, "g", np.zeros(3), np.zeros(4), 3, 4)
        for name in store.names():
            store.get(name).value[:] = 0.0
        out = nn.gru_step(store, "g", np.zeros(3), np.zeros(4), 3, 4)
        # gates sit at 1/2, candidate at tanh(0)=0, so h' = 0.5*0 + 0.5*0
        assert np.allclose(out.value, 0.0)

    def test_gradients_one_step(self):
        store = ParamStore(11)
        x = np.random.default_rng(4).normal(size=3)
        h = np.random.default_rng(5).normal(size=4)

        def build():
            return nn.gru_step(store, "g", x, h, 3, 4).sum()

        fd_check(build, store)

    def test_gradients_through_five_unrolled_steps(self):
        store = ParamStore(13)
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(5, 3))

        def build():
            h = ad.Tensor(np.zeros(4))
            for t in range(5):
                h = nn.gru_step(store, "g", xs[t], h, 3, 4)
            return h.sum()

        fd_check(build, store)


def _composed_gru_step(store, name, x, h, in_dim, hidden):
    """The GRU cell written out in dense, sigmoid and tanh ops."""
    def gate(g, inp, rows):
        return nn.dense(store, f"{name}.{g}", inp, rows, hidden)
    z = ad.sigmoid(gate("zx", x, in_dim) + gate("zh", h, hidden))
    r = ad.sigmoid(gate("rx", x, in_dim) + gate("rh", h, hidden))
    cand = ad.tanh(gate("cx", x, in_dim) + r * gate("ch", h, hidden))
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

        assert len(store.names()) == 14  # x, h0, six weights, six biases
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
                h = nn.gru_step(store, "g", rows, h, self.IN, self.HIDDEN)
                composed = _composed_gru_step(store, "g", rows, composed,
                                              self.IN, self.HIDDEN)
                block = ad.value_of(states)[t * self.ROWS:(t + 1) * self.ROWS]
                assert np.array_equal(block, ad.value_of(h))
                assert np.array_equal(block, ad.value_of(composed))
        assert isinstance(states, Tensor) == taped

    def test_gradients_match_the_composed_cell(self):
        store, weights, xs, h0 = self._setup()
        x = Tensor(xs, requires=True)
        h = Tensor(h0, requires=True)
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
        from risnoma.policy import _sigmoid
        v = self._values(-500, 500)
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))
            assert ad.sigmoid(v).tobytes() == want.tobytes()
            assert _sigmoid(v).tobytes() == want.tobytes()
            x = Tensor(v, requires=True)
            ad.softplus(x).backward(np.ones_like(v))
        assert x.grad.tobytes() == (want + 0.0).tobytes()


class TestAggregate:
    def test_singleton_identity(self):
        v = Tensor(np.array([[1.0, -2.0]]))
        for kind in ("sum", "mean", "max"):
            out = ad.segment_reduce(kind, v, [0], 1)
            assert np.array_equal(out.value, v.value)

    def test_empty_set_zeros(self):
        out = ad.segment_reduce("mean", np.zeros((0, 3)), [], 2)
        assert np.array_equal(out, np.zeros((2, 3)))  # arrays in, array out
        # a segment no row reaches is empty too
        rows = Tensor(np.ones((2, 3)))
        for kind in ("sum", "mean", "max"):
            out = ad.segment_reduce(kind, rows, [2, 2], 3)
            assert np.array_equal(out.value[:2], np.zeros((2, 3)))

    def test_bitwise_permutation_invariance(self):
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(9, 4))
        dst = np.array([0, 1, 0, 2, 0, 1, 0, 2, 0])
        for kind in ("sum", "mean", "max"):
            base = ad.segment_reduce(kind, vecs, dst, 4)
            for _ in range(20):
                perm = rng.permutation(9)
                got = ad.segment_reduce(kind, vecs[perm], dst[perm], 4)
                assert np.array_equal(got, base)

    def test_mean_gradients_over_seven_vectors(self):
        store = ParamStore(17)
        rows = store.param("v", (7, 3))
        rows.value = np.random.default_rng(0).normal(size=(7, 3))
        dst = np.array([1, 0, 1, 1, 2, 1, 0])
        weights = np.random.default_rng(1).normal(size=(3, 3))

        def build():
            out = ad.segment_reduce("mean", store.get("v"), dst, 3)
            return (out * weights).sum()

        fd_check(build, store)

    def test_max_routes_gradient_to_argmax(self):
        rows = Tensor(np.array([[1.0, 5.0], [2.0, 3.0]]), requires=True)
        ad.segment_reduce("max", rows, [0, 0], 1).sum().backward()
        assert np.allclose(rows.grad, [[0, 1], [1, 0]])

    def test_max_tie_routes_to_first_row_in_value_order(self):
        # rows 0 and 2 tie at 4 in column 1; row 2 sorts first (its column
        # 0 is smaller), so it takes that column's gradient wherever it sits
        vals = np.array([[3.0, 4.0], [1.0, 2.0], [0.0, 4.0]])
        for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            rows = Tensor(vals[perm], requires=True)
            out = ad.segment_reduce("max", rows, [0, 0, 0], 1)
            out.backward(np.array([[10.0, 20.0]]))
            grad = np.empty_like(vals)
            grad[perm] = rows.grad
            assert np.array_equal(out.value, [[3.0, 4.0]])
            assert np.array_equal(grad, [[10, 0], [0, 0], [0, 20]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ad.segment_reduce("median", np.ones((2, 2)), [0, 1], 2)


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
        store.apply_update({"w": np.zeros((3, 3))}, rate=0.1)
        assert np.array_equal(w.value, before)

    def test_scalar_hand_arithmetic(self):
        store = ParamStore(1)
        w = store.param("w", (1,))
        w.value[:] = 2.0
        store.apply_update({"w": np.array([3.0])}, rate=0.5)
        assert w.value[0] == pytest.approx(3.5)

    def test_two_updates_commute_with_sum(self):
        a, b = ParamStore(2), ParamStore(2)
        ga = np.array([1.0, -2.0])
        gb = np.array([0.5, 0.5])
        for s in (a, b):
            s.param("w", (2,)).value[:] = 1.0
        a.apply_update({"w": ga}, 0.1)
        a.apply_update({"w": gb}, 0.1)
        b.apply_update({"w": ga + gb}, 0.1)
        assert np.allclose(a.get("w").value, b.get("w").value)

    def test_nan_gradient_aborts(self):
        store = ParamStore(1)
        store.param("w", (2,))
        with pytest.raises(FloatingPointError):
            store.apply_update({"w": np.array([np.nan, 0.0])}, 0.1)

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

    def test_init_deterministic_per_name(self):
        a, b = ParamStore(5), ParamStore(5)
        assert np.array_equal(a.param("x", (4, 4)).value,
                              b.param("x", (4, 4)).value)
        assert not np.array_equal(a.param("x", (4, 4)).value,
                                  a.param("y", (4, 4)).value)
