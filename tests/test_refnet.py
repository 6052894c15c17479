from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.core import FeatureMatrix, LabelVector, SoftmaxHead
from oodkit.errors import ConfigError, DataFormatError, DimensionError, NumericalError
from oodkit.refnet import (
    MlpModel,
    MlpSpec,
    SyntheticTask,
    TrainConfig,
    confidence_sweep,
    depth_study,
    generate,
    run_counterfactual,
    train,
    train_stack,
)
from oodkit.refnet import SweepState, _loss_and_grads
from oodkit.structure import OptimalStructureSpec, gen_optimal_head


def _blob_task(seed=0, **over):
    params = dict(k=3, dim=2, n_per_class=150, sigma=1.0, separation=6.0,
                  seed=seed)
    params.update(over)
    return SyntheticTask("gaussian_blobs", params)


class TestGenerators:
    def test_blobs_deterministic(self):
        a, ya = generate(_blob_task(seed=3))
        b, yb = generate(_blob_task(seed=3))
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(ya.labels, yb.labels)
        c, _ = generate(_blob_task(seed=4))
        assert not np.array_equal(a.data, c.data)

    def test_blobs_nearest_mean_recovers_labels(self):
        # separation 6 sigma: nearest class mean is the true label for
        # essentially every sample
        x, y = generate(_blob_task(seed=1, n_per_class=2000, separation=8.0))
        sep, sigma, k = 8.0, 1.0, 3
        radius = sep * sigma / (2.0 * np.sin(np.pi / k))
        angles = 2.0 * np.pi * np.arange(k) / k
        means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        d = ((x.data[:, None, :] - means[None]) ** 2).sum(axis=2)
        agree = np.mean(d.argmin(axis=1) == y.labels)
        assert agree >= 0.999

    def test_ring_radii_in_band(self):
        task = SyntheticTask("ring_ood", dict(n=4000, dim=3, radius=10.0,
                                              width=2.0, seed=5))
        x, y = generate(task)
        assert y is None
        r = np.linalg.norm(x.data, axis=1)
        assert r.min() >= 10.0 and r.max() <= 12.0
        # both ends of the band get visited
        assert r.min() < 10.1 and r.max() > 11.9

    def test_hypercube_bounds(self):
        task = SyntheticTask("uniform_hypercube_ood",
                             dict(n=1000, dim=4, low=-2.0, high=3.0, seed=6))
        x, _ = generate(task)
        assert x.data.min() >= -2.0 and x.data.max() <= 3.0

    def test_binary_grid_uniform_marginals(self):
        task = SyntheticTask("binary_grid_ood", dict(grid=4, n=100_000, seed=7))
        x, y = generate(task)
        assert y is None
        assert set(np.unique(x.data)) == {0.0, 1.0}
        # each of the 16 cells: Bernoulli(0.5) mean within 3 sigma
        tol = 3.0 * 0.5 / np.sqrt(100_000)
        np.testing.assert_allclose(x.data.mean(axis=0), 0.5, atol=tol)

    def test_binary_grid_classes_cluster_around_prototypes(self):
        task = SyntheticTask("binary_grid", dict(grid=5, k=3, n_per_class=500,
                                                 flip_prob=0.05, proto_seed=2,
                                                 seed=8))
        x, y = generate(task)
        protos = np.random.default_rng(2).integers(0, 2, size=(3, 25))
        for c in range(3):
            flips = np.abs(x.data[y.labels == c] - protos[c]).mean()
            assert flips == pytest.approx(0.05, abs=0.02)

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTask("moons")
        with pytest.raises(ConfigError):
            generate(_blob_task(wobble=1.0))
        with pytest.raises(ConfigError):
            generate(_blob_task(sigma=-1.0))

    # each grid task is checked by its own table: the other's keys are unknown
    @pytest.mark.parametrize("params", [
        ("binary_grid_ood", {"k": 3}),
        ("binary_grid_ood", {"proto_seed": 1}),
        ("binary_grid", {"n": 10}),
        ("binary_grid", {"mode": "uniform"}),
    ])
    def test_grid_rejects_the_other_modes_keys(self, params):
        kind, keys = params
        with pytest.raises(ConfigError, match="unknown task parameters"):
            generate(SyntheticTask(kind, keys))


class TestMlpSpec:
    def test_properties(self):
        spec = MlpSpec((2, 16, 4), activation="tanh", k=3)
        assert spec.d == 2 and spec.h == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            MlpSpec((2,))
        with pytest.raises(ConfigError):
            MlpSpec((2, 0))
        with pytest.raises(ConfigError):
            MlpSpec((2, 4), activation="gelu")
        with pytest.raises(ConfigError):
            MlpSpec((2, 4), k=1)


class TestTraining:
    def _trained(self, seed=0, frozen=None, activation="tanh"):
        data = generate(_blob_task(seed=0))
        spec = MlpSpec((2, 16, 2), activation=activation, k=3)
        cfg = TrainConfig(epochs=30, seed=seed, frozen_head=frozen)
        return data, spec, train(data, spec, cfg)

    def test_reaches_high_train_accuracy(self):
        data, _, model = self._trained()
        assert model.accuracy(*data) >= 0.99

    def test_loss_decreases_tenfold_on_separable_task(self):
        # wide separation keeps the cross-entropy floor well below the
        # required factor
        data = generate(_blob_task(seed=0, separation=9.0))
        spec = MlpSpec((2, 16, 2), activation="tanh", k=3)
        model = train(data, spec, TrainConfig(epochs=30))
        x, y = data[0].data, data[1].labels
        fresh = MlpModel.init(spec, seed=0)
        loss0, _ = fresh.loss_and_grads(x, y)
        loss1, _ = model.loss_and_grads(x, y)
        assert loss1 < loss0 / 10.0

    def test_deterministic_for_seed(self):
        _, _, m1 = self._trained(seed=5)
        _, _, m2 = self._trained(seed=5)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(m1.head_w, m2.head_w)

    def test_frozen_head_is_bit_identical_after_training(self):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=2.0), seed=0)
        _, _, model = self._trained(frozen=head)
        np.testing.assert_array_equal(model.head_w, head.w)
        np.testing.assert_array_equal(model.head_b, head.b)
        assert model.head_frozen

    def test_features_have_final_width(self):
        data, spec, model = self._trained()
        z = model.features(data[0].data[:7])
        assert z.shape == (7, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        # oversized step on the weight-decay term makes the head oscillate
        # with exploding magnitude until the loss overflows
        data = generate(_blob_task(seed=0, separation=8.0))
        spec = MlpSpec((2, 16, 2), activation="tanh", k=3)
        with pytest.raises(NumericalError):
            train(data, spec, TrainConfig(epochs=20, learning_rate=100.0,
                                          weight_decay=100.0))

    def test_shape_checks(self):
        data = generate(_blob_task())
        with pytest.raises(DimensionError):
            train(data, MlpSpec((3, 4), k=3), TrainConfig())
        with pytest.raises(ConfigError):
            train((data[0], None), MlpSpec((2, 4), k=3), TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        for lr in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                TrainConfig(learning_rate=lr)
        for decay in (-1e-3, np.nan, np.inf):
            with pytest.raises(ConfigError):
                TrainConfig(weight_decay=decay)


class TestTrainStack:
    @staticmethod
    def _dataset(rng, n, d, k):
        return (FeatureMatrix(rng.standard_normal((n, d))),
                LabelVector(rng.integers(0, k, n), k=k))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 6), depth=st.integers(1, 3),
           activation=st.sampled_from(["relu", "tanh"]), batch_size=st.integers(2, 9),
           data=st.data())
    def test_stack_matches_each_model_alone(self, seed, s, depth, activation, batch_size,
                                            data):
        rng = np.random.default_rng(seed)
        d, width, h, k = (int(v) for v in rng.integers(1, 5, 4) + (0, 1, 0, 1))
        # a last minibatch shorter than the others
        n = batch_size * data.draw(st.integers(1, 3)) + data.draw(st.integers(1, batch_size - 1))
        spec = MlpSpec((d,) + (width,) * (depth - 1) + (h,), activation, k)
        frozen = data.draw(st.lists(st.booleans(), min_size=s, max_size=s))
        datasets = [self._dataset(rng, n, d, k) for _ in range(s)]
        cfgs = [TrainConfig(epochs=2, batch_size=batch_size, learning_rate=0.1,
                            weight_decay=0.01, seed=int(rng.integers(1000)),
                            frozen_head=SoftmaxHead(rng.standard_normal((h, k)),
                                                    rng.standard_normal(k)) if f else None)
                for f in frozen]
        self._assert_each_model_alone(datasets, spec, cfgs)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_counterfactual_sized_stack_matches_each_model_alone(self, activation):
        # the counterfactual's shape: 25 models of widths (2, 16, 2) on 600
        # blob rows, 9 batches of 64 and a last one of 24, so both batch
        # widths' workspaces; odd seeds train under a frozen optimal head
        spec = MlpSpec((2, 16, 2), activation, 3)
        datasets = [generate(_blob_task(seed=seed, n_per_class=200)) for seed in range(25)]
        cfgs = [TrainConfig(epochs=2, batch_size=64, learning_rate=0.05, weight_decay=1e-4,
                            seed=seed, frozen_head=gen_optimal_head(
                                OptimalStructureSpec(k=3, h=2, c1=2.0), seed=seed)
                            if seed % 2 else None)
                for seed in range(25)]
        self._assert_each_model_alone(datasets, spec, cfgs)

    @staticmethod
    def _assert_each_model_alone(datasets, spec, cfgs):
        """Each model of the stack is bitwise the one ``train`` gives alone."""
        stacked = train_stack(datasets, spec, cfgs)
        for model, dataset, cfg in zip(stacked, datasets, cfgs):
            alone = train(dataset, spec, cfg)
            for a, b in zip(model.weights + model.biases, alone.weights + alone.biases):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(model.head_w, alone.head_w)
            np.testing.assert_array_equal(model.head_b, alone.head_b)
            assert model.head_frozen == (cfg.frozen_head is not None)
            if cfg.frozen_head is not None:
                np.testing.assert_array_equal(model.head_w, cfg.frozen_head.w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverging_model_stops_the_stack(self):
        data = generate(_blob_task(seed=0, n_per_class=50))
        huge = (FeatureMatrix(data[0].data * 1e150), data[1])
        spec = MlpSpec((2, 8, 2), activation="relu", k=3)
        cfg = TrainConfig(epochs=5)
        train(data, spec, cfg)
        with pytest.raises(NumericalError):
            train_stack([data, huge, data], spec, [cfg, cfg, replace(cfg, seed=1)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_after_the_last_step_raise(self):
        # one step: its loss is finite, but the step overflows the parameters
        data = generate(_blob_task(seed=0, n_per_class=10, separation=60.0))
        spec = MlpSpec((2, 16), activation="relu", k=3)
        with pytest.raises(NumericalError, match="model parameters"):
            train_stack([data], spec, [TrainConfig(epochs=1, learning_rate=1.7e308)])

    def test_shared_schedule_and_nonempty_stack(self):
        data = generate(_blob_task(n_per_class=20))
        short = generate(_blob_task(n_per_class=19))
        spec = MlpSpec((2, 4), k=3)
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ConfigError):
            train_stack([], spec, [])
        with pytest.raises(ConfigError):
            train_stack([data, short], spec, [cfg, cfg])
        for other in (replace(cfg, epochs=2), replace(cfg, batch_size=32),
                      replace(cfg, learning_rate=0.1), replace(cfg, weight_decay=1e-3)):
            with pytest.raises(ConfigError):
                train_stack([data, data], spec, [cfg, other])


def _reference_loss_and_grads(model, x, y, weight_decay):
    """Row-major loss and gradients of one model: x is n x D, every
    activation n x width, with the formulas the stacked kernel implements."""
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        pre = acts[-1] @ w + b
        acts.append(np.maximum(pre, 0.0) if model.spec.activation == "relu" else np.tanh(pre))
    logits = acts[-1] @ model.head_w + model.head_b
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    rows, n = np.arange(len(y)), len(y)
    loss = (-np.log(np.clip(p[rows, y], 1e-300, None)).mean()
            + weight_decay * ((model.head_w ** 2).sum() + (model.head_b ** 2).sum()))
    dlogits = p.copy()
    dlogits[rows, y] -= 1.0
    dlogits /= n
    grads = {"head_w": acts[-1].T @ dlogits + 2.0 * weight_decay * model.head_w,
             "head_b": dlogits.sum(axis=0) + 2.0 * weight_decay * model.head_b,
             "weights": [], "biases": []}
    da = dlogits @ model.head_w.T
    for i in range(len(model.weights) - 1, -1, -1):
        a_out = acts[i + 1]
        dpre = da * (a_out > 0.0) if model.spec.activation == "relu" else da * (1.0 - a_out ** 2)
        grads["weights"].insert(0, acts[i].T @ dpre)
        grads["biases"].insert(0, dpre.sum(axis=0))
        da = dpre @ model.weights[i].T
    return loss, grads


class TestKernelReference:
    """The stacked feature-major kernel against a row-major reference."""

    WEIGHT_DECAY = 0.01

    @staticmethod
    def _spec(activation, depth):
        return MlpSpec((3,) + (5,) * (depth - 1) + (2,), activation, 3)

    @staticmethod
    def _models(spec, rng):
        # trainable, frozen optimal, trainable; relu units parked on the
        # kink by the zero initial biases are moved off it
        heads = [None, gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=2.0), seed=1), None]
        models = [MlpModel.init(spec, seed=i, frozen_head=head) for i, head in enumerate(heads)]
        for model in models:
            for b in model.biases:
                b += 0.1 * rng.standard_normal(b.shape)
            model.head_b += 0.1 * rng.standard_normal(model.head_b.shape)
        return models

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_stack_matches_row_major_reference(self, activation, depth):
        rng = np.random.default_rng(depth)
        spec = self._spec(activation, depth)
        models = self._models(spec, rng)
        # 2 full batches of 8 and a short last batch of 3
        n, batch = 19, 8
        xs = [rng.standard_normal((n, 3)) for _ in models]
        ys = [rng.integers(0, 3, n) for _ in models]
        orders = [rng.permutation(n) for _ in models]
        stacked = ([np.stack(w) for w in zip(*(m.weights for m in models))],
                   [np.stack(b)[..., None] for b in zip(*(m.biases for m in models))],
                   np.stack([m.head_w for m in models]),
                   np.stack([m.head_b for m in models])[..., None])
        for start in range(0, n, batch):
            idx = [order[start:start + batch] for order in orders]
            loss, grads = _loss_and_grads(
                spec, *stacked, np.stack([x[i].T for x, i in zip(xs, idx)]),
                np.stack([y[i] for y, i in zip(ys, idx)]), self.WEIGHT_DECAY)
            for s, model in enumerate(models):
                ref_loss, ref = _reference_loss_and_grads(model, xs[s][idx[s]], ys[s][idx[s]],
                                                          self.WEIGHT_DECAY)
                np.testing.assert_allclose(loss[s], ref_loss, rtol=1e-12)
                for got, want in zip(grads["weights"], ref["weights"]):
                    np.testing.assert_allclose(got[s], want, rtol=1e-12)
                for got, want in zip(grads["biases"], ref["biases"]):
                    np.testing.assert_allclose(got[s, :, 0], want, rtol=1e-12)
                np.testing.assert_allclose(grads["head_w"][s], ref["head_w"], rtol=1e-12)
                np.testing.assert_allclose(grads["head_b"][s, :, 0], ref["head_b"], rtol=1e-12)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_train_follows_the_permuted_minibatches(self, frozen):
        # two epochs of plain SGD over default_rng(seed + 1).permutation(n)
        # slices, 2 full batches of 8 and a short last batch of 5
        data = generate(_blob_task(seed=4, dim=3, n_per_class=7, separation=3.0))
        x, y = data[0].data, data[1].labels
        spec = self._spec("tanh", 2)
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=2.0), seed=0) if frozen else None
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1,
                          weight_decay=self.WEIGHT_DECAY, seed=5, frozen_head=head)
        ref = MlpModel.init(spec, seed=cfg.seed, frozen_head=head)
        rng = np.random.default_rng(cfg.seed + 1)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                _, grads = _reference_loss_and_grads(ref, x[idx], y[idx], cfg.weight_decay)
                params = ref.weights + ref.biases + ([] if frozen else [ref.head_w, ref.head_b])
                steps = grads["weights"] + grads["biases"] + (
                    [] if frozen else [grads["head_w"], grads["head_b"]])
                for param, step in zip(params, steps):
                    param -= cfg.learning_rate * step
        model = train(data, spec, cfg)
        for got, want in zip(model.weights + model.biases + [model.head_w, model.head_b],
                             ref.weights + ref.biases + [ref.head_w, ref.head_b]):
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestParameterGradients:
    def test_all_parameter_grads_match_central_differences(self):
        rng = np.random.default_rng(9)
        for activation in ("relu", "tanh"):
            spec = MlpSpec((3, 5, 4), activation=activation, k=3)
            model = MlpModel.init(spec, seed=int(rng.integers(100)))
            # freshly initialized biases are zero, which parks relu
            # pre-activations exactly on the kink; move off it
            for b in model.biases:
                b += 0.1 * rng.standard_normal(b.shape)
            model.head_b += 0.1 * rng.standard_normal(model.head_b.shape)
            x = rng.standard_normal((10, 3))
            y = rng.integers(0, 3, 10)
            _, grads = model.loss_and_grads(x, y, weight_decay=1e-3)

            def check(param, grad):
                eps = 1e-6
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    orig = param[i]
                    param[i] = orig + eps
                    lp, _ = model.loss_and_grads(x, y, weight_decay=1e-3)
                    param[i] = orig - eps
                    lm, _ = model.loss_and_grads(x, y, weight_decay=1e-3)
                    param[i] = orig
                    fd = (lp - lm) / (2 * eps)
                    assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

            for li in range(len(model.weights)):
                check(model.weights[li], grads["weights"][li])
                check(model.biases[li], grads["biases"][li])
            check(model.head_w, grads["head_w"])
            check(model.head_b, grads["head_b"])

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_classes_is_rejected(self, label):
        # the kernel picks labels through a one-hot, which would match no
        # class and leave the loss at -log(1e-300) without this check
        model = MlpModel.init(MlpSpec((2, 4), k=3))
        with pytest.raises(DataFormatError):
            model.loss_and_grads(np.zeros((2, 2)), [0, label])


class TestPersistence:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        data = generate(_blob_task(seed=2))
        spec = MlpSpec((2, 8, 2), activation="tanh", k=3)
        model = train(data, spec, TrainConfig(epochs=5))
        p = tmp_path / "model.json"
        model.save(p)
        loaded = MlpModel.load(p)
        np.testing.assert_array_equal(loaded.predict_proba(data[0].data),
                                      model.predict_proba(data[0].data))
        assert loaded.spec == model.spec

    def test_unknown_version_rejected(self):
        with pytest.raises(DataFormatError, match="format_version"):
            MlpModel.from_dict({"format_version": 0})

    @pytest.mark.parametrize("key", ["weights", "biases", "head_w", "head_b"])
    def test_non_finite_parameters_rejected(self, key):
        spec = MlpSpec((2, 4), k=3)
        d = MlpModel.init(spec).to_dict()
        bad = np.array(d[key])
        bad.flat[0] = np.nan
        d[key] = bad.tolist()
        with pytest.raises(NumericalError):
            MlpModel(spec, d["weights"], d["biases"], d["head_w"], d["head_b"])
        with pytest.raises(DataFormatError):
            MlpModel.from_dict(d)


class TestConfidenceSweep:
    def _model(self):
        data = generate(_blob_task(seed=0))
        spec = MlpSpec((2, 16, 2), activation="tanh", k=3)
        return train(data, spec, TrainConfig(epochs=20))

    def test_state_is_order_invariant(self):
        model = self._model()
        rng = np.random.default_rng(12)
        x = rng.uniform(-10, 10, size=(500, 2))
        s1 = SweepState(model, top_m=5)
        s1.update(x)
        s2 = SweepState(model, top_m=5)
        for part in np.array_split(x[rng.permutation(500)], 7):
            s2.update(part)
        r1, r2 = s1.result(), s2.result()
        for c in range(3):
            np.testing.assert_array_equal(r1[c][0], r2[c][0])
            np.testing.assert_array_equal(r1[c][1], r2[c][1])

    def test_confidences_sorted_and_classes_consistent(self):
        model = self._model()
        sampler = SyntheticTask("uniform_hypercube_ood",
                                dict(dim=2, low=-12.0, high=12.0, seed=1))
        res = confidence_sweep(model, sampler, n_samples=20_000, top_m=10)
        for c in range(3):
            kept, conf = res[c]
            assert kept.shape == (10, 2)
            assert np.all(np.diff(conf) <= 0)
            assert np.all(model.predict(kept) == c)
            np.testing.assert_allclose(
                model.predict_proba(kept).max(axis=1), conf)

    def test_grid_sweep_lands_near_prototypes(self):
        # the most confident uniform-grid samples resemble the prototype of
        # their predicted class more than any other prototype
        task = SyntheticTask("binary_grid", dict(grid=4, k=3, n_per_class=300,
                                                 flip_prob=0.05, proto_seed=3,
                                                 seed=0))
        data = generate(task)
        spec = MlpSpec((16, 16, 4), activation="tanh", k=3)
        model = train(data, spec, TrainConfig(epochs=30))
        protos = np.random.default_rng(3).integers(0, 2, size=(3, 16))
        sampler = SyntheticTask("binary_grid_ood", dict(grid=4, seed=11))
        hits = 0
        total = 0
        for seed in range(5):
            res = confidence_sweep(model, sampler.with_params(seed=100 + seed),
                                   n_samples=30_000, top_m=3)
            for c in range(3):
                kept, _ = res[c]
                d = np.abs(kept[:, None, :] - protos[None]).sum(axis=2)
                hits += int(np.sum(d.argmin(axis=1) == c))
                total += kept.shape[0]
        assert hits / total > 0.8

    def test_sample_budget_check(self):
        model = self._model()
        sampler = SyntheticTask("uniform_hypercube_ood", dict(dim=2))
        with pytest.raises(ConfigError):
            confidence_sweep(model, sampler, n_samples=10, top_m=10)


class TestDepthStudy:
    def test_rows_and_determinism(self):
        train_data = generate(_blob_task(seed=0, n_per_class=100))
        test_data = generate(_blob_task(seed=1, n_per_class=100))
        ood, _ = generate(SyntheticTask("ring_ood",
                                        dict(n=200, dim=2, radius=12.0,
                                             width=2.0, seed=2)))
        cfg = TrainConfig(epochs=10)
        rows = depth_study(train_data, test_data, ood, depths=[1, 2],
                           width=8, cfg=cfg, seeds=[0, 1], activation="tanh")
        rows2 = depth_study(train_data, test_data, ood, depths=[1, 2],
                            width=8, cfg=cfg, seeds=[0, 1], activation="tanh")
        assert rows == rows2
        assert [r["depth"] for r in rows] == [1, 2]
        for r in rows:
            assert len(r["accuracy_per_seed"]) == 2
            assert 0.0 <= r["auroc_mean"] <= 1.0
            assert r["accuracy_mean"] > 0.9
            assert r["accuracy_stderr"] >= 0.0

    def test_depth_validation(self):
        train_data = generate(_blob_task(n_per_class=30))
        with pytest.raises(ConfigError):
            depth_study(train_data, train_data, train_data[0], depths=[0],
                        width=4, cfg=TrainConfig(epochs=1), seeds=[0])
        with pytest.raises(ConfigError):
            depth_study(train_data, train_data, train_data[0], depths=[1],
                        width=4, cfg=TrainConfig(epochs=1), seeds=[])

    def test_counterfactual_needs_seeds_and_structures(self):
        with pytest.raises(ConfigError):
            run_counterfactual(["optimal"], [], epochs=1, n_per_class=10)
        with pytest.raises(ConfigError):
            run_counterfactual([], [0], epochs=1, n_per_class=10)
