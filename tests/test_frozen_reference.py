"""The GP and MAML solvers against frozen copies of their list-of-arrays,
scipy-wrapper form (``frozen_gp_meta``): every result must agree bit for
bit, so that the flat parameter vector and the direct LAPACK calls change
no output."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_gp_meta as frozen
from xferlens import gp, meta
from xferlens.numerics import init_mlp


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def gp_problems(draw):
    """Single-task problems of 2-60 rows or multi-task ones of 2-5 tasks and
    up to 60 rows, optionally with a duplicated row (a singular kernel
    once the noise is tiny)."""
    multi_task = draw(st.booleans())
    if multi_task:
        sizes = draw(st.lists(st.integers(2, 12), min_size=2, max_size=5))
    else:
        sizes = [draw(st.integers(2, 60))]
    width = draw(st.integers(1, 9))
    hidden = draw(st.sampled_from([(3,), (5, 3), (50, 10)]))
    seed = draw(st.integers(0, 2**16))
    duplicate = draw(st.booleans())
    rng = np.random.default_rng(seed)
    data = {}
    for t, n in enumerate(sizes):
        x = rng.standard_normal((n, width))
        if duplicate and t == 0:
            x[-1] = x[0]
        data[f"t{t}"] = (x, rng.uniform(0.0, 1.0, n))
    return data, multi_task, hidden, seed


def perturbed_vectors(prob, seed):
    """The seeded initialization, nudged points around it, and points with a
    tiny noise (jitter on a duplicated row) or an overflowing lengthscale or
    signal variance."""
    rng = np.random.default_rng(seed)
    vec0 = gp._init_vec(prob, seed, 0.01)
    out = [vec0]
    for scale in (0.1, 1.0):
        out.append(vec0 + scale * rng.standard_normal(vec0.size))
    ns = prob.noise_slice()
    tiny = vec0.copy()
    tiny[ns] = -60.0
    out.append(tiny)
    for offset, value in ((0, 800.0), (1, 800.0), (0, -400.0)):
        v = vec0.copy()
        v[prob.n_mlp + offset] = value
        out.append(v)
    return out


def assert_same_likelihood(new, ref):
    assert new.mll == ref.mll
    assert new.jitter == ref.jitter
    for field in ("chol", "alpha", "k_nf", "k_rbf", "latent", "sq", "noise", "task_cov"):
        assert bits(getattr(new, field)) == bits(getattr(ref, field)), field


class TestGpAgainstFrozen:
    @given(gp_problems())
    @settings(max_examples=60, deadline=None)
    def test_likelihood_and_gradient(self, problem):
        data, multi_task, hidden, seed = problem
        prob = gp._build_problem(data, multi_task, hidden)[0]
        ref_prob = frozen.build_problem(data, multi_task, hidden)[0]
        for vec in perturbed_vectors(prob, seed):
            try:
                ref = frozen.likelihood(ref_prob, vec)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    gp._likelihood(prob, vec)
                continue
            new = gp._likelihood(prob, vec)
            assert_same_likelihood(new, ref)
            assert bits(gp._gradient(prob, new)) == bits(frozen.gradient(ref_prob, ref))

    @given(
        gp_problems(),
        st.sampled_from([0.01, 0.5, 5.0]),
        st.integers(0, 12),
        st.sampled_from([0.01, 1e-20]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fit_and_predict(self, problem, lr, epochs, init_noise):
        data, multi_task, hidden, seed = problem
        assert_same_fit(data, multi_task, hidden, seed, lr, epochs, init_noise)

    @pytest.mark.parametrize(
        "sizes, lr, epochs, init_noise, expect",
        [
            ((5,), 0.01, 150, 0.01, "stops early"),
            ((9,), 0.01, 0, 1e-20, "jitter"),
            ((6, 4), 0.01, 0, 1e-20, "jitter"),
            ((6, 5), 20.0, 10, 0.01, "halves"),
        ],
    )
    def test_edge_cases(self, sizes, lr, epochs, init_noise, expect):
        rng = np.random.default_rng(22)
        data = {f"t{i}": (rng.standard_normal((n, 2)), rng.standard_normal(n))
                for i, n in enumerate(sizes)}
        if expect == "jitter":
            x0 = data["t0"][0]
            x0[-1] = x0[0]
        ref = assert_same_fit(data, len(sizes) > 1, (3, 2), 22, lr, epochs, init_noise)
        if expect == "stops early":
            assert ref.stopped_early
        elif expect == "jitter":
            assert ref.lik.jitter > 0.0
        else:
            assert ref.mll_evals > len(ref.mll_trace)

    def test_overflowing_hyperparameters_raise_in_both(self):
        data = {"t": (np.eye(3), np.array([0.1, 0.5, 0.2]))}
        prob = gp._build_problem(data, False, (3,))[0]
        ref_prob = frozen.build_problem(data, False, (3,))[0]
        vec = gp._init_vec(prob, 0, 0.01)
        vec[prob.n_mlp] = 1000.0
        for fn, p in ((gp._likelihood, prob), (frozen.likelihood, ref_prob)):
            with pytest.raises(np.linalg.LinAlgError, match="overflow"):
                fn(p, vec)


def assert_same_fit(data, multi_task, hidden, seed, lr, epochs, init_noise):
    with np.errstate(all="ignore"):  # the frozen copy warns on overflowing steps
        ref = frozen.fit_gp(data, multi_task, lr, epochs, seed, hidden, init_noise)
    state = gp.fit_gp(data, multi_task=multi_task, lr=lr, epochs=epochs, seed=seed,
                      hidden=hidden, init_noise_variance=init_noise)
    assert state.mll_trace == ref.mll_trace
    assert state.mll_evals == ref.mll_evals
    assert state.stopped_early == ref.stopped_early
    assert state.jitter == ref.lik.jitter
    vec = np.concatenate([state.mlp.vector(), [state.log_lengthscale, state.log_signal_variance],
                          state.log_noise_variance,
                          state.task_root.ravel() if multi_task else []])
    assert bits(vec) == bits(ref.vec)
    assert bits(state.task_root) == bits(ref.lik.a_root)
    for field, ref_field in (("chol", "chol"), ("alpha", "alpha"), ("task_cov", "task_cov"),
                             ("train_latent", "latent")):
        assert bits(getattr(state, field)) == bits(getattr(ref.lik, ref_field)), field
    rng = np.random.default_rng(seed)
    width = next(iter(data.values()))[0].shape[1]
    for task in state.tasks:
        for row in (data[task][0][0], rng.standard_normal(width), np.full(width, 50.0)):
            with np.errstate(all="ignore"):
                expected = frozen.predict_gp(ref, row, task)
            assert gp.predict_gp(state, row, task) == expected
    return ref


@st.composite
def maml_problems(draw):
    width = draw(st.integers(1, 9))
    shape = draw(st.sampled_from([(width, 1), (width, 4, 1), (width, 50, 10, 1)]))
    seed = draw(st.integers(0, 2**16))
    sizes = draw(st.lists(st.integers(2, 15), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    tasks = {f"t{i}": (rng.standard_normal((n, width)), rng.uniform(0.0, 1.0, n))
             for i, n in enumerate(sizes)}
    cfg = meta.MamlConfig(
        inner_steps=draw(st.integers(0, 5)),
        inner_lr=draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
        outer_lr=draw(st.sampled_from([0.001, 0.05])),
        meta_epochs=draw(st.integers(1, 6)),
        net_shape=shape,
    )
    return tasks, cfg, seed


def frozen_digest(params):
    return [bits(a) for pair in zip(params.weights, params.biases) for a in pair]


class TestMamlAgainstFrozen:
    @given(maml_problems())
    @settings(max_examples=60, deadline=None)
    def test_init_and_adapt(self, problem):
        tasks, cfg, seed = problem
        theta = init_mlp(cfg.net_shape, seed)
        ref_theta = frozen.init_mlp(cfg.net_shape, seed)
        assert frozen_digest(theta) == frozen_digest(ref_theta)
        for x, y in tasks.values():
            got = meta.adapt(theta, x, y, cfg)
            ref = frozen.adapt(ref_theta, x, y, cfg.inner_steps, cfg.inner_lr)
            assert frozen_digest(got) == frozen_digest(ref)
            assert bits(meta.predict_net(got, x)) == bits(
                frozen.mlp_activations(ref, x)[-1][:, 0])

    @given(maml_problems())
    @settings(max_examples=40, deadline=None)
    def test_meta_train(self, problem):
        tasks, cfg, seed = problem
        got = meta.meta_train(tasks, cfg, seed)
        ref = frozen.meta_train(tasks, cfg.inner_steps, cfg.inner_lr, cfg.outer_lr,
                                cfg.meta_epochs, cfg.net_shape, seed)
        assert frozen_digest(got) == frozen_digest(ref)

    def test_adapt_from_list_built_params(self):
        # A network built from separate arrays (no flat vector) adapts the same.
        cfg = meta.MamlConfig(inner_steps=3, inner_lr=0.05, net_shape=(2, 4, 1))
        ref_theta = frozen.init_mlp(cfg.net_shape, 7)
        theta = meta.MlpParams(cfg.net_shape, [w.copy() for w in ref_theta.weights],
                               [b.copy() for b in ref_theta.biases])
        x = np.random.default_rng(7).standard_normal((5, 2))
        y = np.linspace(0.0, 1.0, 5)
        got = meta.adapt(theta, x, y, cfg)
        assert frozen_digest(got) == frozen_digest(frozen.adapt(ref_theta, x, y, 3, 0.05))
        assert math.isfinite(float(got.flat.sum()))
