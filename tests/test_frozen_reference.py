"""The GP and MAML solvers against frozen copies of their list-of-arrays,
scipy-wrapper form (``frozen_gp_meta``): every result must agree bit for
bit, so that the flat parameter vector and the direct LAPACK calls change
no output. CMF's ALS against its frozen per-observation form
(``frozen_cmf``): the batched solves sum in another order, so predictions
and objectives must agree to rounding, not bit for bit. The feature loaders
and table against their frozen form (``frozen_features``): equal vectors and
equal error text, ``path:line`` included."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frozen_cmf
import frozen_features
import frozen_gp_meta as frozen
import frozen_loaders
from helpers import gradient, likelihood, mlp_params, noise_slice
from xferlens import data, factorization, features, gp, meta
from xferlens.data import FEATURE_NAMES, DataError, LanguageMeta
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
    hidden = draw(st.sampled_from([(3,), (5, 3), (50, 10), (6, 4, 3)]))
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
    ns = noise_slice(prob)
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
                    likelihood(prob, vec)
                continue
            new = likelihood(prob, vec)
            assert_same_likelihood(new, ref)
            assert bits(gradient(prob, new)) == bits(frozen.gradient(ref_prob, ref))

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

    @pytest.mark.parametrize("sizes", [(7,), (20, 16, 8, 6)], ids=["dgpr", "mdgpr"])
    def test_fit_at_benchmark_shape(self, sizes):
        # The benchmark's dgpr folds and mdgpr helpers, the default network and
        # 200 epochs: the fit's two points swap through hundreds of accepted
        # and rejected candidates.
        rng = np.random.default_rng(7)
        data = {f"t{i}": (rng.standard_normal((n, 9)), rng.uniform(0.0, 1.0, n))
                for i, n in enumerate(sizes)}
        ref = assert_same_fit(data, len(sizes) > 1, gp.DEFAULT_HIDDEN, 7, 0.01, 200, 0.01)
        assert len(ref.mll_trace) > 100 and ref.mll_evals > len(ref.mll_trace) + 100

    def test_overflowing_hyperparameters_raise_in_both(self):
        data = {"t": (np.eye(3), np.array([0.1, 0.5, 0.2]))}
        prob = gp._build_problem(data, False, (3,))[0]
        ref_prob = frozen.build_problem(data, False, (3,))[0]
        vec = gp._init_vec(prob, 0, 0.01)
        vec[prob.n_mlp] = 1000.0
        for fn, p in ((likelihood, prob), (frozen.likelihood, ref_prob)):
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
    vec = np.concatenate([state.mlp.flat, [state.log_lengthscale, state.log_signal_variance],
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


def maml_problem(seed, sizes, cfg):
    """Seeded helper tasks of the given sizes for ``cfg``'s network."""
    rng = np.random.default_rng(seed)
    width = cfg.net_shape[0]
    tasks = {f"t{i}": (rng.standard_normal((n, width)), rng.uniform(0.0, 1.0, n))
             for i, n in enumerate(sizes)}
    return tasks, cfg, seed


@st.composite
def maml_problems(draw):
    width = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(
        [(width, 1), (width, 4, 1), (width, 50, 10, 1), (width, 8, 6, 3, 1)]))
    seed = draw(st.integers(0, 2**16))
    sizes = draw(st.lists(st.integers(2, 15), min_size=1, max_size=4))
    cfg = meta.MamlConfig(
        inner_steps=draw(st.integers(0, 5)),
        inner_lr=draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
        outer_lr=draw(st.sampled_from([0.001, 0.05])),
        meta_epochs=draw(st.integers(1, 6)),
        net_shape=shape,
    )
    return maml_problem(seed, sizes, cfg)


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
    # A diverging fit: the network overflows to inf and nan in the second epoch.
    @example(maml_problem(20436, (3, 10, 3, 6), meta.MamlConfig(
        inner_steps=4, inner_lr=0.5, outer_lr=0.001, meta_epochs=2, net_shape=(7, 4, 1))))
    @settings(max_examples=40, deadline=None)
    def test_meta_train(self, problem):
        tasks, cfg, seed = problem
        got = meta.meta_train(tasks, cfg, seed)
        with np.errstate(all="ignore"):  # the frozen copy warns on a diverging fit
            ref = frozen.meta_train(tasks, cfg.inner_steps, cfg.inner_lr, cfg.outer_lr,
                                    cfg.meta_epochs, cfg.net_shape, seed)
        assert frozen_digest(got) == frozen_digest(ref)

    def test_meta_train_at_benchmark_shape(self):
        # The benchmark's network, its four helpers' sizes and the default
        # steps and rates, over enough epochs for the buffers to be reused.
        tasks, cfg, seed = maml_problem(7, (20, 16, 10, 8), meta.MamlConfig(meta_epochs=25))
        got = meta.meta_train(tasks, cfg, seed)
        ref = frozen.meta_train(tasks, cfg.inner_steps, cfg.inner_lr, cfg.outer_lr,
                                cfg.meta_epochs, cfg.net_shape, seed)
        assert frozen_digest(got) == frozen_digest(ref)
        x = tasks["t0"][0]
        assert bits(meta.predict_net(got, x)) == bits(frozen.mlp_activations(ref, x)[-1][:, 0])

    def test_adapt_from_list_built_params(self):
        # A network copied from the frozen copy's separate arrays into one
        # flat vector adapts the same.
        cfg = meta.MamlConfig(inner_steps=3, inner_lr=0.05, net_shape=(2, 4, 1))
        ref_theta = frozen.init_mlp(cfg.net_shape, 7)
        theta = mlp_params(ref_theta.weights, ref_theta.biases)
        x = np.random.default_rng(7).standard_normal((5, 2))
        y = np.linspace(0.0, 1.0, 5)
        got = meta.adapt(theta, x, y, cfg)
        assert frozen_digest(got) == frozen_digest(frozen.adapt(ref_theta, x, y, 3, 0.05))
        assert math.isfinite(float(got.flat.sum()))


@st.composite
def cmf_problems(draw):
    """1-6 tasks by 1-40 pairs with about 60% of the cells observed (so some
    pairs have no observation), 1-9 features and a rank each shape allows."""
    seed = draw(st.integers(0, 2**16))
    n_tasks, n_pairs = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    observed = rng.uniform(size=(n_tasks, n_pairs)) < 0.6
    observed[rng.integers(n_tasks), rng.integers(n_pairs)] = True
    pairs = [("en", f"p{i}") for i in range(n_pairs)]
    obs = [(f"t{t}", pairs[p], float(rng.uniform())) for t, p in zip(*np.nonzero(observed))]
    x = rng.standard_normal((n_pairs, draw(st.integers(1, 9))))
    n_tasks_seen = int(observed.any(axis=1).sum())
    d = draw(st.integers(1, min(n_tasks_seen, n_pairs)))
    reg = draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0]))
    alpha = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    return obs, pairs, x, d, reg, alpha, seed


class TestCmfAgainstFrozen:
    # Compare predictions, not factors: restarts whose objectives tie to the
    # last bit can be chosen differently, and their factors differ in sign.
    @given(cmf_problems(), st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fit_and_predict(self, problem, sweeps, restarts):
        obs, pairs, x, d, reg, alpha, seed = problem
        args = (obs, pairs, x, d, reg, alpha, sweeps, seed, restarts)
        ref, new = frozen_cmf.fit_cmf(*args), factorization.fit_cmf(*args)
        assert len(new.objective_trace) == len(ref.objective_trace) == 1 + 3 * sweeps
        assert new.objective_trace[-1] == pytest.approx(ref.objective_trace[-1], rel=1e-9)
        assert new.task_index == ref.task_index and new.pair_index == ref.pair_index
        np.testing.assert_allclose(new.task_factors @ new.pair_factors.T,
                                   ref.task_factors @ ref.pair_factors.T, rtol=0, atol=1e-6)
        rows = np.vstack([x, np.random.default_rng(seed).standard_normal(x.shape[1])])
        for task in ref.task_index:
            if alpha == 0.0:  # no side information, so no cold start in either
                for model in (ref, new):
                    with pytest.raises(ValueError, match="degenerate"):
                        factorization.predict_cold_start(model, task, rows[0])
                continue
            for row in rows:
                assert factorization.predict_cold_start(new, task, row) == pytest.approx(
                    factorization.predict_cold_start(ref, task, row), rel=0, abs=1e-6)

    @pytest.mark.parametrize("sizes", [(20, 16, 10, 8), (20, 16, 10, 8, 6)], ids=["4-tasks", "5-tasks"])
    def test_fit_and_cold_start_at_benchmark_shape(self, sizes):
        # The benchmark's llro-multitask cmf fits: the other four tasks' pairs
        # (and the held-out task's train side), nine features, the default
        # rank (capped by the task count), reg, alpha, sweeps and restarts.
        # Against the dense form before numerics.solve, bit for bit.
        rng = np.random.default_rng(11)
        pairs = [("en", f"p{i:02d}") for i in range(24)]
        obs = [(f"t{t}", pairs[p], float(rng.uniform()))
               for t, n in enumerate(sizes) for p in sorted(rng.choice(24, n, replace=False))]
        x = rng.standard_normal((24, 9))
        args = (obs, pairs, x, min(5, len(sizes)), 0.1, 0.5, 50, 3, 3)
        ref, new = frozen_cmf.fit_cmf_dense(*args), factorization.fit_cmf(*args)
        assert new.objective_trace == ref.objective_trace
        for field in ("task_factors", "pair_factors", "feature_factors", "fold_in_system"):
            assert bits(getattr(new, field)) == bits(getattr(ref, field)), field
        cold = rng.standard_normal((6, 9))
        for row in cold:
            assert bits(factorization.fold_in_pair(new, row)) == bits(frozen_cmf.fold_in_pair_dense(ref, row))
        for task in ref.task_index:
            for row in cold:
                want = float(ref.task_factors[ref.task_index[task]] @ frozen_cmf.fold_in_pair_dense(ref, row))
                assert factorization.predict_cold_start(new, task, row) == want
            for pair in pairs[:5]:
                assert factorization.predict_cmf(new, task, pair) == factorization.predict_cmf(ref, task, pair)
        # The per-observation form agrees to rounding.
        assert new.objective_trace[-1] == pytest.approx(frozen_cmf.fit_cmf(*args).objective_trace[-1], rel=1e-9)


# ---------------------------------------------------------------------------
# Feature loaders and table

BLANKS = st.sampled_from(["", " ", "  ", "\t", " \t "])
NUMBERS = st.tuples(
    BLANKS, st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-9, 9).map(str)), BLANKS,
).map("".join)
# non-finite or unparseable; float() takes "1_0" as 10.0, the package rejects it
ODD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e999", "1_0", "abc", "0x1", "--1", "1.0.0", "e5"])
TYPOLOGY_KINDS = ("syntax", "phonology", "genetic", "geography")
TYPOLOGY_FAULTS = ("lang", "kind", "duplicate", "empty", "cell count", "odd cell", "gap")


@st.composite
def typology_csvs(draw):
    """A fixed-width typology file with up to two faults.

    Before the faults every row is valid and distinct, and the geography rows
    share one extent. Cells are often blank or whitespace-only, so rows have
    interior gaps and end in long padding; the kinds' extents differ. A fault
    is a bad language code or kind, a duplicate row, an entirely empty row, a
    wrong cell count, an unparseable or non-finite cell (anywhere, so also
    after long padding) or a blank cell (a gap in a geography row, or a
    shorter extent). Comment lines move the line numbers."""
    width = draw(st.integers(1, 40))
    keys = draw(st.lists(st.tuples(st.sampled_from(["aa", "ab", "ac"]), st.sampled_from(TYPOLOGY_KINDS)),
                         unique=True, max_size=8))
    geo_extent = draw(st.integers(1, width))
    rows = []
    for lang, kind in keys:
        if kind == "geography":
            cells = [draw(NUMBERS) for _ in range(geo_extent)]
        else:
            extent = draw(st.integers(1, width))
            cells = [draw(st.one_of(BLANKS, NUMBERS)) for _ in range(extent - 1)] + [draw(NUMBERS)]
        rows.append([lang, kind, *cells, *(draw(BLANKS) for _ in range(width - len(cells)))])
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(TYPOLOGY_FAULTS))
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        # Cells of the row as it is now: an earlier "cell count" fault may
        # have dropped its last one, or its only one.
        cells = st.integers(2, len(rows[i]) - 1)
        if fault in ("odd cell", "gap") and len(rows[i]) == 2:
            continue
        if fault == "lang":
            rows[i][0] = draw(st.sampled_from(["Bad", "", " ab "]))
        elif fault == "kind":
            rows[i][1] = "bogus"
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif fault == "empty":
            rows[i][2:] = [draw(BLANKS) for _ in range(width)]
        elif fault == "cell count":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [""]
        elif fault == "odd cell":
            for k in draw(st.lists(cells, min_size=1, max_size=3)):
                rows[i][k] = draw(ODD_CELLS)
        else:
            rows[i][draw(cells)] = draw(BLANKS)
    lines = ["lang,kind," + ",".join(f"d{i}" for i in range(width))]
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append("# comment")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@st.composite
def vocab_texts(draw):
    """Tokens with surrounding whitespace, blank and whitespace-only lines."""
    pad = st.sampled_from(["", " ", "\t", "  ", "\u3000"])
    token = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
    lines = draw(st.lists(st.tuples(pad, st.one_of(token, pad), pad).map("".join), max_size=30))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def feature_resources(draw):
    """Resources for 2-5 languages, each present or absent per resource.
    Pre-training sizes come from a few values and languages without metadata
    weigh zero, so WALS feature-value masses often tie."""
    langs = ["aa", "ab", "ac", "ad", "ae"][: draw(st.integers(2, 5))]
    res = frozen_features.FeatureResources()
    dim = st.one_of(st.none(), st.floats(-2, 2))
    present = st.integers(0, 3).map(bool)
    for lang in langs:
        if draw(present):
            tokens = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6))
            res.vocabs[lang] = features.VocabSet(lang, frozenset(tokens))
        for kind, width in (("syntax", 4), ("phonology", 3), ("genetic", 5)):
            if draw(present):
                dims = draw(st.lists(dim, min_size=width, max_size=width))
                res.typology[(lang, kind)] = features.TypologyVector(lang, kind, tuple(dims))
        if draw(present):
            dims = draw(st.lists(st.one_of(st.floats(-50, 50), st.integers(-50, 50)), min_size=3, max_size=3))
            res.typology[(lang, "geography")] = features.TypologyVector(lang, "geography", tuple(dims))
        if draw(present):
            words = draw(st.sampled_from([1.0, 10.0, 1e6, 3e8]))
            res.meta[lang] = LanguageMeta(lang, draw(st.integers(0, 5)), words)
        if draw(present):
            words = draw(st.integers(1, 50))
            subwords = draw(st.integers(words, 3 * words))
            res.stats[lang] = features.TokenizationStats(lang, words, subwords, draw(st.integers(0, words)))
    if draw(present):
        values = st.sampled_from(["1A=1", "1A=2", "2A=1", "3A=3", "4A=1"])
        res.wals = features.WalsTable({  # an empty set is a language absent from the table
            lang: frozenset(draw(st.lists(values, min_size=int(draw(present)), max_size=4)))
            for lang in langs if draw(present)
        })
    pivots = draw(st.none() | st.lists(st.sampled_from(langs), min_size=1, unique=True))
    return res, pivots


def sparse_resources(pivots):
    """aa and ad have only a vocabulary, ab has every resource, ac no vocabulary."""
    res = frozen_features.FeatureResources()
    for i, lang in enumerate(["aa", "ab", "ad"]):
        res.vocabs[lang] = features.VocabSet(lang, frozenset({"x", f"t{i}"}))
    for lang, place in (("ab", (1.0, 2.0)), ("ac", (3.0, 0.0))):
        res.typology[(lang, "geography")] = features.TypologyVector(lang, "geography", place)
        res.meta[lang] = LanguageMeta(lang, 3, 1e6)
        res.stats[lang] = features.TokenizationStats(lang, 10, 12, 2)
    res.wals = features.WalsTable({"ab": frozenset({"1A=1"}), "ac": frozenset({"1A=2"})})
    return res, pivots


@contextmanager
def underscores_made_unparseable(path):
    """The file at ``path`` with each ``1_0`` made ``1_0x`` while the block runs.

    The package takes no ``_`` in a number; the frozen loaders' float() and
    int() take ``1_0`` as 10 but reject ``1_0x``, at the same cell. Their
    outcome on the changed file, with ``1_0x`` named ``1_0`` again
    (``named_back``), is the package's outcome on the file as it is.
    """
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("1_0", "1_0x"), encoding="utf-8")
    try:
        yield
    finally:
        path.write_text(text, encoding="utf-8")


def named_back(text):
    return text.replace("1_0x", "1_0")


def outcome(fn, *args, **kwargs):
    """What a call gives: its result, or its error's type and text."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as err:  # DataError included
        return type(err).__name__, str(err)


def typology_view(result):
    """Keys in order, and each vector's dims by repr (so -0.0 differs from 0.0)."""
    return [(key, vec.lang, vec.kind, repr(vec.dims)) for key, vec in result.items()]


def table_view(table):
    return [(key, fv.pivot, fv.target, repr(sorted(fv.values.items())), fv.missing)
            for key, fv in table.items()]


class TestFeaturesAgainstFrozen:
    @given(typology_csvs())
    @example("lang,kind,d0,d1,d2,d3,d4,d5\naa,syntax,1.0,,, ,,abc\n")  # after long padding
    @example("lang,kind,d0,d1,d2\naa,syntax, --1 ,2.0,abc\n")  # the first of two is reported
    @example("lang,kind,d0,d1\naa,syntax,nan\n")  # a dropped last cell, then an odd one
    @settings(max_examples=300, deadline=None)
    def test_typology_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("typology") / "typology.csv"
        path.write_text(text, encoding="utf-8")
        new = outcome(features.load_typology_csv, path)
        with underscores_made_unparseable(path):
            ref = outcome(frozen_features.load_typology_csv, path)
        if new[0] == ref[0] == "ok":
            assert typology_view(new[1]) == typology_view(ref[1])
        else:
            assert new[0] == ref[0] != "ok"
            assert new[1] == named_back(ref[1])
            assert new[0] == "DataError" and new[1].startswith(f"{path}:")

    @given(vocab_texts())
    @settings(max_examples=150, deadline=None)
    def test_vocab_file(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("vocab") / "aa.txt"
        path.write_text(text, encoding="utf-8")
        new = outcome(features.load_vocab_file, path, "aa")
        assert new == outcome(frozen_features.load_vocab_file, path, "aa")
        if new[0] != "ok":
            assert new == ("DataError", f"{path}: empty vocabulary file")

    @given(feature_resources())
    @example(sparse_resources(["ac", "ab"]))  # ac: a pivot with no vocabulary
    @example(sparse_resources(None))
    @example(sparse_resources(["ab", "zz"]))  # zz: a pivot in no resource
    @settings(max_examples=200, deadline=None)
    def test_feature_table_and_wmrr(self, problem):
        # The frozen table holds every vocabulary; the package streams the
        # same ones through vocab_overlaps, the pivots' first, each group in
        # language order. A pivot may lack a vocabulary, and a language may
        # have nothing else.
        res, pivots = problem
        named = set(pivots or res.vocabs)
        langs = sorted(res.vocabs)
        streamed = features.FeatureResources(
            vocabs=features.vocab_overlaps((res.vocabs[lang] for lang in langs if lang in named),
                                           (res.vocabs[lang] for lang in langs if lang not in named)),
            typology=res.typology, wals=res.wals, stats=res.stats, meta=res.meta,
        )
        assert streamed.languages() == res.languages()
        new = outcome(features.build_feature_table, streamed, pivots=pivots)
        unknown = sorted(set(pivots or ()) - set(res.languages()))
        ref = outcome(frozen_features.build_feature_table, res, pivots=pivots)
        if unknown:  # the frozen table gave such a pivot rows of target-side features
            assert new == ("ValueError", f"no resource has pivot {', '.join(map(repr, unknown))}")
        elif new[0] == ref[0] == "ok":
            assert table_view(new[1]) == table_view(ref[1])
        else:
            assert new == ref
        if res.wals is None:
            return
        ranks = features.feature_value_ranks(res.wals, res.meta)
        for t in res.languages():
            ref = outcome(frozen_features.wmrr, t, res.wals, res.meta)
            assert outcome(features.wmrr, t, res.wals, res.meta) == ref
            assert outcome(features.wmrr, t, res.wals, res.meta, ranks) == ref


# ---------------------------------------------------------------------------
# Table loaders: the five CSV tables read through data.read_table

FEATURES_HEADER = ",".join(["pivot", "target", *FEATURE_NAMES]) + "\n"

STATS_COUNTS = ("word_count", "subword_count", "continued_word_count")
TABLE_COLUMNS = {
    "scores": ["model", "task", "pivot", "target", "score"],
    "features": ["pivot", "target", *FEATURE_NAMES],
    "meta": ["lang", "class", "pretrain_words"],
    "wals": ["lang", "feature_value"],
    "stats": ["lang", *STATS_COUNTS],
}
TABLE_LOADERS = {
    "scores": (data.load_scores_csv, frozen_loaders.load_scores_csv),
    "features": (data.load_features_csv, frozen_loaders.load_features_csv),
    "meta": (data.load_meta_csv, frozen_loaders.load_meta_csv),
    "wals": (features.load_wals_csv, frozen_loaders.load_wals_csv),
    "stats": (features.load_stats_csv, frozen_loaders.load_stats_csv),
}
#: the cells a row's duplicate rule looks at
TABLE_KEYS = {"scores": 4, "features": 2, "meta": 1, "wals": 2, "stats": 1}
UNIT_CELLS = st.floats(0, 1).map(repr)
# a bad language code, a non-integer, an out-of-range number, a bad scale
FAULT_CELLS = st.one_of(
    BLANKS, ODD_CELLS,
    st.sampled_from(["Bad", "a", "x1", "-1", "1.5", "150", "-0.0", "0", "y", "pct", "percent", "6"]),
)
PAD = st.sampled_from(["", "", "", "", "", " ", "\t"])


def table_row(draw, name):
    """A valid row of the named table, before any fault."""
    if name == "scores":
        return ["m", draw(st.sampled_from(["t", "u"])), draw(st.sampled_from(["aa", "ab"])),
                draw(st.sampled_from(["ac", "ad", "ae"])), draw(UNIT_CELLS)]
    if name == "features":
        ranges = {"d_geo": (0, 1e3), "size": (-10, 10), "fert": (1, 5)}
        return [draw(st.sampled_from(["aa", "ab"])), draw(st.sampled_from(["ac", "ad", "ae"])),
                *(draw(st.one_of(st.just(""), st.floats(*ranges.get(n, (0, 1))).map(repr)))
                  for n in FEATURE_NAMES)]
    lang = draw(st.sampled_from(["aa", "ab", "ac", "ad"]))
    if name == "meta":
        words = st.one_of(st.floats(1, 1e12).map(repr), st.integers(1, 10**9).map(str))
        return [lang, str(draw(st.integers(0, 5))), draw(words)]
    if name == "wals":
        return [lang, draw(st.sampled_from(["1A=1", "1A=2", "2A=1", "3A=3"]))]
    words = draw(st.integers(1, 50))
    return [lang, str(words), str(draw(st.integers(words, 3 * words))), str(draw(st.integers(0, words)))]


@st.composite
def table_csvs(draw):
    """A table CSV with up to two faults: a bad header (a column dropped,
    added, repeated or moved), a wrong cell count, a duplicate row (as it
    was, or with one cell changed) or a fault cell (blank, unparseable,
    non-finite, out of range, a bad language code or scale) anywhere. Cells
    and header names are often padded with whitespace; comment and blank
    lines move the line numbers. Scores files may carry the scale column."""
    name = draw(st.sampled_from(sorted(TABLE_COLUMNS)))
    header = list(TABLE_COLUMNS[name])
    scale = name == "scores" and draw(st.booleans())
    rows = [table_row(draw, name) for _ in range(draw(st.integers(0, 6)))]
    if scale:
        header.append("scale")
        for row in rows:
            row.append(draw(st.sampled_from(["", "unit", "percent"])))
            if row[5] == "percent":
                row[4] = repr(float(row[4]) * 100)
    keyed = {}
    for row in rows:  # one row per key before the faults
        keyed.setdefault(tuple(row[: TABLE_KEYS[name]]), row)
    rows = list(keyed.values())
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["header", "cell count", "duplicate", "cell", "cell"]))
        if fault == "header":
            i = draw(st.integers(0, len(header) - 1))
            change = draw(st.sampled_from(["drop", "add", "repeat", "move", "scale"]))
            if change == "drop":
                del header[i]
            elif change == "add":
                header.insert(i, "bogus")
            elif change == "repeat":
                header.insert(i, header[draw(st.integers(0, len(header) - 1))])
            elif change == "move":
                header.insert(draw(st.integers(0, len(header) - 1)), header.pop(i))
            else:
                header.append("scale")
            continue
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        if fault == "cell count":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [""]
        elif fault == "duplicate":
            copy = list(rows[i])
            if draw(st.booleans()):
                copy[j] = draw(FAULT_CELLS)
            rows.insert(draw(st.integers(0, len(rows))), copy)
        else:
            rows[i][j] = draw(FAULT_CELLS)
    lines = [",".join(draw(PAD) + h + draw(PAD) for h in header)]
    for row in rows:
        lines.append(draw(st.sampled_from(["", "# comment", None, None, None])))
        lines.append(",".join(draw(PAD) + c + draw(PAD) for c in row))
    return name, "\n".join(line for line in lines if line is not None) + "\n"


def parses_as_int(cell):
    try:
        int(cell)
    except ValueError:
        return False
    return True


def moved_outcome(name, ref, path):
    """The frozen loader's outcome, as the shared reader changes it on purpose:
    a bad header is reported at its own line, after any blank and comment
    lines (the frozen loaders say line 1), and a bad WALS or stats header like
    the other tables' (stripped, with the columns as a list); an unparseable
    stats count or meta class names its column and its stripped cell; and a
    scores row with an out-of-range score and another fault reports
    PerformanceRecord's first."""
    if ref[0] != "DataError":
        return ref
    where, _, message = ref[1].partition(": ")
    if message.startswith("bad header"):
        (line, header), _ = data.read_csv_rows(path)
        where = f"{path}:{line}"
        if name in ("wals", "stats"):
            header = [h.strip() for h in header]
            message = f"bad header {header!r}, expected {TABLE_COLUMNS[name]!r}"
        return "DataError", f"{where}: {message}"
    if not message.startswith(("could not parse counts", "could not parse class", "score out of range")):
        return ref
    cells = [c.strip() for c in dict(data.read_csv_rows(path)[1])[int(where.rsplit(":", 1)[1])]]
    if name == "stats":
        column, cell = next((c, v) for c, v in zip(STATS_COUNTS, cells[1:]) if not parses_as_int(v))
        return "DataError", f"{where}: could not parse {column} {cell!r} as an integer"
    if name == "meta":
        return "DataError", f"{where}: could not parse class {cells[1]!r} as an integer"
    try:
        data.PerformanceRecord(*cells[:4], 0.5)
    except ValueError as err:
        return "DataError", f"{where}: {err}"
    return ref


def loader_view(result):
    """A loaded table by repr, but its sets as sets: they print in hash order."""
    if isinstance(result, features.WalsTable):
        return [(lang, sorted(values)) for lang, values in result.rows.items()]
    if isinstance(result, dict) and all(isinstance(v, data.FeatureVector) for v in result.values()):
        return [(key, fv.pivot, fv.target, repr(fv.values), sorted(fv.missing)) for key, fv in result.items()]
    return repr(result)


class TestTableLoadersAgainstFrozen:
    @given(table_csvs())
    @example(("wals", " lang ,feature\naa,1A=1\n"))
    @example(("stats", "lang ,word_count,subword_count,continued_word_count\naa,10,y,x\n"))
    @example(("stats", "lang,word_count,subword_count,continued_word_count\naa,10,12,2\n# c\naa,10,12,2\n"))
    @example(("meta", "lang,class,pretrain_words\naa, x ,1e9\n"))
    @example(("scores", "model,task,pivot,target,score\nm,t,aa,Bad,1.5\n"))
    @example(("scores", "model,task,pivot,target,score,scale\nm,t,aa,ab,150,percent\nm,t,aa,ab,0.5,\n"))
    @example(("features", FEATURES_HEADER + "aa,ab" + ",0.5" * 4 + ",nan,1,0.5,1,0.5\n"))
    @example(("wals", "# no header\n\n"))  # an empty file
    @example(("wals", "\n\naa,1A=1\n"))  # a bad header after blank lines
    @settings(max_examples=400, deadline=None)
    def test_table_csv(self, tmp_path_factory, table):
        name, text = table
        path = tmp_path_factory.mktemp("table") / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        load, frozen_load = TABLE_LOADERS[name]
        new = outcome(load, path)
        with underscores_made_unparseable(path):
            ref = outcome(frozen_load, path)
            moved = moved_outcome(name, ref, path)
        if new[0] == ref[0] == "ok":  # a 1_0 in a name column loads as it is
            assert repr(loader_view(new[1])) == named_back(repr(loader_view(ref[1])))
        else:
            assert new[0] == moved[0] != "ok"
            assert new[1] == named_back(moved[1])
            assert new[0] == "DataError" and new[1].startswith(f"{path}:")
