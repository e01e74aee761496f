"""Tests for the persistent counterfactual store and its session integration.

Covers fingerprint sensitivity (what busts the cache), the payload layout
behind the checksum, concurrent same-fingerprint writers (atomic publishes
never interleave), and LRU eviction under the entry/byte bounds.  Damaged
entries (a miss and a recompute, never an error) are generated by
``tests/test_faults.py``.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairexp.core import BurdenExplainer, NAWBExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    BatchModelAdapter,
    CoalescingScoringClient,
    Counterfactual,
    CounterfactualBatch,
    CounterfactualStore,
    GrowingSpheresCounterfactual,
    RemoteScoringBackend,
    export_model,
    generator_config,
    model_signature,
    population_fingerprint,
)
from fairexp.explanations.engine import _init_parameters
from fairexp.explanations.store import STORE_FORMAT_VERSION
from fairexp.models import LogisticRegression

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _module_scorer(X):
    """Module-level stand-in for a hand-written scoring function."""
    return np.zeros(np.atleast_2d(X).shape[0], dtype=int)


def _module_scorer_edited(X):
    """The 'edited' body the code-sensitivity test swaps in."""
    return np.ones(np.atleast_2d(X).shape[0], dtype=int)


def _module_scorer_with_inner(X):
    """Scorer whose inner lambda puts a code object into co_consts."""
    threshold = (lambda rows: rows * 0)(np.atleast_2d(X).shape[0])
    return np.full(np.atleast_2d(X).shape[0], threshold, dtype=int)


@pytest.fixture(scope="module")
def loan_workload():
    dataset = make_loan_dataset(400, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    subset = test.subset(np.arange(min(50, test.n_samples)))
    return dataset, train, subset, model, constraints


def _generator(model, train, constraints, **kwargs):
    params = dict(constraints=constraints, random_state=0)
    params.update(kwargs)
    return GrowingSpheresCounterfactual(model, train.X, **params)


def _some_results(n_features=3):
    """Row 3 solved (feature 0 raised by one), row 7 remembered infeasible."""
    batch = CounterfactualBatch.unsolved([3, 7], n_features)
    batch.has_result[0] = True
    batch.originals[0] = np.arange(n_features, dtype=float)
    batch.counterfactuals[0] = np.arange(n_features, dtype=float) + [1.0, 0.0, 0.0]
    batch.counterfactual_predictions[0] = 1
    batch.distances[0] = 1.25
    batch.constraint_feasible[0] = True
    batch.changed_masks[0, 0] = True
    return batch


#: The payload layout of formats 4 and 5, written out apart from the store:
#: each column's raw bytes in this order and on-disk dtype, concatenated into
#: one deflate stream.
_PAYLOAD_COLUMNS = {
    "indices": "<i8", "has_result": "|b1", "originals": "<f8",
    "counterfactuals": "<f8", "original_predictions": "<i8",
    "counterfactual_predictions": "<i8", "distances": "<f8",
    "constraint_feasible": "|b1", "changed_masks": "|b1",
}


def _raw_stream(columns):
    """The inflated payload of ``columns``."""
    return b"".join(np.ascontiguousarray(columns[name], dtype=dtype).tobytes()
                    for name, dtype in _PAYLOAD_COLUMNS.items())


def _checksum(fingerprint, blob):
    """The manifest's ``entry_sha256``: SHA-256 of the fingerprint
    followed by the payload."""
    return hashlib.sha256(fingerprint.encode() + blob).hexdigest()


def _uniform_results(n_rows, n_features, value):
    """``n_rows`` solved rows, each moving every feature from 0 to ``value``."""
    return CounterfactualBatch(
        indices=np.arange(n_rows), has_result=np.ones(n_rows, dtype=bool),
        originals=np.zeros((n_rows, n_features)),
        counterfactuals=np.full((n_rows, n_features), value),
        original_predictions=np.zeros(n_rows), counterfactual_predictions=np.ones(n_rows),
        distances=np.full(n_rows, value), constraint_feasible=np.ones(n_rows, dtype=bool),
        changed_masks=np.ones((n_rows, n_features), dtype=bool),
    )


class TestRoundTrip:
    def test_save_load_preserves_results_and_infeasible_rows(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("f" * 64, _some_results())
        loaded = store.load("f" * 64)
        assert loaded.indices.tolist() == [3, 7]
        assert loaded[1] is None
        original = _some_results()[0]
        assert np.array_equal(loaded[0].counterfactual, original.counterfactual)
        assert np.array_equal(loaded[0].original, original.original)
        assert loaded[0].changed_features == (0,)
        assert loaded[0].distance == original.distance
        assert loaded[0].original_prediction == 0
        assert loaded[0].counterfactual_prediction == 1
        assert loaded[0].feasible is True

    def test_save_replaces_the_entry(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        results = _some_results()
        store.save("a" * 64, results.take([0]))
        store.save("a" * 64, results.take([1]))
        loaded = store.load("a" * 64)
        assert loaded.indices.tolist() == [7]
        assert list(loaded) == [None]

    def test_empty_save_is_a_noop(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("b" * 64, CounterfactualBatch.unsolved([], 3))
        assert store.entries() == []

    def test_full_disk_degrades_to_skipped_publish(self, tmp_path, monkeypatch):
        """A full or unwritable store volume must not abort an audit whose
        results are already in memory — the publish is simply skipped."""
        import errno
        import pathlib

        store = CounterfactualStore(tmp_path)

        def disk_full(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", disk_full)
        store.save("aa" * 32, _some_results())  # must not raise
        assert store.entries() == []


class TestFieldFidelity:
    """Cold results and store round-trips are built column by column; each
    result still carries plain Python scalars and arrays that no other
    result, and not the caller's population, shares."""

    @staticmethod
    def _assert_plain_and_unaliased(results, X):
        arrays = []
        for result in results:
            assert type(result.original_prediction) is int
            assert type(result.counterfactual_prediction) is int
            assert type(result.distance) is float
            assert type(result.feasible) is bool
            assert type(result.changed_features) is tuple
            assert all(type(j) is int for j in result.changed_features)
            arrays += [result.original, result.counterfactual]
        for k, array in enumerate(arrays):
            assert not np.shares_memory(array, X)
            assert not any(np.shares_memory(array, other) for other in arrays[k + 1:])

    def test_cold_results_and_round_trip(self, tmp_path, loan_workload):
        _, train, subset, model, constraints = loan_workload
        X = subset.X.copy()
        cold = _generator(model, train, constraints).generate_batch_aligned(X)
        solved = [result for result in cold if result is not None]
        assert len(solved) > 10
        self._assert_plain_and_unaliased(solved, X)
        store = CounterfactualStore(tmp_path)
        store.save("c" * 64, cold)
        loaded = store.load("c" * 64)
        warm = [result for result in loaded if result is not None]
        self._assert_plain_and_unaliased(warm, X)
        for a, b in zip(solved, warm):
            assert np.array_equal(a.original, b.original)
            assert np.array_equal(a.counterfactual, b.counterfactual)
            assert (a.original_prediction, a.counterfactual_prediction, a.changed_features,
                    a.distance, a.feasible, a.meta) == (
                b.original_prediction, b.counterfactual_prediction, b.changed_features,
                b.distance, b.feasible, b.meta)


class TestFingerprint:
    def test_same_configuration_same_fingerprint(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        first = population_fingerprint(_generator(model, train, constraints), subset.X)
        second = population_fingerprint(_generator(model, train, constraints), subset.X)
        assert first == second

    def test_population_change_busts_fingerprint(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints)
        base = population_fingerprint(generator, subset.X)
        assert population_fingerprint(generator, subset.X[:-1]) != base
        shifted = subset.X.copy()
        shifted[0, 0] += 1.0
        assert population_fingerprint(generator, shifted) != base

    def test_refit_busts_fingerprint(self, loan_workload):
        dataset, train, subset, model, constraints = loan_workload
        base = population_fingerprint(_generator(model, train, constraints), subset.X)
        refit = LogisticRegression(n_iter=800, random_state=0).fit(
            train.X[:-5], train.y[:-5]
        )
        changed = population_fingerprint(_generator(refit, train, constraints), subset.X)
        assert changed != base
        assert model_signature(model) != model_signature(refit)

    def test_search_config_busts_fingerprint(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        base = population_fingerprint(_generator(model, train, constraints), subset.X)
        assert population_fingerprint(
            _generator(model, train, constraints, max_shells=9), subset.X
        ) != base
        assert population_fingerprint(
            _generator(model, train, constraints, random_state=1), subset.X
        ) != base
        assert population_fingerprint(
            _generator(model, train, ActionabilityConstraints.unconstrained(
                train.X.shape[1]
            )), subset.X
        ) != base

    def test_hash_framing_distinguishes_adjacent_values(self):
        """Concatenated reprs must be unambiguous: [1, 23] vs [12, 3] (and
        dict analogues) are different configs and must hash differently."""
        import hashlib

        from fairexp.explanations.store import _hash_value

        def digest_of(value):
            digest = hashlib.sha256()
            assert _hash_value(digest, value)
            return digest.hexdigest()

        assert digest_of([1, 23]) != digest_of([12, 3])
        assert digest_of((1, 23)) != digest_of((12, 3))
        assert digest_of({0: 1, 11: 1}) != digest_of({0: 11, 1: 1})
        assert digest_of(["a", "bc"]) != digest_of(["ab", "c"])

    def test_set_literal_scorer_token_stable_across_hash_seeds(self):
        """frozenset constants iterate in hash-seed order; the code token
        must sort them so every process fingerprints the callable alike."""
        script = (
            "import hashlib\n"
            "from fairexp.explanations.store import _code_token\n"
            "def scorer(unit):\n"
            "    return unit in {'kg', 'lb', 'oz', 'g', 't'}\n"
            "print(hashlib.sha256(_code_token(scorer.__code__)).hexdigest())\n"
        )
        digests = set()
        for seed in ("0", "1", "42"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")}
            completed = subprocess.run([sys.executable, "-c", script],
                                       capture_output=True, text=True, env=env,
                                       timeout=60)
            assert completed.returncode == 0, completed.stderr
            digests.add(completed.stdout.strip())
        assert len(digests) == 1, f"token varies with hash seed: {digests}"

    def test_shared_random_stream_has_no_fingerprint(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints,
                               random_state=np.random.default_rng(0))
        assert population_fingerprint(generator, subset.X) is None

    def test_unseeded_generator_has_no_fingerprint(self, loan_workload):
        """random_state=None draws fresh OS entropy each run: replaying one
        run's draws warm would make a nondeterministic audit sticky."""
        _, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints, random_state=None)
        assert population_fingerprint(generator, subset.X) is None

    def test_package_code_change_busts_fingerprint(self, loan_workload, monkeypatch):
        """The package source digest is part of the key: a dev checkout that
        edits a search kernel (same __version__) must retire old entries."""
        from fairexp.explanations import store as store_module

        _, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints)
        before = population_fingerprint(generator, subset.X)
        assert store_module._PACKAGE_CODE_TOKEN is not None  # computed + cached
        monkeypatch.setattr(store_module, "_PACKAGE_CODE_TOKEN",
                            "0" * 64)  # simulate edited sources
        after = population_fingerprint(generator, subset.X)
        assert before is not None and after is not None
        assert before != after

    def test_predict_backend_busts_fingerprint(self, loan_workload):
        """Two sessions differing only in their callable predict backend
        (onnx-v1 vs onnx-v2 style) must not share store entries."""
        from fairexp.explanations import BatchModelAdapter, CallablePredictBackend

        _, train, subset, model, constraints = loan_workload
        other = LogisticRegression(n_iter=800, random_state=7).fit(
            train.X[:-20], train.y[:-20]
        )

        def fingerprint_with(fn):
            adapted = BatchModelAdapter(model,
                                        backend=CallablePredictBackend(fn),
                                        cache=False)
            generator = GrowingSpheresCounterfactual(
                adapted, train.X, constraints=constraints, random_state=0
            )
            return population_fingerprint(generator, subset.X)

        v1 = fingerprint_with(model.predict)
        v2 = fingerprint_with(other.predict)
        assert v1 is not None and v2 is not None
        assert v1 != v2
        bare = population_fingerprint(_generator(model, train, constraints), subset.X)
        assert v1 != bare  # dispatch through a callable is part of the key

    def test_callable_code_edit_busts_fingerprint(self, loan_workload):
        """A module-level scorer pickles by reference (import path only), so
        the dispatch token must also fold in its bytecode: editing the
        function's body in place must change the fingerprint."""
        from fairexp.explanations import BatchModelAdapter, CallablePredictBackend

        _, train, subset, model, constraints = loan_workload

        def fingerprint_now():
            adapted = BatchModelAdapter(
                model, backend=CallablePredictBackend(_module_scorer), cache=False
            )
            generator = GrowingSpheresCounterfactual(
                adapted, train.X, constraints=constraints, random_state=0
            )
            return population_fingerprint(generator, subset.X)

        original_code = _module_scorer.__code__
        try:
            before = fingerprint_now()
            # Simulate editing the scorer's body between runs: same function
            # object, same import path/pickle bytes, different bytecode.
            _module_scorer.__code__ = _module_scorer_edited.__code__
            after = fingerprint_now()
        finally:
            _module_scorer.__code__ = original_code
        assert before is not None and after is not None
        assert before != after

    def test_nested_lambda_scorer_token_is_process_stable(self, loan_workload):
        """A scorer containing an inner lambda puts a code object into
        co_consts; its repr embeds a per-process memory address, which must
        NOT leak into the dispatch token (it would turn every warm start
        into a cold path)."""
        import re

        from fairexp.explanations import BatchModelAdapter, CallablePredictBackend
        from fairexp.explanations.store import _dispatch_token

        _, train, _, model, _ = loan_workload
        adapted = BatchModelAdapter(
            model, backend=CallablePredictBackend(_module_scorer_with_inner),
            cache=False,
        )
        token = _dispatch_token(adapted)
        assert token is not None
        assert not re.search(rb"0x[0-9a-f]{6,}", token), (
            "dispatch token embeds a memory address and cannot be "
            "reproduced by another process"
        )

    def test_slots_model_has_no_signature(self, loan_workload):
        """__slots__ models hide their state from vars(); hashing them as
        empty would alias differently-fitted models onto one fingerprint."""
        _, train, subset, model, constraints = loan_workload

        class SlottedModel:
            __slots__ = ("coef",)

            def __init__(self, coef):
                self.coef = coef

            def predict(self, X):
                return (np.atleast_2d(X) @ self.coef > 0).astype(int)

        slotted = SlottedModel(np.ones(train.X.shape[1]))
        assert model_signature(slotted) is None
        generator = GrowingSpheresCounterfactual(slotted, train.X,
                                                 constraints=constraints,
                                                 random_state=0)
        assert population_fingerprint(generator, subset.X) is None

    def test_unpicklable_callable_backend_has_no_fingerprint(self, loan_workload):
        from fairexp.explanations import BatchModelAdapter, CallablePredictBackend

        _, train, subset, model, constraints = loan_workload
        adapted = BatchModelAdapter(
            model, backend=CallablePredictBackend(lambda X: model.predict(X)),
            cache=False,
        )
        generator = GrowingSpheresCounterfactual(adapted, train.X,
                                                 constraints=constraints, random_state=0)
        assert population_fingerprint(generator, subset.X) is None

    def test_exotic_model_state_hashes_or_degrades_gracefully(self, loan_workload):
        """Set-valued and __dict__-less attributes must never crash the
        fingerprint path — they either hash deterministically or poison the
        fingerprint to None (store skipped, audit still runs)."""
        _, train, subset, model, constraints = loan_workload
        refit = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)
        refit.labels_seen = {0, 1}                      # set: deterministic hash
        refit.converged_ = np.bool_(True)               # np scalar: hashes fine
        with_set = model_signature(refit)
        assert with_set is not None
        assert with_set != model_signature(model)
        refit.codec = np.dtype(float)                   # no __dict__: degrade
        generator = _generator(refit, train, constraints)
        assert model_signature(refit) is None
        assert population_fingerprint(generator, subset.X) is None

    def test_private_fitted_state_busts_fingerprint(self, loan_workload):
        """Models keeping their fitted state under leading underscores (KNN
        stores the training set as _X/_y) must not alias onto one signature."""
        from fairexp.models import KNeighborsClassifier

        _, train, subset, model, constraints = loan_workload
        knn_a = KNeighborsClassifier(n_neighbors=3).fit(train.X[:100], train.y[:100])
        knn_b = KNeighborsClassifier(n_neighbors=3).fit(train.X[100:200],
                                                        train.y[100:200])
        assert model_signature(knn_a) is not None
        assert model_signature(knn_a) != model_signature(knn_b)
        fp_a = population_fingerprint(_generator(knn_a, train, constraints), subset.X)
        fp_b = population_fingerprint(_generator(knn_b, train, constraints), subset.X)
        assert fp_a is not None and fp_a != fp_b

    def test_unwalkably_deep_model_state_degrades_instead_of_crashing(
        self, loan_workload
    ):
        _, train, subset, model, constraints = loan_workload
        refit = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)

        class Node:
            def __init__(self, parent):
                self.parent = parent

        chain = None
        for _ in range(10000):  # deeper than the interpreter can walk
            chain = Node(chain)
        refit.history = chain
        assert model_signature(refit) is None
        generator = _generator(refit, train, constraints)
        assert population_fingerprint(generator, subset.X) is None

    def test_object_dtype_array_state_poisons_fingerprint(self, loan_workload):
        """Object arrays serialize memory pointers through tobytes() — never
        reproducible across processes, so they must poison the fingerprint."""
        _, train, subset, model, constraints = loan_workload
        refit = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)
        refit.feature_labels = np.array(["income", "debt"], dtype=object)
        assert model_signature(refit) is None
        generator = _generator(refit, train, constraints)
        assert population_fingerprint(generator, subset.X) is None

    def test_cyclic_model_state_degrades_instead_of_crashing(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        refit = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)

        class Pipeline:
            pass

        refit.pipeline = Pipeline()
        refit.pipeline.model = refit                    # back-reference cycle
        assert model_signature(refit) is None
        generator = _generator(refit, train, constraints)
        assert population_fingerprint(generator, subset.X) is None

    def test_lossy_generator_config_has_no_fingerprint(self, loan_workload):
        """A generator storing an __init__ arg under a different name cannot
        be fingerprinted faithfully — the store must be skipped, not fed a
        key that is blind to the hidden parameter."""
        _, train, subset, model, constraints = loan_workload

        class SneakyGenerator(GrowingSpheresCounterfactual):
            """Growing spheres with a renamed constructor attribute."""

            def __init__(self, model, background, *, secret_boost=1.0, **kwargs):
                super().__init__(model, background, **kwargs)
                self._boost = secret_boost  # not stored as self.secret_boost

        generator = SneakyGenerator(model, train.X, constraints=constraints,
                                    random_state=0)
        assert population_fingerprint(generator, subset.X) is None


def _custom_class(boosted=True):
    """A generator class made at run time; both variants share one name."""
    if boosted:
        class Custom(GrowingSpheresCounterfactual):
            def __init__(self, model, background, *, boost=1.0, **kwargs):
                super().__init__(model, background, **kwargs)
                self.boost = boost
    else:
        class Custom(GrowingSpheresCounterfactual):
            def __init__(self, model, background, *, damping=1.0, **kwargs):
                super().__init__(model, background, **kwargs)
                self.damping = damping
    return Custom


class TestInitParameterCache:
    """Constructor introspection is memoized; the memo must never let a
    fingerprint or config miss a parameter the current class declares."""

    def test_replaced_init_is_read_afresh(self, loan_workload, monkeypatch):
        _, train, subset, model, constraints = loan_workload
        Custom = _custom_class()
        generator = Custom(model, train.X, constraints=constraints, random_state=0)
        assert generator_config(generator)["boost"] == 1.0
        before = population_fingerprint(generator, subset.X)
        assert before is not None

        def damped_init(self, model, background, *, damping=2.0, **kwargs):
            GrowingSpheresCounterfactual.__init__(self, model, background, **kwargs)
            self.damping = damping

        monkeypatch.setattr(Custom, "__init__", damped_init)
        generator.damping = 2.0
        config = generator_config(generator)
        assert config["damping"] == 2.0 and "boost" not in config
        after = population_fingerprint(generator, subset.X)
        assert after is not None and after != before

        def hidden_init(self, model, background, *, hidden=3.0, **kwargs):
            GrowingSpheresCounterfactual.__init__(self, model, background, **kwargs)

        monkeypatch.setattr(Custom, "__init__", hidden_init)
        assert "hidden" not in generator_config(generator)
        # The new parameter is stored nowhere: no faithful fingerprint.
        assert population_fingerprint(generator, subset.X) is None

    def test_classes_with_other_parameters_never_share_an_entry(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        params = dict(constraints=constraints, random_state=0)
        boosted = _custom_class()(model, train.X, **params)
        damped = _custom_class(boosted=False)(model, train.X, **params)
        assert type(boosted).__qualname__ == type(damped).__qualname__
        assert "boost" in generator_config(boosted)
        assert "damping" not in generator_config(boosted)
        assert "damping" in generator_config(damped)
        assert "boost" not in generator_config(damped)
        assert population_fingerprint(boosted, subset.X) \
            != population_fingerprint(damped, subset.X)

    def test_runtime_classes_are_not_pinned(self, loan_workload):
        _, train, _, model, constraints = loan_workload
        Custom = _custom_class()
        generator_config(Custom(model, train.X, constraints=constraints, random_state=0))
        released = weakref.ref(Custom)
        del Custom
        for _ in range(_init_parameters.cache_info().maxsize):
            _init_parameters((lambda self, spare=0: None,))  # evicts the class's entry
        gc.collect()
        assert released() is None


class TestCorruptionFallback:
    def test_stale_reader_does_not_destroy_republished_entry(self, tmp_path):
        """A reader that fails on a stale view (entry republished + old
        payload swept between its manifest read and payload read) must NOT
        discard the writer's fresh, valid entry."""
        store = CounterfactualStore(tmp_path)
        store.save("c" * 64, _some_results())
        stale_text = '{"this is": "the manifest the failing reader saw"}'
        store._discard_if_unchanged("c" * 64, stale_text)
        assert store.entries() == ["c" * 64]          # fresh entry survives
        assert store.load("c" * 64) is not None
        current_text = store._manifest_path("c" * 64).read_text()
        store._discard_if_unchanged("c" * 64, current_text)
        assert store.entries() == []                  # genuine corruption goes



class TestEviction:
    def test_entry_bound_evicts_least_recently_used(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.max_entries = 2
        fingerprints = ["1" * 64, "2" * 64, "3" * 64]
        for k, fingerprint in enumerate(fingerprints):
            store.save(fingerprint, _some_results())
            os.utime(store._manifest_path(fingerprint), (k + 1, k + 1))
        store.save("4" * 64, _some_results())
        kept = store.entries()
        assert len(kept) <= 2
        assert "1" * 64 not in kept
        assert "4" * 64 in kept

    def test_byte_bound_is_respected(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.max_bytes = 1
        for k, fingerprint in enumerate(["5" * 64, "6" * 64]):
            store.save(fingerprint, _some_results())
            os.utime(store._manifest_path(fingerprint), (k + 1, k + 1))
        # A single entry may exceed a tiny bound (evicting everything would
        # thrash), but the bound caps the directory at that one entry.
        assert len(store.entries()) == 1
        assert store.entries() == ["6" * 64]

    def test_load_bumps_recency(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.max_entries = 2
        for k, fingerprint in enumerate(["7" * 64, "8" * 64]):
            store.save(fingerprint, _some_results())
            os.utime(store._manifest_path(fingerprint), (k + 1, k + 1))
        store.load("7" * 64)  # touch the older entry
        store.save("9" * 64, _some_results())
        kept = store.entries()
        assert "7" * 64 in kept and "8" * 64 not in kept

    def test_foreign_json_files_are_not_entries(self, tmp_path):
        """A sweep's journal shares the store directory — the store must not
        list, count, evict or clear it as if it were a population entry."""
        journal = tmp_path / "SWEEP_JOURNAL.json"
        journal.write_text('{"version": 1, "cells": {}}')
        store = CounterfactualStore(tmp_path)
        store.max_entries = 1

        assert store.entries() == []
        assert store.stats()["store_entries"] == 0
        assert [d["fingerprint"] for d in store.entry_details()] == []

        # Eviction pressure: the oldest *.json in the directory is the
        # journal, but only real entries may be LRU-evicted.
        os.utime(journal, (1, 1))
        store.save("a" * 64, _some_results())
        os.utime(store._manifest_path("a" * 64), (2, 2))
        store.save("b" * 64, _some_results())
        assert journal.exists()
        assert store.entries() == ["b" * 64]

        store.clear()
        assert store.entries() == []
        assert journal.exists()  # clearing the store spares foreign files


_WRITER_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from fairexp.explanations import CounterfactualBatch, CounterfactualStore

    directory, value, repeats = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    store = CounterfactualStore(directory)
    results = CounterfactualBatch(
        indices=np.arange(6), has_result=np.ones(6, dtype=bool),
        originals=np.zeros((6, 3)), counterfactuals=np.full((6, 3), value),
        original_predictions=np.zeros(6), counterfactual_predictions=np.ones(6),
        distances=np.full(6, value), constraint_feasible=np.ones(6, dtype=bool),
        changed_masks=np.ones((6, 3), dtype=bool),
    )
    for _ in range(repeats):
        store.save("d" * 64, results)
""")


class TestConcurrentWriters:
    def test_same_fingerprint_writers_never_interleave(self, tmp_path):
        """Two processes hammering one fingerprint leave a coherent entry.

        Every published state must be wholly one writer's payload: after the
        dust settles the entry loads cleanly and every row carries the same
        writer's constant — a torn mix of the two would either fail the
        checksum (treated as a miss) or mix constants (asserted against).
        """
        env = {**os.environ,
               "PYTHONPATH": SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")}
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), value, "25"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for value in ("1.0", "2.0")
        ]
        for writer in writers:
            _, stderr = writer.communicate(timeout=120)
            assert writer.returncode == 0, stderr.decode()
        store = CounterfactualStore(tmp_path)
        loaded = store.load("d" * 64)
        assert loaded is not None and set(loaded.indices.tolist()) == set(range(6))
        constants = {float(result.distance) for result in loaded}
        assert len(constants) == 1 and constants <= {1.0, 2.0}
        for result in loaded:
            assert np.all(result.counterfactual == result.distance)


class TestSessionIntegration:
    def test_warm_session_serves_rows_with_zero_engine_calls(
        self, tmp_path, loan_workload
    ):
        _, train, subset, model, constraints = loan_workload
        cold = AuditSession(_generator(model, train, constraints), store=str(tmp_path))
        cold_burden = BurdenExplainer(session=cold).explain(
            subset.X, subset.sensitive_values
        )
        cold_nawb = NAWBExplainer(session=cold).explain(
            subset.X, subset.y, subset.sensitive_values
        )
        assert cold.engine_predict_call_count > 0
        assert cold.stats()["store_entries"] == 1

        warm = AuditSession(_generator(model, train, constraints), store=str(tmp_path))
        warm_burden = BurdenExplainer(session=warm).explain(
            subset.X, subset.sensitive_values
        )
        warm_nawb = NAWBExplainer(session=warm).explain(
            subset.X, subset.y, subset.sensitive_values
        )
        assert warm.engine_predict_call_count == 0
        assert warm.store_row_hits > 0
        assert warm_burden.gap == cold_burden.gap
        assert warm_nawb.gap == cold_nawb.gap

    def test_second_session_grows_entry_to_union(self, tmp_path, loan_workload):
        """A later session over the same store seeds its cache from the
        entry, so publishing its new rows keeps the earlier ones."""
        _, train, subset, model, constraints = loan_workload
        first = AuditSession(_generator(model, train, constraints), store=tmp_path)
        first.counterfactuals_for(subset.X, np.arange(0, 4))
        second = AuditSession(_generator(model, train, constraints), store=tmp_path)
        second.counterfactuals_for(subset.X, np.arange(4, 8))
        [fingerprint] = second.store.entries()
        loaded = CounterfactualStore(tmp_path).load(fingerprint)
        assert set(loaded.indices.tolist()) == set(range(8))

    def _published(self, tmp_path, loan_workload):
        """A cold session's batch for rows 0-7 and the entry it published."""
        _, train, subset, model, constraints = loan_workload
        cold = AuditSession(_generator(model, train, constraints), store=tmp_path)
        batch = cold.counterfactuals_for(subset.X, np.arange(8))
        [fingerprint] = cold.store.entries()
        return subset, batch, fingerprint

    def _warm_batch(self, tmp_path, loan_workload, subset, rows):
        _, train, _, model, constraints = loan_workload
        warm = AuditSession(_generator(model, train, constraints), store=tmp_path)
        batch = warm.counterfactuals_for(subset.X, rows)
        assert warm.engine_predict_call_count == 0
        return batch

    def test_sorted_entry_is_served_without_a_merge(self, tmp_path, loan_workload,
                                                    monkeypatch):
        subset, cold, _ = self._published(tmp_path, loan_workload)
        merges = []
        merge = CounterfactualBatch.merge.__func__
        monkeypatch.setattr(CounterfactualBatch, "merge", classmethod(
            lambda cls, *batches: merges.append(len(batches)) or merge(cls, *batches)))
        warm = self._warm_batch(tmp_path, loan_workload, subset, np.arange(8))
        assert merges == []
        for name, column in cold.columns.items():
            assert np.array_equal(warm.columns[name], column, equal_nan=True), name

    def test_unsorted_entry_is_sorted_on_load(self, tmp_path, loan_workload):
        subset, cold, fingerprint = self._published(tmp_path, loan_workload)
        CounterfactualStore(tmp_path).save(fingerprint, cold.take(np.arange(8)[::-1]))
        rows = np.array([5, 0, 7, 2])
        warm = self._warm_batch(tmp_path, loan_workload, subset, rows)
        expected = cold.take(rows)
        for name, column in expected.columns.items():
            assert np.array_equal(warm.columns[name], column, equal_nan=True), name

    def test_unfingerprintable_generator_skips_store(self, tmp_path, loan_workload):
        _, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints,
                               random_state=np.random.default_rng(0))
        session = AuditSession(generator, store=str(tmp_path))
        BurdenExplainer(session=session).explain(subset.X, subset.sensitive_values)
        assert session.stats()["store_entries"] == 0

    def test_store_disabled_by_default(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        session = AuditSession(_generator(model, train, constraints))
        assert session.store is None

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)
        assert CounterfactualStore.from_env() is None
        monkeypatch.setenv("FAIREXP_STORE_DIR", str(tmp_path))
        store = CounterfactualStore.from_env()
        assert store is not None and store.directory == tmp_path

    def test_ensure_treats_empty_path_as_disabled(self, tmp_path):
        """ensure('') must mean "no store", like from_env with an unset
        variable — not a store silently rooted in the current directory."""
        assert CounterfactualStore.ensure(None) is None
        assert CounterfactualStore.ensure("") is None
        assert CounterfactualStore.ensure("  ") is None
        store = CounterfactualStore(tmp_path)
        assert CounterfactualStore.ensure(store) is store
        assert CounterfactualStore.ensure(str(tmp_path)).directory == tmp_path


def _fields(counterfactual):
    """Every field of a counterfactual, arrays as bytes, for exact comparison."""
    return (counterfactual.original.tobytes(), counterfactual.counterfactual.tobytes(),
            counterfactual.original_prediction, counterfactual.counterfactual_prediction,
            counterfactual.changed_features, counterfactual.distance,
            counterfactual.feasible, counterfactual.meta)


class TestBatchRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(1, 12), n_features=st.integers(1, 6),
           solved=st.sampled_from(["all", "none", "one", "random"]),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_and_rows(self, n_rows, n_features, solved, seed):
        """A batch with unsorted indices survives save/load column for
        column in a compressed, versioned payload, and ``batch[k]`` is the
        ``Counterfactual.from_columns`` row of the same data."""
        rng = np.random.default_rng(seed)
        batch = CounterfactualBatch.unsolved(
            rng.choice(10 * n_rows, n_rows, replace=False), n_features)
        rows = {"all": np.arange(n_rows), "none": np.arange(0), "one": [n_rows - 1],
                "random": np.flatnonzero(rng.random(n_rows) < 0.5)}[solved]
        shape = (len(rows), n_features)
        batch.has_result[rows] = True
        batch.originals[rows] = rng.normal(size=shape)
        batch.changed_masks[rows] = rng.random(shape) < 0.5
        batch.counterfactuals[rows] = (batch.originals[rows]
                                       + batch.changed_masks[rows] * rng.normal(size=shape))
        batch.original_predictions[rows] = rng.integers(0, 2, len(rows))
        batch.counterfactual_predictions[rows] = rng.integers(0, 2, len(rows))
        batch.distances[rows] = rng.random(len(rows))
        batch.constraint_feasible[rows] = rng.random(len(rows)) < 0.5

        with tempfile.TemporaryDirectory() as directory:
            store = CounterfactualStore(directory)
            store.save("a" * 64, batch)
            manifest = json.loads(store._manifest_path("a" * 64).read_text())
            blob = (store.directory / manifest["payload"]).read_bytes()
            loaded = store.load("a" * 64)
        assert manifest["format_version"] == STORE_FORMAT_VERSION == 5
        assert manifest["entry_sha256"] == _checksum("a" * 64, blob)
        assert list(batch.columns) == list(_PAYLOAD_COLUMNS)
        raw = _raw_stream(batch.columns)
        assert zlib.decompress(blob) == raw
        assert blob == zlib.compress(raw, 1)
        for name, column in batch.columns.items():
            assert loaded.columns[name].dtype == column.dtype
            assert loaded.columns[name].flags.writeable
            assert np.array_equal(loaded.columns[name], column, equal_nan=True)

        for k, (row, loaded_row) in enumerate(zip(batch, loaded)):
            if not batch.has_result[k]:
                assert row is None and loaded_row is None and batch[k] is None
                continue
            [expected] = Counterfactual.from_columns(
                batch.originals[k:k + 1], batch.counterfactuals[k:k + 1],
                batch.original_predictions[k:k + 1],
                batch.counterfactual_predictions[k:k + 1], batch.changed_masks[k:k + 1],
                batch.distances[k:k + 1], batch.constraint_feasible[k:k + 1])
            assert _fields(batch[k]) == _fields(row) == _fields(loaded_row) \
                == _fields(expected)


@st.composite
def _batches(draw, max_rows=4):
    """Batches of 1-8 features mixing solved rows (-0.0, NaN and infinities
    among their floats) with unsolved, NaN-filled ones."""
    n_rows, n_features = draw(st.integers(1, max_rows)), draw(st.integers(1, 8))
    floats = st.one_of(st.just(-0.0), st.floats(width=64))
    batch = CounterfactualBatch.unsolved(
        draw(st.lists(st.integers(0, 2**40), min_size=n_rows, max_size=n_rows,
                      unique=True)), n_features)
    solved = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    shape = (int(solved.sum()), n_features)
    batch.has_result[solved] = True
    batch.originals[solved] = draw(arrays(float, shape, elements=floats))
    batch.counterfactuals[solved] = draw(arrays(float, shape, elements=floats))
    batch.changed_masks[solved] = draw(arrays(bool, shape))
    batch.distances[solved] = draw(arrays(float, shape[0], elements=floats))
    batch.original_predictions[solved] = draw(arrays(np.int64, shape[0]))
    batch.counterfactual_predictions[solved] = draw(arrays(np.int64, shape[0]))
    batch.constraint_feasible[solved] = draw(arrays(bool, shape[0]))
    return batch


class TestPayloadStream:
    @settings(max_examples=40, deadline=None)
    @given(batch=_batches(max_rows=12))
    def test_round_trips_bitwise(self, batch):
        with tempfile.TemporaryDirectory() as directory:
            store = CounterfactualStore(directory)
            store.save("e" * 64, batch)
            loaded = store.load("e" * 64)
        for name, column in batch.columns.items():
            got = loaded.columns[name]
            assert got.dtype == column.dtype and got.shape == column.shape
            if column.dtype.kind == "f":
                assert [v.hex() for v in got.ravel().tolist()] \
                    == [v.hex() for v in column.ravel().tolist()]
            else:
                assert np.array_equal(got, column)


class TestCompressionAndFormatCompat:
    def test_format_bump_busts_fingerprints(self, loan_workload, monkeypatch):
        """The format version is folded into every fingerprint, so entries of
        another format are never addressed."""
        from fairexp.explanations import store as store_module

        dataset, train, subset, model, constraints = loan_workload
        generator = _generator(model, train, constraints)
        before = population_fingerprint(generator, subset.X)
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION",
                            store_module.STORE_FORMAT_VERSION + 1)
        assert population_fingerprint(generator, subset.X) != before


class TestStoreMetrics:
    def test_bytes_read_accumulates_on_validated_loads(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("a" * 64, _some_results())
        assert store.bytes_read == 0
        store.load("a" * 64)
        payload_bytes = sum(p.stat().st_size for p in store.directory.glob("*.npz"))
        assert store.bytes_read == payload_bytes
        store.load("a" * 64)
        assert store.bytes_read == 2 * payload_bytes
        store.load("missing" * 9 + "f")  # misses read nothing
        assert store.bytes_read == 2 * payload_bytes
        assert store.stats()["store_bytes_read"] == store.bytes_read
        store.reset_counts()
        assert store.bytes_read == 0

    def test_load_inflates_the_payload_once(self, tmp_path, monkeypatch):
        """The whole payload is inflated in one call and every column sliced
        from it: re-inflating per column or per row made warm reads slower
        than recomputing."""
        store = CounterfactualStore(tmp_path)
        results = _uniform_results(64, 4, 1.0)
        results.counterfactuals[:] = np.arange(64.0)[:, None]
        results.distances[:] = np.arange(64.0)
        store.save("a" * 64, results)
        manifest = json.loads(store._manifest_path("a" * 64).read_text())
        blob = (tmp_path / manifest["payload"]).read_bytes()

        real_decompressobj = zlib.decompressobj
        calls = []

        class CountingInflater:
            def __init__(self, *args):
                self._inner = real_decompressobj(*args)

            def decompress(self, data, *args):
                calls.append(len(data))
                return self._inner.decompress(data, *args)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        monkeypatch.setattr(zlib, "decompressobj", CountingInflater)
        monkeypatch.setattr(zlib, "decompress", None)  # no second path either
        loaded = store.load("a" * 64)
        assert loaded is not None and len(loaded) == 64
        assert np.array_equal(loaded.counterfactuals, results.counterfactuals)
        assert calls == [len(blob)]

    def test_stats_report_entry_ages(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        assert store.stats()["store_entry_age_seconds_max"] == 0
        store.save("a" * 64, _some_results())
        old = store._manifest_path("a" * 64)
        os.utime(old, (old.stat().st_atime, old.stat().st_mtime - 3600))
        stats = store.stats()
        assert 3595 <= stats["store_entry_age_seconds_max"] <= 3605
        assert stats["store_entry_age_seconds_mean"] >= 3595

    def test_entry_details_oldest_first(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("a" * 64, _some_results())
        store.save("b" * 64, _some_results())
        older = store._manifest_path("b" * 64)
        os.utime(older, (older.stat().st_atime, older.stat().st_mtime - 600))
        details = store.entry_details()
        assert [d["fingerprint"][0] for d in details] == ["b", "a"]
        for detail in details:
            assert detail["n_rows"] == 2
            assert detail["bytes"] > 0
            assert detail["format_version"] == 5
            assert (tmp_path / detail["payload"]).exists()

    def test_session_stats_fold_in_bytes_read(self, tmp_path, loan_workload):
        dataset, train, subset, model, constraints = loan_workload
        cold = AuditSession(_generator(model, train, constraints), store=tmp_path)
        cold.precompute(subset.X)
        warm = AuditSession(_generator(model, train, constraints), store=tmp_path)
        warm.precompute(subset.X)
        stats = warm.stats()
        assert stats["store_row_hits"] > 0
        assert stats["store_bytes_read"] > 0


class TestExplicitEviction:
    def test_evict_by_fingerprint_prefix(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("a" * 64, _some_results())
        store.save("b" * 64, _some_results())
        assert store.evict(fingerprint="a") == 1
        assert store.entries() == ["b" * 64]
        assert store.evict(fingerprint="nope") == 0

    def test_ambiguous_prefix_raises_instead_of_mass_deleting(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        store.save("ab" + "0" * 62, _some_results())
        store.save("ac" + "0" * 62, _some_results())
        with pytest.raises(ValueError, match="ambiguous"):
            store.evict(fingerprint="a")
        assert len(store.entries()) == 2  # nothing was deleted
        assert store.evict(fingerprint="ab") == 1

    def test_fingerprint_and_bounds_compose(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        for letter in "abc":
            store.save(letter * 64, _some_results())
        removed = store.evict(fingerprint="a", max_entries=1)
        assert removed == 2  # the named entry plus one more for the bound
        assert len(store.entries()) == 1

    def test_evict_to_entry_and_byte_bounds(self, tmp_path):
        store = CounterfactualStore(tmp_path)
        for k, letter in enumerate("abcd"):
            store.save(letter * 64, _some_results())
            older = store._manifest_path(letter * 64)
            os.utime(older, (older.stat().st_atime,
                             older.stat().st_mtime - (4 - k) * 100))
        assert store.evict(max_entries=2) == 2
        assert store.entries() == ["c" * 64, "d" * 64]  # oldest two evicted
        assert store.evict(max_bytes=0) == 2
        assert store.entries() == []


class TestRemoteBackendFingerprint:
    """A remote backend keys the store by its graph's content hash, never by
    the (ephemeral) server endpoint."""

    @pytest.fixture(scope="class")
    def remote_workload(self, loan_workload):
        _, train, subset, model, constraints = loan_workload
        rejected = subset.X[model.predict(subset.X) == 0][:12]
        return model, train.X, constraints, rejected

    def test_graph_routed_remote_backend_is_store_addressable(self, remote_workload):
        model, background, constraints, rejected = remote_workload
        graph = export_model(model)

        def fingerprint_at(url):
            backend = RemoteScoringBackend(CoalescingScoringClient(url), graph=graph)
            adapted = BatchModelAdapter(model, backend=backend, cache=False)
            generator = GrowingSpheresCounterfactual(
                adapted, background, constraints=constraints, random_state=0)
            return population_fingerprint(generator, rejected)

        # same graph behind two (never-contacted) endpoints: same identity
        first = fingerprint_at("http://127.0.0.1:9001")
        second = fingerprint_at("http://127.0.0.1:9002")
        assert first is not None
        assert first == second
        # ...and distinct from the in-process dispatch over the same model
        in_process = population_fingerprint(
            GrowingSpheresCounterfactual(model, background,
                                         constraints=constraints, random_state=0),
            rejected)
        assert first != in_process

    def test_different_graphs_key_apart(self, remote_workload):
        model, background, constraints, rejected = remote_workload
        other = LogisticRegression(n_iter=400, random_state=3).fit(
            background, (background[:, 0] > np.median(background[:, 0])).astype(int))

        def fingerprint_for(graph_model):
            backend = RemoteScoringBackend(
                CoalescingScoringClient("http://127.0.0.1:9004"),
                graph=export_model(graph_model))
            adapted = BatchModelAdapter(model, backend=backend, cache=False)
            generator = GrowingSpheresCounterfactual(
                adapted, background, constraints=constraints, random_state=0)
            return population_fingerprint(generator, rejected)

        assert fingerprint_for(model) != fingerprint_for(other)
