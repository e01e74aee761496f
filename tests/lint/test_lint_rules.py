"""Per-rule fixture tests: positive, negative, noqa and baseline paths.

The positive fixtures are distilled copies of the *pre-fix* code this PR
cleaned up (the ad-hoc executors in ``engine.py``/``kernels.py``, the
inline retry sleep in ``serving.py``, the swallowing ``__del__`` in
``pool.py``, the unfingerprinted engine/session kwargs) — deleting any
one of the committed fixes would reintroduce exactly these shapes, and
this module proves the linter would catch each one.
"""

import textwrap

from fairexp.lint import Baseline, LintEngine, lint_source


def codes(source, path="src/fairexp/explanations/mod.py"):
    """The sorted rule codes found in ``source`` linted as ``path``."""
    return sorted({f.rule for f in lint_source(textwrap.dedent(source), path=path)})


# --------------------------------------------------------------- FX001
# Pre-fix copy: CounterfactualEngine's thread-shard fallback constructed
# its executor inline instead of going through ExecutorPool.
PRE_FIX_ENGINE_THREAD_FALLBACK = """
    from concurrent.futures import ThreadPoolExecutor

    def generate_sharded(run_shard, shards):
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            return list(pool.map(run_shard, shards))
"""

PRE_FIX_ENGINE_PROCESS_FALLBACK = """
    from concurrent.futures import ProcessPoolExecutor

    def run_shards(specs, shard_X):
        with ProcessPoolExecutor(max_workers=len(specs)) as pool:
            return list(pool.map(run, specs, shard_X))
"""


class TestFX001Executors:
    def test_pre_fix_engine_thread_fallback_flagged(self):
        assert codes(PRE_FIX_ENGINE_THREAD_FALLBACK,
                     path="src/fairexp/explanations/engine.py") == ["FX001"]

    def test_pre_fix_engine_process_fallback_flagged(self):
        assert codes(PRE_FIX_ENGINE_PROCESS_FALLBACK,
                     path="src/fairexp/explanations/engine.py") == ["FX001"]

    def test_multiprocessing_pool_flagged(self):
        assert codes("""
            import multiprocessing

            def fan_out(fn, items):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(fn, items)
        """) == ["FX001"]

    def test_multiprocessing_pool_import_flagged(self):
        assert codes("from multiprocessing import Pool\n") == ["FX001"]

    def test_pool_module_itself_exempt(self):
        assert codes("""
            from concurrent.futures import ThreadPoolExecutor

            def make(workers):
                return ThreadPoolExecutor(max_workers=workers)
        """, path="src/fairexp/explanations/pool.py") == []

    def test_executor_pool_usage_clean(self):
        assert codes("""
            from fairexp.explanations.pool import ExecutorPool

            def generate_sharded(run_shard, shards):
                with ExecutorPool(max_workers=len(shards)) as pool:
                    return pool.map("thread", run_shard, shards)
        """) == []

    def test_tests_exempt(self):
        assert codes(PRE_FIX_ENGINE_THREAD_FALLBACK,
                     path="tests/explanations/test_engine.py") == []


# --------------------------------------------------------------- FX002
class TestFX002Randomness:
    def test_legacy_call_flagged(self):
        assert codes("""
            import numpy as np

            def sample(n):
                return np.random.rand(n)
        """) == ["FX002"]

    def test_legacy_seed_flagged(self):
        assert codes("""
            import numpy as np

            def seed_everything():
                np.random.seed(0)
        """) == ["FX002"]

    def test_module_level_generator_flagged(self):
        assert codes("""
            import numpy as np

            _RNG = np.random.default_rng(0)
        """) == ["FX002"]

    def test_legacy_import_flagged(self):
        assert codes("from numpy.random import rand\n") == ["FX002"]

    def test_injected_generator_clean(self):
        assert codes("""
            import numpy as np

            def sample(n, random_state):
                rng = np.random.default_rng(random_state)
                return rng.random(n)
        """) == []


# --------------------------------------------------------------- FX003
class TestFX003MutableDefaults:
    def test_list_default_flagged(self):
        assert codes("def collect(items=[]):\n    return items\n") == ["FX003"]

    def test_dict_kwonly_default_flagged(self):
        assert codes("def render(*, style={}):\n    return style\n") == ["FX003"]

    def test_factory_call_default_flagged(self):
        assert codes("def collect(items=list()):\n    return items\n") == ["FX003"]

    def test_none_default_clean(self):
        assert codes("""
            def collect(items=None):
                return [] if items is None else items
        """) == []

    def test_immutable_defaults_clean(self):
        assert codes("def f(a=1, b=(), c='x', d=frozenset()):\n    return a\n") == []


# --------------------------------------------------------------- FX004
# Pre-fix copy: ExecutorPool.__del__ swallowed shutdown errors with no
# justifying noqa.
PRE_FIX_POOL_DEL = """
    class ExecutorPool:
        def __del__(self):
            try:
                self.shutdown(wait=False)
            except Exception:
                pass
"""


class TestFX004SwallowedExcept:
    def test_pre_fix_pool_del_flagged(self):
        assert codes(PRE_FIX_POOL_DEL,
                     path="src/fairexp/explanations/pool.py") == ["FX004"]

    def test_bare_except_flagged(self):
        assert codes("""
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
        """) == ["FX004"]

    def test_bare_except_with_reraise_clean(self):
        assert codes("""
            def load(path):
                try:
                    return open(path).read()
                except:
                    cleanup()
                    raise
        """) == []

    def test_quiet_fallback_clean(self):
        # An optional-dependency probe: a broad except that RETURNS a
        # fallback is a deliberate degradation path, not a swallow.
        assert codes("""
            def numba_version():
                try:
                    import numba
                except Exception:
                    return None
                return numba.__version__
        """) == []

    def test_narrow_except_pass_clean(self):
        assert codes("""
            def close_quietly(sock):
                try:
                    sock.close()
                except OSError:
                    pass
        """) == []


# --------------------------------------------------------------- FX005
class TestFX005CounterLocks:
    UNLOCKED = """
        import threading

        class Backend:
            def __init__(self):
                self.call_count = 0
                self._lock = threading.Lock()

            def predict(self, X):
                self.call_count += 1
                return X
    """

    def test_unlocked_mutation_flagged(self):
        assert codes(self.UNLOCKED) == ["FX005"]

    def test_locked_mutation_clean(self):
        assert codes("""
            import threading

            class Backend:
                def __init__(self):
                    self.call_count = 0
                    self._lock = threading.Lock()

                def predict(self, X):
                    with self._lock:
                        self.call_count += 1
                    return X
        """) == []

    def test_locked_suffix_method_whitelisted(self):
        assert codes("""
            import threading

            class Server:
                def __init__(self):
                    self.shed_count = 0
                    self._lock = threading.Lock()

                def _shed_locked(self, n):
                    self.shed_count += n
        """) == []

    def test_lock_holding_methods_declaration_whitelisted(self):
        assert codes("""
            import threading

            class Server:
                LOCK_HOLDING_METHODS = ("drain",)

                def __init__(self):
                    self.shed_count = 0
                    self._lock = threading.Lock()

                def drain(self, n):
                    self.shed_count += n
        """) == []

    def test_lock_free_class_out_of_scope(self):
        # AuditSession shape: documented single-threaded, owns no lock —
        # the static rule leaves it to the dynamic sanitizer.
        assert codes("""
            class Session:
                def __init__(self):
                    self.result_reuse_count = 0

                def reuse(self):
                    self.result_reuse_count += 1
        """) == []

    def test_condition_counts_as_lock(self):
        assert codes("""
            import threading

            class Client:
                def __init__(self):
                    self.wire_call_count = 0
                    self._cond = threading.Condition()

                def book(self):
                    with self._cond:
                        self.wire_call_count += 1
        """) == []


# --------------------------------------------------------------- FX006
# The acceptance-criterion fixture: a generator kwarg that alters the
# search but is never stored, so generator_config cannot fingerprint it.
UNFINGERPRINTED_GENERATOR_KWARG = """
    class DriftingCounterfactualGenerator(BaseCounterfactualGenerator):
        def __init__(self, model, background, *, drift=0.5, random_state=None):
            super().__init__(model, background, random_state=random_state)
            self._step = drift * 2  # drift is consumed, never stored
"""

# Pre-fix copies: the engine/session constructors before this PR's
# FINGERPRINT_INVARIANT declarations.
PRE_FIX_ENGINE_INIT = """
    class CounterfactualEngine:
        def __init__(self, generator, *, adapt_model=True, n_jobs=1,
                     executor="auto", pool=None, kernels=None):
            if kernels is not None:
                generator.kernels = kernels
            self.generator = generator
            self.n_jobs = n_jobs
            self.executor = executor
            self.pool = pool
"""


class TestFX006FingerprintCoverage:
    def test_unfingerprinted_generator_kwarg_flagged(self):
        findings = lint_source(textwrap.dedent(UNFINGERPRINTED_GENERATOR_KWARG),
                               path="src/fairexp/explanations/custom.py")
        assert [f.rule for f in findings] == ["FX006"]
        assert "'drift'" in findings[0].message

    def test_pre_fix_engine_init_flagged(self):
        findings = lint_source(textwrap.dedent(PRE_FIX_ENGINE_INIT),
                               path="src/fairexp/explanations/engine.py")
        flagged = sorted(f.message.split("'")[1] for f in findings)
        assert flagged == ["adapt_model", "kernels"]

    def test_fingerprint_invariant_declaration_clean(self):
        assert codes("""
            class DriftingCounterfactualGenerator(BaseCounterfactualGenerator):
                FINGERPRINT_INVARIANT = ("verbose",)

                def __init__(self, model, background, *, verbose=False,
                             random_state=None):
                    super().__init__(model, background, random_state=random_state)
        """) == []

    def test_stored_params_clean(self):
        assert codes("""
            class StoredCounterfactualGenerator(BaseCounterfactualGenerator):
                def __init__(self, model, background, *, step=0.5,
                             random_state=None):
                    super().__init__(model, background, random_state=random_state)
                    self.step = step
        """) == []

    def test_param_stored_by_helper_method_counts(self):
        assert codes("""
            class LazyCounterfactualGenerator(BaseCounterfactualGenerator):
                def __init__(self, model, background, *, step=0.5):
                    self._finish(step)

                def _finish(self, step):
                    self.step = step
        """) == []

    def test_unrelated_class_out_of_scope(self):
        assert codes("""
            class Widget:
                def __init__(self, *, flourish=True):
                    pass
        """) == []


# --------------------------------------------------------------- FX007
# Pre-fix copy: CoalescingScoringClient._flush slept inline in its retry
# loop instead of through a named backoff helper.
PRE_FIX_FLUSH_SLEEP = """
    import time

    class Client:
        def _flush(self, batch):
            attempt = 0
            while True:
                try:
                    return self._wire_call(batch)
                except ShedError as shed:
                    delay = min(shed.retry_after * (2.0 ** attempt), 1.0)
                    time.sleep(delay)
                    attempt += 1
"""


class TestFX007Sleep:
    def test_pre_fix_flush_sleep_flagged(self):
        assert codes(PRE_FIX_FLUSH_SLEEP,
                     path="src/fairexp/explanations/serving.py") == ["FX007"]

    def test_backoff_helper_clean(self):
        assert codes("""
            import time

            def _retry_backoff_sleep(delay):
                time.sleep(delay)
        """) == []

    def test_poll_helper_clean(self):
        assert codes("""
            import time

            def poll_until_ready(check):
                while not check():
                    time.sleep(0.01)
        """) == []

    def test_nested_inside_pacing_helper_clean(self):
        assert codes("""
            import time

            def wait_for(check):
                def tick():
                    time.sleep(0.01)
                while not check():
                    tick()
        """) == []


# --------------------------------------------------------------- FX008
class TestFX008ProcessEnv:
    def test_subprocess_import_flagged(self):
        assert codes("import subprocess\n") == ["FX008"]

    def test_environ_write_flagged(self):
        assert codes("""
            import os

            def configure(tier):
                os.environ["FAIREXP_KERNELS"] = tier
        """) == ["FX008"]

    def test_environ_mutator_call_flagged(self):
        assert codes("""
            import os

            def configure(tier):
                os.environ.setdefault("FAIREXP_KERNELS", tier)
        """) == ["FX008"]

    def test_environ_read_clean(self):
        assert codes("""
            import os

            def kernel_request():
                return os.environ.get("FAIREXP_KERNELS", "auto")
        """) == []

    def test_cli_module_exempt(self):
        assert codes("import subprocess\n", path="src/fairexp/cli.py") == []

    def test_benchmarks_exempt(self):
        assert codes("import subprocess\n",
                     path="benchmarks/serving_workload.py") == []


# --------------------------------------------------------------- FX009
# Pre-fix copy: BurdenExplainer read a group without rejected rows as a
# burden of 0.0.
PRE_FIX_BURDEN = """
    def group_burden(distances):
        return float(distances.mean()) if distances.size else 0.0
"""


class TestFX009ZeroFallback:
    def test_pre_fix_burden_flagged(self):
        assert codes(PRE_FIX_BURDEN, path="src/fairexp/core/burden.py") == ["FX009"]

    def test_np_mean_and_int_zero_flagged(self):
        assert codes("""
            import numpy as np

            def precision(hits):
                return np.mean(hits) if len(hits) else 0
        """, path="src/fairexp/fairness/group_metrics.py") == ["FX009"]

    def test_group_mean_clean(self):
        assert codes("""
            from fairexp.fairness.groups import group_mean

            def group_burden(distances):
                return group_mean(distances)
        """, path="src/fairexp/core/burden.py") == []

    def test_other_fallbacks_clean(self):
        # Only a 0 fallback for a mean: NaN, a non-mean body or False pass.
        assert codes("""
            import numpy as np

            def pick(values, n):
                a = float(values.mean()) if values.size else np.nan
                b = values.sum() / n if n else 0.0
                c = values.mean() if values.size else False
                return a, b, c
        """, path="src/fairexp/core/burden.py") == []

    def test_outside_core_and_fairness_exempt(self):
        assert codes(PRE_FIX_BURDEN, path="src/fairexp/models/metrics.py") == []
        assert codes(PRE_FIX_BURDEN, path="tests/core/test_burden.py") == []

    def test_noqa_suppresses(self):
        source = ("def magnitude(values, count):\n"
                  "    return float(values.mean()) if count else 0.0"
                  "  # fairexp: noqa[FX009] - an unchanged feature moved by 0.0\n")
        assert lint_source(source, path="src/fairexp/core/precof.py") == []


# ------------------------------------------------------- noqa + baseline
class TestSuppression:
    def test_noqa_with_rule_suppresses(self):
        engine = LintEngine()
        findings, suppressed = engine.lint_source(
            "import time\n\n\ndef tick():\n"
            "    time.sleep(0.1)  # fairexp: noqa[FX007] cadence is the contract\n",
            path="src/fairexp/mod.py")
        assert findings == [] and suppressed == 1

    def test_bare_noqa_suppresses_all_rules(self):
        findings = lint_source(
            "def collect(items=[]):  # fairexp: noqa\n    return items\n",
            path="src/fairexp/mod.py")
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint_source(
            "def collect(items=[]):  # fairexp: noqa[FX007]\n    return items\n",
            path="src/fairexp/mod.py")
        assert [f.rule for f in findings] == ["FX003"]

    def test_baseline_grandfathers_exact_counts(self):
        source = textwrap.dedent("""
            def a(xs=[]):
                return xs
        """)
        findings = lint_source(source, path="src/fairexp/mod.py")
        baseline = Baseline.from_findings(findings)
        assert baseline.fresh(findings) == []
        # A SECOND occurrence of the same message is beyond the baseline.
        doubled = lint_source(source + textwrap.dedent("""
            def b(ys=[]):
                return ys
        """), path="src/fairexp/mod.py")
        fresh = baseline.fresh(doubled)
        assert [f.rule for f in fresh] == ["FX003"]
        assert fresh[0].message != findings[0].message

    def test_baseline_roundtrip(self, tmp_path):
        findings = lint_source("def a(xs=[]):\n    return xs\n",
                               path="src/fairexp/mod.py")
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert loaded.fresh(findings) == []
        assert len(loaded) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_syntax_error_reported_as_fx000(self):
        findings = lint_source("def broken(:\n", path="src/fairexp/mod.py")
        assert [f.rule for f in findings] == ["FX000"]
