"""Counterfactual explanation generation.

A counterfactual explanation for an instance ``x`` with prediction
``f(x) = 0`` is a nearby point ``x'`` with ``f(x') = 1`` (Wachter et al.),
formally ``x' = argmin distance(x, x') s.t. f(x') != f(x)``.

Three search strategies are provided (and ablated against each other in the
benchmarks):

* :class:`RandomSearchCounterfactual` — rejection sampling around ``x`` with a
  growing radius, followed by greedy sparsification;
* :class:`GrowingSpheresCounterfactual` — the growing-spheres algorithm
  (uniform sampling in expanding L2 shells, then feature-wise projection);
* :class:`GradientCounterfactual` — gradient ascent on the favourable-class
  probability for models exposing ``gradient_input``.

All generators honour per-feature actionability constraints
(:class:`ActionabilityConstraints`), which encode the immutability, bounds,
and monotonicity information carried by :class:`fairexp.datasets.FeatureSpec`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.schema import FeatureSpec
from ..exceptions import InfeasibleRecourseError, ValidationError
from .base import Counterfactual, CounterfactualBatch, ExplainerInfo, ExplainerRegistry
from .engine import greedy_sparsify_batch, lockstep_candidate_search
from .kernels import resolve_kernels
from .schedules import resolve_schedule

__all__ = [
    "ActionabilityConstraints",
    "counterfactual_distance",
    "BaseCounterfactualGenerator",
    "RandomSearchCounterfactual",
    "GrowingSpheresCounterfactual",
    "GradientCounterfactual",
]


@dataclass
class ActionabilityConstraints:
    """Per-feature constraints that a counterfactual must respect.

    Attributes
    ----------
    immutable:
        Boolean mask of features that must keep their original value.
    lower, upper:
        Plausibility bounds per feature (NaN = unbounded).
    monotone:
        +1 (may only increase), -1 (may only decrease), 0 (free) per feature.
    """

    immutable: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    monotone: np.ndarray

    @classmethod
    def unconstrained(cls, n_features: int) -> "ActionabilityConstraints":
        """Constraints allowing every feature to move freely."""
        return cls(
            immutable=np.zeros(n_features, dtype=bool),
            lower=np.full(n_features, -np.inf),
            upper=np.full(n_features, np.inf),
            monotone=np.zeros(n_features, dtype=int),
        )

    @classmethod
    def from_feature_specs(cls, specs: Sequence[FeatureSpec]) -> "ActionabilityConstraints":
        """Build constraints from dataset feature metadata.

        Immutable *or* non-actionable features are frozen; numeric bounds and
        monotonicity directions are carried over.
        """
        n = len(specs)
        constraints = cls.unconstrained(n)
        for j, spec in enumerate(specs):
            constraints.immutable[j] = spec.immutable or not spec.actionable
            constraints.lower[j] = -np.inf if spec.lower is None else spec.lower
            constraints.upper[j] = np.inf if spec.upper is None else spec.upper
            constraints.monotone[j] = spec.monotone
        return constraints

    def project(self, x_original: np.ndarray, candidate: np.ndarray | None = None, *,
                offsets: np.ndarray | None = None,
                key_of: np.ndarray | None = None) -> np.ndarray:
        """Project candidate counterfactuals onto the feasible set.

        Accepts a single candidate of shape ``(d,)`` or any stacked candidate
        tensor of shape ``(..., d)`` — e.g. ``(n_candidates, d)`` for one
        instance's candidate matrix.  ``x_original`` must broadcast against
        ``candidate``; NaN bounds are treated as unbounded.  The batched
        engine instead passes its pending rows ``(n, d)`` with
        ``offsets=table`` (the wave's distinct ``(k, m, d)`` offsets) and
        ``key_of`` (each row's table key), and gets the ``(n, m, d)``
        projection of ``x_original[i] + table[key_of[i]]`` without the
        unprojected wave ever being built.

        The projection cascade is the
        :func:`~fairexp.explanations.kernels.project_candidates` kernel.
        """
        return resolve_kernels().project_candidates(
            x_original, candidate, offsets=offsets, key_of=key_of,
            immutable=self.immutable, lower=self.lower, upper=self.upper,
            monotone=self.monotone,
        )

    def is_feasible(self, x_original: np.ndarray, candidate: np.ndarray, *, atol=1e-9):
        """Whether ``candidate`` satisfies all constraints relative to ``x_original``.

        Returns a scalar ``bool`` for a single ``(d,)`` candidate and a
        boolean array (reduced over the feature axis) for stacked candidates.
        """
        candidate = np.asarray(candidate, dtype=float)
        close = np.isclose(candidate, self.project(x_original, candidate), atol=atol)
        if candidate.ndim <= 1:
            return bool(np.all(close))
        return np.all(close, axis=-1)


def counterfactual_distance(
    x: np.ndarray, x_prime: np.ndarray, *, scale: np.ndarray | None = None,
    metric: str = "l1",
) -> float:
    """Distance between an instance and its counterfactual.

    ``metric`` is ``"l1"`` (MAD-style, the default used for burden), ``"l2"``
    or ``"l0"`` (number of changed features).  ``scale`` normalizes features
    (e.g. per-feature standard deviation or median absolute deviation).

    Delegates to the (bitwise-equal) batched kernel
    :func:`~fairexp.explanations.kernels.batch_counterfactual_distance`;
    callers scoring many pairs should call that directly with stacked rows.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    x_prime = np.asarray(x_prime, dtype=float).reshape(1, -1)
    return float(resolve_kernels().batch_counterfactual_distance(
        x, x_prime, scale=scale, metric=metric
    )[0])


class BaseCounterfactualGenerator:
    """Shared machinery for counterfactual generators.

    Parameters
    ----------
    model:
        Classifier with ``predict`` (and ``predict_proba`` where needed).
    background:
        Reference data used to scale distances and bound the search.
    constraints:
        Optional :class:`ActionabilityConstraints`.
    target_class:
        The favourable outcome to reach (default 1).
    metric:
        Distance metric reported on the returned counterfactuals.
    schedule:
        A :class:`~fairexp.explanations.schedules.SearchSchedule` (or its
        name, ``"geometric"`` / ``"adaptive"``) deciding which rung of the
        generator's :meth:`draw_schedule` ladder each still-unsolved
        instance probes next in the batched lockstep search.  ``None``
        resolves to the default
        :class:`~fairexp.explanations.schedules.GeometricSchedule`, which
        reproduces the historical fixed widening bitwise-exactly.  The
        schedule is part of the search configuration: it is introspected by
        ``generator_config`` and therefore folded into store fingerprints.
        (Generators without a rung ladder — gradient ascent — ignore it.)

    Attributes
    ----------
    search_step_count, search_draw_count:
        Lockstep schedule steps taken and candidate rows drawn across this
        generator's batched searches (thread-safe; process-sharded passes
        fold their workers' totals back in).  Surfaced through
        :meth:`~fairexp.explanations.session.AuditSession.stats` as
        ``schedule_steps`` / ``schedule_draws``.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="local",
        explanation_type="example",
        multiplicity="single",
    )

    def __init__(
        self,
        model,
        background: np.ndarray,
        *,
        constraints: ActionabilityConstraints | None = None,
        target_class: int = 1,
        metric: str = "l1",
        random_state=None,
        schedule=None,
    ) -> None:
        self.model = model
        self.background = np.asarray(background, dtype=float)
        self.constraints = constraints or ActionabilityConstraints.unconstrained(
            self.background.shape[1]
        )
        self.target_class = target_class
        self.metric = metric
        self.random_state = random_state
        self.schedule = resolve_schedule(schedule)
        self.scale_ = self.background.std(axis=0)
        self.scale_[self.scale_ == 0] = 1.0
        self.search_step_count = 0
        self.search_draw_count = 0
        self._search_count_lock = threading.Lock()

    # ------------------------------------------------------------- helpers
    def draw_schedule(self) -> list:
        """Per-rung parameters of this generator's search ladder.

        One entry per rung of the widening search (radii, shell bounds, …),
        lowest rung first.  The lockstep kernel searches over
        ``len(draw_schedule())`` rungs and the generator's ``schedule``
        decides the order instances probe them in; generators without a
        rung ladder (gradient ascent) return an empty list.
        """
        return []

    def add_search_counts(self, steps: int, draws: int) -> None:
        """Fold one search pass's schedule steps / candidate draws into the
        generator's thread-safe totals (also used by process-sharded passes
        to report their workers' totals)."""
        with self._search_count_lock:
            self.search_step_count += int(steps)
            self.search_draw_count += int(draws)

    def reset_search_counts(self) -> None:
        """Zero the schedule step / draw totals."""
        with self._search_count_lock:
            self.search_step_count = 0
            self.search_draw_count = 0

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.model.predict(np.atleast_2d(X)))

    def _make_results_batch(self, indices, X_rows: np.ndarray, candidates: np.ndarray
                            ) -> CounterfactualBatch:
        """Solved results for population rows ``indices`` with two predict
        calls (originals + counterfactuals) instead of two per row.

        ``candidates`` are projected onto the feasible set first; every
        column is computed for the whole batch at once, into matrices this
        call allocates.
        """
        originals = np.array(np.atleast_2d(X_rows), dtype=float)
        candidates = self.constraints.project(
            originals, np.atleast_2d(np.asarray(candidates, dtype=float)),
        )
        return CounterfactualBatch(
            indices, np.ones(len(originals), dtype=bool), originals, candidates,
            self._predict(originals), self._predict(candidates),
            resolve_kernels().batch_counterfactual_distance(
                originals, candidates, scale=self.scale_, metric=self.metric),
            self.constraints.is_feasible(originals, candidates),
            ~np.isclose(candidates, originals),
        )

    def _offsets(self, rng, step: int, n_features: int) -> np.ndarray:
        """Candidate offsets at rung ``step`` of :meth:`draw_schedule`.

        Returns an ``(n_candidates, n_features)`` matrix; an instance ``x``
        searches the candidates ``x[None, :] + offsets``.  How much of
        ``rng``'s stream one call consumes must not depend on ``step``: the
        lockstep search relies on it to draw each stream position once and
        share the offsets across instances.
        """
        raise NotImplementedError

    def generate(self, x: np.ndarray) -> Counterfactual:
        """Return one counterfactual for ``x``; raises if none is found.

        This is :meth:`generate_batch_aligned` on a one-row batch.  With an
        integer ``random_state`` every row reads the same seeded stream and
        its offsets depend only on (draws consumed, rung), so the result
        equals the row's result in any batch that contains it.
        """
        result = self.generate_batch_aligned(np.asarray(x, dtype=float).reshape(1, -1))[0]
        if result is None:
            raise InfeasibleRecourseError(
                f"{type(self).__name__} found no counterfactual within its search budget"
            )
        return result

    def generate_batch_aligned(self, X: np.ndarray) -> CounterfactualBatch:
        """Counterfactuals for every row of ``X``, as a batch with indices 0..n-1.

        Rows whose search budget is exhausted are unsolved.  The default
        is the cross-instance lockstep search over the :meth:`draw_schedule`
        ladder, probing rungs in the order this generator's ``schedule``
        plans; generators without a ladder override it.
        """
        return lockstep_candidate_search(self, X, self._offsets,
                                         len(self.draw_schedule()),
                                         schedule=self.schedule)

    def generate_batch(self, X: np.ndarray, *, skip_failures: bool = True) -> list[Counterfactual]:
        """Generate counterfactuals for many instances.

        Instances already classified as the target class are skipped.  With
        ``skip_failures`` infeasible instances are dropped instead of raising.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pending = np.flatnonzero(self._predict(X) != self.target_class)
        if not pending.size:
            return []
        batch = self.generate_batch_aligned(X[pending])
        if not skip_failures and not batch.has_result.all():
            raise InfeasibleRecourseError(
                f"no counterfactual found for instance {int(pending[~batch.has_result][0])} "
                "within the search budget"
            )
        return list(batch.solved().values())


@ExplainerRegistry.register("random_search", capabilities=("counterfactual-generator",),
                            data_requirements=("feature-specs",))
class RandomSearchCounterfactual(BaseCounterfactualGenerator):
    """Rejection sampling with a growing Gaussian radius plus greedy sparsification."""

    def __init__(self, model, background, *, n_samples: int = 300, max_radius: float = 4.0,
                 n_radii: int = 8, **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        self.n_samples = n_samples
        self.max_radius = max_radius
        self.n_radii = n_radii

    def draw_schedule(self) -> list[float]:
        """The rung ladder: one Gaussian radius per search step, smallest first."""
        radii = np.linspace(self.max_radius / self.n_radii, self.max_radius, self.n_radii)
        return [float(radius) for radius in radii]

    def _offsets(self, rng, step: int, n_features: int) -> np.ndarray:
        radius = self.draw_schedule()[step]
        return rng.normal(0.0, radius, (self.n_samples, n_features)) * self.scale_


@ExplainerRegistry.register("growing_spheres", capabilities=("counterfactual-generator",),
                            data_requirements=("feature-specs",))
class GrowingSpheresCounterfactual(BaseCounterfactualGenerator):
    """Growing-spheres search: uniform sampling in expanding L2 shells."""

    def __init__(self, model, background, *, n_samples_per_shell: int = 200,
                 initial_radius: float = 0.1, growth: float = 1.5, max_shells: int = 12,
                 **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        self.n_samples_per_shell = n_samples_per_shell
        self.initial_radius = initial_radius
        self.growth = growth
        self.max_shells = max_shells

    def draw_schedule(self) -> list[tuple[float, float]]:
        """The rung ladder: one ``(inner, outer)`` shell per search step,
        innermost first (radii accumulated iteratively)."""
        schedule = []
        inner, outer = 0.0, self.initial_radius
        for _ in range(self.max_shells):
            schedule.append((inner, outer))
            inner, outer = outer, outer * self.growth
        return schedule

    def _offsets(self, rng, step: int, n_features: int) -> np.ndarray:
        inner, outer = self.draw_schedule()[step]
        directions = rng.normal(size=(self.n_samples_per_shell, n_features))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
        radii = rng.uniform(inner, outer, self.n_samples_per_shell)
        return directions * radii[:, None] * self.scale_


@ExplainerRegistry.register(
    "gradient", capabilities=("counterfactual-generator", "requires-gradient"),
    data_requirements=("feature-specs",), resource_requirements=("gradients",),
)
class GradientCounterfactual(BaseCounterfactualGenerator):
    """Gradient ascent on the target-class probability (gradient-access models).

    Requires the model to expose ``gradient_input(X)`` returning the gradient
    of the positive-class probability with respect to the features
    (``LogisticRegression`` and ``MLPClassifier`` do).
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="gradient",
        agnostic=False,
        coverage="local",
        explanation_type="example",
        multiplicity="single",
    )

    def __init__(self, model, background, *, step_size: float = 0.25, max_iter: int = 300,
                 **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        if not hasattr(model, "gradient_input"):
            raise ValidationError("GradientCounterfactual requires model.gradient_input")
        self.step_size = step_size
        self.max_iter = max_iter

    def _anchor(self) -> np.ndarray:
        # Anchor for plateau escapes: the centroid of background points already
        # classified as the target class (gradients vanish far from the
        # boundary of a well-separated model, so pure gradient steps can stall).
        background_predictions = self._predict(self.background)
        target_rows = self.background[background_predictions == self.target_class]
        return target_rows.mean(axis=0) if target_rows.shape[0] else self.background.mean(axis=0)

    def generate_batch_aligned(self, X: np.ndarray) -> CounterfactualBatch:
        """Cross-instance gradient ascent: all still-unsolved instances share
        one predict and one ``gradient_input`` call per iteration."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n_instances = X.shape[0]
        candidates = X.copy()
        sign = 1.0 if self.target_class == 1 else -1.0
        anchor = self._anchor()
        unsolved = np.arange(n_instances)
        # A crossed row's candidate stops moving; only mid-loop crossings
        # are sparsified.
        crossed_in_loop = np.zeros(n_instances, dtype=bool)
        for _ in range(self.max_iter):
            if unsolved.size == 0:
                break
            predictions = self._predict(candidates[unsolved])
            crossed = predictions == self.target_class
            crossed_in_loop[unsolved[crossed]] = True
            unsolved = unsolved[~crossed]
            if unsolved.size == 0:
                break
            gradients = np.asarray(self.model.gradient_input(candidates[unsolved]))
            steps = sign * self.step_size * gradients * self.scale_**2
            plateau = np.linalg.norm(steps / self.scale_, axis=1) < 1e-4
            steps[plateau] = 0.2 * (anchor - candidates[unsolved][plateau])
            candidates[unsolved] = self.constraints.project(
                X[unsolved], candidates[unsolved] + steps
            )
        if unsolved.size:
            unsolved = unsolved[self._predict(candidates[unsolved]) != self.target_class]
        parts = [CounterfactualBatch.unsolved(unsolved, X.shape[1])]
        solved = np.setdiff1d(np.arange(n_instances), unsolved)
        if solved.size:
            sparsified = np.flatnonzero(crossed_in_loop)
            candidates[sparsified] = greedy_sparsify_batch(self, X[sparsified],
                                                           candidates[sparsified])
            parts.append(self._make_results_batch(solved, X[solved], candidates[solved]))
        return CounterfactualBatch.merge(*parts)
