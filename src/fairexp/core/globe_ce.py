"""GLOBE-CE: global counterfactual explanations as translation directions (Ley et al. [75]).

GLOBE-CE summarizes the recourse of an entire group by a single *global
direction* ``d``: every negatively classified member ``x`` travels along
``x + k * d`` for the smallest per-instance scaling ``k`` that flips the
prediction.  Comparing the accuracy (coverage) and average minimum cost of the
direction between protected and reference groups exposes recourse bias with a
far more compact artifact than one counterfactual per individual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ValidationError
from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.counterfactual import ActionabilityConstraints
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks, group_mean
from ..utils import check_random_state

__all__ = ["GlobalDirection", "GlobeCEGroupResult", "GlobeCEResult", "GlobeCEExplainer"]


@dataclass
class GlobalDirection:
    """A single translation direction in (scaled) feature space."""

    direction: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def top_components(self, k: int = 3) -> list[tuple[str, float]]:
        """The ``k`` features with the largest absolute direction weight."""
        order = np.argsort(-np.abs(self.direction))[:k]
        names = self.feature_names or [f"x{j}" for j in range(self.direction.shape[0])]
        return [(names[j], float(self.direction[j])) for j in order]


@dataclass
class GlobeCEGroupResult:
    """Coverage and cost of the global direction for one group."""

    group: int
    n_affected: int
    coverage: float
    mean_cost: float
    costs: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))


@dataclass
class GlobeCEResult:
    """GLOBE-CE audit: one shared direction, per-group coverage and cost."""

    direction: GlobalDirection
    protected: GlobeCEGroupResult
    reference: GlobeCEGroupResult

    @property
    def coverage_gap(self) -> float:
        """coverage(reference) - coverage(protected); positive = protected group is under-served."""
        return self.reference.coverage - self.protected.coverage

    @property
    def cost_gap(self) -> float:
        """mean_cost(protected) - mean_cost(reference); positive = protected group pays more."""
        return self.protected.mean_cost - self.reference.mean_cost

    def as_dict(self) -> dict[str, float]:
        """The result as a plain JSON-serializable dict."""
        return {
            "coverage_protected": self.protected.coverage,
            "coverage_reference": self.reference.coverage,
            "coverage_gap": self.coverage_gap,
            "cost_protected": self.protected.mean_cost,
            "cost_reference": self.reference.mean_cost,
            "cost_gap": self.cost_gap,
        }


@ExplainerRegistry.register(
    "globe_ce", capabilities=("fairness-explainer", "counterfactual-based", "global-direction")
)
class GlobeCEExplainer:
    """Fit one global translation direction and audit it per group.

    The direction is chosen from a set of random unit candidates plus the
    "mean difference" direction (mean of approved minus mean of rejected),
    scored by coverage at a fixed budget of scalings; per-instance minimum
    scalings then give the cost distribution.

    Parameters
    ----------
    model:
        Classifier under audit.
    constraints:
        Optional actionability constraints; the direction's components on
        immutable features are zeroed.
    n_directions:
        Number of random candidate directions.
    max_scale:
        Largest multiple of the direction tried per instance.
    n_scales:
        Number of scaling steps per instance.
    session:
        Optional :class:`~fairexp.explanations.session.AuditSession`.
        Supplies defaults for whatever is omitted: with ``model=None`` the
        audit scores candidates through the session's shared
        counting/memoizing adapter (joining the sweep-wide predict
        accounting), and ``background``/``constraints`` fall back to the
        session generator's.  An explicitly passed model always wins and is
        used as-is, outside the session's accounting.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="global",
        explanation_type="example",
        multiplicity="single",
    )

    def __init__(
        self,
        model=None,
        background: np.ndarray | None = None,
        *,
        constraints: ActionabilityConstraints | None = None,
        feature_names=None,
        n_directions: int = 30,
        max_scale: float = 4.0,
        n_scales: int = 20,
        random_state=None,
        session: AuditSession | None = None,
    ) -> None:
        if session is not None:
            if model is None:
                model = session.model
            if session.generator is not None:
                if background is None:
                    background = session.generator.background
                if constraints is None:
                    constraints = session.generator.constraints
        if model is None or background is None:
            raise ValidationError(
                "GlobeCEExplainer needs a model and background data "
                "(directly or via a session built around a generator)"
            )
        self.model = model
        self.background = np.asarray(background, dtype=float)
        self.constraints = constraints
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.n_directions = n_directions
        self.max_scale = max_scale
        self.n_scales = n_scales
        self.random_state = random_state
        self.scale_ = self.background.std(axis=0)
        self.scale_[self.scale_ == 0] = 1.0

    def _mask_direction(self, direction: np.ndarray) -> np.ndarray:
        direction = direction.copy()
        if self.constraints is not None:
            direction[self.constraints.immutable] = 0.0
            direction[(self.constraints.monotone == 1) & (direction < 0)] = 0.0
            direction[(self.constraints.monotone == -1) & (direction > 0)] = 0.0
        norm = np.linalg.norm(direction)
        return direction / norm if norm > 0 else direction

    def _candidate_directions(self, X_affected: np.ndarray) -> list[np.ndarray]:
        rng = check_random_state(self.random_state)
        candidates = []
        predictions = np.asarray(self.model.predict(self.background))
        approved = self.background[predictions == 1]
        if approved.shape[0] and X_affected.shape[0]:
            mean_diff = (approved.mean(axis=0) - X_affected.mean(axis=0)) / self.scale_
            candidates.append(self._mask_direction(mean_diff))
        for _ in range(self.n_directions):
            random_dir = rng.normal(size=X_affected.shape[1])
            candidates.append(self._mask_direction(random_dir))
        return [c for c in candidates if np.linalg.norm(c) > 0]

    def _min_scales(self, X_affected: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Smallest scaling flipping each instance; inf when the budget is insufficient."""
        scales = np.linspace(self.max_scale / self.n_scales, self.max_scale, self.n_scales)
        minimum = np.full(X_affected.shape[0], np.inf)
        step = direction * self.scale_
        for k in scales:
            unresolved = ~np.isfinite(minimum)
            if not unresolved.any():
                break
            candidates = X_affected[unresolved] + k * step
            if self.constraints is not None:
                candidates = self.constraints.project(X_affected[unresolved], candidates)
            success = np.asarray(self.model.predict(candidates)) == 1
            idx = np.flatnonzero(unresolved)[success]
            minimum[idx] = k
        return minimum

    def explain(self, X, sensitive, *, protected_value=1) -> GlobeCEResult:
        """Pick the best global direction on all affected individuals, audit per group."""
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        predictions = np.asarray(self.model.predict(X))
        affected_mask = predictions == 0
        X_affected = X[affected_mask]
        masks = group_masks(sensitive, protected_value=protected_value)

        best_direction, best_coverage, best_scales = None, -1.0, None
        for direction in self._candidate_directions(X_affected):
            scales = self._min_scales(X_affected, direction)
            coverage = float(np.isfinite(scales).mean()) if scales.size else 0.0  # fairexp: noqa[FX009] - ranks directions over the whole affected set, not a group
            if coverage > best_coverage:
                best_direction, best_coverage, best_scales = direction, coverage, scales

        names = self.feature_names or [f"x{j}" for j in range(X.shape[1])]
        direction = GlobalDirection(direction=best_direction, feature_names=names)

        group_results = {}
        for group_value, group_mask in ((1, masks.protected), (0, masks.reference)):
            member = group_mask[affected_mask]
            scales = best_scales[member]
            finite = scales[np.isfinite(scales)]
            group_results[group_value] = GlobeCEGroupResult(
                group=group_value,
                n_affected=int(member.sum()),
                coverage=group_mean(np.isfinite(scales)),
                mean_cost=group_mean(finite),
                costs=finite,
            )
        return GlobeCEResult(
            direction=direction, protected=group_results[1], reference=group_results[0]
        )
