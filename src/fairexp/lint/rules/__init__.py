"""The FX rule set: one module per rule, registered in :data:`ALL_RULES`.

Each rule encodes one of the conventions the explanations stack grew
over PRs 1–9; ``docs/api/lint.md`` carries the table mapping codes to
the PRs that motivated them.
"""

from .fx001_executors import ExecutorConstructionRule
from .fx002_randomness import LegacyRandomRule
from .fx003_mutable_defaults import MutableDefaultRule
from .fx004_swallowed_except import SwallowedExceptRule
from .fx005_counter_locks import CounterLockRule
from .fx006_fingerprint import FingerprintCoverageRule
from .fx007_sleep import SleepRule
from .fx008_process_env import ProcessEnvRule
from .fx009_zero_fallback import ZeroFallbackRule

ALL_RULES = (
    ExecutorConstructionRule,
    LegacyRandomRule,
    MutableDefaultRule,
    SwallowedExceptRule,
    CounterLockRule,
    FingerprintCoverageRule,
    SleepRule,
    ProcessEnvRule,
    ZeroFallbackRule,
)

__all__ = ["ALL_RULES"] + [rule.__name__ for rule in ALL_RULES]
