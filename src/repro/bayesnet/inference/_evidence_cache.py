"""The evidence-keyed LRU shared by the exact engines.

Both exact engines follow the same compute-once, query-many pattern: a full
sweep (shared-bucket elimination or junction-tree calibration) is cached
under the evidence's row key — sorted ``(variable, state code)`` pairs, read
by the network's :class:`~repro.bayesnet.codec.EvidenceCodec` — and repeated
queries on the same failing condition are answered from the cache.  This
module keeps the LRU semantics identical across the engines, and guards
against the one way a cache can silently lie: replacing a CPD on the
underlying network (the public ``add_cpd`` mutation path) drops every cached
sweep.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.sampling import cpd_signature
from repro.exceptions import InferenceError

#: Number of evidence row keys whose sweeps/calibrations are kept cached.
DEFAULT_CACHE_SIZE = 128

#: Environment variable overriding the default cache capacity process-wide —
#: the per-worker memory knob for serving fleets that host one engine per
#: process.
CACHE_SIZE_ENV_VAR = "REPRO_EVIDENCE_CACHE_SIZE"


def resolve_cache_size(explicit: int | None = None) -> int:
    """Return the evidence-cache capacity to use.

    Precedence: an ``explicit`` constructor argument, then the
    ``REPRO_EVIDENCE_CACHE_SIZE`` environment variable, then
    :data:`DEFAULT_CACHE_SIZE`.  The capacity must be a positive integer.
    """
    import os

    value = explicit
    if value is None:
        raw = os.environ.get(CACHE_SIZE_ENV_VAR)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise InferenceError(
                    f"{CACHE_SIZE_ENV_VAR} must be an integer, "
                    f"got {raw!r}") from None
    if value is None:
        return DEFAULT_CACHE_SIZE
    value = int(value)
    if value < 1:
        raise InferenceError(
            f"evidence cache capacity must be >= 1, got {value}")
    return value


class EvidenceCache:
    """A small LRU keyed by evidence row key, dropped on CPD replacement."""

    def __init__(self, network: BayesianNetwork,
                 max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        self._network = network
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._cpd_ids = cpd_signature(network)

    def refresh(self) -> bool:
        """Drop every entry if the network's CPDs were replaced.

        Returns ``True`` when an invalidation happened (callers with
        derived state of their own — compiled tables, current calibration —
        reset it on that signal).
        """
        signature = cpd_signature(self._network)
        if signature == self._cpd_ids:
            return False
        self._entries.clear()
        self._cpd_ids = signature
        return True

    def get(self, key: tuple):
        """Return the cached value for ``key`` (LRU-touched) or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: tuple, value: object) -> None:
        self._entries[key] = value
        if len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
