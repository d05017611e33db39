"""The evidence-keyed LRU of the exact engines.

Both exact engines follow the same compute-once, query-many pattern: a full
sweep (shared-bucket elimination or junction-tree calibration) is cached
under the evidence's row key — sorted ``(variable, state code)`` pairs, read
by the network's :class:`~repro.bayesnet.codec.EvidenceCodec` — and repeated
queries on the same failing condition are answered from the cache.  Each
engine holds one of these, of fixed capacity.  This module keeps the LRU
semantics identical across the engines, and guards against the one way a
cache can silently lie: replacing a CPD on the underlying network (the
public ``add_cpd`` mutation path) drops every cached sweep.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.sampling import cpd_signature

#: Number of evidence row keys whose sweeps/calibrations are kept cached.
DEFAULT_CACHE_SIZE = 128


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
        derived state of their own, such as VE's base factor list, reset
        it on that signal).
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
