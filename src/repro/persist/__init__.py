"""Durable cross-process state for the diagnosis service.

Three pieces make warm inference state survive worker crashes and service
restarts without ever risking a wrong answer:

* :class:`~repro.persist.cache.PosteriorCache` — a crash-safe, append-only
  on-disk cache of exact posterior sets, with per-record CRC32 checksums,
  torn-tail recovery, corrupt-entry quarantine, LRU compaction and
  ``flock`` multi-process safety.
* :class:`~repro.persist.registry.ModelRegistry` — versioned, validation-
  gated atomic model hot-swap (publish → workers pick it up between
  chunks).
* :func:`~repro.persist.fingerprint.model_fingerprint` — content-addressed
  model identity, making every cache entry self-invalidating on CPD
  replacement.
"""

from repro.persist.cache import PosteriorCache, atomic_write_bytes
from repro.persist.fingerprint import FingerprintTracker, model_fingerprint
from repro.persist.registry import ModelRegistry

__all__ = [
    "FingerprintTracker",
    "ModelRegistry",
    "PosteriorCache",
    "atomic_write_bytes",
    "model_fingerprint",
]
