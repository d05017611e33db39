"""Durable model state for the diagnosis service.

Two pieces let a re-trained model reach running workers without a restart
and without ever serving a bad one:

* :class:`~repro.persist.registry.ModelRegistry` — versioned, validation-
  gated atomic model hot-swap (publish → workers pick it up between
  chunks).
* :func:`~repro.persist.fingerprint.model_fingerprint` — content-addressed
  model identity, stamped on every published version.
"""

from repro.persist.fingerprint import model_fingerprint
from repro.persist.registry import ModelRegistry

__all__ = [
    "ModelRegistry",
    "model_fingerprint",
]
