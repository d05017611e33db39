"""Content fingerprints of Bayesian networks.

Every durable cache key carries a *model fingerprint* — a SHA-256 digest of
the network's structure, state names and CPT tables — instead of an opaque
version counter.  The distinction matters for correctness: a counter says
"someone bumped me", a fingerprint says "these exact parameters produced
this posterior".  Two processes that trained bit-identical models share
cache entries automatically, a replaced (or chaos-corrupted) CPD changes the
digest and makes every stale entry unreachable, and a restarted service
re-keys itself without any coordination.  The shared posterior cache is
therefore *self-invalidating*: wrong-model hits are impossible by
construction, not by discipline.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bayesnet.network import BayesianNetwork


def model_fingerprint(network: BayesianNetwork) -> str:
    """Return a hex SHA-256 digest of ``network``'s structure and CPTs.

    The digest covers, per node in name order: the node name, its parents
    (in CPD order), every state-name list, and the raw bytes of its CPT
    table (as contiguous float64).  Any change to any of those — a learned
    parameter update, a corrupted entry, a renamed state — changes the
    digest.
    """
    digest = hashlib.sha256()
    for node in sorted(network.nodes):
        cpd = network.get_cpd(node)
        digest.update(node.encode())
        digest.update(b"\x00")
        for parent in cpd.parents:
            digest.update(str(parent).encode())
            digest.update(b"\x01")
        for variable in (node, *cpd.parents):
            for state in cpd.state_names.get(variable, ()):
                digest.update(str(state).encode())
                digest.update(b"\x02")
        table = np.ascontiguousarray(cpd.table, dtype=np.float64)
        digest.update(str(table.shape).encode())
        digest.update(table.tobytes())
    return digest.hexdigest()


class FingerprintTracker:
    """Memoised :func:`model_fingerprint`, refreshed on CPD replacement.

    Hashing ~20 small tables is cheap but not free on a sub-millisecond
    serving path, so the digest is recomputed only when the network's
    ``cpd_version`` advances (the same signal that drops the evidence
    caches).  In-place table mutation stays undetectable, exactly as with
    every other ``cpd_version``-keyed cache in the library.
    """

    def __init__(self, network: BayesianNetwork) -> None:
        self._network = network
        self._version: int | None = None
        self._digest: str | None = None

    def current(self) -> str:
        if self._version != self._network.cpd_version:
            self._digest = model_fingerprint(self._network)
            self._version = self._network.cpd_version
        return self._digest  # type: ignore[return-value]
