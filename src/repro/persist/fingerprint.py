"""Content fingerprints of Bayesian networks.

The model registry stamps every published version with a *model
fingerprint* — a SHA-256 digest of the network's structure, state names
and CPT tables — beside its opaque version counter.  The distinction
matters for auditing: a counter says "someone bumped me", a fingerprint
says "these exact parameters are live".  Two bit-identical models share a
fingerprint, and a replaced (or chaos-corrupted) CPD changes it.
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

