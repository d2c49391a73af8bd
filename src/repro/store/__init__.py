"""Content-addressed artifact store (the sweep orchestrator's memory).

``repro.store`` persists :class:`~repro.api.artifact.ExperimentArtifact`
objects under content keys derived from (spec name, resolved params,
execution identity, code fingerprint), so any experiment the repo has
already run — by any engine, in any order — can be served from disk instead
of recomputed.  See :mod:`repro.store.artifact_store` for the key and
layout details and :mod:`repro.store.fingerprint` for the code-change
invalidation scheme.
"""

from repro.store.artifact_store import (
    CACHE_POLICIES,
    STORE_ENV_VAR,
    ArtifactStore,
    StoreEntry,
    artifact_key,
    default_store_root,
    resolve_store,
    validate_cache_policy,
)
from repro.store.fingerprint import clear_fingerprint_cache, code_fingerprint

__all__ = [
    "CACHE_POLICIES",
    "STORE_ENV_VAR",
    "ArtifactStore",
    "StoreEntry",
    "artifact_key",
    "code_fingerprint",
    "clear_fingerprint_cache",
    "default_store_root",
    "resolve_store",
    "validate_cache_policy",
]
