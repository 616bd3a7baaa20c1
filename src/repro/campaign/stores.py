"""Store opening: one path in, one :class:`CampaignStore` out.

Every campaign entry point (runner, status, report, watch, gc) goes
through :func:`open_store`.  Campaigns persist to a single append-only
JSONL file; paths that named the sqlite or sharded-directory backends
of earlier releases (a ``sqlite:``/``shards:`` prefix, or a directory)
are refused by name instead of being misread as JSONL.
"""

from __future__ import annotations

import os

from ..errors import CampaignError
from .store import CampaignStore

#: URI prefixes of the removed store backends.
_REMOVED_SCHEMES = ("sqlite:", "shards:")


def open_store(path: str) -> CampaignStore:
    """Open (not create) the JSONL store at ``path``.

    Raises:
        CampaignError: ``path`` is empty or names a removed backend.
    """
    if not path:
        raise CampaignError("a store needs a path")
    for scheme in _REMOVED_SCHEMES:
        if path.startswith(scheme):
            raise CampaignError(
                f"store {path!r}: the {scheme[:-1]} backend was removed; "
                "campaign stores are JSONL files"
            )
    if path.endswith(("/", os.sep)) or os.path.isdir(path):
        raise CampaignError(
            f"store {path!r} is a directory: the shards backend was "
            "removed; campaign stores are JSONL files"
        )
    return CampaignStore(path)
