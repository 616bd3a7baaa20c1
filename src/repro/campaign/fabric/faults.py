"""Deterministic fault-injection plane for the campaign fabric.

Production schedulers certify their recovery paths by rehearsing
failure, not by hoping for it.  This module is that rehearsal plane:
a :class:`FaultPlan` is a seeded, serializable list of
:class:`FaultSpec` entries, each naming an injection *site* the fabric
has wired a hook into:

========================  ====================================================
site                      effect when fired
========================  ====================================================
``cell.crash``            the worker SIGKILLs itself before running the cell
``cell.hang``             the cell sleeps ``delay_s`` (exceeding the
                          scheduler's ``cell_timeout_s``)
``cell.slow``             the cell sleeps ``delay_s`` then runs normally
``store.append``          the store append raises a transient
                          ``OSError`` -- mode ``eio``/``enospc`` -- or
                          tears a partial line into the file first
                          (mode ``torn``)
``checkpoint.corrupt``    the scheduler's checkpoint sidecar is
                          scribbled over just before it is loaded
``executor.crashloop``    *every* worker cell execution SIGKILLs the
                          worker (until ``times`` is exhausted)
``gc.crash``              the process SIGKILLs itself inside the gc
                          compaction crash window (before the atomic
                          replace)
========================  ====================================================

Determinism and exactly-``times`` semantics come from *firing claims*:
every fault keeps a claim counter as flag files inside the plan's
``state_dir``, created with ``O_CREAT | O_EXCL`` so concurrent worker
processes race for each firing atomically.  A plan therefore injects
each fault exactly ``times`` times across the whole process tree,
every run, regardless of scheduling interleavings.  It is the only way
the fabric's tests and the chaos matrix crash a worker.

Activation crosses process boundaries by environment: the plan is
saved to JSON and ``REPRO_FAULT_PLAN`` points at it, so worker
processes and real CLI subprocesses all see the same plan.
``REPRO_FAULT_PARENT_PID`` records the orchestrating process; the
worker-only sites (``cell.crash``, ``cell.hang``,
``executor.crashloop``) never fire in that process, which is what lets
a crash-looping executor *degrade to inline and actually finish* --
and keeps reference runs clean.

:func:`backoff_delay` also lives here: the fabric's retry backoff is
exponential with deterministic jitter derived from
``(seed, cell_id, attempt)``, so a retry schedule is reproducible
bit-for-bit and testable without clock mocking.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ...errors import CampaignError

#: Environment variable naming the active plan's JSON file.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable holding the orchestrating process's pid.
PARENT_PID_ENV = "REPRO_FAULT_PARENT_PID"

#: Every site a fabric hook exists for.
FAULT_SITES = (
    "cell.crash",
    "cell.hang",
    "cell.slow",
    "store.append",
    "checkpoint.corrupt",
    "executor.crashloop",
    "gc.crash",
)

#: Sites that must only fire in worker processes, never in the
#: orchestrating parent -- crashing the parent is the chaos matrix's
#: ``sigkill`` case (SIGKILL from outside), and an inline-degraded
#: executor must be able to finish the grid.
WORKER_ONLY_SITES = frozenset(
    {"cell.crash", "cell.hang", "executor.crashloop"}
)

#: Modes accepted by the ``store.append`` site.
STORE_APPEND_MODES = ("torn", "eio", "enospc")


def backoff_delay(cell_id: str, attempt: int, base_s: float = 0.05,
                  cap_s: float = 2.0, seed: int = 0) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    ``min(cap_s, base_s * 2**(attempt-1))`` scaled into
    ``[0.5, 1.0)`` of itself by a fraction derived from
    ``sha256(seed:cell_id:attempt)`` -- full determinism (the same
    retry always waits the same time, so schedules are testable and
    resumable) with enough spread that a burst of failing cells does
    not retry in lockstep.

    Args:
        cell_id: The retried cell (each cell gets its own jitter).
        attempt: 1-based attempt number being *scheduled* (the first
            retry is attempt 1).
        base_s: Delay scale for the first retry.
        cap_s: Upper bound the exponential saturates at.
        seed: Campaign-level seed folded into the jitter.

    Returns:
        Seconds to wait before the retry.
    """
    if attempt < 1:
        return 0.0
    raw = min(float(cap_s), float(base_s) * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(
        f"{seed}:{cell_id}:{attempt}".encode("utf-8")
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(2 ** 64)
    return raw * (0.5 + 0.5 * fraction)


def _slug(text: str) -> str:
    """Filesystem-safe token for claim-file names."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes:
        site: Injection site (a member of :data:`FAULT_SITES`).
        cell_id: Restrict to one cell (``None``: any cell; ignored by
            sites without cell context).
        mode: Site-specific variant (``store.append`` only:
            ``torn`` / ``eio`` / ``enospc``).
        times: How many firings the plan grants this fault in total,
            across every process.
        delay_s: Sleep length for ``cell.hang`` / ``cell.slow``.
    """

    site: str
    cell_id: Optional[str] = None
    mode: str = ""
    times: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise CampaignError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}"
            )
        if self.site == "store.append" and self.mode not in STORE_APPEND_MODES:
            raise CampaignError(
                f"store.append fault needs a mode from "
                f"{STORE_APPEND_MODES}, got {self.mode!r}"
            )
        if self.times < 1:
            raise CampaignError(f"times must be >= 1, got {self.times}")

    @property
    def key(self) -> str:
        """Stable claim-file prefix identifying this fault."""
        return _slug(f"{self.site}.{self.cell_id or 'any'}.{self.mode or '-'}")

    def matches(self, site: str, cell_id: Optional[str]) -> bool:
        """Whether this fault applies at ``site`` for ``cell_id``."""
        if self.site != site:
            return False
        return self.cell_id is None or self.cell_id == cell_id

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "cell_id": self.cell_id,
            "mode": self.mode,
            "times": self.times,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            site=data["site"],
            cell_id=data.get("cell_id"),
            mode=data.get("mode", ""),
            times=int(data.get("times", 1)),
            delay_s=float(data.get("delay_s", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults plus the shared claim state directory.

    Attributes:
        chaos_seed: Seed of the chaos run that built the plan, which
            folds it into its grid's master seed; recorded so a failing
            case reproduces exactly.
        specs: The faults to inject.
        state_dir: Directory holding firing-claim flag files -- shared
            across every process the plan is active in.
    """

    chaos_seed: int
    specs: Tuple[FaultSpec, ...]
    state_dir: str

    def __post_init__(self) -> None:
        if not self.state_dir:
            raise CampaignError("a fault plan needs a state_dir")

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chaos_seed": self.chaos_seed,
            "specs": [spec.to_dict() for spec in self.specs],
            "state_dir": self.state_dir,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            chaos_seed=int(data.get("chaos_seed", 0)),
            specs=tuple(
                FaultSpec.from_dict(item) for item in data.get("specs", ())
            ),
            state_dir=data["state_dir"],
        )

    def save(self, path: str) -> None:
        """Write the plan as JSON (what :data:`PLAN_ENV` points at)."""
        os.makedirs(self.state_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=2)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise CampaignError(
                f"cannot load fault plan from {path!r}: {exc!r}"
            ) from exc

    # -- firing ----------------------------------------------------------

    def claim(self, site: str, cell_id: Optional[str] = None
              ) -> Optional[FaultSpec]:
        """Atomically claim one firing at ``site`` (``None``: no fire).

        Claims are flag files ``state_dir/<key>.<n>`` created with
        ``O_CREAT | O_EXCL``: the first process to create slot ``n``
        owns firing ``n``; once every slot up to ``times`` exists the
        fault is spent.  Worker-only sites refuse to fire in the
        process named by :data:`PARENT_PID_ENV`.
        """
        if site in WORKER_ONLY_SITES:
            parent = os.environ.get(PARENT_PID_ENV)
            if parent and int(parent) == os.getpid():
                return None
        for spec in self.specs:
            if not spec.matches(site, cell_id):
                continue
            for slot in range(spec.times):
                flag = os.path.join(self.state_dir, f"{spec.key}.{slot}")
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.write(fd, f"{os.getpid()}\n".encode())
                os.close(fd)
                return spec
        return None

    def fired(self, site: str) -> int:
        """How many firings have been claimed at ``site`` so far."""
        count = 0
        for spec in self.specs:
            if spec.site != site:
                continue
            for slot in range(spec.times):
                flag = os.path.join(self.state_dir, f"{spec.key}.{slot}")
                if os.path.exists(flag):
                    count += 1
        return count


# --------------------------------------------------------------------- #
# Activation: one module-global plan, inherited through the environment.
# --------------------------------------------------------------------- #

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_SOURCE: Optional[str] = None  # plan path the cache was loaded from


def activate(plan: FaultPlan, path: str) -> None:
    """Make ``plan`` the active plan for this process tree.

    Saves the plan to ``path``, points :data:`PLAN_ENV` at it (so
    forked/spawned workers and CLI subprocesses inherit it) and marks
    this process as the parent for the worker-only sites.
    """
    global _ACTIVE, _ACTIVE_SOURCE
    plan.save(path)
    os.environ[PLAN_ENV] = os.path.abspath(path)
    os.environ[PARENT_PID_ENV] = str(os.getpid())
    _ACTIVE = plan
    _ACTIVE_SOURCE = os.path.abspath(path)


def deactivate() -> None:
    """Clear the active plan (idempotent)."""
    global _ACTIVE, _ACTIVE_SOURCE
    _ACTIVE = None
    _ACTIVE_SOURCE = None
    os.environ.pop(PLAN_ENV, None)
    os.environ.pop(PARENT_PID_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan in force for this process, if any.

    Checks the module global first (in-process activation), then
    :data:`PLAN_ENV` -- which is how worker processes and CLI
    subprocesses pick the plan up.  A plan loaded from the environment
    is cached per path.
    """
    global _ACTIVE, _ACTIVE_SOURCE
    env_path = os.environ.get(PLAN_ENV)
    if _ACTIVE is not None:
        if env_path is None or _ACTIVE_SOURCE == os.path.abspath(env_path):
            return _ACTIVE
    if not env_path:
        return None
    plan = FaultPlan.load(env_path)
    _ACTIVE = plan
    _ACTIVE_SOURCE = os.path.abspath(env_path)
    return plan


def claim(site: str, cell_id: Optional[str] = None) -> Optional[FaultSpec]:
    """Claim one firing at ``site`` against the active plan, if any."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.claim(site, cell_id)


# --------------------------------------------------------------------- #
# Injection helpers the fabric hooks call.
# --------------------------------------------------------------------- #

def fire_cell_faults(cell_id: str) -> None:
    """Cell-execution hook (runs in whatever process executes cells).

    ``executor.crashloop`` and ``cell.crash`` SIGKILL the process;
    ``cell.hang`` / ``cell.slow`` sleep.  All are no-ops without an
    active plan, and the worker-only sites never fire in the parent.
    """
    if active_plan() is None:  # the common case: one cheap env lookup
        return
    if claim("executor.crashloop", cell_id) or claim("cell.crash", cell_id):
        os.kill(os.getpid(), signal.SIGKILL)
    spec = claim("cell.hang", cell_id)
    if spec is not None:
        time.sleep(spec.delay_s)
    spec = claim("cell.slow", cell_id)
    if spec is not None:
        time.sleep(spec.delay_s)


def fire_store_append(store: Any, payload: Mapping[str, Any]) -> None:
    """Store-append hook: raise a transient I/O error when claimed.

    ``eio`` / ``enospc`` raise before anything touches the file;
    ``torn`` first asks the store to tear a partial line into its file
    (``_torn_write``) so the retry path must also heal real crash
    debris, then raises ``EIO`` as the write's failure.
    """
    spec = claim("store.append", payload.get("cell_id"))
    if spec is None:
        return
    if spec.mode == "torn":
        store._torn_write(payload)
        raise OSError(errno.EIO, "injected torn write (fault plan)")
    if spec.mode == "enospc":
        raise OSError(errno.ENOSPC, "injected ENOSPC (fault plan)")
    raise OSError(errno.EIO, "injected EIO (fault plan)")


def fire_checkpoint_corrupt(path: str) -> None:
    """Checkpoint-load hook: scribble garbage over the sidecar."""
    if claim("checkpoint.corrupt") is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"spec_hash": "corrupted by fa')  # torn mid-write


def fire_gc_crash() -> None:
    """Gc crash-window hook: SIGKILL this process when claimed."""
    if claim("gc.crash") is not None:
        os.kill(os.getpid(), signal.SIGKILL)
