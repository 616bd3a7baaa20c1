"""Client controller: scripted UI workflow automation.

"Client controller replays a platform-specific script for operating /
navigating a client, including launch, login, meeting-join/-leave and
layout change" (Section 3.2).  The real tool drives xdotool/adb; here
the controller is a timed state machine on the simulator that fires the
same workflow steps and records a timeline, so experiments are
structured exactly like the paper's automated runs (staggered joins,
settle time before measurement, scripted layout changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from ..errors import SessionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import BaseClient


@dataclass(frozen=True)
class WorkflowStep:
    """One step of a client workflow.

    Attributes:
        name: Step label (``launch``, ``login``, ``join``...).
        duration_s: Time the step takes to complete.
        action: Optional callable invoked when the step completes.
    """

    name: str
    duration_s: float
    action: Optional[Callable[[], None]] = None

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise SessionError(f"step {self.name!r} has negative duration")


def standard_workflow(join_action: Optional[Callable[[], None]] = None) -> List[WorkflowStep]:
    """The canonical launch -> login -> join -> configure sequence.

    Durations are representative of the paper's automation (a few
    seconds per UI interaction); experiments usually only care that
    joins are staggered and media starts after everyone has settled.
    """
    return [
        WorkflowStep("launch", 2.0),
        WorkflowStep("login", 3.0),
        WorkflowStep("join", 2.0, join_action),
        WorkflowStep("configure-layout", 1.0),
    ]


@dataclass
class CompletedStep:
    """Timeline record of one executed step."""

    name: str
    started_at: float
    finished_at: float


class ClientController:
    """Replays a workflow script on the simulator for one client."""

    def __init__(self, client: "BaseClient") -> None:
        self._client = client
        self.timeline: List[CompletedStep] = []
        self._busy = False

    @property
    def busy(self) -> bool:
        """Whether a workflow is currently executing."""
        return self._busy

    def run_workflow(
        self,
        steps: List[WorkflowStep],
        start_delay_s: float = 0.0,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Execute steps sequentially, then call ``on_complete``.

        Raises:
            SessionError: If a workflow is already running.
        """
        if self._busy:
            raise SessionError(f"{self._client.name}: controller is busy")
        if not steps:
            raise SessionError("workflow needs at least one step")
        self._busy = True
        simulator = self._client.host.network.simulator
        simulator.schedule(
            start_delay_s, self._run_step, list(steps), 0, on_complete
        )

    def _run_step(
        self,
        steps: List[WorkflowStep],
        index: int,
        on_complete: Optional[Callable[[], None]],
    ) -> None:
        simulator = self._client.host.network.simulator
        step = steps[index]
        started = simulator.now
        simulator.schedule(
            step.duration_s,
            self._finish_step,
            steps,
            index,
            started,
            on_complete,
        )

    def _finish_step(
        self,
        steps: List[WorkflowStep],
        index: int,
        started: float,
        on_complete: Optional[Callable[[], None]],
    ) -> None:
        simulator = self._client.host.network.simulator
        step = steps[index]
        self.timeline.append(CompletedStep(step.name, started, simulator.now))
        if step.action is not None:
            step.action()
        if index + 1 < len(steps):
            self._run_step(steps, index + 1, on_complete)
            return
        self._busy = False
        if on_complete is not None:
            on_complete()
