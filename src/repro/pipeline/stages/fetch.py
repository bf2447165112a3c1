"""Fetch stage: adapt the frontend pipe to the stage protocol.

Inputs: the trace source (the µop stream) and the branch unit's
predictions/redirects.
Outputs: predicted-path (and, after a mispredict, wrong-path) µops
advanced through the frontend pipe toward the Rename stage's pull
interface.
Latency: the frontend pipe models the fetch-to-rename depth
(``frontend_depth`` cycles); a redirect at cycle ``X`` delivers
corrected-path µops ``frontend_depth`` cycles later.

Decode is fused into this stage: the trace supplies µops (not raw
instructions), so the frontend pipe *is* the fetch+decode latency
model. The heavy lifting lives in
:class:`repro.frontend.fetch.FetchStage`; this object is the thin
stage-protocol adapter the driver ticks.
"""

from __future__ import annotations

from repro.pipeline.stages.base import NEVER, Stage


class Fetch(Stage):
    """Advance the frontend pipe one cycle."""

    name = "fetch"

    def __init__(self, sim) -> None:
        """Bind the frontend pipe."""
        super().__init__(sim)
        self.frontend = sim.fetch

    def tick(self, now: int) -> None:
        """Fetch/decode one cycle of µops into the frontend pipe."""
        self.frontend.tick(now)

    def next_event(self, now: int) -> int:
        """See :meth:`repro.frontend.fetch.FetchStage.next_event`."""
        due = self.frontend.next_event(now)
        return NEVER if due is None else due

    def skip(self, now: int, until: int) -> None:
        """Apply the skipped ticks (see :meth:`repro.frontend.fetch.
        FetchStage.skip`)."""
        self.frontend.skip(now, until)
