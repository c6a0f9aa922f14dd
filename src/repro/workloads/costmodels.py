"""Cost models for the three feedback loops of sections 4.2-4.4.

The paper's budgets:

* VR rendering loop: "at least 10 to 15 updates per second" -> 66-100 ms
  per frame (:data:`VR_BUDGET` uses the lenient 10 Hz bound);
* desktop loop: "at least 3 to 5 frames per second ... with one frame
  delay" -> 200-333 ms (:data:`DESKTOP_BUDGET` = 333 ms);
* simulation loop: "people can tolerate delays of up to a minute while
  waiting for new simulation results" (:data:`SIM_FEEDBACK_TOLERANCE`).

:class:`FeedbackLoopModel` reproduces the *arithmetic argument* of
section 4.2 — "Just taking the communication delays as well as the
compression and decompression times into account, without considering
the rendering times, these already exceed the required turn around time"
— with explicit per-stage terms so the S42 bench can print the breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.netprofiles import NetProfile

#: per-frame budget to hold 10-15 fps in a CAVE (lenient bound: 10 fps)
VR_BUDGET = 1.0 / 10.0
#: per-frame budget to hold 3-5 fps on a desktop (lenient bound: 3 fps)
DESKTOP_BUDGET = 1.0 / 3.0
#: tolerated delay for new simulation results (section 4.4)
SIM_FEEDBACK_TOLERANCE = 60.0


@dataclass(frozen=True)
class FeedbackLoopModel:
    """Per-stage costs of the remote-rendering loop.

    Rates are era-plausible for an Onyx-class server and a laptop client:
    compression on the server, decompression on the client, both scaling
    with the (compressed) frame size.
    """

    #: server render time per frame (s) — excluded in the paper's argument
    render_time: float = 0.030
    #: compression throughput on the server (bytes/s of raw frame)
    compress_rate: float = 40e6
    #: decompression throughput on the client (bytes/s of raw frame)
    decompress_rate: float = 80e6
    #: achieved compression ratio of the frame codec
    compression_ratio: float = 10.0
    #: size of a viewer-position update message (bytes)
    viewpos_bytes: int = 64
    #: local display/compositing overhead per frame (s)
    display_time: float = 0.002

    def remote_loop_breakdown(
        self, profile: NetProfile, raw_frame_bytes: int,
        include_render: bool = True,
    ) -> dict:
        """Stage-by-stage time of one remote-rendered frame."""
        wire_bytes = raw_frame_bytes / self.compression_ratio
        stages = {
            "send_viewpos": profile.one_way(self.viewpos_bytes),
            "render": self.render_time if include_render else 0.0,
            "compress": raw_frame_bytes / self.compress_rate,
            "transmit": profile.one_way(wire_bytes),
            "decompress": raw_frame_bytes / self.decompress_rate,
            "display": self.display_time,
        }
        stages["total"] = sum(stages.values())
        return stages

    def remote_loop_time(self, profile: NetProfile, raw_frame_bytes: int,
                         include_render: bool = True) -> float:
        return self.remote_loop_breakdown(
            profile, raw_frame_bytes, include_render
        )["total"]

    def local_loop_time(self) -> float:
        """Local scene graph: render + display only; avatar updates ride
        asynchronously and do not gate the frame."""
        return self.render_time + self.display_time
