"""OpenGL VizServer-style remote rendering with session sharing.

Section 2.4: "The datasets which are being rendered as isosurfaces are
too large to be visualized on a laptop client.  VizServer allows the
output of the graphics pipes from an Onyx visual supercomputer to be
accessed remotely.  In addition this greatly reduces network traffic
since only compressed bitmaps need to be sent...  [VizServer] allows
multiple users to share the same login session on a remote machine."

Model: the session owns a server-side renderer and scene (geometry stays
on the visualization host).  Each attached client receives compressed
delta frames; any client holding the *control token* may move the shared
camera — "Participating sites able to run OpenGL VizServer will be able
to share control of the visualization".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import ChannelClosed, VenueError
from repro.visit.token import MasterToken
from repro.viz import Camera, Renderer
from repro.viz.compress import compress_frame
from repro.viz.framebuffer import FrameBuffer
from repro.viz.scene import SceneGraph
from repro.wire.fields import decode_tagged

#: per-frame render cost model of the visual supercomputer (s per triangle
#: plus fixed pipeline overhead) — era-plausible numbers.
RENDER_FIXED = 0.012
RENDER_PER_TRI = 1.5e-6


def _camera_state(state) -> Optional[dict]:
    """A client's camera state as :meth:`Camera.apply_state` takes it, or
    None unless it carries ``eye``, ``target`` and ``up`` as three finite
    numbers each and a finite ``fov_deg``."""
    shapes = {"eye": (3,), "target": (3,), "up": (3,), "fov_deg": ()}
    try:
        parts = {key: np.asarray(state[key]) for key in shapes}
    except (TypeError, KeyError, ValueError):  # not a dict, or ragged
        return None
    for key, part in parts.items():
        if part.dtype.kind not in "iuf" or part.shape != shapes[key] or not np.isfinite(part).all():
            return None
    return {key: part.astype(np.float64) for key, part in parts.items()}


@dataclass
class _Join:
    site: str


@dataclass
class _MoveCamera:
    #: checked by :func:`_camera_state`
    state: Any


@dataclass
class _PassControl:
    to: str


#: ``op`` -> client request class
_OPS = {"join": _Join, "move_camera": _MoveCamera, "pass_control": _PassControl}


class VizServerSession:
    """One shared login session on the visualization supercomputer."""

    def __init__(self, host, port: int, width: int = 320, height: int = 240) -> None:
        self.host = host
        self.port = port
        self.renderer = Renderer(width, height)
        self.scene = SceneGraph()
        #: attached sites (name -> connection) and who holds camera control
        self._token = MasterToken()
        self._last_frames: dict[str, Optional[FrameBuffer]] = {}
        self.frames_streamed = 0
        self.bytes_streamed = 0

    @property
    def control_holder(self) -> Optional[str]:
        return self._token.holder

    def start(self) -> None:
        self.host.serve(self.port, self._serve)

    def _serve(self, conn):
        site: Optional[str] = None
        while True:
            try:
                msg = yield from conn.recv(timeout=None)
            except ChannelClosed:
                if site is not None:
                    self._token.leave(site)
                    self._last_frames.pop(site, None)
                return
            try:
                request = decode_tagged(_OPS, msg, "op", VenueError, "VizServer request")
            except VenueError as exc:
                conn.send({"op": "denied", "error": str(exc)})
                continue
            if isinstance(request, _Join):
                # One site per connection and one connection per site: a
                # second join would strand or steal a member's token.
                if site is not None:
                    conn.send({"op": "denied", "error": f"already joined as {site!r}"})
                elif request.site in self._token.members:
                    conn.send({"op": "denied", "error": f"site {request.site!r} already joined"})
                else:
                    site = request.site
                    self._token.join(site, conn)
                    self._last_frames[site] = None
                    conn.send({"op": "joined", "control": self.control_holder == site})
            elif site is None:
                conn.send({"op": "denied", "error": "not joined"})
            elif site != self.control_holder:
                conn.send({"op": "denied", "error": f"control held by {self.control_holder!r}"})
            elif isinstance(request, _MoveCamera):
                state = _camera_state(request.state)
                if state is None:
                    conn.send({"op": "denied", "error": "malformed camera state"})
                    continue
                self.renderer.camera.apply_state(state)
                conn.send({"op": "camera_ok"})
            elif self._token.pass_to(request.to):
                conn.send({"op": "control_passed"})
            else:
                conn.send({"op": "denied", "error": f"unknown site {request.to!r}"})

    # -- server-side rendering + streaming -----------------------------------------

    def render_and_stream(self):
        """Generator: render the scene once and push a frame to every
        client (delta-compressed per client)."""
        env = self.host.env
        self.renderer.clear()
        self.scene.render_into(self.renderer)
        ntris = self.renderer.primitives_drawn
        yield env.timeout(RENDER_FIXED + RENDER_PER_TRI * ntris)
        frame = self.renderer.fb
        for site, conn in list(self._token.members.items()):
            blob = compress_frame(frame, previous=self._last_frames.get(site))
            self._last_frames[site] = frame.copy()
            try:
                conn.send({"op": "frame", "data": blob}, size=len(blob) + 64)
            except ChannelClosed:
                continue
            self.frames_streamed += 1
            self.bytes_streamed += len(blob)
        return ntris


#: seconds a client waits to connect, and for each reply
CLIENT_TIMEOUT = 10.0


class VizServerClient:
    """A site attached to a shared VizServer session."""

    def __init__(self, host, server_host: str, port: int, site: str) -> None:
        self.host = host
        self.server_host = server_host
        self.port = port
        self.site = site
        self._conn = None
        self.frames_received = 0
        self.has_control = False

    def join(self):
        """Generator -> bool: attach; False if the session denied the join."""
        self._conn = yield from self.host.connect(
            self.server_host, self.port, timeout=CLIENT_TIMEOUT
        )
        self._conn.send({"op": "join", "site": self.site}, size=128)
        reply = yield from self._recv_op({"joined"})
        self.has_control = bool(reply.get("control"))
        return reply.get("op") == "joined"

    def _recv_op(self, ops: set):
        """Generator: next control reply, buffering frames seen meanwhile."""
        while True:
            reply = yield from self._conn.recv(timeout=CLIENT_TIMEOUT)
            if isinstance(reply, dict) and reply.get("op") == "frame":
                self.frames_received += 1
                continue
            if isinstance(reply, dict) and (reply.get("op") in ops or
                                            reply.get("op") == "denied"):
                return reply

    def move_camera(self, camera: Camera):
        """Generator -> bool: steer the shared view (needs control)."""
        if self._conn is None:
            raise VenueError("not joined")
        state = {k: (v.tolist() if hasattr(v, "tolist") else v)
                 for k, v in camera.state().items()}
        self._conn.send({"op": "move_camera", "state": state}, size=256)
        reply = yield from self._recv_op({"camera_ok"})
        return reply.get("op") == "camera_ok"

    def pass_control(self, to_site: str):
        if self._conn is None:
            raise VenueError("not joined")
        self._conn.send({"op": "pass_control", "to": to_site}, size=128)
        reply = yield from self._recv_op({"control_passed"})
        ok = reply.get("op") == "control_passed"
        if ok:
            self.has_control = False
        return ok

    def drain_frames(self) -> int:
        """Count frames already delivered (non-blocking)."""
        if self._conn is None:
            return 0
        while True:
            ok, msg = self._conn.poll()
            if not ok:
                return self.frames_received
            if isinstance(msg, dict) and msg.get("op") == "frame":
                self.frames_received += 1
