"""Scene graph with local replication.

Section 4.2's conclusion is architectural: "typical distributed virtual
environments work with local scene graphs using local graphics hardware
for rendering", with remote participants shown as avatars whose position
updates tolerate latency.  This module provides that local scene graph:
named nodes with transforms and geometry, and a content hash + dirty
tracking so collaborative sessions can sync *parameters* instead of
content.  No row or example draws an avatar, so none is modelled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import ReproError


@dataclass
class Geometry:
    """Renderable geometry: points or triangles.

    ``vertices`` is ``(N, 3)``; ``faces`` indexes triangles.  ``nbytes``
    is what streaming this content over the wire would cost — the
    quantity VizServer avoids shipping.
    """

    kind: str
    vertices: np.ndarray
    faces: Optional[np.ndarray] = None
    colors: Optional[np.ndarray] = None
    base_color: tuple = (200, 200, 255)

    def __post_init__(self) -> None:
        if self.kind not in ("points", "triangles"):
            raise ReproError(f"unknown geometry kind {self.kind!r}")
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        if self.kind == "triangles" and self.faces is None:
            raise ReproError("triangle geometry needs faces")

    @property
    def nbytes(self) -> int:
        total = self.vertices.nbytes
        if self.faces is not None:
            total += self.faces.nbytes
        if self.colors is not None:
            total += self.colors.nbytes
        return total

    def content_hash(self) -> str:
        h = hashlib.sha1()
        h.update(self.kind.encode())
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        if self.faces is not None:
            h.update(np.ascontiguousarray(self.faces).tobytes())
        return h.hexdigest()


class SceneNode:
    """A named node: optional geometry, a translation, children."""

    def __init__(self, name: str, geometry: Optional[Geometry] = None) -> None:
        self.name = name
        self.geometry = geometry
        self.translation = np.zeros(3)
        self.children: list["SceneNode"] = []
        self.visible = True

    def add(self, child: "SceneNode") -> "SceneNode":
        self.children.append(child)
        return child

    def walk(self) -> Iterator["SceneNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class SceneGraph:
    """The local scene: a tree of named content nodes."""

    def __init__(self) -> None:
        self.root = SceneNode("root")
        self._index: dict[str, SceneNode] = {"root": self.root}
        self.version = 0

    def add_node(
        self,
        name: str,
        geometry: Optional[Geometry] = None,
        parent: str = "root",
    ) -> SceneNode:
        if name in self._index:
            raise ReproError(f"duplicate scene node {name!r}")
        if parent not in self._index:
            raise ReproError(f"unknown parent node {parent!r}")
        node = SceneNode(name, geometry)
        self._index[parent].add(node)
        self._index[name] = node
        self.version += 1
        return node

    def set_geometry(self, name: str, geometry: Geometry) -> None:
        node = self.node(name)
        node.geometry = geometry
        self.version += 1

    def node(self, name: str) -> SceneNode:
        try:
            return self._index[name]
        except KeyError:
            raise ReproError(f"unknown scene node {name!r}") from None

    def remove_node(self, name: str) -> None:
        if name == "root":
            raise ReproError("cannot remove the root")
        node = self._index.pop(name, None)
        if node is None:
            raise ReproError(f"unknown scene node {name!r}")
        for candidate in self.root.walk():
            if node in candidate.children:
                candidate.children.remove(node)
                break
        for child in node.walk():
            self._index.pop(child.name, None)
        self.version += 1

    # -- content accounting -----------------------------------------------------

    def total_geometry_bytes(self) -> int:
        """Wire cost of streaming the full scene content (the anti-pattern
        sections 4.2/4.6 argue against for large data)."""
        return sum(
            n.geometry.nbytes
            for n in self.root.walk()
            if n.geometry is not None and n.visible
        )

    def content_hash(self) -> str:
        """Order-independent digest of all node content.

        Two sites whose scene graphs were built from the same synchronized
        parameters must agree on this digest — the FIG4 consistency check.
        """
        digests = sorted(
            f"{n.name}:{n.geometry.content_hash()}"
            for n in self.root.walk()
            if n.geometry is not None
        )
        h = hashlib.sha1()
        for d in digests:
            h.update(d.encode())
        return h.hexdigest()

    def render_into(self, renderer) -> None:
        """Draw all visible geometry."""
        for node in self.root.walk():
            if node.geometry is not None and node.visible:
                renderer.render_geometry(node.geometry)
