"""The Map-editor: COVISE's central user interface, programmatic form.

"This application building step is done in the Map-editor module, the
central user interface of COVISE" (section 4.5).  A :class:`MapEditor`
builds the module network declaratively and hands a configured
:class:`~repro.covise.controller.Controller` back; maps can be serialized
so a collaborative session can replicate the same map on every site.
"""

from __future__ import annotations

from typing import Callable

from repro.covise.controller import Controller
from repro.covise.modules import Module, PipelineError
from repro.covise.stdmodules import (
    CuttingPlaneModule,
    IsoSurfaceModule,
    ReadSim,
    RendererModule,
)

#: module-kind registry for serialized maps
_KINDS: dict[str, type] = {
    "CuttingPlane": CuttingPlaneModule,
    "IsoSurface": IsoSurfaceModule,
    "Renderer": RendererModule,
}


class MapEditor:
    """Build and serialize module networks."""

    def __init__(self, network) -> None:
        self.network = network
        self.controller = Controller(network)
        self._spec: list[dict] = []

    def add(self, kind: str, name: str, host: str, **params) -> Module:
        """Instantiate a registered module kind on a host."""
        cls = _KINDS.get(kind)
        if cls is None:
            raise PipelineError(
                f"unknown module kind {kind!r}; have {sorted(_KINDS)}"
            )
        module = cls(name)
        for key, value in params.items():
            module.set_param(key, value)
        self.controller.add_module(module, host)
        self._spec.append(
            {"op": "add", "kind": kind, "name": name, "host": host,
             "params": dict(params)}
        )
        return module

    def add_source(self, name: str, host: str, source: Callable) -> Module:
        """Sources hold callbacks and are re-bound per site on replication."""
        module = ReadSim(name, source)
        self.controller.add_module(module, host)
        self._spec.append({"op": "source", "name": name, "host": host})
        return module

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> None:
        self.controller.connect(src, src_port, dst, dst_port)
        self._spec.append(
            {"op": "connect", "src": src, "src_port": src_port,
             "dst": dst, "dst_port": dst_port}
        )

    def spec(self) -> list[dict]:
        """Serializable map description (for session replication)."""
        return [dict(s) for s in self._spec]

    @classmethod
    def replicate(
        cls,
        network,
        spec: list[dict],
        host: str,
        sources: dict[str, Callable],
    ) -> "MapEditor":
        """Rebuild a map on a different host (every module placed there).

        ``sources`` maps source-module names to that site's callbacks —
        in a collaborative session each site reads the same simulation
        feed, so the replicated maps produce identical content.
        """
        editor = cls(network)
        for item in spec:
            if item["op"] == "add":
                editor.add(item["kind"], item["name"], host, **item["params"])
            elif item["op"] == "source":
                source = sources.get(item["name"])
                if source is None:
                    raise PipelineError(
                        f"replication needs a source for {item['name']!r}"
                    )
                editor.add_source(item["name"], host, source)
            elif item["op"] == "connect":
                editor.connect(
                    item["src"], item["src_port"], item["dst"], item["dst_port"]
                )
            else:
                raise PipelineError(f"bad map spec entry {item!r}")
        return editor
