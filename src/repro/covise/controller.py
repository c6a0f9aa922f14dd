"""The central COVISE controller.

"Session management for adding new hosts and synchronizing the tasks in
the module network is done in a central controller which has the only
knowledge about the whole application topology" (section 4.5).

The controller places modules on hosts, wires ports, and executes the
network in dependency order.  When an edge crosses hosts, the request
broker ships the data object (costing link time); local edges hand the
object over through the shared data space for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.covise.crb import RequestBroker
from repro.covise.datamgr import SharedDataSpace
from repro.covise.modules import Module, PipelineError


@dataclass(frozen=True)
class _Edge:
    src_module: str
    src_port: str
    dst_module: str
    dst_port: str


class Controller:
    """Owns one module network (a COVISE "map")."""

    def __init__(self, network) -> None:
        self.network = network
        self._placement: dict[str, str] = {}  # module name -> host name
        self._modules: dict[str, Module] = {}
        self._edges: list[_Edge] = []
        self.spaces: dict[str, SharedDataSpace] = {}
        self.crb = RequestBroker(network, self.spaces)
        #: (module name, port) -> data object name from the last execution
        self.last_outputs: dict[tuple[str, str], str] = {}
        self.executions = 0

    # -- topology ------------------------------------------------------------

    def add_module(self, module: Module, host_name: str) -> Module:
        if module.name in self._modules:
            raise PipelineError(f"duplicate module name {module.name!r}")
        self.network.host(host_name)  # validates existence
        self._modules[module.name] = module
        self._placement[module.name] = host_name
        if host_name not in self.spaces:
            self.spaces[host_name] = SharedDataSpace(host_name)
        return module

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> None:
        src_mod = self._module(src)
        dst_mod = self._module(dst)
        if src_port not in src_mod.OUTPUT_PORTS:
            raise PipelineError(f"{src!r} has no output port {src_port!r}")
        if dst_port not in dst_mod.INPUT_PORTS:
            raise PipelineError(f"{dst!r} has no input port {dst_port!r}")
        for e in self._edges:
            if e.dst_module == dst and e.dst_port == dst_port:
                raise PipelineError(
                    f"input port {dst}.{dst_port} is already connected"
                )
        self._edges.append(_Edge(src, src_port, dst, dst_port))

    def _module(self, name: str) -> Module:
        mod = self._modules.get(name)
        if mod is None:
            raise PipelineError(f"unknown module {name!r}")
        return mod

    def topology_order(self) -> list[str]:
        """Dependency order of the module network."""
        deps: dict[str, set[str]] = {name: set() for name in self._modules}
        for e in self._edges:
            deps[e.dst_module].add(e.src_module)
        order: list[str] = []
        done: set[str] = set()
        while deps:
            ready = sorted(n for n, d in deps.items() if d <= done)
            if not ready:
                raise PipelineError(f"cycle among modules {sorted(deps)}")
            for n in ready:
                order.append(n)
                done.add(n)
                del deps[n]
        return order

    # -- execution -----------------------------------------------------------------

    def execute(self):
        """Generator: run the whole map once; resolves to per-module
        output object names.

        The returned dict maps ``(module, port)`` to the data object name
        in the producing host's shared data space.
        """
        env = self.network.env
        for name in self.topology_order():
            module = self._module(name)
            host_name = self._placement[name]
            sds = self.spaces[host_name]
            inputs = {}
            for e in self._edges:
                if e.dst_module != name:
                    continue
                key = (e.src_module, e.src_port)
                obj_name = self.last_outputs.get(key)
                if obj_name is None:
                    raise PipelineError(
                        f"{name!r} needs {key} but it was never produced"
                    )
                src_host = self._placement[e.src_module]
                obj = yield from self.crb.transfer(obj_name, src_host, host_name)
                inputs[e.dst_port] = obj
            yield env.timeout(module.cost(inputs))
            outputs = module.execute(inputs, sds)
            for port, obj in outputs.items():
                if not sds.exists(obj.name):
                    sds.put(obj, creator=name)
                self.last_outputs[(name, port)] = obj.name
        self.executions += 1
        return dict(self.last_outputs)

    def output_object(self, module: str, port: str):
        """The data object produced at (module, port) in the last run."""
        key = (module, port)
        obj_name = self.last_outputs.get(key)
        if obj_name is None:
            raise PipelineError(f"no output recorded for {key}")
        return self.spaces[self._placement[module]].get(obj_name)
