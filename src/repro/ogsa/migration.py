"""Grid-service migration between containers.

Section 2.4: "RealityGrid is developing the ability to migrate both
computation and visualization within a session without any disturbance or
intervention on the part of the participating clients."

This module migrates the *service* side: a deployed instance moves to
another container, and the handle resolver is re-pointed so clients that
resolve the same GSH find the new location.  Clients holding an open
connection to the old container re-resolve on their next bind — the
GSH/GSR indirection is exactly what makes this safe.  A lost compute
host is answered by relaunching the session instead (``retry`` in
:mod:`repro.chaos.recovery`): a session's length is its op schedule, so
a relaunch from step 0 costs it no time.
"""

from __future__ import annotations

from repro.errors import OgsaError, ServiceNotFound
from repro.ogsa.container import OgsiLiteContainer
from repro.ogsa.handles import GridServiceHandle, HandleResolver


def migrate_service(
    service_id: str,
    source: OgsiLiteContainer,
    target: OgsiLiteContainer,
    resolver: HandleResolver,
) -> GridServiceHandle:
    """Move a deployed service instance to another container.

    The instance object itself moves (state intact: service data,
    pending pumps keep their links); the source container stops serving
    it and the resolver is re-bound to the target's address.  Returns the
    (unchanged) handle.

    Raises :class:`ServiceNotFound` if the source does not host the
    service, :class:`OgsaError` if the target already hosts one with the
    same id.  On failure the source keeps the service — migration must
    never lose the instance.
    """
    service = source.service(service_id)  # raises ServiceNotFound
    if service_id in target.deployed():
        raise OgsaError(
            f"target container already hosts a service {service_id!r}"
        )
    if target.dead:
        # The target site died mid-migration: abort before any mutation
        # so the source keeps serving.  (A never-started container is
        # fine — object-level wiring precedes start() in several flows.)
        raise OgsaError(
            f"target container {target.authority!r} is down; "
            f"migration of {service_id!r} aborted, source keeps it"
        )

    handle = GridServiceHandle(source.authority, service_id)
    # Deploy on the target first; only then withdraw from the source.
    target._services[service_id] = service
    remaining = service.termination_time - source.host.env.now
    service._container = target
    service.termination_time = target.host.env.now + max(0.0, remaining)
    source.undeploy(service_id)

    try:
        resolver.rebind(handle, target.host.name, target.port)
    except ServiceNotFound:
        # Handle was never bound under the source authority (e.g. the
        # service was found via a registry entry that used the target
        # authority); bind fresh.
        from repro.ogsa.handles import GridServiceReference

        resolver.bind(
            GridServiceReference(handle, target.host.name, target.port,
                                 tuple(service.interface()))
        )
    return handle
