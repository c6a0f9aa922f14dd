"""The UNICORE client: build, submit, monitor jobs through the gateway.

All operations are stateless transactions over the (single) gateway
connection — "a client can appear or vanish at any time" (section 3.3) —
which is exactly the property the VISIT extension's polling proxy-client
has to bridge.
"""

from __future__ import annotations


from repro.errors import TimeoutExpired, UnicoreError
from repro.unicore.ajo import AbstractJobObject
from repro.unicore.njs import JobStatus
from repro.unicore.security import UserIdentity


#: seconds a client waits to connect, and for each gateway reply
REQUEST_TIMEOUT = 30.0


class UnicoreClient:
    """A user's client session against one gateway."""

    def __init__(
        self, host, identity: UserIdentity, gateway_host: str, gateway_port: int
    ) -> None:
        self.host = host
        self.identity = identity
        self.gateway_host = gateway_host
        self.gateway_port = gateway_port
        self._conn = None
        self.authenticated = False

    # -- session --------------------------------------------------------------

    def connect(self):
        """Generator -> bool: open + authenticate the gateway session."""
        conn = yield from self.host.connect(
            self.gateway_host, self.gateway_port, timeout=REQUEST_TIMEOUT
        )
        conn.send(
            {"op": "auth", "certificate": self.identity.certificate.__dict__}
        )
        reply = yield from conn.recv(timeout=REQUEST_TIMEOUT)
        if not reply.get("ok"):
            conn.close()
            raise UnicoreError(f"sign-on failed: {reply.get('error')}")
        self._conn = conn
        self.authenticated = True
        return True

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None
        self.authenticated = False

    def request(self, msg: dict):
        """Generator -> reply dict: one authenticated transaction."""
        if not self.authenticated or self._conn is None or self._conn.closed:
            raise UnicoreError("client is not connected; call connect() first")
        self._conn.send(msg)
        reply = yield from self._conn.recv(timeout=REQUEST_TIMEOUT)
        return reply

    # -- job operations ------------------------------------------------------------

    def consign(self, ajo: AbstractJobObject):
        """Generator -> job_id."""
        wire = ajo.to_wire()
        reply = yield from self.request(
            {"op": "consign", "vsite": ajo.vsite, "ajo": wire}
        )
        if not reply.get("ok"):
            raise UnicoreError(f"consignment rejected: {reply.get('error')}")
        return reply["job_id"]

    def status(self, vsite: str, job_id: str):
        """Generator -> (JobStatus, task states dict)."""
        reply = yield from self.request(
            {"op": "status", "vsite": vsite, "job_id": job_id}
        )
        if not reply.get("ok"):
            raise UnicoreError(f"status failed: {reply.get('error')}")
        return JobStatus(reply["status"]), reply["tasks"]

    def retrieve(self, vsite: str, job_id: str, filename: str):
        """Generator -> bytes of the outcome file."""
        reply = yield from self.request(
            {"op": "retrieve", "vsite": vsite, "job_id": job_id, "filename": filename}
        )
        if not reply.get("ok"):
            raise UnicoreError(f"retrieve failed: {reply.get('error')}")
        return reply["data"]

    def wait_for(self, vsite: str, job_id: str, poll_interval: float = 1.0,
                 timeout: float = 600.0):
        """Generator -> JobStatus: poll until the job leaves RUNNING/QUEUED."""
        env = self.host.env
        deadline = env.now + timeout
        while True:
            status, _tasks = yield from self.status(vsite, job_id)
            if status in (JobStatus.SUCCESSFUL, JobStatus.FAILED):
                return status
            if env.now >= deadline:
                raise TimeoutExpired(
                    f"job {job_id} still {status.value} after {timeout}s"
                )
            yield env.timeout(poll_interval)
