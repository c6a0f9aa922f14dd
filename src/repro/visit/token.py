"""The master token of a collaborative session (section 3.3).

"Receive-requests are only sent to a 'master' visualization ... The
master-role can be moved".  Three sessions apply this one rule: the
vbroker (:class:`~repro.visit.vbroker.VBroker`), the UNICORE extension's
VISIT proxy (:class:`~repro.unicore.visit_ext.VisitProxyServer`) and the
shared VizServer session
(:class:`~repro.accessgrid.vizserver.VizServerSession`).
"""

from __future__ import annotations

from typing import Any, Optional


class MasterToken:
    """The members of a session, in join order, and who holds the token.

    The first joiner holds it; it passes only to a member; when the
    holder leaves, the earliest remaining member gets it.  ``members``
    maps each name to the caller's per-member record; read it, but join
    and leave through the token.
    """

    __slots__ = ("members", "_holder", "handovers")

    def __init__(self) -> None:
        self.members: dict[str, Any] = {}
        self._holder: Optional[str] = None
        #: moves after the first join: passes, and promotions when a holder leaves
        self.handovers = 0

    @property
    def holder(self) -> Optional[str]:
        return self._holder

    def join(self, name: str, member: Any) -> None:
        """Add (or re-bind) ``name``; the first member takes the token."""
        self.members[name] = member
        if self._holder is None:
            self._holder = name

    def leave(self, name: str) -> Any:
        """Remove ``name`` and return its record (None if not a member);
        a departing holder's token goes to the earliest remaining member."""
        member = self.members.pop(name, None)
        if self._holder == name:
            self._holder = next(iter(self.members), None)
            if self._holder is not None:
                self.handovers += 1
        return member

    def pass_to(self, name: str) -> bool:
        """Hand the token to ``name``; False (and no move) for a non-member."""
        if name not in self.members:
            return False
        self._holder = name
        self.handovers += 1
        return True
