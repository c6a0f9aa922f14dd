"""The master token's rules, as a property against a naive list model.

:class:`~repro.visit.token.MasterToken` is the one rule behind the
vbroker, the UNICORE VISIT proxy and the shared VizServer session
(paper section 3.3): the first joiner holds the token; it passes only to
a member; a departing holder's token goes to the earliest remaining
member; the last leave empties the session.  ``handovers`` counts the
passes and the promotions, not the first join, and a re-join re-binds a
member's record without changing its place.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.visit.token import MasterToken

NAMES = "abcd"
OPS = st.lists(st.tuples(st.sampled_from(["join", "leave", "pass"]), st.sampled_from(NAMES)),
               max_size=40)


class ListModel:
    """The same rules over a plain list of ``(name, record)`` pairs."""

    def __init__(self):
        self.members = []
        self.holder = None
        self.handovers = 0

    def names(self):
        return [name for name, _ in self.members]

    def join(self, name, record):
        if name in self.names():
            self.members[self.names().index(name)] = (name, record)
        else:
            self.members.append((name, record))
        if self.holder is None:
            self.holder = name

    def leave(self, name):
        if name not in self.names():
            return None
        _, record = self.members.pop(self.names().index(name))
        if self.holder == name:
            self.holder = self.members[0][0] if self.members else None
            if self.holder is not None:
                self.handovers += 1
        return record

    def pass_to(self, name):
        if name not in self.names():
            return False
        self.holder = name
        self.handovers += 1
        return True


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_master_token_follows_the_list_model(ops):
    token, model = MasterToken(), ListModel()
    for step, (op, name) in enumerate(ops):
        if op == "join":
            token.join(name, step)
            model.join(name, step)
        elif op == "leave":
            assert token.leave(name) == model.leave(name)
        else:
            before = token.holder
            moved = token.pass_to(name)
            assert moved == model.pass_to(name)
            if not moved:
                assert token.holder == before
        assert list(token.members.items()) == model.members
        assert token.holder == model.holder
        assert token.handovers == model.handovers
        assert (token.holder is None) == (not token.members)

