"""UNICORE security model: certificates and single sign-on.

Section 3.1 promises "single sign-on with strong authentication and
encryption".  We model X.509-style certificates as signed (issuer,
subject) pairs; a Gateway trusts a set of issuer CAs and rejects
everything else.  Actual cryptography is out of scope — what matters for
the reproduction is *where* authentication happens (only at the gateway,
once) and what gets through.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AuthenticationError


@dataclass(frozen=True)
class Certificate:
    """A toy X.509: subject identity signed by an issuer CA."""

    subject: str
    issuer: str
    serial: int = 1
    revoked: bool = False

    def check_valid(self) -> None:
        if self.revoked:
            raise AuthenticationError(f"certificate of {self.subject!r} is revoked")


@dataclass(frozen=True)
class UserIdentity:
    """A user with a certificate and the login they map to on targets.

    UNICORE maps the grid identity to site-local accounts (the "xlogin");
    the NJS performs that mapping during incarnation.
    """

    certificate: Certificate
    xlogin: str


class TrustStore:
    """The set of CA issuers a gateway/NJS accepts."""

    def __init__(self, trusted_issuers: set[str] | None = None) -> None:
        self.trusted_issuers = set(trusted_issuers or ())

    def authenticate(self, cert: Certificate) -> str:
        """Returns the authenticated subject or raises."""
        cert.check_valid()
        if cert.issuer not in self.trusted_issuers:
            raise AuthenticationError(
                f"issuer {cert.issuer!r} is not trusted by this gateway"
            )
        return cert.subject
