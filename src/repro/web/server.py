"""Webservers: virtual hosting edges and dedicated servers.

Cloud platforms front many resources with shared edge servers that
route by ``Host`` header (Figure 14).  The edge answers ping and
accepts TCP on 80/443 for *every* name pointed at it — live or
released — which is why transport probes overestimate liveness
(Section 2).  A request for an unrouted host gets the provider's
characteristic 404 page instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from repro.web.http import HttpRequest, HttpResponse, provider_404
from repro.web.site import Site


@runtime_checkable
class WebHost(Protocol):
    """A network host that also speaks HTTP and may hold certificates."""

    def responds_to_icmp(self) -> bool:
        ...

    def open_tcp_ports(self) -> frozenset:
        ...

    def serve(self, request: HttpRequest) -> HttpResponse:
        ...

    def certificate_for(self, host: str):
        ...


class VirtualHostServer:
    """A shared edge server routing requests by hostname.

    Parameters
    ----------
    provider_name:
        Used in the provider 404 body, the takeover-scanner fingerprint.
    icmp:
        Whether the edge answers ping (some cloud frontends drop ICMP,
        producing the paper's ICMP under-measurement).
    default_site:
        If set, requests for unknown hosts fall through to this site —
        the dedicated-VM behaviour, where the single tenant answers any
        Host header.
    """

    STANDARD_PORTS = frozenset({80, 443})

    def __init__(
        self,
        provider_name: str,
        icmp: bool = True,
        default_site: Optional[Site] = None,
        fault_plan=None,
        journal=None,
    ):
        self.provider_name = provider_name
        #: Optional :class:`repro.sim.revisions.RevisionJournal`; when
        #: set, (un)routing a hostname bumps ``("web", hostname)`` so
        #: the weekly sweep notices edge routing changes.
        self.journal = journal
        #: The address this server is bound at, set by whoever binds it.
        self.ip: Optional[str] = None
        self._icmp = icmp
        self._routes: Dict[str, Site] = {}
        self._certificates: Dict[str, object] = {}
        self._default_site = default_site
        #: Optional :class:`repro.faults.FaultPlan` (duck-typed): when
        #: set, the edge occasionally answers with transient 503/429
        #: pages — overload and rate-limiting, regardless of routing.
        self.fault_plan = fault_plan

    # -- net.Host protocol -----------------------------------------------------

    def responds_to_icmp(self) -> bool:
        return self._icmp

    def open_tcp_ports(self) -> frozenset:
        return self.STANDARD_PORTS

    # -- routing -----------------------------------------------------------------

    def route(self, hostname: str, site: Site) -> None:
        """Direct requests for ``hostname`` to ``site``."""
        key = hostname.lower()
        self._routes[key] = site
        if self.journal is not None:
            self.journal.bump("web", key)

    def unroute(self, hostname: str) -> None:
        """Remove the route for ``hostname`` (missing routes are an error)."""
        key = hostname.lower()
        if key not in self._routes:
            raise KeyError(hostname)
        del self._routes[key]
        self._certificates.pop(key, None)
        if self.journal is not None:
            self.journal.bump("web", key)

    def routed_hosts(self) -> list:
        """All hostnames with routes, sorted."""
        return sorted(self._routes)

    def site_for(self, hostname: str) -> Optional[Site]:
        """The site serving ``hostname``, if any."""
        return self._routes.get(hostname.lower(), self._default_site)

    # -- TLS -------------------------------------------------------------------------

    def install_certificate(self, hostname: str, certificate: object) -> None:
        """Attach a certificate presented for TLS requests to ``hostname``."""
        self._certificates[hostname.lower()] = certificate

    def certificate_for(self, hostname: str) -> Optional[object]:
        """The installed certificate for ``hostname``, or ``None``."""
        return self._certificates.get(hostname.lower())

    # -- HTTP -------------------------------------------------------------------------

    def serve(self, request: HttpRequest) -> HttpResponse:
        """Route the request by Host header; unknown hosts get the 404 page."""
        if self.fault_plan is not None:
            fault = self.fault_plan.http_fault(self.provider_name, request.host)
            if fault == "503":
                return HttpResponse(
                    status=503,
                    body="503 Service Unavailable (transient edge overload)",
                    content_type="text/plain",
                    headers={"X-Provider": self.provider_name, "Retry-After": "2"},
                )
            if fault == "429":
                return HttpResponse(
                    status=429,
                    body="429 Too Many Requests",
                    content_type="text/plain",
                    headers={"X-Provider": self.provider_name, "Retry-After": "60"},
                )
        site = self.site_for(request.host)
        if site is None:
            return provider_404(self.provider_name, resource_hint=request.host)
        return site.handle(request)


def dedicated_server(
    provider_name: str, site: Site, icmp: bool = True, fault_plan=None, journal=None
) -> VirtualHostServer:
    """A single-tenant server (cloud VM): every Host header hits ``site``."""
    return VirtualHostServer(
        provider_name, icmp=icmp, default_site=site, fault_plan=fault_plan,
        journal=journal,
    )
