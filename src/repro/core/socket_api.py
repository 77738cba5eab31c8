"""Socket-option style interface to the MP-DASH scheduler (§3.2).

The kernel prototype exposes MP-DASH to applications through two socket
options:

* ``MP_DASH_ENABLE`` conveys a data size ``S`` and deadline ``D``; MP-DASH
  is then active for the next ``S`` bytes.
* ``MP_DASH_DISABLE`` deactivates it explicitly.

MP-DASH deactivates on its own when (1) ``S`` bytes have transferred or
(2) the deadline has passed — both handled inside
:class:`~repro.core.scheduler.DeadlineAwareScheduler`.

The second half of the interface lets a DASH adapter read network state the
player cannot see (MPTCP is transparent to applications): the per-path and
aggregate throughput estimates.

:class:`MpDashSocket` binds one scheduler instance to one MPTCP connection
and enforces the user's interface preference by making the preferred path
the connection's primary.
"""

from __future__ import annotations

from typing import Optional

from ..mptcp.connection import MptcpConnection
from ..obs.events import DeadlineDisarmed, new_deadline_armed
from .policy import Preference
from .scheduler import DeadlineAwareScheduler


class MpDashSocket:
    """Application-facing handle combining a connection and the scheduler."""

    def __init__(self, connection: MptcpConnection, preference: Preference,
                 alpha: float = 1.0):
        self.connection = connection
        self.preference = preference
        self.scheduler = DeadlineAwareScheduler(preference, alpha=alpha)
        self._install()

    def _install(self) -> None:
        if self.connection.controller is not None:
            raise RuntimeError(
                "connection already has a path controller installed")
        # Preference enforcement: the preferred interface becomes MPTCP's
        # primary (it carries signaling and is never disabled by MP-DASH).
        primary_name = self.preference.primary
        self.connection.primary = self.connection.subflow(primary_name)
        self.preference.apply_costs(
            [sf.path for sf in self.connection.subflows])
        self.scheduler.bind(self.connection)
        self.connection.controller = self.scheduler

    # ------------------------------------------------------------------
    # The two socket options
    # ------------------------------------------------------------------
    def mp_dash_enable(self, size: float, deadline: float) -> None:
        """Activate MP-DASH for the next ``size`` bytes with window
        ``deadline`` seconds (measured from when the download starts).

        The initial path configuration — preferred interface on, every
        costlier interface off — is signalled immediately: in the kernel the
        decision bit travels with the request itself, so the server starts
        the response with the cellular subflow already skipped (Algorithm 1
        "turns off the cellular subflow at the beginning").
        """
        self.scheduler.arm(size, deadline)
        self.connection.bus.publish(new_deadline_armed(
            self.connection.sim.now, size, deadline))
        for name in self.connection.path_names():
            self.connection.request_path_state(
                name, name == self.preference.primary)

    def mp_dash_disable(self) -> None:
        """Explicitly deactivate MP-DASH; MPTCP reverts to vanilla behaviour
        with every interface available (the scheduler's ``disarm`` restores
        every path on the bound connection)."""
        self.connection.bus.publish(
            DeadlineDisarmed(self.connection.sim.now))
        self.scheduler.disarm()

    def close(self) -> None:
        """Unbind the scheduler once the session is over.

        The connection keeps the scheduler as its controller (so its
        counters stay readable); only the scheduler's pointer back to the
        connection, which made the pair a reference cycle, is dropped.
        """
        self.scheduler.bind(None)

    @property
    def active(self) -> bool:
        return self.scheduler.active

    # ------------------------------------------------------------------
    # Cross-layer reads for the DASH adapter
    # ------------------------------------------------------------------
    def aggregate_throughput(self) -> Optional[float]:
        """Estimated combined throughput of all paths (bytes/second)."""
        return self.connection.aggregate_throughput_estimate()

    def __repr__(self) -> str:
        return (f"<MpDashSocket pref={self.preference.order} "
                f"active={self.active}>")
