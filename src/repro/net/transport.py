"""Simulated TCP-like transport.

Ports, listeners, bidirectional connections, per-message latency, and
— crucially for fault injection — *connection reset on process death*:
when the process owning one end of a connection dies, the other end's
pending and future receives complete with :data:`RESET`.  A hung server
produces the other client-visible symptom: receives that time out.

The API is generator-based like everything above the simulation kernel:

    conn = yield from transport.connect(80, timeout=5.0)
    transport.send(conn, Side.CLIENT, request)
    reply = yield from transport.recv(conn, Side.CLIENT, timeout=15.0)
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Optional

from ..sim import TIMED_OUT, FifoQueue, Sleep, Wait

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nt.machine import Machine
    from ..nt.process_manager import NTProcess


class _Reset:
    """Singleton sentinel delivered on a reset connection."""

    _instance: Optional["_Reset"] = None

    def __new__(cls) -> "_Reset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "RESET"

    def __bool__(self) -> bool:
        return False


RESET = _Reset()


def _server_role(connection: "Connection") -> Optional[str]:
    """Role owning the server side of a connection — the identity an
    I/O fault on the transport is scoped by (faults target the
    workload's server role, so only its connections degrade)."""
    owner = connection._server_owner
    return owner.role if owner is not None else None


class Side(enum.Enum):
    CLIENT = "client"
    SERVER = "server"

    @property
    def peer(self) -> "Side":
        return Side.SERVER if self is Side.CLIENT else Side.CLIENT


class Connection:
    """One established connection; each side has an inbox.

    Per-side state lives in plain attributes selected with an ``is``
    test rather than ``Side``-keyed dicts: a loaded run makes hundreds
    of thousands of side lookups, and each dict access hashes the enum
    member.
    """

    _ids = itertools.count(1)

    __slots__ = ("conn_id", "port", "open",
                 "_client_inbox", "_server_inbox",
                 "_client_owner", "_server_owner",
                 "_client_closed", "_server_closed")

    def __init__(self, port: int):
        self.conn_id = next(self._ids)
        self.port = port
        self.open = True
        self._client_inbox = FifoQueue()
        self._server_inbox = FifoQueue()
        self._client_owner: Optional["NTProcess"] = None
        self._server_owner: Optional["NTProcess"] = None
        self._client_closed = False
        self._server_closed = False

    def inbox(self, side: Side) -> FifoQueue:
        return (self._client_inbox if side is Side.CLIENT
                else self._server_inbox)

    def bind(self, side: Side, process: Optional["NTProcess"]) -> None:
        if side is Side.CLIENT:
            self._client_owner = process
        else:
            self._server_owner = process

    def owner(self, side: Side) -> Optional["NTProcess"]:
        return (self._client_owner if side is Side.CLIENT
                else self._server_owner)

    def close(self, side: Side) -> None:
        """Graceful close from one side.

        The sim protocol has no separate FIN/EOF: the peer's pending and
        future receives complete with RESET, which every server's
        per-connection loop already treats as end-of-conversation.
        Unlike :meth:`reset`, the closing side is recorded, so the
        end-of-run hygiene check can tell a deliberate close from a
        connection dropped on the floor.
        """
        if side is Side.CLIENT:
            if self._client_closed:
                return
            self._client_closed = True
            peer_inbox = self._server_inbox
        else:
            if self._server_closed:
                return
            self._server_closed = True
            peer_inbox = self._client_inbox
        if self.open:
            self.open = False
            peer_inbox.put(RESET)

    def reset(self) -> None:
        """Tear the connection down; both inboxes drain as RESET."""
        if not self.open:
            return
        self.open = False
        self._client_inbox.put(RESET)
        self._server_inbox.put(RESET)

    def __repr__(self) -> str:
        state = "open" if self.open else "reset"
        return f"<Connection #{self.conn_id} :{self.port} {state}>"


class ConnectionLeak:
    """One client-side connection dropped without a close.

    Recorded when a process exits *of its own accord* (not killed by
    the harness or middleware, not crashed by injection) while still
    owning the client side of an open connection it never closed.
    """

    __slots__ = ("conn_id", "port", "role", "image_name", "pid")

    def __init__(self, conn_id: int, port: int, role: str,
                 image_name: str, pid: int):
        self.conn_id = conn_id
        self.port = port
        self.role = role
        self.image_name = image_name
        self.pid = pid

    def __repr__(self) -> str:
        return (f"<ConnectionLeak #{self.conn_id} :{self.port} "
                f"by {self.image_name} pid={self.pid} role={self.role}>")


class ConnectionLeakError(RuntimeError):
    """A simulated client finished while leaking open connections."""

    def __init__(self, leaks: list[ConnectionLeak]):
        self.leaks = leaks
        detail = ", ".join(repr(leak) for leak in leaks[:5])
        if len(leaks) > 5:
            detail += f", ... ({len(leaks)} total)"
        super().__init__(
            f"{len(leaks)} client connection(s) never closed: {detail}")


class Listener:
    """A passive socket bound to a port."""

    def __init__(self, port: int, owner: "NTProcess"):
        self.port = port
        self.owner = owner
        self.open = True
        self.backlog = FifoQueue(f"listen:{port}")

    def close(self) -> None:
        self.open = False

    def __repr__(self) -> str:
        return f"<Listener :{self.port} {'open' if self.open else 'closed'}>"


class Transport:
    """Machine-wide network fabric."""

    def __init__(self, machine: "Machine", latency: float = 0.05):
        self.machine = machine
        self.latency = latency
        self._listeners: dict[int, Listener] = {}
        self._connections: list[Connection] = []
        self.client_leaks: list[ConnectionLeak] = []
        # Sleep commands are immutable, so every connect reuses one
        # instance instead of allocating per dial.
        self._latency_sleep = Sleep(latency)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def listen(self, port: int, owner: "NTProcess") -> Optional[Listener]:
        """Bind a port; rebinding replaces a dead owner's listener.

        Returns None when the port is held by a live process (the
        bind-failure a restarted server hits while its predecessor
        still lingers).
        """
        existing = self._listeners.get(port)
        if existing is not None and existing.open and existing.owner.alive:
            return None
        listener = Listener(port, owner)
        self._listeners[port] = listener
        return listener

    def is_listening(self, port: int) -> bool:
        listener = self._listeners.get(port)
        return listener is not None and listener.open and listener.owner.alive

    def accept(self, listener: Listener, timeout: Optional[float] = None):
        """Wait for an inbound connection; TIMED_OUT or RESET on failure."""
        if not listener.open:
            return RESET
        event = listener.backlog.get_event()
        result = yield Wait(event, timeout=timeout)
        if result is TIMED_OUT:
            event.succeed(TIMED_OUT)  # poison so a later put skips it
            return TIMED_OUT
        return result

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def connect(self, port: int, client: "NTProcess",
                timeout: Optional[float] = None):
        """Dial a port.  Returns a Connection, or None when refused."""
        yield self._latency_sleep
        listener = self._listeners.get(port)
        if listener is None or not listener.open or not listener.owner.alive:
            return None  # connection refused
        fault = self.machine.pressure.net
        if fault is not None and fault.affects_net("net.connect",
                                                   listener.owner.role):
            if fault.mode == "delay":
                yield Sleep(fault.value)
                fault.record_impact()
            else:  # ECONNREFUSED: the listener's host path is down
                fault.record_impact()
                return None
        connection = Connection(port)
        connection.bind(Side.CLIENT, client)
        connection.bind(Side.SERVER, listener.owner)
        self._connections.append(connection)
        listener.backlog.put(connection)
        return connection

    # ------------------------------------------------------------------
    # Data exchange
    # ------------------------------------------------------------------
    def send(self, connection: Connection, sender: Side, message: Any) -> bool:
        """Queue a message for the peer; delivered after the latency."""
        if not connection.open:
            return False
        latency = self.latency
        fault = self.machine.pressure.net
        if fault is not None and fault.affects_net(
                "net.send", _server_role(connection)):
            if fault.mode == "delay":
                latency += fault.value
                fault.record_impact()
            else:  # ECONNRESET: the segment bounces, tearing the pipe
                fault.record_impact()
                connection.reset()
                return False
        peer = Side.SERVER if sender is Side.CLIENT else Side.CLIENT
        self.machine.engine.schedule(
            latency, self._deliver, connection, peer, message,
        )
        return True

    def _deliver(self, connection: Connection, to: Side, message: Any) -> None:
        if connection.open:
            inbox = (connection._client_inbox if to is Side.CLIENT
                     else connection._server_inbox)
            inbox.put(message)

    def recv(self, connection: Connection, side: Side,
             timeout: Optional[float] = None):
        """Wait for the next message; TIMED_OUT or RESET on failure."""
        fault = self.machine.pressure.net
        if fault is not None and connection.open and fault.affects_net(
                "net.recv", _server_role(connection)):
            if fault.mode == "delay":
                yield Sleep(fault.value)
                fault.record_impact()
            else:  # ECONNRESET: the wait completes with a torn pipe
                fault.record_impact()
                connection.reset()
        inbox = (connection._client_inbox if side is Side.CLIENT
                 else connection._server_inbox)
        if not connection.open:
            ok, item = inbox.try_get()
            return item if ok else RESET
        event = inbox.get_event()
        result = yield Wait(event, timeout=timeout)
        if result is TIMED_OUT:
            event.succeed(TIMED_OUT)  # poison: a later put must skip it
            return TIMED_OUT
        return result

    def close(self, connection: Connection, side: Side) -> None:
        """Gracefully close one side of a connection.

        Clients must call this on every path out of a request exchange
        (success, timeout, reset, bad reply); the end-of-run hygiene
        check flags connections whose client side was never closed.
        """
        connection.close(side)

    def _delay(self):
        yield self._latency_sleep

    # ------------------------------------------------------------------
    # Process-death integration
    # ------------------------------------------------------------------
    def on_process_exit(self, process: "NTProcess") -> None:
        """Close listeners and reset connections owned by a dead process.

        A process that *finished on its own* (was not killed externally
        and did not crash) while still owning the client side of an open
        connection has leaked it — real sockets linger exactly this way
        — and the leak is recorded for the end-of-run hygiene check.
        External kills and crashes are the fault model at work, not
        client bugs, so they reset silently.
        """
        voluntary = (not process.crashed
                     and not getattr(process, "terminated_externally", False))
        for listener in self._listeners.values():
            if listener.owner is process:
                listener.close()
        # The scan doubles as a pruning pass: connections found closed
        # are dropped from the list, keeping each exit O(open) instead
        # of O(every connection ever dialled) — at 100 clients the
        # difference is the whole scan.
        remaining = []
        for connection in self._connections:
            if not connection.open:
                continue
            if (connection._client_owner is process
                    or connection._server_owner is process):
                if (voluntary
                        and connection._client_owner is process
                        and not connection._client_closed):
                    self.client_leaks.append(ConnectionLeak(
                        connection.conn_id, connection.port, process.role,
                        process.image_name, process.pid))
                connection.reset()
            else:
                remaining.append(connection)
        self._connections = remaining

    def handoff(self, connection: Connection, side: Side,
                process: "NTProcess") -> None:
        """Rebind one side of a connection to another process (a master
        handing an accepted connection to its worker)."""
        connection.bind(side, process)

    @property
    def open_connections(self) -> int:
        return sum(1 for c in self._connections if c.open)
