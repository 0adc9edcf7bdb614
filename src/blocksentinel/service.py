"""Deployable endpoints: gossip middleware, a tiny server, a client daemon.

The server side is a WSGI middleware any handler chain can mount.  It
answers piggybacked header-gossip fields on ordinary responses, serves a
JSON status page, and leaves every non-gossip request byte-identical to
what the wrapped application produced.  The client side is a daemon that
splices gossip fields into outgoing requests, digests the replies,
polls known servers on demand, and runs the timestamp alert engine.
"""

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, replace
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from . import alerts, chainview, gossip
from .chainview import DEFAULT_CAPACITY, HeaderWindow
from .errors import ConfigInvalid, InvalidPayload, SentinelError
from .headers import BlockHeader, hash_hex

STATUS_PATH = "/gossip/status"
STATUS_VERSION = "v1"


class ServerState:
    """One shared strongest-view window behind one lock.

    Each exchange computes its reply and commits the new window under the
    lock, so concurrent exchanges run one at a time and none is redone.
    """

    def __init__(self, window: HeaderWindow | None = None, clock=time.time):
        self._lock = threading.Lock()
        self._window = HeaderWindow() if window is None else window
        self._clock = clock
        self._exchanges = 0
        self._accepted = 0
        self._rejected = 0
        self._last_update: float | None = None

    def window(self) -> HeaderWindow:
        with self._lock:
            return self._window

    def exchange(
        self, msg: gossip.GossipMessage, config: gossip.GossipConfig = gossip.DEFAULT_CONFIG
    ) -> gossip.GossipMessage:
        """Serve one client message, atomically folding its payload in."""
        with self._lock:
            result = gossip.server_respond(self._window, msg, config)
            self._window = result.window
            self._exchanges += 1
            self._accepted += result.headers_accepted
            if result.payload_rejected and msg.payload is not None:
                self._rejected += len(msg.payload)
            if result.headers_accepted:
                self._last_update = self._clock()
        return result.reply

    def status(self) -> dict:
        """JSON-ready snapshot for the status endpoint."""
        with self._lock:
            window = self._window
            stats = {
                "exchanges": self._exchanges,
                "headersAccepted": self._accepted,
                "headersRejected": self._rejected,
                "lastUpdateTime": self._last_update,
            }
        empty = window.is_empty()
        return {
            "version": STATUS_VERSION,
            "tipHeight": None if empty else window.tip_height(),
            "tipHash": None if empty else hash_hex(window.tip()),
            "weight": None if empty else chainview.weight(window.headers),
            "lastUpdateTime": stats["lastUpdateTime"],
            "stats": stats,
        }


def _gossip_request_fields(environ) -> list[tuple[str, str]]:
    fields = []
    for key, value in environ.items():
        if key.startswith("HTTP_X_GOSSIP"):
            fields.append((key[5:].replace("_", "-"), value))
    return fields


class GossipMiddleware:
    """WSGI wrapper that answers gossip fields alongside any application.

    Requests without gossip fields flow through untouched.  A malformed or
    oversized exchange is dropped silently: the wrapped application's
    response must never depend on gossip health.
    """

    def __init__(self, app, state: ServerState, config: gossip.GossipConfig = gossip.DEFAULT_CONFIG):
        self.app = app
        self.state = state
        self.config = config

    def __call__(self, environ, start_response):
        if environ.get("PATH_INFO") == STATUS_PATH:
            body = json.dumps(self.state.status()).encode()
            start_response(
                "200 OK",
                [("Content-Type", "application/json"), ("Content-Length", str(len(body)))],
            )
            return [body]
        extra: list[tuple[str, str]] = []
        try:
            msg = gossip.decode_header_fields(
                _gossip_request_fields(environ), self.config.header_budget
            )
            if msg is not None:
                reply = self.state.exchange(msg, self.config)
                extra = gossip.encode_header_fields(reply, self.config.header_budget)
        except SentinelError:
            extra = []

        def _start(status, headers, exc_info=None):
            return start_response(status, list(headers) + extra, exc_info)

        return self.app(environ, _start)


def _default_app(environ, start_response):
    body = b"ok\n"
    start_response(
        "200 OK", [("Content-Type", "text/plain"), ("Content-Length", str(len(body)))]
    )
    return [body]


class _ThreadedServer(ThreadingMixIn, WSGIServer):
    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


@dataclass
class ServerHandle:
    """A running gossip server; close() stops it and releases the port."""

    state: ServerState
    host: str
    port: int
    _httpd: WSGIServer
    _thread: threading.Thread

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()


def serve(
    host: str = "127.0.0.1", port: int = 0, app=None, initial_window: HeaderWindow | None = None
) -> ServerHandle:
    """Start a threaded gossip server; port 0 picks a free port."""
    state = ServerState(initial_window)
    wrapped = GossipMiddleware(app if app is not None else _default_app, state)
    httpd = make_server(host, port, wrapped, server_class=_ThreadedServer, handler_class=_QuietHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return ServerHandle(state, host, httpd.server_address[1], httpd, thread)


def http_send(
    address: str, msg: gossip.GossipMessage, timeout: float = 10.0, path: str = "/"
) -> gossip.GossipMessage:
    """One gossip round-trip over HTTP request/response header fields."""
    host, _, port = address.partition(":")
    conn = http.client.HTTPConnection(host, int(port) if port else 80, timeout=timeout)
    try:
        conn.request("GET", path, headers=dict(gossip.encode_header_fields(msg)))
        response = conn.getresponse()
        response.read()
        reply = gossip.decode_header_fields(response.getheaders())
    finally:
        conn.close()
    if reply is None:
        raise InvalidPayload(f"{address} answered without gossip fields")
    return reply


@dataclass(frozen=True)
class ClientDaemonConfig:
    window_capacity: int = DEFAULT_CAPACITY
    confirmations: int = 6
    active_sample_size: int = 3
    inactivity_alert_hours: float = 8.0
    servers: tuple[str, ...] = ()

    def __post_init__(self):
        positive = (
            self.window_capacity,
            self.confirmations,
            self.active_sample_size,
            self.inactivity_alert_hours,
        )
        if any(value <= 0 for value in positive):
            raise ConfigInvalid("daemon settings must be positive")

    @classmethod
    def from_file(cls, path) -> "ClientDaemonConfig":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as err:
            raise ConfigInvalid(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigInvalid(f"config is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise ConfigInvalid("config must hold a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        if "servers" in data:
            servers = data["servers"]
            if not isinstance(servers, list) or not all(isinstance(s, str) for s in servers):
                raise ConfigInvalid("servers must be a JSON list of address strings")
            data["servers"] = tuple(servers)
        try:
            return cls(**data)
        except TypeError as err:
            raise ConfigInvalid(str(err)) from err


@dataclass(frozen=True)
class DaemonAlert:
    time: float
    kind: str
    detail: str


class ClientDaemon:
    """Client-side state machine: passive splicing, active polls, alerts.

    Times are unix seconds; the alert engine runs on the same clock
    scaled to minutes, so header timestamps slot in directly.
    """

    def __init__(
        self,
        config: ClientDaemonConfig,
        transport=http_send,
        clock=time.time,
        rng: random.Random | None = None,
    ):
        self.config = config
        self.transport = transport
        self.clock = clock
        self.rng = rng if rng is not None else random.Random()
        self.window = HeaderWindow(capacity=config.window_capacity)
        self.alert_state = alerts.AlertState(confirmations=config.confirmations)
        # Address -> last time it answered with well-formed gossip fields.
        self.directory: dict[str, float] = dict.fromkeys(config.servers, 0.0)
        self.alert_log: list[DaemonAlert] = []
        self.last_view_update: float = clock()
        self._pending: dict[str, gossip.GossipMessage] = {}
        self._standing: set = set()
        self._lock = threading.RLock()

    # -- passive leg -----------------------------------------------------------

    def outgoing_fields(self, address: str) -> list[tuple[str, str]]:
        """Gossip fields to splice into the next request toward `address`."""
        with self._lock:
            msg = gossip.client_initiate(self.window)
            pending = self._pending.pop(address, None)
            if pending is not None and pending.payload is not None:
                msg = replace(
                    msg, payload=pending.payload, payload_range=pending.payload_range
                )
            return gossip.encode_header_fields(msg)

    def ingest_response(self, address: str, fields) -> gossip.ExchangeOutcome | None:
        """Digest response fields from `address`; None if it spoke no gossip."""
        try:
            msg = gossip.decode_header_fields(fields)
        except SentinelError:
            return None
        if msg is None:
            return None
        now = self.clock()
        with self._lock:
            pre = self.window
            exchange = gossip.client_fulfill(self.window, msg)
            self.window = exchange.window
            self.directory[address] = now
            if exchange.follow_up is not None:
                self._pending[address] = exchange.follow_up
            self._digest_view_change(pre, [(address, exchange.outcome)], now)
            return exchange.outcome

    # -- active leg ------------------------------------------------------------

    def active_check(self, now: float | None = None) -> gossip.PollReport:
        """Poll a sample of known servers before trusting a balance."""
        now = self.clock() if now is None else now
        with self._lock:
            pre = self.window
            report, self.window = gossip.active_poll(
                self.directory,
                self.window,
                self.config.active_sample_size,
                self.rng,
                self.transport,
            )
            self._digest_view_change(pre, report.outcomes, now)
            return report

    # -- local feed and clock --------------------------------------------------

    def observe_network_block(self, header: BlockHeader, height: int, now: float | None = None):
        """Record a header from the wallet's own network feed."""
        now = self.clock() if now is None else now
        with self._lock:
            self.window = chainview.append(self.window, header, height)
            self.alert_state = alerts.observe_block(
                self.alert_state, header.timestamp / 60.0, now / 60.0
            )
            self.last_view_update = now
            self._standing.clear()

    def tick(self, now: float | None = None) -> list[DaemonAlert]:
        """Evaluate timestamp and staleness alerts; returns new ones."""
        now = self.clock() if now is None else now
        with self._lock:
            before = len(self.alert_log)
            assessment = alerts.evaluate(self.alert_state, now / 60.0)
            for kind, level in (("type1", assessment.type1), ("type2", assessment.type2)):
                if level >= alerts.AlertLevel.YELLOW and (kind, level) not in self._standing:
                    self._standing.add((kind, level))
                    self._raise_alert(now, kind, f"{level.name.lower()} timestamp alert")
            stale_seconds = self.config.inactivity_alert_hours * 3600.0
            if now - self.last_view_update > stale_seconds and "stale" not in self._standing:
                self._standing.add("stale")
                hours = (now - self.last_view_update) / 3600.0
                self._raise_alert(now, "stale", f"no view update for {hours:.2f} hours")
            return self.alert_log[before:]

    def status(self) -> dict:
        with self._lock:
            empty = self.window.is_empty()
            return {
                "tipHeight": None if empty else self.window.tip_height(),
                "tipHash": None if empty else hash_hex(self.window.tip()),
                "knownServers": len(self.directory),
                "lastViewUpdate": self.last_view_update,
                "alerts": len(self.alert_log),
            }

    def _digest_view_change(self, pre: HeaderWindow, outcomes, now: float):
        """Feed adopted headers to the alert engine and raise eclipse alerts.

        `outcomes` holds the (address, ExchangeOutcome) pairs of one ingest
        or poll that moved the window from `pre` to its current state.
        """
        if sum(outcome.headers_learned for _, outcome in outcomes) > 0:
            self.last_view_update = now
            self._standing.clear()
            for header in chainview.headers_above(pre, self.window):
                self.alert_state = alerts.observe_block(
                    self.alert_state, header.timestamp / 60.0, now / 60.0
                )
        for address, outcome in outcomes:
            if outcome.eclipse_suspected:
                self._raise_alert(
                    now,
                    "eclipse",
                    f"{address} proved a stronger chain forking at height "
                    f"{outcome.fork_height}",
                )

    def _raise_alert(self, now: float, kind: str, detail: str):
        self.alert_log.append(DaemonAlert(now, kind, detail))


@dataclass
class DaemonHandle:
    """A ticking daemon; close() stops the background clock."""

    daemon: ClientDaemon
    _stop: threading.Event
    _thread: threading.Thread

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def run_client_daemon(
    config: ClientDaemonConfig, tick_seconds: float = 60.0, rng: random.Random | None = None
) -> DaemonHandle:
    """Start a daemon whose alert engine ticks on a background thread."""
    daemon = ClientDaemon(config, rng=rng)
    stop = threading.Event()

    def _loop():
        while not stop.wait(tick_seconds):
            daemon.tick()

    thread = threading.Thread(target=_loop, daemon=True)
    thread.start()
    return DaemonHandle(daemon, stop, thread)
