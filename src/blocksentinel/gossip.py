"""Header gossip: view exchange riding on ordinary HTTP traffic.

One exchange has three legs: the client states what it has and what it
wants, the server answers with a header payload plus its own wants, and
the client's next request carries the headers the server asked for.  Both
sides push their view through the strongest-chain comparison, so a client
talking to one honest server learns about any stronger chain it has been
cut off from.  `exchange` drives the client side of all three legs over
any transport; the simulator and active polls both run through it.

Two encodings are provided: custom `X-Gossip-*` request/response fields
(payload text-armored in base64 and split into chunks small enough for
common header-size limits) and a compact binary body.  The bundled server
and daemon speak the header fields only; the binary body is a library
codec for clients that may POST freely and wire it into their own
transport.
"""

import base64
import functools
import struct
from dataclasses import dataclass, replace

from . import chainview
from .chainview import ChainComparison, HeaderRange, HeaderWindow
from .errors import (
    InvalidRemote,
    MalformedBody,
    MalformedFields,
    MalformedSegment,
    TooLarge,
)
from .headers import (
    CompactChainSegment,
    compress,
    expand,
    parse_segment,
    serialize_segment,
)

DEFAULT_HEADER_BUDGET = 64 * 1024
ARMOR_CHUNK = 1024

FIELD_ADV = "X-Gossip-Adv"
FIELD_REQ = "X-Gossip-Req"
FIELD_RANGE = "X-Gossip-Range"
FIELD_DATA = "X-Gossip-Data"

BODY_MAGIC = b"GOSHDR01"


class RequestAll:
    """Sentinel: ask for everything the peer holds."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "REQUEST_ALL"


REQUEST_ALL = RequestAll()


@dataclass(frozen=True)
class GossipConfig:
    request_span: int = 72
    expected_growth: int = 12
    header_budget: int = DEFAULT_HEADER_BUDGET

    def __post_init__(self):
        if self.request_span < 1 or self.expected_growth < 0:
            raise ValueError("bad request sizing")
        if self.header_budget < 256:
            raise ValueError("header budget unusably small")


DEFAULT_CONFIG = GossipConfig()


@dataclass(frozen=True)
class GossipMessage:
    """One leg of an exchange.

    `advertised` is the sender's held range (None when it holds nothing),
    `requested` what it wants from the peer, and `payload` a compact
    segment covering exactly `payload_range`.
    """

    advertised: HeaderRange | None = None
    requested: HeaderRange | RequestAll | None = None
    payload: CompactChainSegment | None = None
    payload_range: HeaderRange | None = None

    def __post_init__(self):
        if (self.payload is None) != (self.payload_range is None):
            raise ValueError("payload and payload_range travel together")
        if self.payload is not None and len(self.payload) != self.payload_range.size():
            raise ValueError("payload does not cover payload_range")


@dataclass(frozen=True)
class ExchangeOutcome:
    result: ChainComparison
    fork_height: int | None
    headers_learned: int
    eclipse_suspected: bool
    remote_invalid: bool = False


def client_initiate(window: HeaderWindow, config: GossipConfig = DEFAULT_CONFIG) -> GossipMessage:
    """Open an exchange: advertise the window, request the live suffix.

    A non-empty window asks for the last `request_span` heights plus
    `expected_growth` beyond its tip; an empty window asks for everything.
    """
    span = window.span()
    if span is None:
        return GossipMessage(advertised=None, requested=REQUEST_ALL)
    next_height = span.end + 1
    lo = max(span.beg, next_height - config.request_span)
    return GossipMessage(
        advertised=span,
        requested=HeaderRange(lo, next_height + config.expected_growth),
    )


def _absorb(window: HeaderWindow, msg: GossipMessage) -> tuple[HeaderWindow, ExchangeOutcome]:
    """Validate a message's payload, if any, and merge it into the window.

    The local view fills the client slot of the strongest-chain rule, so
    REMOTE_STRONGER means the remote run won and was adopted.  A tie over
    the comparable range breaks toward the remote when the two views
    disagree and the received run keeps going past the local tip: a tied
    range plus a valid continuation is the stronger chain.  Adopting a run
    that forks below the local tip flags a suspected eclipse, meaning
    someone has been feeding this side a weaker chain.  The window comes
    back unchanged when there is no payload or when it fails validation,
    which `remote_invalid` reports.

    The segment is expanded against the local headers from its start up,
    so only headers the window lacks are built and hashed.  Learned headers
    are counted from the merge without hashing: below the local tip plus
    one, or the fork when the remote run was adopted, the merge keeps the
    local prefix, and every merged header from there on links to a parent
    the local view lacks, so none equals a local header.
    """
    if msg.payload is None:
        return window, ExchangeOutcome(ChainComparison.TIE, None, 0, False)
    start = msg.payload_range.beg
    offset = start - window.start_height
    received = expand(msg.payload, window.headers[offset:] if offset >= 0 else ())
    try:
        matched = chainview.match_views(window, received, start)
    except InvalidRemote:
        return window, ExchangeOutcome(ChainComparison.TIE, None, 0, False, remote_invalid=True)
    fork = matched.fork_height()
    comparison = chainview.find_strongest_chain(matched.local, matched.remote)
    if comparison is ChainComparison.TIE and fork is not None and matched.overhang:
        comparison = ChainComparison.REMOTE_STRONGER
    adopted = comparison is ChainComparison.REMOTE_STRONGER
    merged = chainview.merge_strongest(window, matched, adopt_remote=adopted)
    if window.is_empty():
        learned = len(merged)
    else:
        first = fork if adopted else window.tip_height() + 1
        learned = max(0, merged.tip_height() - max(first, merged.start_height) + 1)
    return merged, ExchangeOutcome(comparison, fork, learned, adopted and fork is not None)


def _armored_size(raw_bytes: int) -> int:
    return 4 * ((raw_bytes + 2) // 3)


def _fit_payload(
    window: HeaderWindow, want, config: GossipConfig
) -> tuple[CompactChainSegment | None, HeaderRange | None]:
    """Newest window slice over `want` whose armored form fits the budget,
    as (payload, payload_range); (None, None) when nothing fits."""
    span = window.span()
    if span is None or want is None:
        return None, None
    overlap = span if want is REQUEST_ALL else want.intersect(span)
    if overlap is None:
        return None, None
    headers = chainview.slice_window(window, overlap)
    beg = overlap.beg
    while headers:
        segment = compress(headers)
        surplus = _armored_size(len(serialize_segment(segment))) - config.header_budget
        if surplus <= 0:
            return segment, HeaderRange(beg, beg + len(headers) - 1)
        # Over budget: drop the oldest surplus, keeping the newest heights.
        drop = max(1, (3 * surplus // 4) // 40)
        headers = headers[drop:]
        beg += drop
    return None, None


@dataclass(frozen=True)
class ServerExchange:
    reply: GossipMessage
    window: HeaderWindow
    headers_accepted: int
    payload_rejected: bool
    comparison: ChainComparison | None


def server_respond(
    window: HeaderWindow, msg: GossipMessage, config: GossipConfig = DEFAULT_CONFIG
) -> ServerExchange:
    """Absorb the client's payload, then answer its request.

    An invalid payload never starves the client: the reply still carries
    the requested slice and the server's own request for whatever the
    client advertised beyond the server's view.
    """
    new_window, outcome = _absorb(window, msg)
    requested = None
    if msg.advertised is not None:
        if new_window.is_empty():
            requested = msg.advertised
        elif msg.advertised.end > new_window.tip_height():
            requested = HeaderRange(new_window.tip_height() + 1, msg.advertised.end)
    payload, payload_range = _fit_payload(new_window, msg.requested, config)
    reply = GossipMessage(new_window.span(), requested, payload, payload_range)
    rejected = outcome.remote_invalid
    comparison = None if msg.payload is None or rejected else outcome.result
    return ServerExchange(reply, new_window, outcome.headers_learned, rejected, comparison)


@dataclass(frozen=True)
class ClientExchange:
    follow_up: GossipMessage | None
    outcome: ExchangeOutcome
    window: HeaderWindow


def client_fulfill(
    window: HeaderWindow, reply: GossipMessage, config: GossipConfig = DEFAULT_CONFIG
) -> ClientExchange:
    """Absorb the server's reply and prepare the headers it asked for.

    The outcome flags a suspected eclipse exactly when the remote view won
    the comparison with a fork below the local tip.
    """
    new_window, outcome = _absorb(window, reply)
    follow_up = None
    payload, payload_range = _fit_payload(new_window, reply.requested, config)
    if payload is not None:
        follow_up = GossipMessage(new_window.span(), None, payload, payload_range)
    return ClientExchange(follow_up, outcome, new_window)


def exchange(
    window: HeaderWindow, send, config: GossipConfig = DEFAULT_CONFIG
) -> tuple[ClientExchange, Exception | None]:
    """Run the client side of one full exchange over `send(message) -> reply`.

    Returns the first reply's ClientExchange, its window advanced by a
    payload-carrying second reply, plus the follow-up leg's exception, if
    any: a failed push never discards what the first reply proved.
    Exceptions from the first leg propagate.
    """
    first = client_fulfill(window, send(client_initiate(window, config)), config)
    window = first.window
    push_error = None
    if first.follow_up is not None:
        try:
            second = send(first.follow_up)
            if second is not None and second.payload is not None:
                window = client_fulfill(window, second, config).window
        except Exception as err:  # noqa: BLE001 - sockets fail in many shapes
            push_error = err
    return replace(first, window=window), push_error


# -- wire encodings ------------------------------------------------------------


def _format_range(value: HeaderRange | None) -> str:
    return "none" if value is None else f"{value.beg}-{value.end}"


def _parse_range(text: str) -> HeaderRange | None:
    text = text.strip()
    if text == "none":
        return None
    beg, sep, end = text.partition("-")
    if not sep:
        raise MalformedFields(f"bad range: {text!r}")
    try:
        return HeaderRange(int(beg), int(end))
    except ValueError as err:
        raise MalformedFields(f"bad range: {text!r}") from err


def encode_header_fields(
    msg: GossipMessage, budget: int = DEFAULT_HEADER_BUDGET
) -> list[tuple[str, str]]:
    """Encode a message as `X-Gossip-*` fields.

    The payload is base64 armored and split into numbered continuation
    fields of at most 1 kB each.  Raises TooLarge when the armored payload
    exceeds `budget` bytes.
    """
    fields = [(FIELD_ADV, _format_range(msg.advertised))]
    if msg.requested is REQUEST_ALL:
        fields.append((FIELD_REQ, "all"))
    elif msg.requested is not None:
        fields.append((FIELD_REQ, _format_range(msg.requested)))
    if msg.payload is not None:
        armored = base64.b64encode(serialize_segment(msg.payload)).decode("ascii")
        if len(armored) > budget:
            raise TooLarge(f"armored payload is {len(armored)} bytes, budget {budget}")
        fields.append((FIELD_RANGE, _format_range(msg.payload_range)))
        for i in range(0, len(armored), ARMOR_CHUNK):
            fields.append(
                (f"{FIELD_DATA}-{i // ARMOR_CHUNK + 1}", armored[i : i + ARMOR_CHUNK])
            )
    return fields


def decode_header_fields(fields) -> GossipMessage | None:
    """Decode `X-Gossip-*` fields; None when the peer speaks no gossip.

    Accepts any (name, value) iterable or mapping; names are matched
    case-insensitively.  Raises MalformedFields or MalformedSegment.
    """
    if hasattr(fields, "items"):
        fields = fields.items()
    table = {str(name).lower(): str(value) for name, value in fields}
    adv_text = table.get(FIELD_ADV.lower())
    if adv_text is None:
        return None
    advertised = _parse_range(adv_text)
    requested = None
    req_text = table.get(FIELD_REQ.lower())
    if req_text is not None:
        requested = REQUEST_ALL if req_text.strip() == "all" else _parse_range(req_text)
        if requested is None:
            raise MalformedFields("requested range cannot be 'none'")
    payload = None
    payload_range = None
    range_text = table.get(FIELD_RANGE.lower())
    if range_text is not None:
        payload_range = _parse_range(range_text)
        if payload_range is None:
            raise MalformedFields("payload range cannot be 'none'")
        chunks = []
        index = 1
        while True:
            chunk = table.get(f"{FIELD_DATA.lower()}-{index}")
            if chunk is None:
                break
            chunks.append(chunk.strip())
            index += 1
        if not chunks:
            raise MalformedFields("payload range without payload data")
        try:
            raw = base64.b64decode("".join(chunks), validate=True)
        except (ValueError, base64.binascii.Error) as err:
            raise MalformedFields("payload is not valid base64") from err
        payload = parse_segment(raw, payload_range.size())
    try:
        return GossipMessage(advertised, requested, payload, payload_range)
    except ValueError as err:
        raise MalformedFields(str(err)) from err


_FLAG_ADV = 0x01
_FLAG_REQ_RANGE = 0x02
_FLAG_REQ_ALL = 0x04
_FLAG_PAYLOAD = 0x08

_RANGE = struct.Struct("<QQ")
_LENGTH = struct.Struct("<I")


def encode_body(msg: GossipMessage) -> bytes:
    """Binary body framing: magic, flag byte, u64 ranges, then the segment."""
    flags = 0
    if msg.advertised is not None:
        flags |= _FLAG_ADV
    if msg.requested is REQUEST_ALL:
        flags |= _FLAG_REQ_ALL
    elif msg.requested is not None:
        flags |= _FLAG_REQ_RANGE
    if msg.payload is not None:
        flags |= _FLAG_PAYLOAD
    parts = [BODY_MAGIC, bytes([flags])]
    if msg.advertised is not None:
        parts.append(_RANGE.pack(msg.advertised.beg, msg.advertised.end))
    if flags & _FLAG_REQ_RANGE:
        parts.append(_RANGE.pack(msg.requested.beg, msg.requested.end))
    if msg.payload is not None:
        raw = serialize_segment(msg.payload)
        parts.append(_RANGE.pack(msg.payload_range.beg, msg.payload_range.end))
        parts.append(_LENGTH.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_body(body: bytes) -> GossipMessage:
    """Parse a binary body; raises MalformedBody on truncation or bad magic."""
    if len(body) < len(BODY_MAGIC) + 1:
        raise MalformedBody("body shorter than its fixed prefix")
    if body[: len(BODY_MAGIC)] != BODY_MAGIC:
        raise MalformedBody("bad magic")
    flags = body[len(BODY_MAGIC)]
    offset = len(BODY_MAGIC) + 1
    known = _FLAG_ADV | _FLAG_REQ_RANGE | _FLAG_REQ_ALL | _FLAG_PAYLOAD
    if flags & ~known or (flags & _FLAG_REQ_RANGE and flags & _FLAG_REQ_ALL):
        raise MalformedBody(f"bad flags: {flags:#04x}")

    def take(layout: struct.Struct):
        nonlocal offset
        if offset + layout.size > len(body):
            raise MalformedBody("truncated body")
        values = layout.unpack_from(body, offset)
        offset += layout.size
        return values

    def take_range() -> HeaderRange:
        try:
            return HeaderRange(*take(_RANGE))
        except ValueError as err:
            raise MalformedBody(str(err)) from err

    advertised = take_range() if flags & _FLAG_ADV else None
    requested = None
    if flags & _FLAG_REQ_ALL:
        requested = REQUEST_ALL
    elif flags & _FLAG_REQ_RANGE:
        requested = take_range()
    payload = payload_range = None
    if flags & _FLAG_PAYLOAD:
        payload_range = take_range()
        (raw_len,) = take(_LENGTH)
        if offset + raw_len > len(body):
            raise MalformedBody("truncated payload bytes")
        raw = body[offset : offset + raw_len]
        offset += raw_len
        try:
            payload = parse_segment(raw, payload_range.size())
        except MalformedSegment as err:
            raise MalformedBody(str(err)) from err
    if offset != len(body):
        raise MalformedBody(f"{len(body) - offset} trailing bytes")
    try:
        return GossipMessage(advertised, requested, payload, payload_range)
    except ValueError as err:
        raise MalformedBody(str(err)) from err


# -- server directory and active polling ---------------------------------------


@dataclass(frozen=True)
class ServerDirectory:
    """Addresses that have answered with well-formed gossip fields."""

    entries: tuple[tuple[str, float], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, address: str) -> bool:
        return any(addr == address for addr, _ in self.entries)

    def addresses(self) -> list[str]:
        return [addr for addr, _ in self.entries]

    def last_confirmed(self, address: str) -> float | None:
        for addr, confirmed in self.entries:
            if addr == address:
                return confirmed
        return None


def record_protocol_server(
    directory: ServerDirectory, address: str, confirmed_at: float
) -> ServerDirectory:
    """Insert or refresh one address, keeping the directory sorted."""
    kept = tuple(entry for entry in directory.entries if entry[0] != address)
    return ServerDirectory(tuple(sorted(kept + ((address, confirmed_at),))))


@dataclass(frozen=True)
class PollReport:
    outcomes: tuple[tuple[str, ExchangeOutcome], ...]
    failures: tuple[tuple[str, str], ...]

    def eclipse_suspected(self) -> bool:
        return any(outcome.eclipse_suspected for _, outcome in self.outcomes)


def active_poll(
    directory: ServerDirectory,
    window: HeaderWindow,
    sample_size: int,
    rng,
    send,
    config: GossipConfig = DEFAULT_CONFIG,
) -> tuple[PollReport, HeaderWindow]:
    """Run full exchanges against a uniform sample of known servers.

    `send(address, message) -> reply message` supplies the transport; a
    transport failure is recorded per server and never aborts the poll.
    """
    population = directory.addresses()
    sample = rng.sample(population, min(sample_size, len(population)))
    outcomes = []
    failures = []
    for address in sample:
        try:
            done, error = exchange(window, functools.partial(send, address), config)
        except Exception as err:  # noqa: BLE001 - sockets fail in many shapes
            error = err
        else:
            window = done.window
            outcomes.append((address, done.outcome))
        if error is not None:
            failures.append((address, f"{type(error).__name__}: {error}"))
    return PollReport(tuple(outcomes), tuple(failures)), window
