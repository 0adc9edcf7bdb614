"""Sliding window of validated headers and the strongest-chain comparison.

The window is an immutable value: every operation returns a new window.
Weight comparisons follow the rule that a SMALLER sum of per-header targets
means more expected work, hence a stronger chain.  Every header enters a
window through `validate_run`: `append` for one local header, `match_views`
for a received run.  `merge_strongest` takes only what `match_views`
returned and checks just the seams where it joins the window.
"""

import enum
from dataclasses import dataclass

from .errors import HeightGap, InvalidRemote, LinkMismatch, PowInvalid, RangeMismatch
from .headers import BlockHeader, block_hash, check_pow, target_from_nbits

DEFAULT_CAPACITY = 2016


@dataclass(frozen=True)
class HeaderRange:
    """Inclusive height interval [beg, end]."""

    beg: int
    end: int

    def __post_init__(self):
        if self.beg > self.end:
            raise ValueError(f"empty range: [{self.beg}, {self.end}]")

    def size(self) -> int:
        return self.end - self.beg + 1

    def contains(self, height: int) -> bool:
        return self.beg <= height <= self.end

    def intersect(self, other: "HeaderRange | None") -> "HeaderRange | None":
        if other is None:
            return None
        beg = max(self.beg, other.beg)
        end = min(self.end, other.end)
        return HeaderRange(beg, end) if beg <= end else None


@dataclass(frozen=True)
class HeaderWindow:
    """Fixed-capacity FIFO of consecutive validated headers.

    `headers[i]` sits at height `start_height + i`.  The first header ever
    accepted anchors the height numbering; the caller chooses whether that
    anchor is a network height or a local index.
    """

    capacity: int = DEFAULT_CAPACITY
    start_height: int = 0
    headers: tuple[BlockHeader, ...] = ()

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if len(self.headers) > self.capacity:
            raise ValueError("window over capacity")

    def __len__(self) -> int:
        return len(self.headers)

    def is_empty(self) -> bool:
        return not self.headers

    def span(self) -> HeaderRange | None:
        if not self.headers:
            return None
        return HeaderRange(self.start_height, self.start_height + len(self.headers) - 1)

    def tip_height(self) -> int:
        if not self.headers:
            raise ValueError("empty window has no tip")
        return self.start_height + len(self.headers) - 1

    def tip(self) -> BlockHeader:
        if not self.headers:
            raise ValueError("empty window has no tip")
        return self.headers[-1]

    def get(self, height: int) -> BlockHeader:
        span = self.span()
        if span is None or not span.contains(height):
            raise KeyError(height)
        return self.headers[height - self.start_height]


def validate_run(headers, height: int, below: BlockHeader | None = None) -> None:
    """Check a run of headers, the first at `height`, before it enters a window.

    Each header must link to the one before it, the first to `below` when
    given, and meet its own proof-of-work target.  Raises LinkMismatch or
    PowInvalid naming the height.
    """
    for i, header in enumerate(headers):
        if below is not None and header.prev_hash != block_hash(below):
            raise LinkMismatch(f"height {height + i} does not link to height {height + i - 1}")
        if not check_pow(header):
            raise PowInvalid(f"hash above target at height {height + i}")
        below = header


def append(window: HeaderWindow, header: BlockHeader, height: int) -> HeaderWindow:
    """Validate and append one header, evicting the oldest when full.

    An empty window accepts any valid-PoW header as its anchor.  Raises
    HeightGap, LinkMismatch, or PowInvalid.
    """
    if window.headers and height != window.tip_height() + 1:
        raise HeightGap(f"expected height {window.tip_height() + 1}, got {height}")
    validate_run((header,), height, window.headers[-1] if window.headers else None)
    return _fitted(window.capacity, height - len(window.headers), window.headers + (header,))


def _fitted(capacity: int, start: int, headers: tuple) -> HeaderWindow:
    """Window of `headers` from height `start`, oldest evicted past capacity."""
    drop = max(0, len(headers) - capacity)
    return HeaderWindow(capacity, start + drop, headers[drop:])


def slice_window(window: HeaderWindow, want: HeaderRange) -> list[BlockHeader]:
    """Headers of the window whose heights fall inside `want`."""
    overlap = want.intersect(window.span())
    if overlap is None:
        return []
    lo = overlap.beg - window.start_height
    return list(window.headers[lo : lo + overlap.size()])


def headers_above(pre: HeaderWindow, post: HeaderWindow) -> list[BlockHeader]:
    """Headers `post` holds above the tip of `pre`, oldest first.

    Empty when either window is empty or the tip did not advance; this is
    what a view change adds for the alert engine to observe.
    """
    if pre.is_empty() or post.is_empty() or post.tip_height() <= pre.tip_height():
        return []
    return slice_window(post, HeaderRange(pre.tip_height() + 1, post.tip_height()))


def weight(view) -> int:
    """Sum of per-header targets; smaller means more expected work."""
    return sum(target_from_nbits(h.n_bits) for h in view)


class ChainComparison(enum.Enum):
    """Strongest-chain verdict; the client is the local side of an exchange."""

    TIE = "tie"
    LOCAL_STRONGER = "local_stronger"
    REMOTE_STRONGER = "remote_stronger"
    CLIENT_STRONGER = LOCAL_STRONGER
    SERVER_STRONGER = REMOTE_STRONGER


def find_strongest_chain(client_view, server_view) -> ChainComparison:
    """Compare two views that cover the same height range.

    The stronger view is the one with the smaller cumulative target.
    Raises RangeMismatch when the views differ in length.
    """
    client_view = list(client_view)
    server_view = list(server_view)
    if len(client_view) != len(server_view):
        raise RangeMismatch(
            f"views cover {len(client_view)} vs {len(server_view)} headers"
        )
    client_weight = weight(client_view)
    server_weight = weight(server_view)
    if client_weight > server_weight:
        return ChainComparison.SERVER_STRONGER
    if client_weight < server_weight:
        return ChainComparison.CLIENT_STRONGER
    return ChainComparison.TIE


@dataclass(frozen=True)
class MatchedViews:
    """Comparable slices of a local window and a received header run.

    `local` and `remote` cover the same heights starting at `start`;
    `overhang` holds the received headers right above that range, at
    `start + len(remote)`, kept aside for the merge step.  With nothing
    comparable, `start` is the height just above the local tip, or the
    received start for an empty window.
    """

    start: int
    local: tuple[BlockHeader, ...]
    remote: tuple[BlockHeader, ...]
    overhang: tuple[BlockHeader, ...]

    def fork_height(self) -> int | None:
        """First comparable height where the two views disagree."""
        for i, (ours, theirs) in enumerate(zip(self.local, self.remote)):
            if ours is not theirs and ours != theirs:
                return self.start + i
        return None


def match_views(
    window: HeaderWindow, received, received_start: int
) -> MatchedViews:
    """Split received headers into a comparable slice and an overhang.

    The received run must be internally hash-linked with valid proof of
    work (InvalidRemote otherwise).  A leading run of the very objects the
    window holds at those heights was validated on entry, so checks start
    at the first header that is not, with its link to the one before it.
    Heights shared with the window become the comparable views, and the
    received headers right above them become the overhang, which only the
    merge that follows the strongest-chain decision considers.  Headers no
    merge could keep, below the window or past a height gap above its tip,
    are left out.
    """
    received = tuple(received)
    beg = window.start_height if window.headers else received_start
    held = window.headers[received_start - beg :] if received_start >= beg else ()
    skip = 0
    # Identity, not equality: comparing headers would hash them.
    while skip < min(len(held), len(received)) and received[skip] is held[skip]:
        skip += 1
    below = received[skip - 1] if skip else None
    try:
        validate_run(received[skip:], received_start + skip, below)
    except (LinkMismatch, PowInvalid) as err:
        raise InvalidRemote(f"received run: {err}") from err
    after = beg + len(window.headers)
    lo = max(beg, received_start)
    hi = min(after, received_start + len(received))
    # Nothing shared, and the run does not start at the next height.
    if lo > hi or (lo == hi and received_start != after):
        return MatchedViews(after, (), (), ())
    return MatchedViews(
        lo,
        window.headers[lo - beg : hi - beg],
        received[lo - received_start : hi - received_start],
        received[hi - received_start :],
    )


def merge_strongest(
    window: HeaderWindow, matched: MatchedViews, adopt_remote: bool
) -> HeaderWindow:
    """Fold an exchange's result back into the window.

    `matched` must come from `match_views` on this window, which validated
    every received header, so only the two seams are checked here.  When
    `adopt_remote` is set the local suffix from the first divergent height
    on is replaced by the remote headers; if the first of them does not
    link to the kept prefix, the divergence sits deeper than the received
    range and the window re-anchors on the remote run.  The overhang is
    then appended when it sits at the next height and links to the new
    tip; otherwise it is dropped silently.  The operation is idempotent.
    """
    start, headers = window.start_height, window.headers
    fork = matched.fork_height()
    if adopt_remote and fork is not None:
        kept = headers[: fork - start]
        adopted = matched.remote[fork - matched.start :]
        if kept and adopted[0].prev_hash != block_hash(kept[-1]):
            kept = ()
        start, headers = fork - len(kept), kept + adopted
    at, overhang = matched.start + len(matched.remote), matched.overhang
    if overhang and (
        not headers
        or (at == start + len(headers) and overhang[0].prev_hash == block_hash(headers[-1]))
    ):
        start, headers = at - len(headers), headers + overhang
    return _fitted(window.capacity, start, headers)
