"""Spans and counts around the package's public functions, from outside it.

`Tracer.install()` swaps each target for a wrapper everywhere the package
holds it: module attributes, every `from ... import` copy in another module
(`chainview.block_hash`, `gossip.expand`, `sim.hash_int`, ...) and class
attributes for methods.  `uninstall()` puts the originals back.

Three wrapper kinds keep memory bounded:

- span: records (id, name, start, end, parent, exchange id) in memory;
- leaf: for functions called hundreds of times per exchange
  (`block_hash`); only a count and total time are kept, and the time is
  charged to the enclosing span so its self time stays right;
- count: a call count only.
"""

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter

import measure

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (metric name, module, attribute path, wrapper kind)
TARGETS = (
    ("headers.sha256d", "headers", "sha256d", COUNT),
    ("headers.encode_wire", "headers", "encode_wire", COUNT),
    ("headers.block_hash", "headers", "block_hash", LEAF),
    ("headers.check_pow", "headers", "check_pow", COUNT),
    ("headers.target_from_nbits", "headers", "target_from_nbits", COUNT),
    ("headers.expand", "headers", "expand", SPAN),
    ("headers.compress", "headers", "compress", SPAN),
    ("headers.serialize_segment", "headers", "serialize_segment", SPAN),
    ("headers.parse_segment", "headers", "parse_segment", SPAN),
    ("chainview.append", "chainview", "append", SPAN),
    ("chainview.match_views", "chainview", "match_views", SPAN),
    ("chainview.merge_strongest", "chainview", "merge_strongest", SPAN),
    ("chainview.find_strongest_chain", "chainview", "find_strongest_chain", SPAN),
    ("chainview.weight", "chainview", "weight", SPAN),
    ("chainview.MatchedViews.fork_height", "chainview", "MatchedViews.fork_height", COUNT),
    ("gossip.client_initiate", "gossip", "client_initiate", SPAN),
    ("gossip.server_respond", "gossip", "server_respond", SPAN),
    ("gossip.client_fulfill", "gossip", "client_fulfill", SPAN),
    ("gossip.encode_header_fields", "gossip", "encode_header_fields", SPAN),
    ("gossip.decode_header_fields", "gossip", "decode_header_fields", SPAN),
    ("service.ClientDaemon.active_check", "service", "ClientDaemon.active_check", SPAN),
    ("service.http_send", "service", "http_send", SPAN),
    ("service.GossipMiddleware.call", "service", "GossipMiddleware.__call__", SPAN),
    ("service.ServerState.exchange", "service", "ServerState.exchange", SPAN),
    ("service.ServerState.status", "service", "ServerState.status", SPAN),
    ("service.ServerHandle.close", "service", "ServerHandle.close", SPAN),
    ("alerts.observe_block", "alerts", "observe_block", SPAN),
    ("alerts.evaluate", "alerts", "evaluate", SPAN),
    ("alerts.waiting_time_quantile", "alerts", "waiting_time_quantile", SPAN),
    ("alerts.prob_at_most_n_blocks", "alerts", "prob_at_most_n_blocks", COUNT),
    ("alerts.attacker_escape_probability", "alerts", "attacker_escape_probability", SPAN),
    ("sim.run_scenario", "sim", "run_scenario", SPAN),
    ("sim.mine_header", "sim", "mine_header", SPAN),
    ("metrics.read_trace_csv", "metrics", "read_trace_csv", SPAN),
    ("metrics.coverage", "metrics", "coverage", SPAN),
    ("metrics.aadt", "metrics", "aadt", SPAN),
    ("metrics.freshness", "metrics", "freshness", SPAN),
    ("metrics.freshness_ci", "metrics", "freshness_ci", SPAN),
    ("metrics.assign_tiers", "metrics", "assign_tiers", SPAN),
    ("cli.main", "cli", "main", SPAN),
)

PACKAGE = "blocksentinel"
MODULES = ("headers", "chainview", "alerts", "gossip", "service", "sim", "metrics", "cli")


def _observe_server_respond(events, args, result):
    msg = args[1]
    if msg.payload is not None:
        events["gossip.headers_sent"] += len(msg.payload)
    if result.reply.payload is not None:
        events["gossip.headers_sent"] += len(result.reply.payload)
    events["gossip.headers_learned"] += result.headers_accepted
    events["gossip.remote_invalid"] += int(result.payload_rejected)


def _observe_client_fulfill(events, args, result):
    events["gossip.headers_learned"] += result.outcome.headers_learned
    events["gossip.remote_invalid"] += int(result.outcome.remote_invalid)


def _observe_run_scenario(events, args, result):
    events["sim.events"] += len(result.events)
    events["sim.connects"] += len(result.trace.records)


def _observe_http_send_error(events, error):
    from blocksentinel.errors import InvalidPayload

    if isinstance(error, InvalidPayload):
        events["service.gossip_dropped"] += 1


OBSERVERS = {
    "gossip.server_respond": _observe_server_respond,
    "gossip.client_fulfill": _observe_client_fulfill,
    "sim.run_scenario": _observe_run_scenario,
}
ERROR_OBSERVERS = {"service.http_send": _observe_http_send_error}


class _ThreadState:
    def __init__(self):
        self.stack: list[tuple[int, int]] = []
        self.xid = 0
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.charged: Counter = Counter()


class Tracer:
    """Collects spans and counts while installed; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._restore: list[tuple] = []
        self._cleared_misses = 0
        self._misses_at_install = 0
        self._quantile = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            self._states.append(state)
        return state

    def set_exchange(self, xid: int) -> None:
        """Tag the spans this thread opens from now on with exchange `xid`."""
        self._state().xid = xid

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name, fn):
        spans, ids, state_of = self.spans, self._ids, self._state
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        observe_error = ERROR_OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            state.calls[name] += 1
            stack = state.stack
            parent, xid = stack[-1] if stack else (0, state.xid)
            span_id = next(ids)
            stack.append((span_id, xid or span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                if observe_error is not None:
                    observe_error(state.events, error)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, xid or span_id))
            if observe is not None:
                observe(state.events, args, result)
            return result

        return wrapper

    def _wrap_leaf(self, name, fn):
        state_of = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state.calls[name] += 1
                state.leaf_ns[name] += elapsed
                if state.stack:
                    state.charged[state.stack[-1][0]] += elapsed

        return wrapper

    def _wrap_count(self, name, fn):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state_of().calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; each `from ... import` copy is rebound too."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
        ]
        make = {SPAN: self._wrap_span, LEAF: self._wrap_leaf, COUNT: self._wrap_count}
        for name, module_name, path, kind in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = make[kind](name, original)
            if hasattr(original, "cache_info"):
                self._quantile = original
                wrapper.cache_info = original.cache_info
                wrapper.cache_clear = self._clear_quantile_cache
            if classes:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        if self._quantile is not None:
            self._misses_at_install = self._quantile.cache_info().misses

    def _clear_quantile_cache(self) -> None:
        self._cleared_misses += self._quantile.cache_info().misses
        self._quantile.cache_clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def quantile_misses(self) -> int:
        if self._quantile is None:
            return 0
        current = self._quantile.cache_info().misses
        return self._cleared_misses + current - self._misses_at_install

    def table(self) -> dict:
        """Per-name calls, self and total time (ns), and derived event counts."""
        calls: Counter = Counter()
        events: Counter = Counter()
        self_ns: Counter = Counter()
        charged: Counter = Counter()
        for state in self._states:
            calls.update(state.calls)
            events.update(state.events)
            self_ns.update(state.leaf_ns)
            charged.update(state.charged)
        total_ns: Counter = Counter(self_ns)
        names = {}
        rows = []
        for span_id, name, start, end, parent, _ in self.spans:
            names[span_id] = name
            rows.append((span_id, start, end, parent))
            total_ns[name] += end - start
        for span_id, value in measure.self_times(rows, charged).items():
            self_ns[names[span_id]] += value
        events["alerts.waiting_time_quantile.misses"] += self.quantile_misses()
        return {"calls": dict(calls), "self_ns": dict(self_ns), "total_ns": dict(total_ns),
                "events": dict(events)}

    def write_spans(self, path) -> None:
        """Write every stored span as one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, xid in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "xid": xid}
                    )
                    + "\n"
                )


def merge_tables(*tables) -> dict:
    merged = {"calls": Counter(), "self_ns": Counter(), "total_ns": Counter(), "events": Counter()}
    for table in tables:
        for key in merged:
            merged[key].update(table[key])
    return {key: dict(value) for key, value in merged.items()}
