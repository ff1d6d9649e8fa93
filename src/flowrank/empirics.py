"""Empirical influence estimation from broadcast activity logs.

The pipeline mirrors how influence is measured on real
submission/rebroadcast data over a follower graph: ingest an event log,
drop robotic items by activity entropy, estimate each submitter's local
influence (follower rebroadcasts early in an item's life) or global
influence (triggered cascade size), screen local estimates against a
hypergeometric chance model, and correlate the surviving cohort's
influence with centrality scores.

Graph semantics: an edge (a, b) means "a follows b", so broadcasts by u
reach the in-neighbors of u, and the accounts u follows are its
out-neighbors. User ids in logs are graph node ids.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .centrality import sweep
from .dynamics import cascade_rounds
from .errors import InputFormatError, NumericalError, ParameterError
from .graph import DirectedGraph, _digit_fields, _line_blocks
from .rng import SLOT_EDGE_BASE, mix64_array, stream_value, trial_base, unit_float

MODES = ("digg", "twitter")
EVENT_LOG_HEADER = ("item_id", "user_id", "timestamp", "kind")

_HEADER_LINE = ",".join(EVENT_LOG_HEADER).encode()
_ROW_SEPS = np.frombuffer(b",,,\n", dtype=np.uint8)
# kinds as little-endian 64-bit words: the top 6 bytes of the word that
# ends `submit`, and the words that start and end `rebroadcast`
_SUBMIT_TOP, _REBROADC, _ROADCAST = (np.uint64(int.from_bytes(w, "little"))
                                     for w in (b"submit", b"rebroadc", b"roadcast"))
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)   # keep r bytes
_INT64_MAX = 2**63 - 1
_MAX_GAP_EXP = 16.0     # synthetic timestamp gaps are log-uniform below 2**_MAX_GAP_EXP


@dataclass(frozen=True)
class ItemEvents:
    """One item's history: the submit event plus sorted rebroadcasts.

    rebroadcast_users/rebroadcast_times are parallel arrays ordered by
    (timestamp, user_id); the submit event is stored apart so windowed
    counts are unambiguous.
    """

    item_id: str
    submitter: int
    submit_time: int
    rebroadcast_users: np.ndarray
    rebroadcast_times: np.ndarray


class EventLog:
    """Validated per-item event records in first-seen item order."""

    def __init__(self, items, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.mode = mode
        self._items: dict[str, ItemEvents] = {}
        for item in items:
            if item.item_id in self._items:
                raise ValueError(f"duplicate item {item.item_id!r}")
            self._items[item.item_id] = item

    def __len__(self) -> int:
        return len(self._items)

    def item_ids(self) -> list[str]:
        return list(self._items)

    def get(self, item_id: str) -> ItemEvents:
        try:
            return self._items[item_id]
        except KeyError:
            raise ValueError(f"unknown item {item_id!r}") from None

    def items(self):
        return self._items.values()

    def user_ids(self) -> np.ndarray:
        """Distinct user ids appearing anywhere in the log, ascending."""
        return np.unique(self._event_users())

    def _event_users(self) -> np.ndarray:
        # every event's user id, submitters first, unsorted and with repeats
        parts = [np.asarray([it.submitter for it in self._items.values()], dtype=np.int64)]
        parts.extend(it.rebroadcast_users for it in self._items.values())
        return np.concatenate(parts)

    def restrict(self, item_ids) -> "EventLog":
        """Sub-log with only the given items, in original log order."""
        keep = set(item_ids)
        return EventLog((it for it in self._items.values() if it.item_id in keep), self.mode)


class _LogBuilder:
    # Incremental validation shared by from_records and the CSV reader.
    def __init__(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.mode = mode
        self.order: list[str] = []
        self.submit: dict[str, tuple[int, int]] = {}
        self.events: dict[str, list[tuple[int, int]]] = {}
        self.last_time: dict[str, int] = {}
        self.seen_users: dict[str, set[int]] = {}

    def add(self, item_id: str, user_id: int, timestamp: int, kind: str) -> None:
        if kind not in ("submit", "rebroadcast"):
            raise ValueError(f"unknown kind {kind!r}")
        if user_id < 0:
            raise ValueError("negative user id")
        if user_id > _INT64_MAX or not -_INT64_MAX - 1 <= timestamp <= _INT64_MAX:
            raise ValueError("user id and timestamp must fit in int64")
        if kind == "submit":
            if item_id in self.submit:
                raise ValueError(f"second submit for item {item_id!r}")
            self.order.append(item_id)
            self.submit[item_id] = (user_id, timestamp)
            self.events[item_id] = []
            self.last_time[item_id] = timestamp
            self.seen_users[item_id] = {user_id}
            return
        if item_id not in self.submit:
            raise ValueError(f"rebroadcast before submit for item {item_id!r}")
        if timestamp < self.last_time[item_id]:
            raise ValueError(f"timestamps decrease within item {item_id!r}")
        if self.mode == "digg" and user_id in self.seen_users[item_id]:
            raise ValueError(f"duplicate vote by user {user_id} on item {item_id!r}")
        self.seen_users[item_id].add(user_id)
        self.last_time[item_id] = timestamp
        self.events[item_id].append((user_id, timestamp))

    def build(self) -> EventLog:
        items = []
        for item_id in self.order:
            submitter, t0 = self.submit[item_id]
            ev = self.events[item_id]
            users = np.asarray([u for u, _ in ev], dtype=np.int64)
            times = np.asarray([t for _, t in ev], dtype=np.int64)
            order = np.lexsort((users, times))
            items.append(ItemEvents(item_id=item_id, submitter=submitter, submit_time=t0,
                                    rebroadcast_users=users[order],
                                    rebroadcast_times=times[order]))
        return EventLog(items, self.mode)


def from_records(records, mode: str = "digg") -> EventLog:
    """Build a log from (item_id, user_id, timestamp, kind) tuples."""
    builder = _LogBuilder(mode)
    for item_id, user_id, timestamp, kind in records:
        builder.add(str(item_id), int(user_id), int(timestamp), str(kind))
    return builder.build()


def read_event_log(path, mode: str = "digg") -> EventLog:
    """Read the CSV event-log format (header item_id,user_id,timestamp,kind).

    Plain files (exactly that header, no blank line but those that end
    the file, no quote, space, tab or carriage return, and user ids and
    timestamps of 1 to 18 digits) are parsed in numpy blocks and
    validated with array checks. Any other file, and any file that fails
    a check, is read again row by row, so errors name their line.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    log = _read_plain_event_log(path, mode)
    return log if log is not None else _scan_event_log(path, mode)


def _scan_event_log(path, mode: str) -> EventLog:
    # Row-by-row reader: the reference for every accepted log and every error.
    builder = _LogBuilder(mode)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputFormatError("empty event log", path=str(path)) from None
            if tuple(h.strip() for h in header) != EVENT_LOG_HEADER:
                raise InputFormatError(
                    f"expected header {','.join(EVENT_LOG_HEADER)}", path=str(path), line=1)
            for lineno, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != 4:
                    raise InputFormatError("expected 4 fields", path=str(path), line=lineno)
                item_id, user_s, time_s, kind = (f.strip() for f in row)
                try:
                    user_id = int(user_s)
                    timestamp = int(time_s)
                except ValueError:
                    raise InputFormatError("user_id and timestamp must be integers",
                                           path=str(path), line=lineno) from None
                try:
                    builder.add(item_id, user_id, timestamp, kind)
                except ValueError as exc:
                    raise InputFormatError(str(exc), path=str(path), line=lineno) from None
    except csv.Error as exc:     # a field over csv.field_size_limit()
        raise InputFormatError(str(exc), path=str(path), line=reader.line_num) from None
    except OSError as exc:
        raise InputFormatError(str(exc), path=str(path)) from exc
    return builder.build()


def _read_plain_event_log(path, mode: str) -> EventLog | None:
    """The log of a plain file, read in blocks; None if _scan_event_log must decide."""
    index: dict[bytes, int] = {}    # item token -> item number, in first-seen order
    columns = []
    try:
        with open(path, "rb") as fh:
            if fh.readline().rstrip(b"\n") != _HEADER_LINE:
                return None
            for block in _line_blocks(fh):
                cols = _plain_event_columns(block, index)
                if cols is None:
                    return None
                columns.append(cols)
    except OSError:
        return None
    try:
        item_ids = [tok.decode("utf-8") for tok in index]
    except UnicodeDecodeError:
        return None
    # the row scanner strips item ids, and csv rejects fields over its size limit
    if any(i != i.strip() or len(i) > csv.field_size_limit() for i in item_ids):
        return None
    if not columns:
        return EventLog([], mode)
    codes, users, times, submit = (np.concatenate(c) for c in zip(*columns))

    # group rows by item, keeping file order within an item; a file of
    # contiguous items is grouped already, and skipping the sort spares
    # the peak memory of its index and three column copies
    if (np.diff(codes) < 0).any():
        order = np.argsort(codes, kind="stable")
        users, times, submit = users[order], times[order], submit[order]
    starts = np.zeros(len(item_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=len(item_ids)), out=starts[1:])
    # exactly one submit per item, and it comes first
    if submit.sum() != len(item_ids) or not submit[starts[:-1]].all():
        return None
    rising = np.diff(times) >= 0
    rising[starts[1:-1] - 1] = True     # steps between items are not checked
    if not rising.all():
        return None

    items = []
    for k, item_id in enumerate(item_ids):
        lo, hi = int(starts[k]), int(starts[k + 1])
        if mode == "digg":
            seen = np.sort(users[lo:hi])
            if (seen[1:] == seen[:-1]).any():
                return None
        u, t = users[lo + 1:hi], times[lo + 1:hi]
        # rebroadcasts sort by (time, user); times already rise, so only ties need sorting
        if (t[1:] == t[:-1]).any():
            o = np.lexsort((u, t))
            u, t = u[o], t[o]
        items.append(ItemEvents(item_id=item_id, submitter=int(users[lo]),
                                submit_time=int(times[lo]),
                                rebroadcast_users=u, rebroadcast_times=t))
    return EventLog(items, mode)


def _plain_event_columns(block: bytes, index: dict[bytes, int]):
    """(item numbers, users, times, is-submit) of a plain block, else None.

    New item tokens are added to `index`. A plain block has no quote,
    space, tab or carriage return, three commas on every line, known
    kinds, and user ids and timestamps of 1 to 18 ASCII digits.

    Each column's starts and lengths are built contiguous from the
    separators. Kinds are checked by length, 6 or 11, and digit fields
    are not empty, so every row holds at least 12 bytes: a stride-1 view
    of little-endian 64-bit words then loads the 8 bytes that end a row,
    or start anywhere in its item field, without leaving the block.
    `submit` is the top 6 bytes of the word that ends its row, and
    `rebroadcast` that word (`roadcast`) plus the one 11 bytes before the
    row's newline (`rebroadc`).
    """
    if b'"' in block or b" " in block or b"\t" in block or b"\r" in block:
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    if seps.size % 4 or (buf[seps].reshape(-1, 4) != _ROW_SEPS).any():
        return None
    item_end, user_end, time_end, row_end = seps.reshape(-1, 4).T.copy()
    kind_len = row_end - time_end - 1
    submit = kind_len == 6
    if not (submit | (kind_len == 11)).all():
        return None
    users = _digit_fields(buf, item_end + 1, user_end - item_end - 1)
    times = _digit_fields(buf, user_end + 1, time_end - user_end - 1)
    if users is None or times is None:
        return None
    words = np.ndarray((len(block) - 7,), "<u8", buffer=block, strides=(1,))
    last, first = words[row_end - 8], words[row_end - 11]
    if not np.where(submit, last >> np.uint64(16) == _SUBMIT_TOP,
                    (last == _ROADCAST) & (first == _REBROADC)).all():
        return None
    item_start = np.zeros_like(row_end)
    item_start[1:] = row_end[:-1] + 1
    codes = _item_codes(block, words, item_start, item_end - item_start, index)
    return None if codes is None else (codes, users, times, submit)


def _item_codes(block: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                index: dict[bytes, int]) -> np.ndarray | None:
    """Item numbers of a block's rows, in any row order; None on a hash collision.

    `words` is the block's stride-1 view of 64-bit words. An item field
    of L bytes is read as its ceil(L / 8) words, each masked to the
    field's bytes, so the work is linear in item bytes. A row's item
    hashes to the sum of its words' mix64, each times the _hash_weights
    weight of its place, plus its length times the last weight; mixing
    first lets every byte reach all 64 bits. Only run heads, rows whose
    hash differs from the previous row's, are grouped by np.unique, and
    every row's words and length are checked against its group's first
    row. One token per group is decoded, and new tokens join `index` in
    file order.
    """
    nwords = (lengths + 7) >> 3
    # row i's words are bounds[i]:bounds[i + 1] of the flat word list
    bounds = np.zeros(nwords.size + 1, dtype=np.int64)
    np.cumsum(nwords, out=bounds[1:])
    place = np.arange(bounds[-1]) - np.repeat(bounds[:-1], nwords)
    skip = 8 * place
    # every word starts inside its item field, so its 8 bytes end inside the row
    part = (words[np.repeat(starts, nwords) + skip]
            & _LOW_BYTES[np.minimum(np.repeat(lengths, nwords) - skip, 8)])
    weights = _hash_weights(int(nwords.max()) + 1)
    sums = np.zeros(part.size + 1, dtype=np.uint64)
    np.cumsum(mix64_array(part) * weights[place], out=sums[1:])
    hashes = np.diff(sums[bounds]) + lengths.astype(np.uint64) * weights[-1]
    head = np.flatnonzero(np.r_[True, hashes[1:] != hashes[:-1]])
    _, at_head, group = np.unique(hashes[head], return_index=True, return_inverse=True)
    first = head[at_head]       # each group's first row
    group = np.repeat(group, np.diff(np.r_[head, hashes.size]))
    rep = first[group]
    if ((lengths[rep] != lengths).any()
            or (part[np.repeat(bounds[rep], nwords) + place] != part).any()):
        return None
    codes = np.empty(first.size, dtype=np.int64)
    for g in np.argsort(first).tolist():
        lo = int(starts[first[g]])
        codes[g] = index.setdefault(block[lo:lo + int(lengths[first[g]])], len(index))
    return codes[group]


def _hash_weights(size: int) -> np.ndarray:
    # fixed random uint64 weights: one per 8-byte word place of an item field, then its length's
    return np.random.default_rng(0).integers(1, 2**64 - 1, size=size, dtype=np.uint64)


def write_event_log(log: EventLog, path) -> None:
    """Serialize a log back to the CSV format read_event_log accepts."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_LOG_HEADER)
        for item in log.items():
            writer.writerow([item.item_id, item.submitter, item.submit_time, "submit"])
            for user, ts in zip(item.rebroadcast_users, item.rebroadcast_times):
                writer.writerow([item.item_id, int(user), int(ts), "rebroadcast"])


@dataclass(frozen=True)
class InfluenceEstimate:
    """A submitter's empirical influence over its qualifying items.

    `local` is the mean count of follower rebroadcasts inside the early
    window; `global_` the mean size of the cascades the items trigger.
    Whichever was not computed stays None.
    """

    user_id: int
    n_items: int
    local: float | None = None
    global_: float | None = None
    significance_p: float | None = None


@dataclass(frozen=True, eq=False)
class Cascade:
    """Follower-connected closure of an item's rebroadcasts.

    `order` holds the members in join order as int64, the submitter
    first. A member's parents are the accounts it follows that come
    before it in `order`.
    """

    item_id: str
    order: np.ndarray

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.order.tolist())

    @property
    def size(self) -> int:
        return int(self.order.size)


def _check_users(users: np.ndarray, g: DirectedGraph) -> None:
    # the message names the distinct ids outside the graph in ascending order
    bad = np.unique(users[(users < 0) | (users >= g.node_count)])
    if bad.size:
        shown = ", ".join(str(int(u)) for u in bad[:10])
        more = f" (+{bad.size - 10} more)" if bad.size > 10 else ""
        raise ValueError(f"unknown user ids in log: {shown}{more}")


def _per_submitter(log: EventLog, g: DirectedGraph, min_items: int, min_rebroadcasts: int,
                   field: str, per_item) -> dict[int, InfluenceEstimate]:
    # the mean of per_item(item) over each submitter's qualifying items, in ascending user order
    _check_users(log._event_users(), g)
    groups: dict[int, list[ItemEvents]] = {}
    for item in log.items():
        if item.rebroadcast_users.size >= min_rebroadcasts:
            groups.setdefault(item.submitter, []).append(item)
    return {user: InfluenceEstimate(user_id=user, n_items=len(items),
                                    **{field: float(np.mean([per_item(it) for it in items]))})
            for user, items in sorted(groups.items()) if len(items) >= min_items}


def local_influence(log: EventLog, g: DirectedGraph, window: int = 100,
                    min_items: int = 2, min_rebroadcasts: int = 0) -> dict[int, InfluenceEstimate]:
    """Mean follower rebroadcasts within each item's first `window` rebroadcasts.

    Followers of the submitter are its in-neighbors. Only submitters
    with at least `min_items` qualifying items get an estimate; the
    result maps user id to estimate in ascending user order.
    """
    if window < 1:
        raise ParameterError("window", "must be >= 1")
    return _per_submitter(
        log, g, min_items, min_rebroadcasts, "local",
        lambda item: int(np.isin(item.rebroadcast_users[:window],
                                 g.in_neighbors(item.submitter)).sum()))


def extract_cascade(log: EventLog, g: DirectedGraph, item_id: str) -> Cascade:
    """Follower-connected spread of one item, replayed in event order.

    A rebroadcaster joins at its first event that comes after the join
    of at least one account it follows; the submitter is in from the
    start. Repeat events of a member change nothing, and rebroadcasters
    connected to no member stay out.
    """
    item = log.get(item_id)
    users = item.rebroadcast_users
    _check_users(np.append(users, item.submitter), g)
    joins = _kernels.replay_joins(g.in_indptr, g.in_indices, item.submitter, users)
    return Cascade(item_id=item_id, order=np.append(item.submitter, users[joins]))


def global_influence(log: EventLog, g: DirectedGraph, min_items: int = 2,
                     min_rebroadcasts: int = 0) -> dict[int, InfluenceEstimate]:
    """Mean size of the cascades each submitter's qualifying items trigger."""
    return _per_submitter(log, g, min_items, min_rebroadcasts, "global_",
                          lambda item: extract_cascade(log, g, item.item_id).size)


def _urn(k, K, N, n) -> tuple[int, int, int, int]:
    # the integers (k, K, N, n) of a valid hypergeometric draw, else ValueError
    for name, value in (("k", k), ("K", K), ("N", N), ("n", n)):
        if int(value) != value:
            raise ValueError(f"{name} must be an integer")
    k, K, N, n = int(k), int(K), int(N), int(n)
    if N < 0 or K < 0 or n < 0 or K > N or n > N:
        raise ValueError("require 0 <= K <= N and 0 <= n <= N")
    if k < 0 or k > min(K, n):
        raise ValueError("require 0 <= k <= min(K, n)")
    return k, K, N, n


def hypergeometric_pmf(k: int, K: int, N: int, n: int) -> float:
    """P(X = k) drawing n without replacement from N with K marked.

    The counts C(K, k) C(N-K, n-k) and C(N, n) are exact integers divided
    once, so the result is correctly rounded at any N. k below the
    support floor max(0, n-(N-K)) is a combinatorial zero.
    """
    k, K, N, n = _urn(k, K, N, n)
    return math.comb(K, k) * math.comb(N - K, n - k) / math.comb(N, n)


def _hypergeometric_tail(k: int, K: int, N: int, n: int) -> float:
    # P(X >= k) for the draw of hypergeometric_pmf, with its counts for j = k..min(K, n)
    # summed exactly, each from the last by their ratio
    k, K, N, n = _urn(k, K, N, n)
    k = max(k, n - (N - K))     # below the support floor the tail is 1
    term = math.comb(K, k) * math.comb(N - K, n - k)
    total = term
    for j in range(k, min(K, n)):
        term = term * (K - j) * (n - j) // ((j + 1) * (N - K - n + j + 1))
        total += term
    return total / math.comb(N, n)


def significance_screen(estimates: dict[int, InfluenceEstimate], g: DirectedGraph,
                        N: int, n: int, p_cut: float = 0.05) -> dict[int, InfluenceEstimate]:
    """Keep estimates whose local influence beats the urn chance model.

    Under the null, the k follower rebroadcasts among an item's first n
    are a hypergeometric draw: n draws from N active users of whom
    K = follower count are marked. The observed mean rounds (and clamps)
    to the nearest k in 0..min(K, n); users whose chance of at least k
    follower rebroadcasts, P(X >= k), is below p_cut survive, annotated
    with that probability.
    """
    if not 0.0 < p_cut <= 1.0:
        raise ParameterError("p_cut", "must be in (0, 1]")
    kept: dict[int, InfluenceEstimate] = {}
    for user, est in estimates.items():
        if est.local is None:
            raise ValueError("significance screening requires local estimates")
        K = int(g.in_degree[user])
        k = min(max(int(round(est.local)), 0), K, n)
        p = _hypergeometric_tail(k, K, N, n)
        if p < p_cut:
            kept[user] = replace(est, significance_p=p)
    return kept


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def activity_entropies(log: EventLog, item_id: str) -> tuple[float, float]:
    """User entropy and interval entropy (bits) of one item's rebroadcasts.

    User entropy is over the per-user rebroadcast counts; interval
    entropy is over log2-binned gaps between successive rebroadcasts
    (bin = floor(log2(1 + dt))), the scale-free binning suited to
    activity spanning seconds to days. A single rebroadcast has no
    intervals; its interval entropy is 0.
    """
    item = log.get(item_id)
    if item.rebroadcast_users.size < 1:
        raise ValueError(f"undefined entropy: item {item_id!r} has a single event")
    user_entropy = _entropy_bits(np.unique(item.rebroadcast_users, return_counts=True)[1])
    gaps = np.diff(item.rebroadcast_times)
    if gaps.size == 0:
        interval_entropy = 0.0
    else:
        bins = np.floor(np.log2(1.0 + gaps.astype(np.float64)))
        interval_entropy = _entropy_bits(np.unique(bins, return_counts=True)[1])
    return user_entropy, interval_entropy


def spam_filter(log: EventLog, threshold: float = 3.0) -> list[str]:
    """Item ids whose user and interval entropies both exceed the threshold.

    Items without enough events to define the entropies are dropped.
    """
    kept = []
    for item in log.items():
        if item.rebroadcast_users.size < 1:
            continue
        user_h, interval_h = activity_entropies(log, item.item_id)
        if user_h > threshold and interval_h > threshold:
            kept.append(item.item_id)
    return kept


def influence_cohort(log: EventLog, g: DirectedGraph, kind: str, *, window: int = 100,
                     min_items: int = 2, min_rebroadcasts: int = 0,
                     entropy_threshold: float | None = None, p_cut: float | None = None,
                     active_users: int | None = None) -> dict[int, InfluenceEstimate]:
    """The empirical ranking funnel: spam filter, influence estimate, significance screen.

    Items are kept only when both activity entropies exceed
    `entropy_threshold` (None: no filter). Submitters then get a local
    or global estimate, as `kind` names. Local estimates are screened at
    `p_cut` (None: no screen) against `active_users` users, by default
    the distinct users of `log` as given, before any item is dropped;
    global estimates are never screened.
    """
    if kind not in ("local", "global"):
        raise ValueError("influence kind must be 'local' or 'global'")
    flog = log if entropy_threshold is None else log.restrict(spam_filter(log, entropy_threshold))
    if kind == "global":
        return global_influence(flog, g, min_items=min_items, min_rebroadcasts=min_rebroadcasts)
    estimates = local_influence(flog, g, window=window, min_items=min_items,
                                min_rebroadcasts=min_rebroadcasts)
    if p_cut is None:
        return estimates
    N = int(log.user_ids().size) if active_users is None else active_users
    # the urn must hold the window's draws and every screened user's followers
    if estimates and window > N:
        if active_users is None:
            raise ParameterError("window", f"{window} exceeds the log's {N} distinct users")
        raise ParameterError("active_users", f"{N} is below the window of {window}")
    users = np.fromiter(estimates, dtype=np.int64, count=len(estimates))
    over = users[g.in_degree[users] > N]
    if over.size:
        given = f"{N} is" if active_users is not None else f"defaults to the log's {N} users,"
        raise ParameterError("active_users", f"{given} below the {int(g.in_degree[over[0]])} "
                                             f"followers of user {int(over[0])}")
    return significance_screen(estimates, g, N=N, n=window, p_cut=p_cut)


def pearson_correlation(x, y) -> float:
    """Sample Pearson r between two equal-length sequences."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if xv.size < 3:
        raise ValueError("need at least 3 points")
    xd = xv - xv.mean()
    yd = yv - yv.mean()
    sx = float((xd * xd).sum())
    sy = float((yd * yd).sum())
    if sx == 0.0 or sy == 0.0:
        raise NumericalError("degenerate cohort")
    return float((xd * yd).sum() / math.sqrt(sx * sy))


@dataclass(frozen=True)
class CorrelationEntry:
    alpha: float
    measure: str
    influence_kind: str
    pearson_r: float
    cohort_size: int


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson r of centrality vs empirical influence across an alpha grid."""

    alpha_grid: tuple[float, ...]
    influence_kind: str
    cohort_users: tuple[int, ...]
    entries: tuple[CorrelationEntry, ...]


def correlation_sweep(g: DirectedGraph, cohort: dict[int, InfluenceEstimate], measures,
                      alpha_grid) -> CorrelationReport:
    """Correlate centrality scores with a cohort's empirical influence over an alpha grid.

    `cohort` holds the estimates influence_cohort returns: all local or
    all global, which sets the report's influence kind. Each (alpha,
    measure) pair contributes one Pearson r over the cohort. Pairs where
    the measure is undefined at that alpha, or where its cohort scores
    carry no variance, are skipped; zero variance in the influence
    values themselves is an error.
    """
    alpha_grid = tuple(float(a) for a in alpha_grid)
    cells = sweep(g, measures, alpha_grid, tol=1e-12)
    users = sorted(cohort)
    if len(users) < 3:
        raise NumericalError(f"cohort too small: {len(users)} users after screening, need >= 3")
    kind = "local" if cohort[users[0]].local is not None else "global"
    influence = [cohort[u].local if kind == "local" else cohort[u].global_ for u in users]
    if None in influence:
        raise ValueError("cohort estimates must be all local or all global")
    influence = np.asarray(influence, dtype=np.float64)
    cohort_idx = np.asarray(users, dtype=np.int64)
    if np.ptp(influence) == 0.0:
        raise NumericalError("degenerate cohort")

    entries = []
    for alpha, measure, scores in cells:
        if isinstance(scores, NumericalError) or np.ptp(scores.values[cohort_idx]) == 0.0:
            continue
        r = pearson_correlation(scores.values[cohort_idx], influence)
        entries.append(CorrelationEntry(alpha=alpha, measure=measure, influence_kind=kind,
                                        pearson_r=r, cohort_size=len(users)))
    return CorrelationReport(alpha_grid=alpha_grid, influence_kind=kind,
                             cohort_users=tuple(users), entries=tuple(entries))


def synthesize_event_log(g: DirectedGraph, submitters, items_per_submitter: int,
                         transmissibility: float, rng_seed: int, *, mode: str = "digg",
                         start_time: int = 1_000_000,
                         item_spacing: int = 10_000_000) -> EventLog:
    """Generate an event log by broadcasting cascades over the graph.

    Each item seeds an independent cascade at its submitter; because
    broadcasts travel from the followed account to its followers, the
    cascade runs on the reversed graph. Members are serialized as
    rebroadcasts in (round, user id) order with log-uniform integer gaps
    drawn from the same trial stream (slots past the edge coins), so an
    entire log is a pure function of (graph, submitters, seed).
    """
    rev = g.reverse()
    slot_floor = SLOT_EDGE_BASE + rev.edge_count
    items = []
    trial = 0
    for submitter in submitters:
        submitter = int(submitter)
        for _ in range(items_per_submitter):
            rounds = cascade_rounds(rev, {submitter}, transmissibility, rng_seed, trial)
            infected = np.flatnonzero(rounds >= 0)
            others = infected[infected != submitter]
            others = others[np.lexsort((others, rounds[others]))]
            base = trial_base(rng_seed, trial)
            t0 = start_time + len(items) * item_spacing
            t = t0
            times = np.empty(others.size, dtype=np.int64)
            for j in range(others.size):
                u01 = unit_float(stream_value(base, slot_floor + j))
                t += 1 + int(2.0 ** (u01 * _MAX_GAP_EXP))
                times[j] = t
            items.append(ItemEvents(item_id=f"item{trial:04d}", submitter=submitter,
                                    submit_time=t0,
                                    rebroadcast_users=others.astype(np.int64),
                                    rebroadcast_times=times))
            trial += 1
    return EventLog(items, mode)
