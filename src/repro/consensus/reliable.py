"""Definition C.1 — reliable receipt — and the phase-2 claim machinery.

Appendix C builds the efficient algorithm on a single tool: node ``v``
**reliably receives** a message flooded by ``u`` if (1) ``u = v``,
(2) ``v`` is a neighbor of ``u``, or (3) ``v`` receives it identically on
at least ``f + 1`` node-disjoint ``uv``-paths.

Two consequences (proved in the paper, re-proved empirically in our
tests):

* a message *sent* by a **faulty** node is reliably received by everyone
  (Lemma C.2) — its ≥ 2f neighbors all heard it identically, and at most
  ``f − 1`` other faults can sit on the 2f disjoint forwarding paths;
* a **false** claim about an honest node's transmissions can never be
  reliably received — every disjoint evidence path for a fabrication
  must contain its own faulty internal node, and there are at most ``f``
  faults in total.

Phase 2 of Algorithm 2 floods, per reporter, a bundle of the complete
*timed* transcripts the reporter heard from each neighbor in phase 1.
(The paper floods "all the messages it hears from its neighbors";
bundling them into one flood per reporter is a framing choice that
preserves the adversary's power — a Byzantine forwarder can alter any
subset of a bundle — while keeping rule (ii)'s one-message-per-slot
shape.)  Transcripts carry the send round of every message because
honest flooding is *scheduled*: on a path ``w, x_1, …``, an honest
``x_k`` forwards ``w``'s value at round ``k + 1`` exactly.  Fault
localization therefore checks the schedule slot, which closes a timing
attack: a faulty node that forwards correct bits *late* (visible to
reporters, useless to the flood) is still the first detected deviator
on its path, so honest downstream nodes are never blamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

from ..graphs import Graph, has_disjoint_mask_packing
from ..net.messages import FloodMessage, ValuePayload
from ..obs import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (oracle imports graphs)
    from .path_oracle import PathOracle

PathTuple = Tuple[Hashable, ...]
TimedMessage = Tuple[int, object]  # (send round, message)
Transcript = Tuple[TimedMessage, ...]  # one node's transmissions, in order


@dataclass(frozen=True, slots=True)
class ReportBundle:
    """Phase-2 payload: ``reporter``'s view of each neighbor's phase-1
    transcript.  ``entries`` is sorted by subject for canonical equality."""

    reporter: Hashable
    entries: Tuple[Tuple[Hashable, Transcript], ...]

    @classmethod
    def build(
        cls, reporter: Hashable, transcripts: Dict[Hashable, List[TimedMessage]]
    ) -> "ReportBundle":
        entries = tuple(
            (subject, tuple(messages))
            for subject, messages in sorted(
                transcripts.items(), key=lambda kv: repr(kv[0])
            )
        )
        return cls(reporter, entries)


def reliable_value(
    graph: Graph,
    f: int,
    me: Hashable,
    delivered: Dict[PathTuple, object],
    origin: Hashable,
    oracle: Optional["PathOracle"] = None,
    metrics: object = NULL_METRICS,
    path_mask: Optional[Callable[[PathTuple], int]] = None,
) -> Optional[int]:
    """Definition C.1 applied to a phase-1 value flood.

    ``delivered`` is the local :class:`~repro.consensus.flooding
    .FloodInstance` record (full path ending at ``me`` → payload).
    Returns the reliably received binary value from ``origin``, or
    ``None``.  Direct receipt (self / neighbor) takes precedence; for
    case (3) the value must arrive identically on ``f + 1`` internally
    node-disjoint ``origin→me`` paths.

    A thin specialization of :func:`reliable_payload`: non-value
    payloads are filtered out first (they never certify a value — and
    must not shadow the direct slot either), then the generic
    certificate runs; ``ValuePayload(0)`` sorts before ``ValuePayload(1)``,
    preserving the historical δ ∈ (0, 1) probe order.
    """
    values_only = {
        path: payload
        # repro: allow[REPRO001] hot path: delivered's insertion order is
        # the deterministic flood-processing order, preserved verbatim.
        for path, payload in delivered.items()
        if isinstance(payload, ValuePayload)
    }
    payload = reliable_payload(
        graph, f, me, values_only, origin, oracle=oracle, metrics=metrics,
        path_mask=path_mask,
    )
    return payload.value if isinstance(payload, ValuePayload) else None


def reliable_payload(
    graph: Graph,
    f: int,
    me: Hashable,
    delivered: Dict[PathTuple, object],
    origin: Hashable,
    oracle: Optional["PathOracle"] = None,
    metrics: object = NULL_METRICS,
    path_mask: Optional[Callable[[PathTuple], int]] = None,
) -> Optional[object]:
    """Definition C.1 generalized to arbitrary flood payloads.

    :func:`reliable_value` is specialized to phase-1 binary value floods;
    the asynchronous algorithm (:mod:`repro.consensus.async_alg`) needs
    the same certificate over votes and decisions too.  ``v`` reliably
    receives ``origin``'s flooded payload if (1) ``origin == v``, (2) the
    payload arrived on the direct edge, or (3) an *identical* payload
    arrived along ``f + 1`` internally node-disjoint ``origin→v`` paths.

    Single-valuedness (the property the asynchronous quorum logic leans
    on): under local broadcast at most one payload per origin can ever
    satisfy this anywhere — a second candidate needs ``f + 1`` disjoint
    evidence paths each containing its own faulty internal node, and
    there are at most ``f`` faults in total.

    ``oracle`` (optional) is consulted first with the memoized packing
    query ":math:`f + 1` node-disjoint paths from ``origin``'s neighbors
    to ``me`` avoiding ``origin`` internally" — a graph-level upper bound
    on any delivered packing.  When the graph itself cannot support the
    certificate, the per-payload search is skipped entirely, and the
    (shared) oracle answers from cache for every instance asking about
    the same origin.

    ``path_mask`` maps a delivered path to its visited-set bitmask — a
    flood's :meth:`~repro.consensus.flooding.FloodInstance.path_mask`
    (every production caller passes one); it defaults to recomputing the
    mask from the graph's node index.
    """
    metrics.inc("reliable.queries")
    if origin == me:
        return delivered.get((me,))
    direct = delivered.get((origin, me))
    if direct is not None:
        metrics.inc("reliable.direct_receipts")
        return direct
    groups: Dict[object, List[PathTuple]] = {}
    # repro: allow[REPRO001] hot path: delivered's insertion order is the
    # deterministic flood-processing order, and the payload loop below
    # sorts `groups` by repr before any order-sensitive use.
    for path, payload in delivered.items():
        if len(path) >= 3 and path[0] == origin:
            groups.setdefault(payload, []).append(path)
    if not groups:
        return None
    if oracle is not None and me not in graph.neighbors(origin):
        feasible = oracle.disjoint_paths_excluding(
            graph.neighbors(origin), me, frozenset((origin,)), f + 1
        )
        if feasible is None:
            # Every per-payload packing check below would have run and
            # failed — the count saved by the graph-level precheck.
            metrics.inc("reliable.precheck_saved", len(groups))
            return None
    index = graph.node_index()
    if path_mask is None:
        path_mask = index.mask_of
    # Disjointness runs over internal-node bitmasks (two paths conflict
    # iff mask_a & mask_b != 0): a full path's mask minus its two ends.
    ends = index.mask_of((origin, me))
    for payload in sorted(groups, key=repr):
        metrics.inc("reliable.packing_checks")
        masks = [path_mask(p) & ~ends for p in groups[payload]]
        if has_disjoint_mask_packing(masks, f + 1):
            return payload
    return None


class ReceiptTracker:
    """Incremental Definition C.1 over one flood instance.

    The asynchronous algorithm re-asks :func:`reliable_payload` for
    every still-unresolved origin after *every* round with accepted
    traffic, but a verdict can only change when that origin's delivered
    path set grows.  The tracker keys each cached verdict on the flood's
    per-origin delivery count (the path set only ever grows, so an equal
    count means an identical per-origin view) and skips the whole
    certificate when nothing changed — counting the skip under
    ``reliable.dirty_skips``.  Because the cached result is exactly what
    a fresh call would return, decisions and round counts are unchanged;
    only redundant packing work disappears.

    The skip path returns the *cached* verdict rather than ``None``:
    a non-``None`` payload may still be type-rejected by the caller,
    which will legitimately ask again without new deliveries.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        me: Hashable,
        flood,
        oracle: Optional["PathOracle"] = None,
    ):
        self.graph = graph
        self.f = f
        self.me = me
        self.flood = flood
        self.oracle = oracle
        self._versions: Dict[Hashable, int] = {}
        self._last: Dict[Hashable, Optional[object]] = {}

    def payload_from(
        self, origin: Hashable, metrics: object = NULL_METRICS
    ) -> Optional[object]:
        """Cached-or-fresh :func:`reliable_payload` for ``origin``."""
        count = self.flood.origin_count(origin)
        if origin in self._last and self._versions[origin] == count:
            metrics.inc("reliable.dirty_skips")
            return self._last[origin]
        result = reliable_payload(
            self.graph,
            self.f,
            self.me,
            self.flood.origin_view(origin),
            origin,
            oracle=self.oracle,
            metrics=metrics,
            path_mask=self.flood.path_mask,
        )
        self._versions[origin] = count
        self._last[origin] = result
        return result


class ClaimIndex:
    """Reliable knowledge about *other nodes' transmissions*, from bundles.

    Built once per node after phase 2.  Evidence for a claim about
    subject ``z`` is a composite simple path ``(z, reporter, …, me)``:
    the bundle of ``reporter`` (a neighbor of ``z``) carried ``z``'s
    claimed transcript to ``me`` along the flood path ``reporter … me``.
    Reliability = direct observation (``z`` adjacent or ``z == me``) or
    ``f + 1`` internally node-disjoint composite paths agreeing.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        me: Hashable,
        bundle_deliveries: Dict[PathTuple, ReportBundle],
        own_transcripts: Dict[Hashable, Transcript],
        own_sent: Transcript = (),
    ):
        self.graph = graph
        self.f = f
        self.me = me
        self.own_transcripts = dict(own_transcripts)
        self.own_sent = own_sent
        # transcript evidence: subject -> claimed transcript -> [composite paths]
        self._transcript_paths: Dict[Hashable, Dict[Transcript, List[PathTuple]]] = {}
        # composite path -> internal-node bitmask; the packing currency
        # of both certificates.
        self._composite_masks: Dict[PathTuple, int] = {}
        index = graph.node_index()
        # repro: allow[REPRO001] bundle_deliveries preserves the
        # deterministic flood-processing insertion order; the evidence
        # lists built here feed packing-existence checks only.
        for path, bundle in bundle_deliveries.items():
            reporter = path[0]
            if bundle.reporter != reporter:
                continue  # malformed: claimed reporter must be the flood origin
            for subject, transcript in bundle.entries:
                if subject not in graph.nodes:
                    continue
                if reporter not in graph.neighbors(subject):
                    continue  # a reporter can only attest about its neighbors
                if subject in path:
                    continue  # composite path (subject,)+path must stay simple
                composite = (subject,) + path
                if composite not in self._composite_masks:
                    # internal nodes of (subject,) + path are path[:-1]
                    self._composite_masks[composite] = index.mask_of(path[:-1])
                self._transcript_paths.setdefault(subject, {}).setdefault(
                    transcript, []
                ).append(composite)
        self._reliable_transcript_cache: Dict[Hashable, Optional[Transcript]] = {}
        self._claim_cache: Dict[Tuple[Hashable, object], bool] = {}

    # ------------------------------------------------------------------
    def _packs(self, paths: List[PathTuple]) -> bool:
        """``f + 1`` internally node-disjoint paths among ``paths``?
        Mask packing over the composite masks computed at build time."""
        masks = self._composite_masks
        return has_disjoint_mask_packing([masks[p] for p in paths], self.f + 1)

    # ------------------------------------------------------------------
    def reliable_transcript(self, subject: Hashable) -> Optional[Transcript]:
        """The complete timed phase-1 transcript of ``subject`` if
        reliably known, else ``None``.  Unique when it exists (a second
        candidate would need f + 1 disjoint fabricated evidence paths)."""
        if subject == self.me:
            return self.own_sent
        if subject in self._reliable_transcript_cache:
            return self._reliable_transcript_cache[subject]
        result: Optional[Transcript] = None
        if self.me in self.graph.neighbors(subject):
            result = self.own_transcripts.get(subject, ())
        else:
            # repro: allow[REPRO001] insertion order is deterministic and
            # at most one transcript can ever pass the f+1 disjoint-path
            # certificate (single-valuedness), so order cannot matter.
            for transcript, paths in self._transcript_paths.get(subject, {}).items():
                if self._packs(paths):
                    result = transcript
                    break
        self._reliable_transcript_cache[subject] = result
        return result

    def reliably_transmitted(self, subject: Hashable, message: object) -> bool:
        """Did ``me`` reliably learn that ``subject`` transmitted
        ``message`` at *some* round?

        Direct observation wins; otherwise ``f + 1`` disjoint composite
        paths whose claimed transcripts *contain* the message suffice
        (the claims may disagree elsewhere — containment is per-message).
        """
        key = (subject, message)
        if key in self._claim_cache:
            return self._claim_cache[key]
        if subject == self.me:
            result = any(m == message for _, m in self.own_sent)
        elif self.me in self.graph.neighbors(subject):
            result = any(
                m == message for _, m in self.own_transcripts.get(subject, ())
            )
        else:
            paths = [
                p
                # repro: allow[REPRO001] deterministic insertion order; the
                # consumer only checks packing *existence*.
                for transcript, plist in self._transcript_paths.get(subject, {}).items()
                if any(m == message for _, m in transcript)
                for p in plist
            ]
            result = self._packs(paths)
        self._claim_cache[key] = result
        return result


def detect_faults(
    graph: Graph,
    f: int,
    me: Hashable,
    reliable_values: Dict[Hashable, int],
    claims: ClaimIndex,
    phase1_tag: Hashable,
    oracle: "PathOracle",
    first_round: int = 1,
) -> set[Hashable]:
    """Phase-2 fault localization (Algorithm 2, phase 2).

    For every origin ``w`` whose value ``b`` was reliably received and
    every other node ``u``, walk ``2f`` node-disjoint ``wu``-paths; along
    each path, the first internal node ``z`` that *provably misbehaved on
    this path's slot* is marked faulty.  Misbehavior of ``z`` at position
    ``idx`` (prefix ``Π = P[:idx]``) is one of

    * a reliably received claim that ``z`` transmitted ``(b̄, Π)`` at any
      time (the tampering case of the paper's pseudocode);
    * a reliably known complete transcript of ``z`` that contains a
      *forward* (non-empty path) in the initiation round — nothing has
      arrived yet, so an honest node physically cannot forward there.
      This is how an early fabricator is caught (see below);
    * a reliably known complete transcript of ``z`` with no transmission
      of ``(b, Π)`` **by** its schedule round ``first_round + idx`` (the
      silent-drop/late-forward case; the paper's "tampers the message"
      read operationally — Lemma C.2 makes a faulty node's full
      transcript reliably known, so omissions are visible).

    The deadline is "by", not "at": a faulty upstream node can fabricate
    ``(b, Π')`` *before* its own schedule slot, and an honest ``z``
    that accepts the early copy forwards it early — rule (ii) then
    swallows the on-schedule duplicate, so ``z``'s transcript carries
    the forward ahead of schedule.  Demanding the exact round would
    blame the honest victim (a real falsified run: C4, f = 1, a random
    adversary fabricating its neighbor's initiation in round 1 — two
    honest nodes each "detected" two faults and disagreed).  The early
    fabricator itself is caught by the initiation-round check, which
    shadows its downstream victims.

    Soundness: the first deviator on a path is necessarily faulty —
    honest nodes forward exactly what they accept, no later than the
    all-honest schedule and never in the initiation round; false claims
    about honest nodes are never reliably received; and honest
    omissions occur only downstream of an earlier (faulty) deviator,
    which is detected first and shadows them.

    The disjoint-path families come from the shared
    :class:`~repro.consensus.path_oracle.PathOracle`'s per-pair memo —
    a pure function of the static graph and the pair, computed once per
    graph instead of once per (instance, run, pair).
    """
    detected: set[Hashable] = set()
    # Depends only on z's transcript — memoized so the quadruple loop
    # scans each node's transcript once, not once per (origin, path, slot).
    _early_cache: Dict[Hashable, bool] = {}

    def forwards_in_initiation_round(z: Hashable, transcript: Transcript) -> bool:
        if z not in _early_cache:
            _early_cache[z] = any(
                r <= first_round
                and isinstance(m, FloodMessage)
                and m.phase == phase1_tag
                and len(m.path) > 0
                for r, m in transcript
            )
        return _early_cache[z]

    for w in sorted(reliable_values, key=repr):
        b = reliable_values[w]
        wrong = ValuePayload(1 - b)
        right = ValuePayload(b)
        for u in sorted(graph.nodes, key=repr):
            if u == w:
                continue
            paths = oracle.disjoint_paths_between(w, u)
            for path in sorted(paths, key=repr)[: 2 * f]:
                for idx in range(1, len(path) - 1):
                    z = path[idx]
                    if z == me:
                        continue  # a node never suspects itself
                    prefix = path[:idx]
                    tampered = FloodMessage(phase1_tag, wrong, prefix)
                    honest_fwd = FloodMessage(phase1_tag, right, prefix)
                    schedule_round = first_round + idx
                    suspicious = claims.reliably_transmitted(z, tampered)
                    if not suspicious:
                        transcript = claims.reliable_transcript(z)
                        if transcript is not None:
                            on_time = any(
                                r <= schedule_round and m == honest_fwd
                                for r, m in transcript
                            )
                            suspicious = not on_time or (
                                forwards_in_initiation_round(z, transcript)
                            )
                    if suspicious:
                        detected.add(z)
                        break  # only the first such node on this path
    return detected
