"""Definition C.1 machinery: reliable values, claims, fault detection."""

import pickle

import pytest

from repro.consensus import ClaimIndex, PathOracle, ReportBundle, reliable_value
from repro.consensus.reliable import detect_faults
from repro.graphs import complete_graph, cycle_graph
from repro.net import FloodMessage, ValuePayload


def vp(x):
    return ValuePayload(x)


class TestReliableValue:
    def test_own_value(self, c4):
        delivered = {(0,): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 0) == 1

    def test_neighbor_direct(self, c4):
        delivered = {(1, 0): vp(0)}
        assert reliable_value(c4, 1, 0, delivered, 1) == 0

    def test_f_plus_1_disjoint_paths(self, c4):
        # Node 2 is not adjacent to 0; both two-hop paths deliver 1.
        delivered = {(2, 1, 0): vp(1), (2, 3, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 2) == 1

    def test_single_path_insufficient(self, c4):
        delivered = {(2, 1, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 2) is None

    def test_conflicting_paths_insufficient(self, c4):
        delivered = {(2, 1, 0): vp(1), (2, 3, 0): vp(0)}
        assert reliable_value(c4, 1, 0, delivered, 2) is None

    def test_non_disjoint_paths_do_not_count(self):
        g = cycle_graph(6).add_edges([(1, 5)])
        delivered = {
            (3, 2, 1, 0): vp(1),
            (3, 4, 5, 1, 0): vp(1),  # shares internal node 1
        }
        assert reliable_value(g, 1, 0, delivered, 3) is None

    def test_direct_wins_over_paths(self, c4):
        delivered = {(1, 0): vp(0), (1, 2, 3, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 1) == 0


def make_bundle(reporter, subject, transcript):
    return ReportBundle.build(reporter, {subject: list(transcript)})


class TestClaimIndex:
    def test_direct_neighbor_observation(self, c4):
        m = FloodMessage("p1", vp(1), ())
        idx = ClaimIndex(
            c4, 1, 0,
            bundle_deliveries={},
            own_transcripts={1: ((1, m),)},
        )
        assert idx.reliably_transmitted(1, m)
        assert idx.reliable_transcript(1) == ((1, m),)

    def test_own_transcript(self, c4):
        m = FloodMessage("p1", vp(0), ())
        idx = ClaimIndex(c4, 1, 0, {}, {}, own_sent=((1, m),))
        assert idx.reliably_transmitted(0, m)
        assert not idx.reliably_transmitted(0, FloodMessage("p1", vp(1), ()))

    def test_remote_claim_needs_f_plus_1_disjoint(self, c4):
        m = FloodMessage("p1", vp(1), ())
        transcript = ((1, m),)
        b1 = make_bundle(1, 2, transcript)
        b3 = make_bundle(3, 2, transcript)
        idx = ClaimIndex(
            c4, 1, 0,
            bundle_deliveries={(1, 0): b1, (3, 0): b3},
            own_transcripts={},
        )
        assert idx.reliably_transmitted(2, m)
        assert idx.reliable_transcript(2) == transcript

    def test_single_remote_report_insufficient(self, c4):
        m = FloodMessage("p1", vp(1), ())
        b1 = make_bundle(1, 2, ((1, m),))
        idx = ClaimIndex(c4, 1, 0, {(1, 0): b1}, {})
        assert not idx.reliably_transmitted(2, m)

    def test_mismatched_reporter_origin_rejected(self, c4):
        m = FloodMessage("p1", vp(1), ())
        bundle = make_bundle(3, 2, ((1, m),))  # claims reporter 3
        # ... but the flood path says it came from node 1.
        idx = ClaimIndex(c4, 1, 0, {(1, 0): bundle}, {})
        assert not idx.reliably_transmitted(2, m)

    def test_reporter_must_neighbor_subject(self, c4):
        m = FloodMessage("p1", vp(1), ())
        # Node 0 and 2 are NOT adjacent in C4: 0 cannot attest about 2.
        bundle = make_bundle(0, 2, ((1, m),))
        idx = ClaimIndex(c4, 1, 1, {(0, 1): bundle}, {})
        assert not idx.reliably_transmitted(2, m)

    def test_disagreeing_transcripts_can_agree_per_message(self):
        """Per-message claims use containment: transcripts may differ in
        other entries and still jointly support one message.  On C4,
        node 2's neighbors (reporters) are 1 and 3."""
        m = FloodMessage("p1", vp(1), ())
        extra = FloodMessage("p1", vp(0), (0,))
        t_a = ((1, m),)
        t_b = ((1, m), (2, extra))
        bundles = {
            (1, 0): make_bundle(1, 2, t_a),
            (3, 0): make_bundle(3, 2, t_b),
        }
        idx = ClaimIndex(cycle_graph(4), 1, 0, bundles, {})
        assert idx.reliably_transmitted(2, m)
        # The *full transcript* is not reliable: claims disagree.
        assert idx.reliable_transcript(2) is None


class TestDetectFaults:
    def _claims_with_transcripts(self, graph, me, transcripts):
        """Direct-neighbor transcripts only (me adjacent to everyone)."""
        return ClaimIndex(graph, 1, me, {}, transcripts)

    def test_detects_wrong_value_forwarder(self, k4):
        """Node 2 forwarded (0, (1,)) while 1 flooded 1: detected."""
        phase = "p1"
        init1 = FloodMessage(phase, vp(1), ())
        bad_fwd = FloodMessage(phase, vp(0), (1,))
        transcripts = {
            1: ((1, init1),),
            2: ((1, FloodMessage(phase, vp(0), ())), (2, bad_fwd)),
            3: ((1, FloodMessage(phase, vp(1), ())),
                (2, FloodMessage(phase, vp(1), (1,)))),
        }
        claims = self._claims_with_transcripts(k4, 0, transcripts)
        detected = detect_faults(
            k4, 1, 0, {1: 1}, claims, phase1_tag=phase,
            oracle=PathOracle(k4), first_round=1,
        )
        assert 2 in detected

    def test_no_detection_when_everyone_behaves(self, k4):
        phase = "p1"
        transcripts = {}
        for v in [1, 2, 3]:
            msgs = [(1, FloodMessage(phase, vp(1), ()))]
            for other in [1, 2, 3]:
                if other != v:
                    msgs.append((2, FloodMessage(phase, vp(1), (other,))))
            transcripts[v] = tuple(msgs)
        claims = self._claims_with_transcripts(k4, 0, transcripts)
        detected = detect_faults(
            k4, 1, 0, {1: 1, 2: 1, 3: 1}, claims, phase1_tag=phase,
            oracle=PathOracle(k4),
        )
        assert detected == set()

    def test_never_suspects_self(self, k4):
        phase = "p1"
        claims = self._claims_with_transcripts(k4, 0, {})
        detected = detect_faults(
            k4, 1, 0, {1: 1}, claims, phase1_tag=phase, oracle=PathOracle(k4)
        )
        assert 0 not in detected


class TestReportBundle:
    def test_entries_sorted_and_canonical(self):
        a = ReportBundle.build(0, {2: [(1, "m2")], 1: [(1, "m1")]})
        b = ReportBundle.build(0, {1: [(1, "m1")], 2: [(1, "m2")]})
        assert a == b
        assert [s for s, _ in a.entries] == [1, 2]

    def test_hashable(self):
        b = ReportBundle.build(0, {1: [(1, "x")]})
        assert len({b, ReportBundle.build(0, {1: [(1, "x")]})}) == 1
        assert pickle.loads(pickle.dumps(b)) == b
