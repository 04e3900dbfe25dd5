"""Unit tests for the tag-matching engine."""

from repro.mpi import ANY_SOURCE, ANY_TAG, MatchKey, MatchingEngine
from repro.mpi.matching import PostedRecv, UnexpectedMsg


def key(ctx=0, src=0, tag=0):
    return MatchKey(ctx, src, tag)


def posted(k, req="req"):
    return PostedRecv(key=k, request=req)


def unexpected(k, pkt="pkt"):
    return UnexpectedMsg(key=k, packet=pkt)


class TestMatchKey:
    def test_exact_match(self):
        assert key(1, 2, 3).matches(key(1, 2, 3))

    def test_context_mismatch(self):
        assert not key(1, 2, 3).matches(key(9, 2, 3))

    def test_source_mismatch(self):
        assert not key(1, 2, 3).matches(key(1, 9, 3))

    def test_tag_mismatch(self):
        assert not key(1, 2, 3).matches(key(1, 2, 9))

    def test_any_source_wildcard(self):
        assert key(1, ANY_SOURCE, 3).matches(key(1, 7, 3))

    def test_any_tag_wildcard(self):
        assert key(1, 2, ANY_TAG).matches(key(1, 2, 99))

    def test_both_wildcards(self):
        assert key(1, ANY_SOURCE, ANY_TAG).matches(key(1, 5, 5))

    def test_wildcard_does_not_cross_context(self):
        assert not key(1, ANY_SOURCE, ANY_TAG).matches(key(2, 5, 5))


class TestPostedQueue:
    def test_post_then_arrival_matches(self):
        eng = MatchingEngine()
        eng.post_recv(posted(key(tag=5), req="r1"))
        entry = eng.match_arrival(key(tag=5))
        assert entry.request == "r1"
        assert eng.match_arrival(key(tag=5)) is None  # consumed

    def test_arrival_without_recv_returns_none(self):
        eng = MatchingEngine()
        assert eng.match_arrival(key(tag=5)) is None

    def test_fifo_order_among_identical_recvs(self):
        eng = MatchingEngine()
        eng.post_recv(posted(key(tag=5), req="first"))
        eng.post_recv(posted(key(tag=5), req="second"))
        assert eng.match_arrival(key(tag=5)).request == "first"
        assert eng.match_arrival(key(tag=5)).request == "second"

    def test_wildcard_recv_matches_any_arrival(self):
        eng = MatchingEngine()
        eng.post_recv(posted(key(src=ANY_SOURCE, tag=ANY_TAG), req="wild"))
        assert eng.match_arrival(key(src=3, tag=9)).request == "wild"

    def test_earlier_nonmatching_recv_skipped(self):
        eng = MatchingEngine()
        eng.post_recv(posted(key(tag=1), req="one"))
        eng.post_recv(posted(key(tag=2), req="two"))
        assert eng.match_arrival(key(tag=2)).request == "two"
        assert eng.match_arrival(key(tag=1)).request == "one"


class TestUnexpectedQueue:
    def test_unexpected_then_recv_matches(self):
        eng = MatchingEngine()
        eng.add_unexpected(unexpected(key(tag=5), pkt="early"))
        msg = eng.post_recv(posted(key(tag=5)))
        assert msg.packet == "early"
        assert eng.post_recv(posted(key(tag=5))) is None  # consumed

    def test_unexpected_fifo_order(self):
        eng = MatchingEngine()
        eng.add_unexpected(unexpected(key(tag=5), pkt="a"))
        eng.add_unexpected(unexpected(key(tag=5), pkt="b"))
        assert eng.post_recv(posted(key(tag=5))).packet == "a"
        assert eng.post_recv(posted(key(tag=5))).packet == "b"

    def test_wildcard_recv_takes_earliest_unexpected(self):
        eng = MatchingEngine()
        eng.add_unexpected(unexpected(key(src=1, tag=1), pkt="first"))
        eng.add_unexpected(unexpected(key(src=2, tag=2), pkt="second"))
        msg = eng.post_recv(posted(key(src=ANY_SOURCE, tag=ANY_TAG)))
        assert msg.packet == "first"

    def test_nonmatching_unexpected_left_in_place(self):
        eng = MatchingEngine()
        eng.add_unexpected(unexpected(key(tag=9), pkt="other"))
        assert eng.post_recv(posted(key(tag=5))) is None
        assert eng.post_recv(posted(key(tag=9))).packet == "other"
        assert eng.match_arrival(key(tag=5)).request == "req"

    def test_match_counters(self):
        eng = MatchingEngine()
        eng.post_recv(posted(key(tag=1)))
        eng.match_arrival(key(tag=1))
        eng.add_unexpected(unexpected(key(tag=2)))
        eng.post_recv(posted(key(tag=2)))
        assert eng.matched_posted == 1
        assert eng.matched_unexpected == 1
