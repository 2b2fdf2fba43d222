"""The service's lease takeover: ``acquire(steal=...)`` and the restart
cap's count of holders that died (``lapsed_fences``)."""

import pytest

from repro.resilience.errors import LeaseLostError
from repro.serve.lease import acquire, lapsed_fences, read_lease

TTL = 60.0  # nothing expires during a test: only steals move the fence


def test_steal_claims_over_the_named_live_fence_only(tmp_path):
    holder = acquire(tmp_path, "w0", ttl=TTL)
    assert acquire(tmp_path, "service", ttl=TTL) is None
    assert acquire(tmp_path, "service", ttl=TTL,
                   steal=holder.fence + 1) is None
    taker = acquire(tmp_path, "service", ttl=TTL, steal=holder.fence)
    assert taker.fence == holder.fence + 1
    with pytest.raises(LeaseLostError):
        holder.check()  # the stolen holder's next write is refused


def test_lapsed_fences_count_deaths_not_handoffs(tmp_path):
    assert lapsed_fences(tmp_path) == 0
    acquire(tmp_path, "a", ttl=TTL).release()  # a drain handoff
    dead = acquire(tmp_path, "b", ttl=TTL)     # dies holding the job
    service = acquire(tmp_path, "service", ttl=TTL, steal=dead.fence)
    assert lapsed_fences(tmp_path) == 1
    assert read_lease(tmp_path).reclaims == 2  # counts the handoff too
    service.release()
    acquire(tmp_path, "peer", ttl=TTL)         # the adopter
    assert lapsed_fences(tmp_path) == 1
