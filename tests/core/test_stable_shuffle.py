"""The engine's key-value shuffle must route by the stable hash."""

from repro.core.fixpoint import route_channels
from repro.runtime.executors import StepOutcome
from repro.runtime.message import stable_hash


class TestShuffleRouting:
    def test_keyvalue_destinations_use_stable_hash(self):
        m = 4
        pairs = [("alpha", 1), ("beta", 2), ("alpha", 3), (("t", 9), 4)]
        outcomes = {i: StepOutcome(keyvalue=list(pairs) if i == 0 else [])
                    for i in range(m)}

        designated, keyvalue, _bytes, _msgs = route_channels(m, outcomes)

        assert not designated
        routed = {key: dest for dest, groups in keyvalue.items()
                  for key in groups}
        assert routed == {"alpha": stable_hash("alpha") % m,
                          "beta": stable_hash("beta") % m,
                          ("t", 9): stable_hash(("t", 9)) % m}
        # Values with the same key are grouped at one destination.
        dest = routed["alpha"]
        assert keyvalue[dest]["alpha"] == [1, 3]
