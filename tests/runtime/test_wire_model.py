"""The closed-form wire model: what ``comm_bytes`` counts."""

import pickle

import numpy as np

from repro.core.coordinator import DictCoordinator
from repro.graph.generators import uniform_random_graph
from repro.partition.strategies import HashPartition
from repro.pie_programs import SimProgram, SSSPProgram
from repro.runtime.wire import (ID_BYTES, WIRE_HEADER, ParamBlock,
                                params_bytes, wire_bytes)


def _block(n, dtype=np.float64):
    return ParamBlock(np.arange(n, dtype=np.int64),
                      np.arange(n, dtype=dtype))


class TestWireModel:
    def test_empty_message_is_the_header(self):
        assert wire_bytes(0, 8) == WIRE_HEADER
        assert params_bytes({}, 8) == WIRE_HEADER

    def test_deterministic(self):
        payload = {(v, "dist"): float(v) for v in range(20)}
        assert params_bytes(payload, 8) == params_bytes(dict(payload), 8)

    def test_order_independent(self):
        entries = [((v, "cid"), v * 7) for v in range(10)]
        assert (params_bytes(dict(entries), 8)
                == params_bytes(dict(reversed(entries)), 8))

    def test_linear_in_entries(self):
        sizes = [params_bytes({(v, "hop"): v for v in range(n)}, 8)
                 for n in (0, 5, 50)]
        assert sizes == [WIRE_HEADER + n * (ID_BYTES + 8)
                         for n in (0, 5, 50)]

    def test_values_never_enter_the_figure(self):
        small = {(v, "dist"): 0.5 for v in range(9)}
        large = {(v, "dist"): 1e300 + v for v in range(9)}
        assert params_bytes(small, 8) == params_bytes(large, 8)

    def test_block_and_equivalent_dict_cost_the_same(self):
        block = _block(37)
        as_dict = {(int(v), "dist"): float(x)
                   for v, x in zip(block.ids, block.vals)}
        assert params_bytes(block, 8) == params_bytes(as_dict, 8)
        sourced = ParamBlock(block.ids, block.vals,
                             np.zeros(37, dtype=np.int64))
        assert params_bytes(sourced, 16) == wire_bytes(37, 16)

    def test_tombstones_are_key_only(self):
        coord = DictCoordinator(
            SSSPProgram(),
            HashPartition().partition(uniform_random_graph(20, 40, seed=1), 2))
        gone = {(v, "dist"): None for v in range(6)}
        assert coord.price_tombstones(gone) == WIRE_HEADER + 6 * ID_BYTES

    def test_pickle_fallback_for_non_scalar_payloads(self):
        # no declared width: one serialization of the whole payload
        payload = {(0, "matches"): [1, 2, 3], (1, "matches"): [4]}
        size = params_bytes(payload, None)
        assert size == params_bytes(dict(reversed(payload.items())), None)
        assert 0 < size <= 2 * len(pickle.dumps(payload, protocol=3))
        # unhashable values are fine, and more payload costs more
        payload[(2, "matches")] = [set(), {"k": [5]}]
        assert params_bytes(payload, None) > size

    def test_pickle_fallback_ignores_memo_sharing(self):
        # the same string object repeated, or equal copies of it: the
        # figure must not depend on identity (or on entry order)
        name = "a-long-variable-name"
        shared = {(v, name): True for v in range(300)}
        copies = {(v, "".join(name)): True for v in range(300)}
        assert params_bytes(shared, None) == params_bytes(copies, None)

    def test_pickle_fallback_groups_by_variable_name(self):
        # each name is written once per message, however many entries
        one = params_bytes({(v, "match-u1"): True for v in range(40)}, None)
        two = params_bytes({(v, "match-u1" if v % 2 else "match-u2"): True
                            for v in range(40)}, None)
        assert 0 < two - one < 2 * len("match-u2") + 16
        # keys that are not (node, name) pairs are serialized as they are
        assert params_bytes({"k": 1, "kk": [2, 3]}, None) > 0

    def test_programs_declare_their_width(self):
        assert SSSPProgram.param_width == 8
        assert SimProgram.param_width is None


class TestParamBlockOnThePipe:
    def test_round_trip(self):
        block = ParamBlock(np.array([5, 2, 9], dtype=np.int64),
                           np.array([0.5, 1.5, 2.5]),
                           np.array([1, 1, 3], dtype=np.int64))
        back = pickle.loads(pickle.dumps(block, protocol=5))
        assert np.array_equal(back.ids, block.ids)
        assert np.array_equal(back.vals, block.vals)
        assert (back.ids.dtype, back.vals.dtype) == (np.int64, np.float64)
        assert np.array_equal(back.src, block.src)
        assert len(back) == 3

    def test_wide_labels_survive(self):
        block = ParamBlock(np.array([2 ** 40, -7], dtype=np.int64),
                           np.array([1 << 60, 3], dtype=np.int64))
        back = pickle.loads(pickle.dumps(block, protocol=5))
        assert back.ids.tolist() == [2 ** 40, -7]
        assert back.vals.tolist() == [1 << 60, 3]

    def test_blocks_cost_no_more_than_the_dict(self):
        # beyond a fixed envelope (the constructor's name, once per
        # pickle): 12 bytes an entry against the dict's 15 or more
        for n in (1, 3, 10, 200):
            block = _block(n)
            as_dict = {(int(v), "dist"): float(x)
                       for v, x in zip(block.ids, block.vals)}
            assert (len(pickle.dumps(block, protocol=5))
                    <= len(pickle.dumps(as_dict, protocol=5)) + 64)
