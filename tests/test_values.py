"""Synthetic value-model generators: monotone, normalized, serializable."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iterauction as ia
from iterauction import wdp
from iterauction.errors import InvalidInputError
from iterauction.values import ValueModel, _normalized


class TestHandValues:
    def test_empty_bundle_is_zero(self):
        vm = _normalized("additive", np.array([0.3, 0.7]))
        assert vm.value([0, 0]) == 0.0

    def test_full_bundle_is_one(self):
        vm = _normalized("coverage", np.array([0.3, 0.7, 0.1]), gamma=0.5)
        assert abs(vm.value([1, 1, 1]) - 1.0) <= 1e-12

    def test_pairwise_hand_value(self):
        # base (0.2, 0.2), synergy 0.6 between the two items: full = 1,
        # so the singleton keeps its raw value 0.2
        vm = _normalized("pairwise-synergy", np.array([0.2, 0.2]), synergy={(0, 1): 0.6})
        assert abs(vm.value([1, 0]) - 0.2) <= 1e-12

    def test_json_round_trip(self):
        vm = _normalized("pairwise-synergy", np.array([0.2, 0.5]), synergy={(0, 1): 0.3})
        back = ValueModel.from_json_obj(vm.to_json_obj())
        for x in ([0, 1], [1, 0], [1, 1]):
            assert back.value(x) == vm.value(x)

    @pytest.mark.parametrize("obj, message", [
        ({}, r"value model is missing required keys \['type', 'params'\]"),
        ({"type": "additive", "params": {}},
         r"value model params is missing required keys \['base', 'synergy', 'normalizer'\]"),
        ({"type": "additive", "params": [0.5]}, "value model params must be a JSON object"),
    ])
    def test_json_without_its_keys_is_rejected_naming_them(self, obj, message):
        with pytest.raises(InvalidInputError, match=message):
            ValueModel.from_json_obj(obj)


@st.composite
def model_and_pair(draw):
    m = draw(st.integers(2, 6))
    from iterauction.values import KINDS

    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    from iterauction.values import GeneratorConfig, _random_model

    vm = _random_model(kind, m, GeneratorConfig(n=1, m=m), rng)
    sub = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    sup = [max(a, draw(st.integers(0, 1))) for a in sub]
    return vm, np.array(sub), np.array(sup)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(model_and_pair())
    def test_monotone_on_containment_pairs(self, data):
        vm, sub, sup = data
        assert vm.value(sub) <= vm.value(sup) + 1e-12

    def test_generated_instances_are_deterministic(self):
        a = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=11)
        b = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=11)
        assert a.to_json() == b.to_json()

    def test_instance_optimum_matches_brute_force(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=5), seed=4)
        evs = [vm.value_batch for vm in inst.values]
        bf = ia.brute_force_wdp(evs, inst.m)
        assert abs(bf.objective - inst.optimal_welfare) <= 1e-9

    def test_unproven_optimum_is_rejected(self, monkeypatch):
        # (4 + 1)^11 assignments exceed the brute-force limit, so the
        # generator falls back to branch and bound
        def timed_out(evaluators, m, budget=None, exclusions=None):
            return wdp.WdpSolution(allocation=np.zeros((len(evaluators), m), dtype=np.int64),
                                   objective=0.0, status="time_limit", proven_gap=float("inf"))

        monkeypatch.setattr(wdp, "solve_wdp", timed_out)
        with pytest.raises(ia.UnsupportedSizeError):
            ia.generate_instance(ia.GeneratorConfig(n=4, m=11), seed=0)

    def test_brute_force_optimum_stays_small_in_memory(self):
        # the n=1, m=18 optimum enumerates 2^18 assignments; in 65,536-row
        # blocks its scratch peaked at 37 MB, in cache-sized blocks at
        # about 2.3 MB
        ia.generate_instance(ia.GeneratorConfig(n=1, m=4), seed=0)  # warm caches
        tracemalloc.start()
        try:
            ia.generate_instance(ia.GeneratorConfig(n=1, m=18), seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_batch_matches_scalar(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=1, m=5), seed=2)
        vm = inst.values[0]
        X = np.random.default_rng(0).integers(0, 2, (20, 5))
        batch = vm.value_batch(X.astype(np.float64))
        for k in range(20):
            assert abs(batch[k] - vm.value(X[k])) <= 1e-12


class TestGeneratorConfigJson:
    def test_round_trip_with_non_default_values(self):
        cfg = ia.GeneratorConfig(n=3, m=7, bidder_kinds=("coverage", "additive"),
                                 synergy_density=0.5, synergy_scale=2.0, gamma_range=(0.2, 0.3))
        obj = json.loads(json.dumps(cfg.to_json_obj()))
        assert obj["bidder_kinds"] == ["coverage", "additive"] and obj["gamma_range"] == [0.2, 0.3]
        back = ia.GeneratorConfig.from_json_obj(obj)
        assert back == cfg
        assert isinstance(back.bidder_kinds, tuple) and isinstance(back.gamma_range, tuple)

    def test_partial_dict_takes_the_defaults(self):
        assert ia.GeneratorConfig.from_json_obj({"n": 2, "m": 4}) == ia.GeneratorConfig(n=2, m=4)

    def test_unknown_key_is_rejected(self):
        with pytest.raises(InvalidInputError):
            ia.GeneratorConfig.from_json_obj({"n": 2, "m": 4, "synergy_densty": 0.5})

    @pytest.mark.parametrize("obj, key", [
        ({"m": 4}, "'n'"),
        ({"n": True, "m": 4}, "'n'"),
        ({"n": 2, "m": 4.0}, "'m'"),
        ({"n": 2, "m": 4, "synergy_scale": "2"}, "'synergy_scale'"),
        ({"n": 2, "m": 4, "gamma_range": 0.5}, "'gamma_range'"),
        ({"n": 2, "m": 4, "gamma_range": [0.5]}, "'gamma_range'"),
        ({"n": 2, "m": 4, "gamma_range": ["a", 1]}, "'gamma_range'"),
        ({"n": 2, "m": 4, "bidder_kinds": "additive"}, "'bidder_kinds'"),
        ({"n": 2, "m": 4, "bidder_kinds": ["additive", 1]}, "'bidder_kinds'"),
    ])
    def test_missing_or_mistyped_key_is_rejected(self, obj, key):
        with pytest.raises(InvalidInputError, match=key):
            ia.GeneratorConfig.from_json_obj(obj)

    def test_tuple_fields_take_lists(self):
        cfg = ia.GeneratorConfig.from_json_obj(
            {"n": 2, "m": 4, "bidder_kinds": ["coverage"], "gamma_range": [0.5, 1]})
        assert cfg == ia.GeneratorConfig(n=2, m=4, bidder_kinds=("coverage",), gamma_range=(0.5, 1.0))

    def test_int_passes_as_float(self):
        cfg = ia.GeneratorConfig.from_json_obj({"n": 2, "m": 4, "synergy_scale": 2})
        assert cfg == ia.GeneratorConfig(n=2, m=4, synergy_scale=2)
