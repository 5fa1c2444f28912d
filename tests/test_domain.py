"""Bundles, allocations, report sets and instances."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import iterauction as ia
from iterauction.domain import report_arrays
from iterauction.errors import DegenerateInstanceError, InvalidInputError


class TestBundles:
    def test_as_bundle_validates_entries(self):
        assert ia.as_bundle([1, 0, 1]).tolist() == [1, 0, 1]
        with pytest.raises(InvalidInputError):
            ia.as_bundle([2, 0])
        with pytest.raises(InvalidInputError):
            ia.as_bundle([1, 0], m=3)

    @pytest.mark.parametrize("entries", [[0.5, 1.0], [0.3, 1], [2, 0], [-1, 1], [np.nan, 1]])
    def test_non_zero_one_entries_are_rejected_before_the_cast(self, entries):
        # a cast to int first would turn 0.5 and 0.3 into a silent 0
        with pytest.raises(InvalidInputError, match="0 or 1"):
            ia.as_bundle(entries)
        with pytest.raises(InvalidInputError, match="0 or 1"):
            ia.as_allocation([entries, [0, 0]])
        rs = ia.ReportSet(1, 2)
        with pytest.raises(InvalidInputError, match="0 or 1"):
            rs.add(0, entries, 0.5)
        rs.add(0, [0, 1], 0.5)
        with pytest.raises(InvalidInputError, match="0 or 1"):
            rs.value_of(0, entries)

    @pytest.mark.parametrize("entries", [[0, 1], [False, True], [0.0, 1.0], np.array([0.0, 1.0])])
    def test_int_bool_and_integral_float_entries_pass(self, entries):
        b = ia.as_bundle(entries)
        assert b.dtype == np.int64 and b.tolist() == [0, 1]
        assert ia.as_allocation([entries]).tolist() == [[0, 1]]
        rs = ia.ReportSet(1, 2)
        rs.add(0, entries, 0.5)
        assert rs.value_of(0, [0, 1]) == 0.5

    def test_allocation_feasibility(self):
        assert ia.is_feasible([[1, 0], [0, 1]], m=2)
        assert not ia.is_feasible([[1, 0], [1, 0]], m=2)
        assert ia.empty_allocation(2, 3).sum() == 0


class TestReportSet:
    def test_add_and_lookup(self):
        rs = ia.ReportSet(2, 3)
        rs.add(0, [1, 0, 1], 0.5)
        assert rs.value_of(0, [1, 0, 1]) == 0.5
        assert rs.value_of(0, [0, 0, 1]) is None
        assert rs.count(0) == 1 and rs.count(1) == 0

    def test_rejects_duplicates_and_bad_values(self):
        rs = ia.ReportSet(1, 2)
        rs.add(0, [1, 0], 0.3)
        with pytest.raises(InvalidInputError):
            rs.add(0, [1, 0], 0.4)
        with pytest.raises(InvalidInputError):
            rs.add(0, [0, 1], -0.1)
        with pytest.raises(InvalidInputError):
            rs.add(0, [0, 0], 0.2)

    def test_restricted_to_reindexes(self):
        rs = ia.ReportSet(3, 2)
        rs.add(2, [1, 1], 0.9)
        sub = rs.restricted_to([2])
        assert sub.n == 1 and sub.value_of(0, [1, 1]) == 0.9

    def test_restricted_to_shares_read_only_reports_in_lists_of_its_own(self):
        # the restricted set shares the checked reports, so a stored bundle
        # cannot be written; adding to either set leaves the other as it is
        rs = ia.ReportSet(3, 2)
        rs.add(0, [1, 0], 0.4)
        rs.add(2, [1, 1], 0.9)
        rs.add(2, [0, 1], 0.5)
        sub = rs.restricted_to([2, 0])
        assert sub.per_bidder[0] == rs.per_bidder[2] and sub.per_bidder[1] == rs.per_bidder[0]
        assert all(b is c for (b, _), (c, _) in zip(sub.per_bidder[0], rs.per_bidder[2]))
        with pytest.raises(ValueError):
            rs.per_bidder[2][0][0][0] = 0
        sub.add(0, [1, 0], 0.6)
        rs.add(0, [0, 1], 0.1)
        assert rs.count(2) == 2 and rs.value_of(2, [1, 0]) is None
        assert sub.count(1) == 1 and sub.value_of(1, [0, 1]) is None
        assert sub.value_of(0, [1, 0]) == 0.6 and sub.bundles_of(0) == {(1, 1), (0, 1), (1, 0)}

    def test_json_round_trip(self):
        rs = ia.ReportSet(2, 2)
        rs.add(0, [1, 1], 1.0)
        rs.add(1, [0, 1], 0.25)
        back = ia.ReportSet.from_json_obj(json.loads(json.dumps(rs.to_json_obj())))
        assert back.value_of(1, [0, 1]) == 0.25

    @pytest.mark.parametrize("key", ["n", "m", "reports"])
    def test_json_without_a_key_is_rejected_naming_it(self, key):
        obj = {"n": 1, "m": 2, "reports": [[[[1, 1], 1.0]]]}
        del obj[key]
        with pytest.raises(InvalidInputError, match=rf"missing required keys \['{key}'\]"):
            ia.ReportSet.from_json_obj(obj)

    def test_json_that_is_not_an_object_is_rejected(self):
        with pytest.raises(InvalidInputError, match="must be a JSON object"):
            ia.ReportSet.from_json_obj([[[[1, 1], 1.0]]])

    @pytest.mark.parametrize("obj, message", [
        ({"n": "2", "m": 2, "reports": [[], []]}, "'n' must be an int"),
        ({"n": True, "m": 2, "reports": [[]]}, "'n' must be an int"),
        ({"n": 1, "m": 2.0, "reports": [[]]}, "'m' must be an int"),
        ({"n": 2, "m": 2, "reports": 5}, "list of 2 lists"),
        ({"n": 2, "m": 2, "reports": [[[[1, 1], 1.0]]]}, "list of 2 lists"),
        ({"n": 1, "m": 2, "reports": [5]}, "list of 1 lists"),
        # a report that is not a [bundle, value] pair, named by its bidder
        ({"n": 1, "m": 2, "reports": [[5]]}, r"bidder 0's report 5 is not a \[bundle, value\]"),
        ({"n": 2, "m": 2, "reports": [[], [[[1, 1]]]]}, r"bidder 1's report \[\[1, 1\]\] is not"),
        ({"n": 1, "m": 2, "reports": [[[[1, 1], 1.0, 2.0]]]}, "bidder 0's report"),
    ])
    def test_json_with_mistyped_or_short_values_is_rejected(self, obj, message):
        with pytest.raises(InvalidInputError, match=message):
            ia.ReportSet.from_json_obj(obj)

    def test_reported_welfare_ignores_unreported(self):
        rs = ia.ReportSet(2, 2)
        rs.add(0, [1, 0], 0.6)
        w = ia.reported_welfare([[1, 0], [0, 1]], rs)
        assert w == 0.6


FULL = ([1, 1, 1, 1], 2.0)
MALFORMED = {
    "no reports": [],
    "ragged bundles": [FULL, ([1, 0, 1], 1.0)],
    "a bundle longer than m": [([1, 1, 1, 1, 1], 2.0)],
    "a fractional entry": [FULL, ([0.5, 0, 1, 0], 1.0)],
    "an entry of 2": [FULL, ([2, 0, 1, 0], 1.0)],
    "a negative value": [FULL, ([1, 0, 1, 0], -0.5)],
    "a NaN value": [([1, 1, 1, 1], float("nan"))],
    "an infinite value": [([1, 1, 1, 1], float("inf"))],
    "an empty bundle at a non-zero value": [FULL, ([0, 0, 0, 0], 0.5)],
    "a bundle reported twice": [FULL, ([1, 1, 0, 0], 1.0), ([1, 0, 0, 0], 0.5), ([1, 1, 0, 0], 1.5)],
}


def _report_set(reports):
    rs = ia.ReportSet(1, 4)
    for b, v in reports:
        rs.add(0, b, v)


def _train_uub(reports):
    net = ia.init_params([4, 3, 1], ia.InitHyper())
    ia.train_uub(reports, net, net, ia.NomuHyper(), ia.TrainHyper(epochs=2), ia.InitHyper(),
                 [4, 3, 1])


READERS = {
    "build_exact_uub": ia.build_exact_uub,
    "train_mean": lambda reports: ia.train_mean(reports, [4, 3, 1], ia.InitHyper(),
                                                ia.TrainHyper(epochs=2)),
    "train_uub": _train_uub,
    "ReportSet.add": _report_set,
}
# the exact bound takes m from the reports, and a report set is never empty
NOT_APPLICABLE = {("build_exact_uub", "a bundle longer than m"), ("ReportSet.add", "no reports")}


class TestReportArrays:
    def test_reads_reports_as_a_float_matrix_and_a_value_vector(self):
        X, y = report_arrays([(np.array([1, 0]), 1), ([0, 0], 0.0), ((True, True), 2)], m=2)
        assert X.dtype == y.dtype == np.float64
        assert X.tolist() == [[1, 0], [0, 0], [1, 1]] and y.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("reader, case", [(r, c) for r in READERS for c in MALFORMED
                                              if (r, c) not in NOT_APPLICABLE])
    def test_every_reader_rejects_a_malformed_report(self, reader, case):
        with pytest.raises(InvalidInputError):
            READERS[reader](MALFORMED[case])


class TestSocialWelfare:
    def test_bidder_values_are_added_left_to_right(self):
        # the builtin sum of floats is compensated from Python 3.12 on and
        # would give 1e16 + 2 here
        values = [1e16, 1.0, 1.0]
        inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=2), seed=0)
        inst.values = [SimpleNamespace(value=lambda b, v=v: v) for v in values]
        assert math.fsum(values) != 1e16
        assert inst.social_welfare(ia.empty_allocation(3, 2)) == 1e16


class TestEfficiencyLoss:
    def test_optimal_allocation_has_zero_loss(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=0)
        assert ia.efficiency_loss(inst.optimal_allocation, inst) == 0.0

    def test_empty_allocation_has_full_loss(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=0)
        assert ia.efficiency_loss(ia.empty_allocation(2, 4), inst) == 1.0

    def test_degenerate_instance_rejected(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=0)
        inst.optimal_welfare = 0.0
        with pytest.raises(DegenerateInstanceError):
            ia.efficiency_loss(ia.empty_allocation(2, 4), inst)

    def test_instance_json_without_its_keys_is_rejected_naming_them(self):
        with pytest.raises(InvalidInputError, match=r"instance is missing required keys "
                           r"\['n', 'm', 'bidders', 'optimal_allocation', 'optimal_welfare'\]"):
            ia.AuctionInstance.from_json("{}")

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.update(bidders=o["bidders"][:1]), "'bidders' must be a list of n=2"),
        (lambda o: o["bidders"][1]["params"].update(base=[0.5] * 3),
         "bidder 1's value model has 3 items, not m=4"),
        (lambda o: o.update(optimal_allocation=[[1, 0, 1, 0]]), "allocation has 1 bidders"),
        (lambda o: o.update(optimal_allocation=[[1, 0, 1], [0, 1, 0]]), "allocation has 3 items"),
        (lambda o: o.update(n=2.0), "'n' must be an int"),
    ], ids=["one-bidder-short", "bidder-m", "allocation-n", "allocation-m", "float-n"])
    def test_instance_json_of_the_wrong_shape_is_rejected(self, edit, message):
        # before, an n=2 file with one bidder loaded, and efficiency_loss
        # on it raised IndexError
        obj = json.loads(ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=3).to_json())
        edit(obj)
        with pytest.raises(InvalidInputError, match=message):
            ia.AuctionInstance.from_json(json.dumps(obj))

    def test_instance_json_round_trip(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=3)
        back = ia.AuctionInstance.from_json(inst.to_json())
        assert back.optimal_welfare == inst.optimal_welfare
        x = np.array([1, 0, 1, 0])
        assert back.values[0].value(x) == inst.values[0].value(x)
