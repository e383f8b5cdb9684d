"""Tests for sweep specs and points (grid expansion, hashing)."""

import pytest

from repro.common.canonical import canonical_hash, canonical_json
from repro.harness import SweepPoint, SweepSpec


class TestCanonical:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_and_lists_hash_identically(self):
        assert canonical_hash({"x": (1, 2)}) == canonical_hash({"x": [1, 2]})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_non_json_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})


class TestSweepPoint:
    def test_param_order_insensitive(self):
        a = SweepPoint.make("k", {"x": 1, "y": 2})
        b = SweepPoint.make("k", {"y": 2, "x": 1})
        assert a == b
        assert a.key == b.key
        assert hash(a) == hash(b)

    def test_kind_distinguishes(self):
        a = SweepPoint.make("k1", {"x": 1})
        b = SweepPoint.make("k2", {"x": 1})
        assert a != b
        assert a.key != b.key

    def test_identity_follows_serialized_form_not_python_equality(self):
        # 1 == True == 1.0 in Python, but they serialize (and therefore
        # cache) differently — the point identity must match the cache.
        one = SweepPoint.make("k", {"x": 1})
        true = SweepPoint.make("k", {"x": True})
        one_f = SweepPoint.make("k", {"x": 1.0})
        assert len({one, true, one_f}) == 3
        assert len({one.key, true.key, one_f.key}) == 3

    def test_nested_values_freeze_and_thaw(self):
        params = {"cfg": {"nodes": 8, "depths": [1, 2]}, "app": "em3d"}
        point = SweepPoint.make("k", params)
        assert point.as_dict() == {
            "cfg": {"nodes": 8, "depths": [1, 2]},
            "app": "em3d",
        }
        assert point["cfg"]["nodes"] == 8
        assert point.get("missing", 42) == 42
        with pytest.raises(KeyError):
            point["missing"]

    def test_points_usable_as_dict_keys(self):
        a = SweepPoint.make("k", {"x": [1, {"y": 2}]})
        b = SweepPoint.make("k", {"x": [1, {"y": 2}]})
        assert {a: "v"}[b] == "v"

    def test_non_json_param_rejected(self):
        with pytest.raises(TypeError):
            SweepPoint.make("k", {"x": object()})


class TestSweepSpec:
    def test_grid_is_cartesian_product_first_axis_slowest(self):
        spec = SweepSpec(kind="k", axes={"a": [1, 2], "b": ["x", "y"]})
        got = [(p["a"], p["b"]) for p in spec.points()]
        assert got == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        assert len(spec) == 4

    def test_base_params_shared_and_overridable_by_axes(self):
        spec = SweepSpec(kind="k", axes={"x": [1, 2]}, base={"x": 0, "y": 9})
        assert [(p["x"], p["y"]) for p in spec] == [(1, 9), (2, 9)]

    def test_derive_adds_per_point_params(self):
        spec = SweepSpec(
            kind="k",
            axes={"app": ["a", "bb"]},
            derive=lambda p: {"iterations": len(p["app"])},
        )
        assert [p["iterations"] for p in spec] == [1, 2]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(kind="k", axes={"a": []}).points()

    def test_no_axes_yields_single_base_point(self):
        spec = SweepSpec(kind="k", base={"x": 1})
        points = spec.points()
        assert len(points) == 1 and points[0]["x"] == 1


