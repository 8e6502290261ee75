"""JSON round-trips for instances and schedules."""

import json
from fractions import Fraction

import pytest

from tdmcfg.model import ClientRequirement, ProblemInstance, Schedule
from tdmcfg.serialize import (
    FormatError,
    format_number,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_number,
    save_instance,
    save_schedule,
    load_schedule,
    schedule_from_dict,
    schedule_to_dict,
)


def test_parse_number_decimal_and_fraction():
    assert parse_number("0.1326") == Fraction(1326, 10000)
    assert parse_number("3/7") == Fraction(3, 7)
    assert parse_number(" 2 ") == Fraction(2)
    with pytest.raises(FormatError):
        parse_number("abc")
    with pytest.raises(FormatError):
        parse_number("1/0")


def test_format_number_roundtrip():
    for value in (
        Fraction(1, 2),
        Fraction(1326, 10000),
        Fraction(3, 7),
        Fraction(25, 2),
        Fraction(0),
        Fraction(-3, 8),
    ):
        assert parse_number(format_number(value)) == value


def test_format_number_prefers_decimals():
    assert format_number(Fraction(1, 2)) == "0.5"
    assert format_number(Fraction(25, 2)) == "12.5"
    assert format_number(Fraction(3, 7)) == "3/7"


def test_instance_roundtrip(tmp_path, golden_instance):
    path = tmp_path / "inst.json"
    save_instance(golden_instance, path)
    loaded = load_instance(path)
    assert loaded == golden_instance


def test_instance_from_dict_assigns_sequential_ids():
    data = {
        "frame_size": 4,
        "clients": [
            {"name": "b", "rate": "0.25", "latency_slots": None},
            {"name": "a", "rate": "0.25", "latency_slots": "1.5"},
        ],
    }
    inst = instance_from_dict(data)
    assert [c.id for c in inst.clients] == [1, 2]
    assert inst.clients[1].required_latency == Fraction(3, 2)


def test_instance_dict_drops_extra_keys(golden_instance):
    data = instance_to_dict(golden_instance)
    data["comment"] = "annotation"
    assert instance_from_dict(data) == golden_instance
    assert "comment" not in instance_to_dict(golden_instance)


def test_instance_from_dict_errors():
    with pytest.raises(FormatError):
        instance_from_dict({"clients": []})
    with pytest.raises(FormatError):
        instance_from_dict({"frame_size": 4, "clients": [{"rate": "0.5"}]})
    client = {"name": "a", "rate": "0.3", "latency_slots": "3"}
    # a frame size must be an integer, not one that rounds or casts to one
    for frame_size in (10.9, True, "10"):
        with pytest.raises(FormatError, match="not an integer"):
            instance_from_dict({"frame_size": frame_size, "clients": [client]})
    # two clients of one name collide in schedules and results
    with pytest.raises(FormatError, match="duplicate name"):
        instance_from_dict({"frame_size": 10, "clients": [client, client]})


@pytest.mark.parametrize("clients", [None, 7, "c1", {"name": "c1", "rate": "0.5"}])
def test_instance_from_dict_rejects_a_clients_field_that_is_not_a_list(clients):
    with pytest.raises(FormatError):
        instance_from_dict({"frame_size": 4, "clients": clients})


def test_schedule_roundtrip(tmp_path, golden_instance):
    schedule = Schedule((2, 1, 1, 2, 1, 1, 2, None, 1, None))
    path = tmp_path / "sched.json"
    save_schedule(schedule, golden_instance, path)
    loaded = load_schedule(path, golden_instance)
    assert loaded == schedule
    doc = json.loads(path.read_text())
    assert doc["objective"] == "0.8"
    assert doc["phi"] == {"c1": 5, "c2": 3}


def test_schedule_from_dict_errors(golden_instance):
    doc = schedule_to_dict(
        Schedule((1,) * 10), golden_instance
    )
    doc["frame_size"] = 8
    with pytest.raises(FormatError):
        schedule_from_dict(doc, golden_instance)
    doc2 = schedule_to_dict(Schedule((1,) * 10), golden_instance)
    doc2["slots"][0] = "stranger"
    with pytest.raises(FormatError):
        schedule_from_dict(doc2, golden_instance)
    doc2["slots"][0] = ["c1"]  # not a name at all
    with pytest.raises(FormatError):
        schedule_from_dict(doc2, golden_instance)


@pytest.mark.parametrize("slots", [None, 10, "c1"])
def test_schedule_from_dict_rejects_a_slots_field_that_is_not_a_list(
    golden_instance, slots
):
    with pytest.raises(FormatError):
        schedule_from_dict({"frame_size": 10, "slots": slots}, golden_instance)


def test_bundled_case_study_loads():
    import tdmcfg
    from pathlib import Path

    path = Path(tdmcfg.__file__).parent / "data" / "hd-video.json"
    inst = load_instance(path)
    assert inst.frame_size == 64
    assert inst.n_clients == 7
    by_name = {c.name: c for c in inst.clients}
    assert by_name["GPU_out"].required_latency == Fraction(25, 2)
    assert by_name["CPU"].required_latency is None
