"""JSON formats for instances, schedules and solver results.

Rates and latencies are serialized as strings so they parse back to
exact rationals: plain decimals ("0.1326") when the denominator is a
power of 2 and 5, otherwise "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .model import ClientRequirement, ProblemInstance, Schedule, service_latency

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Malformed instance or schedule file."""


def parse_number(text: str) -> Fraction:
    """Exact rational from a decimal string or a "p/q" fraction string."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse number {text!r}") from exc


def _parse_frame_size(value) -> int:
    """A frame size as written in a document: a JSON integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"frame size {value!r} is not an integer")
    return value


def format_number(value: Fraction) -> str:
    """Decimal string when exact, else "p/q"."""
    value = Fraction(value)
    den = value.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        # exact decimal expansion
        digits = 0
        scaled = value
        while scaled.denominator != 1:
            scaled *= 10
            digits += 1
        text = str(scaled.numerator)
        if digits == 0:
            return text
        sign = "-" if value < 0 else ""
        text = text.lstrip("-").rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "frame_size": instance.frame_size,
        "clients": [
            {
                "name": c.name,
                "rate": format_number(c.required_rate),
                "latency_slots": (
                    None
                    if c.required_latency is None
                    else format_number(c.required_latency)
                ),
            }
            for c in instance.clients
        ],
    }


def instance_from_dict(data: dict) -> ProblemInstance:
    try:
        frame_size = _parse_frame_size(data["frame_size"])
        raw_clients = data["clients"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad instance document: {exc}") from exc
    if not isinstance(raw_clients, list):
        raise FormatError("bad instance document: clients is not a list")
    clients = []
    for i, entry in enumerate(raw_clients, start=1):
        try:
            name = str(entry["name"])
            rate = parse_number(str(entry["rate"]))
            raw_latency = entry.get("latency_slots")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad client entry {i}: {exc}") from exc
        latency = None if raw_latency is None else parse_number(str(raw_latency))
        if any(c.name == name for c in clients):
            # schedules and results name clients, so two of one name collide
            raise FormatError(f"client entry {i}: duplicate name {name!r}")
        clients.append(ClientRequirement(i, name, rate, latency))
    return ProblemInstance(frame_size, tuple(clients))


def load_instance(path: PathLike) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(instance: ProblemInstance, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def schedule_to_dict(schedule: Schedule, instance: ProblemInstance) -> dict:
    names = {c.id: c.name for c in instance.clients}
    phi = {c.name: schedule.alloc_count(c.id) for c in instance.clients}
    theta = {
        c.name: format_number(service_latency(schedule, c.id))
        for c in instance.clients
        if schedule.alloc_count(c.id) > 0
    }
    total = sum(phi.values())
    return {
        "frame_size": schedule.frame_size,
        "slots": [None if s is None else names[s] for s in schedule.slots],
        "phi": phi,
        "theta": theta,
        "objective": format_number(Fraction(total, schedule.frame_size)),
    }


def schedule_from_dict(data: dict, instance: ProblemInstance) -> Schedule:
    try:
        frame_size = _parse_frame_size(data["frame_size"])
        raw_slots = data["slots"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad schedule document: {exc}") from exc
    if not isinstance(raw_slots, list):
        raise FormatError("bad schedule document: slots is not a list")
    if frame_size != instance.frame_size:
        raise FormatError(
            f"schedule frame size {frame_size} != instance {instance.frame_size}"
        )
    ids = {c.name: c.id for c in instance.clients}
    slots: list[Optional[int]] = []
    for j, name in enumerate(raw_slots, start=1):
        if name is None:
            slots.append(None)
        elif isinstance(name, str) and name in ids:
            slots.append(ids[name])
        else:
            raise FormatError(f"slot {j} names unknown client {name!r}")
    if len(slots) != frame_size:
        raise FormatError("slot list length does not match frame size")
    return Schedule(tuple(slots))


def load_schedule(path: PathLike, instance: ProblemInstance) -> Schedule:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh), instance)


def save_schedule(
    schedule: Schedule, instance: ProblemInstance, path: PathLike
) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule, instance), fh, indent=2)
        fh.write("\n")
