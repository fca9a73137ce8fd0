"""Checked reading of the JSON objects that hold the pipeline config and the phantom spec."""

from __future__ import annotations

import json


def _json_kind(value) -> str:
    """JSON type name of a value; the checked objects' lists all hold numbers."""
    if isinstance(value, (list, tuple)):
        return "list of numbers" if all(_json_kind(v) == "number" for v in value) else "list"
    kinds = {bool: "bool", int: "number", float: "number", str: "string", dict: "object"}
    return kinds.get(type(value), "null")


def overlay_json(obj, default: dict, where: str) -> dict:
    """``default`` with ``obj`` written over it key by key, once ``obj``'s keys and JSON types match it."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be a JSON object, got {json.dumps(obj)}")
    unknown = set(obj) - set(default)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    merged = dict(default)
    for key, value in obj.items():
        if isinstance(default[key], dict):
            merged[key] = overlay_json(value, default[key], key)
        elif _json_kind(value) == _json_kind(default[key]):
            merged[key] = value
        else:
            raise TypeError(f"{key} must be a JSON {_json_kind(default[key])}, got {json.dumps(value)}")
    return merged
