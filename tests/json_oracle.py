"""The JSON that ``OutputEnvelope.to_json`` must print, built the plain way."""

import json
from enum import Enum

from casimir_kit.output import Table


def plain(obj):
    """``obj`` as plain JSON data: enums as values, tables as row dicts."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Table):
        return [{key: plain(value) for key, value in zip(obj.fields, row)}
                for row in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    return obj


def envelope_data(envelope) -> dict:
    return {
        "command": envelope.command,
        "inputs": plain(envelope.inputs),
        "results": plain(envelope.results),
        "metadata": plain(envelope.metadata),
    }


def expected_json(envelope) -> str:
    return json.dumps(envelope_data(envelope), indent=2) + "\n"
