"""Every ``repro.…`` name that README.md puts in backticks must exist.

Documented API must not outlive its code: each backticked dotted name
starting with ``repro.`` is imported (longest importable module prefix)
and the rest is resolved attribute by attribute.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

#: The dotted name at the start of a backticked span, e.g. ``repro.api`` in
#: `repro.api` or ``repro.open_oram`` in `repro.open_oram(spec, config)`.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")

NAMES = sorted(set(NAME.findall(README.read_text(encoding="utf-8"))))


def resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(f"no importable prefix of {dotted}")


def test_readme_names_some_api():
    assert len(NAMES) >= 10, NAMES


@pytest.mark.parametrize("dotted", NAMES)
def test_readme_name_resolves(dotted):
    resolve(dotted)
