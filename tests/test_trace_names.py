"""The names ``perfbench/spans.py`` wraps must stay bound where it looks them up.

The tracer replaces each ``(owner, attr)`` of ``SPANS`` through
``owner.__dict__``; a cleanup that stops binding one of them (an unused
import in ``regions``, a renamed helper in ``explorer``) would make every
traced benchmark run fail with a ``KeyError``.
"""

import importlib.util
import pathlib
import sys

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load it without writing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    unbound = [(owner.__name__, attr) for owner, attr, _ in spans.SPANS if attr not in owner.__dict__]
    assert unbound == []
