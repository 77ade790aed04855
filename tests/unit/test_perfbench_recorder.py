"""The benchmark's per-layer recorder still binds to the program.

``perfbench/layers.py`` wraps entry points by name (``Session.submit``,
the ``dgemm`` bindings of the scheduler and the apps, ``blocked_lu``
looked up through ``repro.apps.lu``), so entering it fails if one is
renamed; and it reads ``engine=``/``params=`` from the ``dgemm``
keywords, which served LU must therefore pass by keyword.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.api import LuRequest, SubmitOptions
from repro.core.params import BlockingParams
from repro.core.session import Session

LAYERS = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"
PARAMS = BlockingParams.small(double_buffered=True)


def load_recorder(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Recorder


@pytest.mark.parametrize(
    "options, engine",
    [(None, "vectorized"), (SubmitOptions(engine="stepwise"), "stepwise")],
)
def test_served_lu_is_recorded_on_its_engine(monkeypatch, options, engine):
    """Served LU runs on ``options.engine``, else the session's batch
    engine (``vectorized`` by default) — never a hidden ``device``."""
    rng = np.random.default_rng(0)
    n = 48
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    with load_recorder(monkeypatch)() as rec, Session(params=PARAMS) as s:
        rec.active = True
        result = s.submit(LuRequest(a=a, panel=16), options=options)
    assert result.ok
    assert len(rec.calls["lu"]) == 1
    updates = rec.calls["lu.update"]
    assert updates
    assert {call.note[4] for call in updates} == {engine}
    assert all(call.note[3] == PARAMS for call in updates)
