"""The tracer's self-time accounting, and that removing it leaves nothing
wrapped."""

import sys
import types

import pytest

import layers
from tracing import Tracer

from povmlab import harness

LAYER_SOURCE = """
import time

def leaf(seconds):
    time.sleep(seconds)

def middle():
    leaf(0.01)
    leaf(0.01)
    time.sleep(0.005)

def outer():
    middle()
    time.sleep(0.01)

def broken():
    leaf(0.0)
    raise KeyError("boom")

class Box:
    def run(self):
        return outer()
"""


@pytest.fixture
def fake_layer():
    """A synthetic module plus a second one holding a ``from`` copy."""
    mod = types.ModuleType("fake_layer")
    exec(LAYER_SOURCE, vars(mod))
    copy = types.ModuleType("fake_user")
    copy.leaf = mod.leaf
    return mod, copy


def install(tracer, mod, copy):
    modules = [mod, copy]
    tracer.patch_method(mod.Box, "run", "box.run")
    tracer.patch_function(modules, mod, "outer", "outer")
    tracer.patch_function(modules, mod, "middle", "middle")
    tracer.patch_function(modules, mod, "leaf", "leaf",
                          counters=(("leaf.seconds", lambda s: s),))
    tracer.patch_function(modules, mod, "broken", "broken")


def test_self_time_is_span_minus_wrapped_children(fake_layer):
    mod, copy = fake_layer
    tracer = Tracer()
    install(tracer, mod, copy)
    try:
        mod.Box().run()
        mod.Box().run()
    finally:
        tracer.remove()
    calls = {k: v[0] for k, v in tracer.spans.items()}
    total = {k: v[1] for k, v in tracer.spans.items()}
    self_s = {k: v[2] for k, v in tracer.spans.items()}
    assert calls == {"box.run": 2, "outer": 2, "middle": 2, "leaf": 4}
    for parent, child in (("box.run", "outer"), ("outer", "middle"),
                          ("middle", "leaf")):
        assert self_s[parent] == pytest.approx(total[parent] - total[child],
                                               abs=1e-9)
    assert self_s["leaf"] == pytest.approx(total["leaf"], abs=1e-9)
    assert sum(self_s.values()) == pytest.approx(total["box.run"], abs=1e-9)
    # the sleeps put a floor under each span's own time
    assert self_s["leaf"] >= 0.04
    assert self_s["outer"] >= 0.02
    assert self_s["middle"] >= 0.01
    assert tracer.counts == {"leaf.seconds": pytest.approx(0.04)}


def test_span_closes_when_the_call_raises(fake_layer):
    mod, copy = fake_layer
    tracer = Tracer()
    install(tracer, mod, copy)
    try:
        with pytest.raises(KeyError):
            mod.broken()
    finally:
        tracer.remove()
    assert tracer._open == []
    assert tracer.spans["broken"][0] == 1
    assert tracer.spans["leaf"][0] == 1


def test_remove_restores_every_binding(fake_layer):
    mod, copy = fake_layer
    before = (dict(vars(mod)), dict(vars(copy)), dict(vars(mod.Box)))
    tracer = Tracer()
    install(tracer, mod, copy)
    assert hasattr(vars(mod.Box)["run"], "__traced__")
    copy.leaf(0.0)      # the ``from`` copy is traced too
    tracer.remove()
    assert tracer.spans["leaf"][0] == 1
    assert (dict(vars(mod)), dict(vars(copy)), dict(vars(mod.Box))) == before


def _wrapped_leftovers():
    """Every traced wrapper still bound anywhere in povmlab."""
    found = []
    for name, mod in sys.modules.items():
        if name != "povmlab" and not name.startswith("povmlab."):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__traced__"):
                found.append(f"{name}.{key}")
            if isinstance(value, type):
                found += [f"{name}.{key}.{attr}"
                          for attr, member in vars(value).items()
                          if hasattr(member, "__traced__")]
    found += [f"_SUITE_BUILDERS[{k}]" for k, fn
              in harness._SUITE_BUILDERS.items() if hasattr(fn, "__traced__")]
    return found


def test_traced_run_leaves_no_wrappers():
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert _wrapped_leftovers()
        report = harness.run_suite(harness.SuiteConfig(suite="gns-modular"))
    finally:
        tracer.remove()
    assert report["summary"]["failed"] == 0
    assert _wrapped_leftovers() == []
    values = layers.iteration_values(tracer.spans, tracer.counts)
    assert values["modular.build_modular.calls"] >= 1
    assert values["modular.build_modular.carrier_dim"] >= 4
    assert values["harness.suite.gns-modular.s"] > 0
    assert values["harness.self_s"] > 0
