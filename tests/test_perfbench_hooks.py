"""The names perfbench/layers.py traces stay bound where its tracer looks them up.

A refactor that unbinds one of them (or hoists a call-time import, so the
caller keeps the unwrapped original) would otherwise only show up in a full
``perfbench/run.py --trace 1`` run.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from naivea.cli import main
from naivea.generators import gen_instance
from naivea.instance_io import instance_to_doc, load_instance, write_canonical

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(layers):
    for module, attr, _ in layers.TIMED:
        assert callable(vars(importlib.import_module(module)).get(attr)), (module, attr)
    for module, cls, method, _ in layers.COUNTED:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(vars(owner).get(method)), (module, cls, method)
    layers.Tracer().patches()  # also looks up GraphMetric.row


def test_traced_cycle_reaches_every_count(layers, tmp_path):
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    trace = str(tmp_path / "trace.txt")
    # case 1 throughout, so every point is flowed and tailored
    assert main(["generate", "line", "--count", "12", "--unbounded", "--out", inst]) == 0
    tracer = layers.Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.patches()]
    ops = {}
    with layers.installed(tracer):
        for name, argv in (
            ("run", ["run", inst, "--out", out, "--trace", trace]),
            ("verify", ["verify", inst, out]),
        ):
            with tracer.op(f"cli.{name}"):
                assert main(argv) == 0
            ops[name] = tracer.take()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)

    metrics = layers.cycle_metrics(ops["run"], ops["verify"])
    # tailor.cases_* are read from the output file, not traced
    missing = [
        name for name in layers.EXACT
        if not name.startswith("tailor.cases_") and name not in metrics
    ]
    assert not missing
    # run flows and serializes every point; verify checks the certificate's
    # claims and never reruns the pipeline
    for name, once, flowed in (("run", 1, 12), ("verify", 0, 0)):
        calls = ops[name]["calls"]
        assert calls["tailor.run_pipeline"] == once, name
        assert calls["instance_io.to_jsonable"] == once, name
        # one settling pass per point: flow.steps counts its firings
        assert calls["flow.stabilize"] == flowed, name
        # crit2-paths (all case 2) no longer reaches this hook; every flowed point does
        assert calls["tailor.tailor_subset"] == flowed, name
    for name, op in ops.items():
        # one admission and one S-Rips search per operation, also when run
        # replays the flow for --trace, and verify takes admission's
        # qualifying pairs; each stage must stay traced
        for stage in ("chains.admission", "space.rips", "chains.pairs"):
            assert op["calls"][stage] == 1, (name, stage)
    # run prepares once; verify decides the cases from the space and runs
    # none of run's later stages
    for stage in ("tailor.classify", "augment.augment", "flow.build"):
        assert ops["run"]["calls"][stage] == 1, stage
        assert ops["verify"]["calls"][stage] == 0, stage
    # verify loads and parses the output once each, and builds its subsets
    # while it decodes; run reads no output
    for stage in ("instance_io.load_output", "instance_io.parse_subsets"):
        assert ops["verify"]["calls"][stage] == 1, stage
        assert ops["run"]["calls"][stage] == 0, stage
    # both halves of verify stay traced
    for half in ("verify.naive", "verify.certificate"):
        assert ops["verify"]["calls"][half] == 1, half
        assert ops["run"]["calls"][half] == 0, half


def test_traced_load_regenerates_through_the_module(layers, tmp_path):
    """A generator-metric instance without chains is loaded by regenerating
    them with ``generators.gen_instance`` as the module holds it at call
    time, so the tracer sees the one call."""
    space, family, params = gen_instance("line", {"count": 8, "radii": ["2"]}, seed=1)
    thin = instance_to_doc(space, family, params)
    del thin["chains"]
    path = tmp_path / "thin.json"
    write_canonical(path, thin)
    tracer = layers.Tracer()
    with layers.installed(tracer):
        with tracer.op("cli.load"):
            load_instance(path)
        calls = tracer.take()["calls"]
    assert calls["generators.gen_instance"] == 1
