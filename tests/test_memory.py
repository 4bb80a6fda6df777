"""What `run` and `verify` hold at once on the crit5-ray instance.

A point's subset is read only by the pairs within R of it, so each command
holds a subset as a set only while a pair still reads it. Holding every
subset as a frozenset at once, the two commands peaked at about 7.8 and
7.1 MiB of traced memory on this instance.

The output tree that `run` hands the writer holds the certificate's pair
rows as the pipeline's tuples. With one dict per row it held 0.90 MiB here.
"""
from __future__ import annotations

import contextlib
import io
import tracemalloc

import pytest

from naivea.cli import main
from naivea.instance_io import load_instance, output_to_jsonable
from naivea.tailor import prepare, run_pipeline

LIMIT = 5.5 * 2**20  # bytes of traced peak, for each command
TREE_LIMIT = 0.4 * 2**20  # bytes the output tree holds


@pytest.fixture(scope="module")
def ray(tmp_path_factory):
    root = tmp_path_factory.mktemp("crit5")
    inst = root / "inst.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "line", "--count", "2000", "--radii", "12,6", "--R", "2",
                     "--epsilon", "1/2", "--unbounded", "--out", str(inst)]) == 0
    return inst, root / "out.json"


def traced_peak(argv) -> int:
    """The traced peak of ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_and_verify_hold_a_short_window_of_subsets(ray):
    inst, out = ray
    peaks = {
        "run": traced_peak(["run", str(inst), "--out", str(out)]),
        "verify": traced_peak(["verify", str(inst), str(out)]),
    }
    assert all(peak < LIMIT for peak in peaks.values()), peaks


def test_the_output_tree_holds_no_row_dicts(ray):
    inst = load_instance(ray[0])
    params = inst.params
    subsets, cert = run_pipeline(
        prepare(inst.space, inst.family, params.R, params.epsilon, params.S))
    tracemalloc.start()
    try:
        tree = output_to_jsonable(subsets, cert)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < TREE_LIMIT, held
    assert tree["certificate"]["pairs"].rows is cert.pairs
