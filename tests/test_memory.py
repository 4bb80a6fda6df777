"""What `run` and `verify` hold at once on the crit5-ray instance.

A point's subset is read only by the pairs within R of it, so each command
holds a subset as a set only while a pair still reads it. Holding every
subset as a frozenset at once, the two commands peaked at about 7.8 and
7.1 MiB of traced memory on this instance.
"""
from __future__ import annotations

import contextlib
import io
import tracemalloc

import pytest

from naivea.cli import main

LIMIT = 5.5 * 2**20  # bytes of traced peak, for each command


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
