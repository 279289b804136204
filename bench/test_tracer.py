"""Self-time arithmetic and namespace patching of the bench tracer.

Runs under pytest, or standalone: ``python3 bench/test_tracer.py``.
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import NO_PARENT, Tracer, self_times  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a1 [2, 3];
    # b has b1 [5, 6] and b2 [7, 8.5]; a second root c [11, 12]
    spans = [
        ("root", 0.0, 10.0, NO_PARENT),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b1", 5.0, 6.0, 3),
        ("b2", 7.0, 8.5, 3),
        ("c", 11.0, 12.0, NO_PARENT),
    ]
    _, start, end, parent = zip(*spans)
    got = self_times(start, end, parent)
    want = [10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5, 1]
    assert np.allclose(got, want)
    # self times of a tree add up to the root durations
    assert np.isclose(got.sum(), 10.0 + 1.0)


def test_install_wraps_every_alias_and_records_parents():
    lib = types.ModuleType("pkg.lib")
    user = types.ModuleType("pkg.user")
    exec("__all__ = ['leaf', 'outer']\n"
         "def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n", lib.__dict__)
    lib.leaf.__module__ = lib.outer.__module__ = "pkg.lib"
    user.leaf = lib.leaf  # as bound by ``from pkg.lib import leaf``
    tracer = Tracer()
    tracer.install([lib, user])
    try:
        assert user.leaf(1) == 2
        assert lib.outer(1) == 4
    finally:
        tracer.uninstall()
    assert user.leaf.__name__ == "leaf" and not hasattr(user.leaf, "__wrapped__")
    spans = tracer.arrays()
    names = [str(spans["names"][i]) for i in spans["name_id"]]
    assert names == ["lib.leaf", "lib.outer", "lib.leaf"]
    assert list(spans["parent"]) == [NO_PARENT, NO_PARENT, 1]


def test_raised_calls_are_flagged():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("m.boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    spans = tracer.arrays()
    assert list(spans["raised"]) == [1]
    assert spans["end"][0] >= spans["start"][0]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
