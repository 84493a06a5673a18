"""The benchmark tracer wraps profmack functions by name; a rename would break
``perfbench/run.py --trace 1`` only when it runs, so check the names here."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    targets = tracer.functions()
    assert targets
    for layer, key, attr in targets:
        home = importlib.import_module(tracer.MODULE_OF[layer])
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() replaces the method found in the class's own dict
            assert callable(vars(getattr(home, cls_name)).get(meth)), key
        else:
            assert callable(getattr(home, attr, None)), key


def test_benchmark_rep_tools_exist():
    mackey = importlib.import_module("profmack.mackey")
    assert callable(mackey._RepTools)
