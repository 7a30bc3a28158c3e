"""The lazy package namespace and the command's OpenBLAS default, each
checked in a fresh interpreter, since both depend on what it has loaded."""

import os
import subprocess
import sys
import textwrap


def _run(code: str, **env: str) -> str:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=environ
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_numpy():
    _run("import pavcal, sys; assert 'numpy' not in sys.modules")


def test_public_names_are_their_submodules_objects():
    _run("""
        import importlib, inspect, sys
        import pavcal

        assert pavcal.__all__ == [
            "BlockSolution", "Brier", "CalibrationMap", "CostAt", "CustomDensity",
            "DiracMixture", "Label", "LlrCalibration", "Logarithmic", "ScoringRule",
            "WeightPair", "apply_map", "build_map", "expected_cost",
            "grid_minimizer", "llr_calibrate", "logit", "maxmin_oracle", "objective",
            "parse_rule", "pav_fit", "pav_posteriors", "pooled_value", "posterior_from_llr",
            "sigmoid", "weights_from_prior",
        ]
        assert set(pavcal.__all__) <= set(dir(pavcal))
        assert pavcal.llr is sys.modules["pavcal.llr"]
        # Once its submodule is loaded, a name is found without __getattr__ too.
        assert inspect.getattr_static(pavcal, "llr_calibrate") is pavcal.llr.llr_calibrate
        for name in pavcal.__all__:
            obj = getattr(pavcal, name)
            assert obj.__module__.startswith("pavcal."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    """)


def test_unknown_names_raise_and_star_import_works():
    _run("""
        import pavcal

        for name in ("nope", "__wrapped__"):
            try:
                getattr(pavcal, name)
            except AttributeError as exc:
                assert repr(name) in str(exc), exc
            else:
                raise AssertionError(name)
        namespace = {}
        exec("from pavcal import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(pavcal.__all__)
        assert all(namespace[name] is getattr(pavcal, name) for name in pavcal.__all__)
    """)


RUN_HELP = """
    import os, runpy, sys

    sys.argv = ["pavcal", "-h"]
    try:
        runpy.run_module("pavcal", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def test_the_command_defaults_to_one_openblas_thread():
    assert _run(RUN_HELP).splitlines()[-1] == "1"


def test_the_command_keeps_a_thread_count_the_user_set():
    assert _run(RUN_HELP, OPENBLAS_NUM_THREADS="3").splitlines()[-1] == "3"


def test_importing_the_cli_sets_no_thread_count():
    _run("import os, pavcal.cli; assert 'OPENBLAS_NUM_THREADS' not in os.environ")
