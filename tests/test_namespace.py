"""The lazy package namespace and the command's entry point (its OpenBLAS
default, its frozen heap at exit, its exit codes), each checked in a fresh
interpreter, since they depend on what it has loaded."""

import os
import subprocess
import sys
import textwrap

import pytest

from pavcal import cli


def _python(*args: str, **env: str) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
    return subprocess.run([sys.executable, *args], capture_output=True, env=environ)


def _run(code: str, **env: str) -> str:
    result = _python("-c", textwrap.dedent(code), **env)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode()


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


TINY = "score,label\n-1.5,nontarget\n-0.2,target\n0.4,nontarget\n1.1,target\n2.3,target\n"


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY)
    return path


def _fit(tiny) -> list[str]:
    return ["fit", str(tiny), "--out", str(tiny.with_suffix(".map"))]


def test_the_command_freezes_the_heap_once_it_has_returned(tiny):
    for argv in (["-h"], _fit(tiny)):
        lines = _run(f"""
            import gc, runpy, sys

            sys.argv = ["pavcal", *{argv!r}]
            try:
                runpy.run_module("pavcal", run_name="__main__")
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            print(gc.get_freeze_count(), gc.isenabled())
        """).splitlines()
        count, enabled = lines[-1].split()
        assert int(count) > 0 and enabled == "True", (argv, lines[-1])


def test_the_cli_called_in_process_freezes_nothing(tiny):
    _run(f"""
        import gc, pavcal.cli

        assert pavcal.cli.main({_fit(tiny)!r}) == 0
        assert gc.get_freeze_count() == 0, gc.get_freeze_count()
    """)


def test_the_command_exits_with_the_clis_codes_and_output(tiny, capsys):
    missing = _python("-m", "pavcal", "fit", str(tiny.with_name("missing.csv")), "--out",
                      str(tiny.with_suffix(".map")))
    assert missing.returncode == 1 and missing.stderr.startswith(b"error: cannot read "), missing
    usage = _python("-m", "pavcal", "fit", str(tiny))
    assert usage.returncode == 2 and b"--out" in usage.stderr, usage
    argv = [*_fit(tiny), "--rule", "log", "--rule", "brier"]
    command = _python("-m", "pavcal", *argv)
    assert command.returncode == 0 and command.stderr == b"", command
    assert cli.main(argv) == 0
    assert command.stdout == capsys.readouterr().out.encode()
