"""The process entry and the lazy package, observed in fresh interpreters."""

import gc
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairmeasure.cli import EXIT_OK, EXIT_PARSE, main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
SUBMODULES = ("cli", "entanglement", "errors", "fileio", "hilbert", "measurement",
              "scenarios", "symmetry")
SCENARIO = ["position-scenario", "--lattice", "8", "--mode-a", "1", "--xa", "2", "--xb", "5",
            "--output", "json"]
CLASSIFY = ["classify", "--state", str(FIXTURES / "momentum_state.txt"),
            "--measure", str(FIXTURES / "momentum_measure.txt")]

# Runs ``python -m pairmeasure`` in this process through runpy, then prints,
# as JSON on the last line of stderr, what the call left behind.
RUN_MAIN = """
import gc, runpy, sys
sys.argv = ["pairmeasure", *ARGV]
code = None
try:
    runpy.run_module("pairmeasure", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
left = {"code": code, "modules": sorted(sys.modules), "gc_enabled": gc.isenabled(),
        "frozen": gc.get_freeze_count()}
import json
sys.stdout.flush()
sys.stderr.write(json.dumps(left) + "\\n")
"""


def child_env():
    """The environment for a child interpreter: ``src`` on its path."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}


def run_child(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=120)


def run_python(code: str) -> str:
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def run_main(argv: list[str]) -> dict:
    proc = run_child("-c", f"ARGV = {argv!r}\n" + RUN_MAIN)
    return json.loads(proc.stderr.decode().splitlines()[-1])


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    loaded = json.loads(run_python(
        "import json, sys, pairmeasure\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith(('numpy.', 'pairmeasure')))))"
    ))
    assert loaded == ["pairmeasure"]


def test_every_public_name_is_what_its_defining_module_binds():
    report = run_python(
        "import importlib, pairmeasure\n"
        f"modules = [importlib.import_module('pairmeasure.' + m) for m in {SUBMODULES!r}]\n"
        "for name in pairmeasure.__all__:\n"
        "    value = getattr(pairmeasure, name)\n"
        "    holders = [m.__name__ for m in modules if vars(m).get(name, object()) is value]\n"
        "    owner = getattr(value, '__module__', None)\n"
        "    if isinstance(owner, str) and owner.startswith('pairmeasure.'):\n"
        "        assert owner in holders, (name, owner, holders)\n"
        "    assert holders, name\n"
        "    assert vars(pairmeasure)[name] is value, name  # kept: no second hook call\n"
        "print(len(pairmeasure.__all__))"
    )
    assert report.split() == ["43"]


def test_dir_and_star_import_cover_the_public_names():
    report = run_python(
        "import pairmeasure\n"
        "listed = dir(pairmeasure)\n"
        "assert set(pairmeasure.__all__) <= set(listed) and listed == sorted(listed)\n"
        "names = {}\n"
        "exec('from pairmeasure import *', names)\n"
        "assert set(pairmeasure.__all__) <= set(names)\n"
        "assert names['SpaceSpec'] is pairmeasure.hilbert.SpaceSpec\n"
        "print('ok')"
    )
    assert report.split() == ["ok"]


def test_an_unknown_name_raises_attribute_error():
    report = run_python(
        "import sys, pairmeasure\n"
        "for name in ('no_such_name', 'numpy', '_EXPORTS_'):\n"
        "    try:\n"
        "        getattr(pairmeasure, name)\n"
        "    except AttributeError as exc:\n"
        "        assert repr(name) in str(exc)\n"
        "    else:\n"
        "        raise SystemExit(name)\n"
        "assert not hasattr(pairmeasure, 'no_such_name')\n"
        "print(sorted(m for m in sys.modules if m.startswith('pairmeasure')))"
    )
    assert report.split() == ["['pairmeasure']"]


def test_a_text_scenario_process_loads_neither_the_file_reader_nor_json():
    ran = run_main(["momentum-scenario", "--output", "text"])
    assert ran["code"] == EXIT_OK
    assert "pairmeasure.scenarios" in ran["modules"]
    assert "pairmeasure.fileio" not in ran["modules"]
    assert "json" not in ran["modules"]
    assert "json" in run_main(["momentum-scenario", "--output", "json"])["modules"]


def test_a_classify_process_does_not_load_the_scenarios():
    ran = run_main(CLASSIFY)
    assert ran["code"] == EXIT_OK
    assert "pairmeasure.fileio" in ran["modules"]
    assert "pairmeasure.scenarios" not in ran["modules"]


@pytest.mark.parametrize(
    "argv, code", [(SCENARIO, EXIT_OK), (["momentum-scenario", "--tol", "0"], EXIT_PARSE)]
)
def test_the_process_entry_leaves_the_collector_off_and_frozen(argv, code):
    ran = run_main(argv)
    assert ran["code"] == code
    assert ran["gc_enabled"] is False and ran["frozen"] > 0


def test_an_in_process_call_leaves_the_collector_as_it_was(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["momentum-scenario", "--output", "json"]) == EXIT_OK
    assert main(CLASSIFY) == EXIT_OK
    assert "LocalOperation" in capsys.readouterr().out
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def _declared_script() -> importlib.metadata.EntryPoint:
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return importlib.metadata.EntryPoint("pairmeasure", scripts["pairmeasure"],
                                         "console_scripts")


def test_the_installed_script_is_the_process_entry():
    script = _declared_script()
    import pairmeasure.__main__

    assert script.load() is pairmeasure.__main__.main
    for argv in (SCENARIO, CLASSIFY):
        # what the generated console script runs
        wrapper = run_child("-c", f"import sys\nfrom {script.module} import {script.attr}\n"
                                  f"sys.exit({script.attr}())", *argv)
        module = run_child("-m", "pairmeasure", *argv)
        assert (wrapper.returncode, wrapper.stdout) == (module.returncode, module.stdout)
        assert module.returncode == EXIT_OK and module.stdout
