"""The package's outer surface: what the root exports, the README's quick
start, and the functions that the benchmark's span tracer wraps."""

import contextlib
import importlib
import inspect
import io
import pathlib
import re
import types

import bitswap_ea

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_root_exports_only_the_quick_start_names():
    public = {name for name, value in vars(bitswap_ea).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"EngineConfig", "FitnessSpec", "run"}
    assert bitswap_ea.__version__ == "0.1.0"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    generations, evaluations, terminated = out.getvalue().split()
    assert int(evaluations) == 2 + 2 * 2 * int(generations)
    assert terminated == "optimum"


def test_every_traced_target_resolves():
    # a name missing here crashes `perfbench/run.py --trace 1`; spans.py is
    # executed from source, so no bytecode cache is written under perfbench/
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(spans))
    assert spans.TARGETS
    for module, attr in spans.TARGETS:
        owner = importlib.import_module(f"bitswap_ea.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert isinstance(vars(getattr(owner, cls_name))[meth], classmethod), attr
        else:
            assert callable(getattr(owner, attr)), f"{module}.{attr}"
