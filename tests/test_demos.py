"""The demos, and the README's library example, still speak the current API.

Running the demos takes seconds each, so this only reads them: every
``freqcrowd`` name a demo imports or reaches as ``module.name`` must exist,
and every keyword it passes to such a name must be one the callee accepts.
"""
import ast
import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def python_source(path):
    """A demo's text, or the README's library example: the ```python block
    under its "Library in six lines" heading."""
    text = path.read_text()
    if path.suffix == ".md":
        text = text.split("## Library in six lines", 1)[1].split("```python\n", 1)[1]
        text = text.split("```", 1)[0]
    return text


def freqcrowd_uses(tree):
    """Yield ``(object, attribute, keywords)`` for each freqcrowd name the demo uses."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("freqcrowd"):
            parent = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule is an attribute only once imported
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    pass
                yield parent, alias.name, ()
                value = getattr(parent, alias.name, None)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
                else:
                    names[alias.asname or alias.name] = parent, alias.name
    calls = {id(node.func): [kw.arg for kw in node.keywords if kw.arg]
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr, calls.get(id(node), ())
        elif isinstance(node, ast.Name) and node.id in names and id(node) in calls:
            yield *names[node.id], calls[id(node)]


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda p: p.name)
def test_demo_uses_only_existing_names(demo):
    uses = list(freqcrowd_uses(ast.parse(python_source(demo), filename=str(demo))))
    assert uses, f"{demo.name} uses nothing from freqcrowd"
    for owner, name, keywords in uses:
        assert hasattr(owner, name), f"{demo.name}: {owner.__name__}.{name} does not exist"
        if keywords:
            params = inspect.signature(getattr(owner, name)).parameters
            for kw in keywords:
                assert kw in params, f"{demo.name}: {owner.__name__}.{name} takes no {kw}="


def test_demos_are_found():
    assert DEMOS
