"""Every public name of the library is reached by the library itself, is
exported, or is kept on purpose with its reason; every parameter is read.

A public module-level function or class, or a public method of a public
class, in src/recdistill must be referenced (as a name or an attribute) in
src/ other than at its own definition, be listed in `recdistill.__all__`,
or be a KEEP entry.  A name that only tests call does no work for any
command and goes.  So does a parameter that its function never reads.
"""

import ast
import pathlib

import recdistill

SRC = pathlib.Path(recdistill.__file__).parent

# name -> why it stays although nothing in src/ reaches it
KEEP = {
    "classifier.PoseClassifier.from_images": "perfbench/op.py builds its set-up classifier with it",
    "rectify.grad_log_r": "perfbench/checks.py checks it against the reference gradient",
    "worldmodel.score": "perfbench/checks.py checks it against the reference gradient",
    "classifier.CorpusDenoiser": "TestNoisyAdapter: the Tweedie-versus-direct classifier claim",
    "classifier.classifier_posterior_adapter": "TestNoisyAdapter: the Tweedie-versus-direct classifier claim",
    "oracle.convolve_density": "independent oracle: the noisy density by quadrature",
    "oracle.finite_difference_grad": "independent oracle: central differences of a scalar function",
    "oracle.mc_posterior_mean": "independent oracle: E[x0 | xt] by importance sampling",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _public(tree: ast.Module):
    """The dotted name of each public module-level function or class and
    each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def _references(modules) -> set[str]:
    """Every name read as an ast.Name or an ast.Attribute in src/; a
    definition is not a reference to itself."""
    seen = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def _unreached(modules) -> list[str]:
    seen = _references(modules)
    exported = set(recdistill.__all__)
    out = []
    for module, tree in modules.items():
        for name in _public(tree):
            short = name.rsplit(".", 1)[-1]
            if short in seen or short in exported or f"{module}.{name}" in KEEP:
                continue
            out.append(f"{module}.{name}")
    return out


def test_every_public_name_is_reached_exported_or_kept():
    assert _unreached(_modules()) == []


def test_keep_entries_exist_and_are_unreached():
    """A KEEP entry names a definition that src/ does not reach, so that a
    name the library starts to use again leaves the list."""
    modules = _modules()
    defined = {f"{module}.{name}" for module, tree in modules.items() for name in _public(tree)}
    seen = _references(modules)
    for name, reason in KEEP.items():
        assert name in defined, name
        assert name.rsplit(".", 1)[-1] not in seen, f"{name} is reached in src/; drop it from KEEP"
        assert reason


def test_guard_flags_a_name_only_tests_call():
    tree = ast.parse("def used():\n    return 1\n\n\ndef unused():\n    return used()\n")
    assert _unreached({"m": tree}) == ["m.unused"]


def _unread_parameters(modules) -> list[str]:
    """`module.function(parameter)` for each parameter, other than self or
    cls, of a function in src/ whose body never loads it."""
    out = []
    for module, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out += [f"{module}.{fn.name}({p})" for p in params if p not in ("self", "cls") and p not in loaded]
    return out


def test_every_parameter_is_read():
    assert _unread_parameters(_modules()) == []


def test_guard_flags_a_parameter_nothing_reads():
    tree = ast.parse("class C:\n    def f(self, a, b=1, *rest, c, **kw):\n"
                     "        b = a\n        return [c for _ in rest], lambda: kw\n\n\n"
                     "def g(x, y):\n    def inner():\n        return y\n    return inner\n")
    assert sorted(_unread_parameters({"m": tree})) == ["m.f(b)", "m.g(x)"]
