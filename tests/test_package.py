"""The package's public names: every export in __all__ resolves, and no
module imports a name it never reads."""

import ast
import glob
import os

import psformer
from psformer import attention, autodiff, featurenorm
from psformer.cli import predict_cloud
from psformer.config import ModelConfig
from psformer.model import PSFormer
from psformer.training import eval_model, make_scenes, train_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_name_resolves():
    missing = [name for name in psformer.__all__ if not hasattr(psformer, name)]
    assert not missing
    assert len(set(psformer.__all__)) == len(psformer.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from psformer import *", namespace)
    assert set(psformer.__all__) <= set(namespace)


def _unused_imports(path: str) -> list:
    """(line, name) of each name `path` imports and never reads; names listed
    in the module's __all__ count as read."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "psformer", "*.py"))
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 20
    unused = {os.path.relpath(p, ROOT): u for p in paths if (u := _unused_imports(p))}
    assert not unused


def _file_replacing_names(path: str) -> set:
    """Which of tempfile.mkstemp and os.replace `path` reads or imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names & {"tempfile.mkstemp", "os.replace"}


def test_files_are_replaced_only_by_atomic_write():
    # checkpoints, PLY files and reports share one temp-file-and-rename path
    found = {os.path.basename(p): names
             for p in glob.glob(os.path.join(ROOT, "src", "psformer", "*.py"))
             if (names := _file_replacing_names(p))}
    assert found == {"_files.py": {"tempfile.mkstemp", "os.replace"}}


def _referenced_names(tree: ast.AST, skip: str = "") -> set:
    """Every name `tree` reads, imports or looks up as an attribute, outside
    the top-level definition called `skip`."""
    names = set()
    for top in tree.body:
        if getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_src_definition_is_used_in_src():
    # helpers and operators that only tests call belong in the tests
    trees = {}
    for path in glob.glob(os.path.join(ROOT, "src", "psformer", "*.py")):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    assert len(trees) > 10
    unused = [f"{module}:{node.name}"
              for module, tree in sorted(trees.items()) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(node.name in _referenced_names(other, skip=node.name)
                          for other in trees.values())]
    assert not unused


def test_the_model_builds_every_op_src_defines(monkeypatch):
    # an op form that only tests build belongs in tests/unfused_ops.py
    seen = set()
    make = autodiff._make

    def spy(data, parents, backward_fn, op, **kwargs):
        seen.add(op)
        return make(data, parents, backward_fn, op, **kwargs)

    for module in (autodiff, attention, featurenorm):
        monkeypatch.setattr(module, "_make", spy)
    cfg = ModelConfig.tiny()
    model = PSFormer(cfg, seed=0)
    scenes = make_scenes(cfg.data, 2, seed0=0)
    train_model(model, scenes, epochs=1)
    eval_model(model, scenes, [model.build_geometry(s) for s in scenes])
    predict_cloud(model, scenes[0])

    defined = set()
    for path in glob.glob(os.path.join(ROOT, "src", "psformer", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        defined.update(node.args[3].value for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "_make")
    assert seen == defined
