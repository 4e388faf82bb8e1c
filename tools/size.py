"""Print the size of the `epiforecast` package: lines, parameters and fields.

    python3 tools/size.py [SRC]

SRC defaults to the `src/` directory of the checkout this file lives in. For
each module under it, and in total, the tool prints:

- `lines`: the number of lines, as `wc -l` counts them;
- `params`: the parameters of every `def` and `async def`, nested ones and
  methods included: positional-only, positional, `*args`, keyword-only and
  `**kwargs`. A method's `self` or `cls` is not counted, and neither are
  lambdas;
- `defaults`: how many of those parameters have a default value;
- `fields`: the annotated attributes in the body of every class (a
  dataclass's fields, say), nested classes included, and the field names of
  every `namedtuple(name, fields)` call, given as one string ("a b c" or
  "a, b, c") or as a list or tuple of strings; each is a value a caller can
  set, as a parameter is.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count_params(tree: ast.AST) -> tuple[int, int]:
    """(parameters, parameters with a default) over every function in `tree`."""
    params = defaults = 0
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        names = [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                 if arg is not None]
        params += len(names) - (names[:1] in (["self"], ["cls"]))
        defaults += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return params, defaults


def namedtuple_fields(node: ast.AST) -> int:
    """The number of field names `node` gives, if it is a namedtuple call."""
    if not isinstance(node, ast.Call):
        return 0
    func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
    names = [kw.value for kw in node.keywords if kw.arg == "field_names"] or node.args[1:2]
    if func != "namedtuple" or not names:
        return 0
    names = names[0]
    if isinstance(names, ast.Constant) and isinstance(names.value, str):
        return len(names.value.replace(",", " ").split())
    if isinstance(names, (ast.List, ast.Tuple)):
        return len(names.elts)
    return 0


def count_fields(tree: ast.AST) -> int:
    """Annotated class-level attributes over every class in `tree`, and the
    field names of every namedtuple call."""
    annotated = sum(isinstance(stmt, ast.AnnAssign) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) for stmt in node.body)
    return annotated + sum(map(namedtuple_fields, ast.walk(tree)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="?", default=ROOT / "src",
                        help="directory to measure (default: %(default)s)")
    src = parser.parse_args().src
    rows = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        module = ast.parse(text)
        rows.append((str(path.relative_to(src)), text.count("\n"), *count_params(module),
                     count_fields(module)))
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'params':>6}  {'defaults':>8}  {'fields':>6}")
    for name, lines, params, defaults, fields in rows:
        print(f"{name:<{width}}  {lines:>6}  {params:>6}  {defaults:>8}  {fields:>6}")


if __name__ == "__main__":
    main()
