"""Guards on how the model's types are written.

Values are NamedTuples and state is plain ``__slots__`` classes.  Nothing
under ``src/tasnic`` uses ``dataclasses``, and the CLI's import pulls in
neither it, ``inspect`` nor the process pool that only ``sweep --jobs``
uses.  The import still generates some code: each NamedTuple class
``eval``s its ``__new__``, and typing compiles each field annotation into
a ``ForwardRef``.  A constructor (an
``__init__`` or a NamedTuple's fields) and each uniquely named function or
method takes only what some caller passes, and a default only where some
call leaves it out.  No state is write-only: each attribute stored on
``self`` is read somewhere.  Each frame fact has one owner: ``frame.py``
alone names the minimum payload, a MAC is derived from a node id where it
is needed and never stored, and a frame's fragment ids live in its payload.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tasnic.engine import RunStats
from tasnic.fabric import GridCoord, NodeId, PortKind
from tasnic.frame import Frame
from tasnic.metrics import FlowRecorder
from tasnic.nic import TxQueue, TxRecord
from tasnic.ptp import PtpMessage
from tasnic.qdisc import PriorityMap
from tasnic.runtime import FragmentHeader, ScheduleConfig
from tasnic.scenario import (
    FaultSpec,
    FlowSpec,
    GridSpec,
    HostSettings,
    NicSettings,
    PtpSettings,
    Scenario,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_TREES = ("src", "tests", "scripts", "bench")


def test_cli_import_loads_no_code_generation_or_process_pool():
    probe = ("import sys, tasnic.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'concurrent.futures') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_no_module_imports_dataclasses():
    imports = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    offenders = [p.name for p in (SRC / "tasnic").glob("*.py") if imports.search(p.read_text())]
    assert offenders == []


VALUES = [
    (RunStats, (10, 2_000)),
    (GridCoord, (2, 5)),
    (PriorityMap, (3, (2, 0, 1), (1, 2, 0))),
    (TxRecord, (100, 96, 1, 84, 68, None)),
    (FragmentHeader, (7, 2, 3, 4000, 0x01020001, 0x00000101)),
    (PtpMessage, (0, 123_456_789, 9)),
    (ScheduleConfig, (PortKind.INTRA_H, 100, ((0, 90),), 1300)),
    (GridSpec, (2, 3, (NodeId(0, 0, 0, 0), NodeId(1, 2, 1, 1)), None)),
    (HostSettings, (None, 4_000)),
    (PtpSettings, (False, NodeId(0, 0, 1, 1), 125, 4, 6)),
    (NicSettings, (16, (1, 3), 256)),
    (FaultSpec, (NodeId(0, 0, 0, 0), NodeId(0, 0, 0, 1), 300, True)),
    (FlowSpec, (NodeId(0, 0, 0, 0), NodeId(0, 0, 1, 1), 2, 0, None, True, None, 64)),
]


@pytest.mark.parametrize("cls, args", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_types_compare_and_hash_by_field_and_refuse_assignment(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a._replace(**{a._fields[-1]: object()}) != a
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], args[0])
    with pytest.raises(AttributeError):
        a.extra = 1


def test_state_classes_never_share_containers():
    one, two = FlowRecorder(0, "a", "b", 0, 0, 1), FlowRecorder(1, "a", "b", 0, 0, 1)
    for name in ("drops", "send_true_ns", "deliver_true_ns", "latency_ns", "hops"):
        assert getattr(one, name) is not getattr(two, name), name
    one.drops["crc"] = 1
    one.hops.append(1)
    assert two.drops == {} and len(two.hops) == 0

    s1, s2 = Scenario(), Scenario()
    for name in ("schedules", "faults", "flows"):
        assert getattr(s1, name) is not getattr(s2, name), name
    s1.flows.append(object())
    assert s2.flows == []

    q1, q2 = TxQueue(0, 0), TxQueue(0, 0)
    assert q1.frames is not q2.frames
    q1.frames.append(object())
    assert not q2.frames


Signature = tuple[list[str], set[str], int]  # parameters, those with a default, positional count


def _parameters(fn: ast.FunctionDef, skip_first: bool) -> Signature:
    """A def's parameters (after self or cls when ``skip_first``)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if skip_first else 0:]
    defaulted = set(positional[len(positional) - len(args.defaults):] if args.defaults else ())
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional + [a.arg for a in args.kwonlyargs], defaulted, len(positional)


def _decorators(fn: ast.FunctionDef) -> set[str]:
    return {getattr(d, "id", None) for d in fn.decorator_list}


def _passed_as_values(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The attribute names and the bare names that ``tree`` passes as a call
    argument or assigns: how a callback reaches the code that calls it."""
    attrs: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            values = node.args + [kw.value for kw in node.keywords]
        elif isinstance(node, ast.Assign):
            values = [node.value]
        else:
            continue
        attrs.update(v.attr for v in values if isinstance(v, ast.Attribute))
        names.update(v.id for v in values if isinstance(v, ast.Name))
    return attrs, names


def _signatures() -> dict[str, Signature]:
    """Callable name -> its ``Signature``, for each class
    (its ``__init__`` after self, or a NamedTuple's fields) and each uniquely
    named function or method (after self or cls) in the package.

    Left out: dunder methods, which Python calls; properties, which nobody
    calls; and callbacks, which the package passes on as values, so that
    their calls are out of sight."""
    classes: dict[str, Signature] = {}
    functions: dict[str, list[Signature]] = {}
    callbacks: set[str] = set()
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "tasnic").glob("*.py"))]
    attrs, names = _passed_as_values(ast.Module(body=trees, type_ignores=[]))
    for tree in trees:
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
                    fields = [st for st in node.body
                              if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
                    assert node.name not in classes, f"two classes named {node.name}"
                    classes[node.name] = ([st.target.id for st in fields],
                                          {st.target.id for st in fields if st.value is not None},
                                          len(fields))
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        assert node.name not in classes, f"two classes named {node.name}"
                        classes[node.name] = _parameters(fn, True)
            elif (isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                  and "property" not in _decorators(node)):
                is_method = id(node) in methods and "staticmethod" not in _decorators(node)
                functions.setdefault(node.name, []).append(_parameters(node, is_method))
                if node.name in (attrs if id(node) in methods else names):
                    callbacks.add(node.name)
    unique = {name: defs[0] for name, defs in functions.items()
              if len(defs) == 1 and name not in classes and name not in callbacks}
    return {**classes, **unique}


def _passed_at_each_call(signatures) -> dict[str, list[set[str]]]:
    """Callable name -> the parameters each ``Name(...)`` or ``x.Name(...)`` call passes;
    an unpacked ``*args`` or ``**kwargs`` counts as passing every parameter it can reach."""
    calls: dict[str, list[set[str]]] = {name: [] for name in signatures}
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name not in calls:
                    continue
                params, _, n_positional = signatures[name]
                positional = params[:n_positional]  # the rest only by keyword
                passed: set[str] = set()
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        passed.update(positional[i:])
                        break
                    passed.update(positional[i:i + 1])
                for kw in call.keywords:
                    passed.update(params if kw.arg is None else (kw.arg,))
                calls[name].append(passed)
    return calls


def test_every_constructor_parameter_is_passed_by_some_call():
    signatures = _signatures()
    calls = _passed_at_each_call(signatures)
    unpassed = [f"{name}.{param}" for name, (params, _, _) in signatures.items()
                for param in params if not any(param in passed for passed in calls[name])]
    assert unpassed == []


def test_every_constructor_default_is_left_out_by_some_call():
    signatures = _signatures()
    calls = _passed_at_each_call(signatures)
    always_passed = [f"{name}.{param}" for name, (_, defaulted, _) in signatures.items()
                     for param in sorted(defaulted)
                     if calls[name] and all(param in passed for passed in calls[name])]
    assert always_passed == []


def test_no_state_is_write_only():
    # each attribute stored on ``self`` in the package is read by some code;
    # ``self.n += 1`` stores without counting as a read
    stored: dict[str, str] = {}
    for path in sorted((SRC / "tasnic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"):
                stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
    loaded = {node.attr for tree in CALLER_TREES for path in sorted((ROOT / tree).rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    write_only = [f"{where}: self.{name}" for name, where in stored.items() if name not in loaded]
    assert write_only == []


def _named(tree: ast.AST, name: str, calls_only: bool = False) -> bool:
    """Whether ``tree`` names ``name`` (as a bare name, an attribute or an
    import), or with ``calls_only`` calls it."""
    for node in ast.walk(tree):
        if calls_only:
            node = node.func if isinstance(node, ast.Call) else None
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            return True
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            return True
    return False


def test_each_frame_fact_has_one_owner():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "tasnic").glob("*.py"))}
    assert [name for name, tree in trees.items() if _named(tree, "MIN_PAYLOAD")] == ["frame.py"]
    assert [name for name, tree in trees.items()
            if _named(tree, "mac_of", calls_only=True)] == ["fabric.py", "frame.py"]
    stored = [slot for slot in Frame.__slots__
              if slot.endswith("_mac") or slot in ("msg_id", "frag_index")]
    assert stored == []
