"""Interprocedural dataflow over the project call graph.

Two closures power the whole-program passes:

* :func:`attribute_reads` — every attribute *read* performed on values of
  one class, anywhere in the project, found by tracking typed parameters
  (``def f(job: SecurityJob)``) and ``self`` through call-graph argument
  passing to a fixpoint. This is the read set the ``KEY001`` cache-key
  soundness pass compares against the key function's field coverage.
* :func:`escaped_attribute_writes` — every attribute *write* performed on
  an instance of one class by code **outside** that class (a helper the
  object was passed to), again to a fixpoint. The runtime contract walk
  (:func:`repro.ckpt.contract.verify_contract`) only sees ``self.X = ...``
  inside the class's own methods; this closure is the ``CKPT002`` half it
  cannot see.

Both are flow-insensitive within a function (any read/write anywhere in
the body counts) and path-insensitive across calls — exactly as
conservative as a lint should be: over-approximating the read set can
only demand a ``key-blind`` pragma, never hide a hole.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.graph import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    own_statements,
)

#: One tracked binding: this parameter of this function holds an instance
#: of the class under analysis.
TrackedParam = Tuple[str, str]  # (function qname, parameter name)


@dataclass(frozen=True)
class AttributeAccess:
    """One attribute read or write on a tracked value."""

    attr: str
    function: str  # qname of the function the access happens in
    node: ast.AST  # the Attribute (read) or assignment (write) node


def _tracked_seed(
    project: ProjectIndex, cls: ClassInfo, include_self: bool = True
) -> Set[TrackedParam]:
    """Initial tracked set: annotated params plus ``self`` in the class."""
    tracked: Set[TrackedParam] = set()
    if include_self:
        for method in cls.methods.values():
            if method.params and method.params[0] == "self":
                tracked.add((method.qname, "self"))
    for info in project.functions.values():
        for param, annotation in info.annotations.items():
            if annotation == cls.name:
                tracked.add((info.qname, param))
    return tracked


def _argument_bindings(
    project: ProjectIndex, site: CallSite, param: str
) -> Iterator[TrackedParam]:
    """Callee params that receive ``param`` (a plain name) at ``site``."""
    if site.callee is None:
        return
    callee = project.functions.get(site.callee)
    if callee is None:
        return
    # Bound-style calls (`self.m(x)`, `obj.m(x)`) skip the receiver slot;
    # direct function / unbound `Class.method(self, x)` calls do not.
    offset = 0
    if callee.is_method and callee.params and callee.params[0] == "self":
        bound = len(site.parts) > 1 and site.parts[0] != callee.class_name
        if bound or site.parts == (callee.class_name,):
            # Constructor calls bind the object being built, not our value.
            offset = 1
        if site.parts and site.parts[-1] == "__init__":
            offset = 1
    for position, arg in enumerate(site.node.args):
        if isinstance(arg, ast.Name) and arg.id == param:
            index = position + offset
            if index < len(callee.params):
                yield (callee.qname, callee.params[index])
    for keyword in site.node.keywords:
        if (
            keyword.arg is not None
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == param
            and keyword.arg in callee.params
        ):
            yield (callee.qname, keyword.arg)


def _close_over_calls(
    project: ProjectIndex, tracked: Set[TrackedParam]
) -> Set[TrackedParam]:
    """Fixpoint: propagate tracked values through call-site arguments."""
    queue: List[TrackedParam] = list(tracked)
    while queue:
        qname, param = queue.pop()
        for site in project.calls_from(qname):
            for binding in _argument_bindings(project, site, param):
                if binding not in tracked:
                    tracked.add(binding)
                    queue.append(binding)
    return tracked


def attribute_reads(
    project: ProjectIndex, cls: ClassInfo
) -> List[AttributeAccess]:
    """Every attribute read on instances of ``cls``, project-wide."""
    tracked = _close_over_calls(project, _tracked_seed(project, cls))
    reads: List[AttributeAccess] = []
    for qname, param in sorted(tracked):
        info = project.functions.get(qname)
        if info is None:
            continue
        for node in own_statements(info.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == param
            ):
                reads.append(AttributeAccess(node.attr, qname, node))
    return reads


def escaped_attribute_writes(
    project: ProjectIndex, cls: ClassInfo
) -> List[AttributeAccess]:
    """Attribute writes on ``cls`` instances made outside the class.

    The tracked set starts from ``self`` in the class's own methods and
    from parameters annotated with the class name, then closes over
    argument passing; writes are reported only for functions that are not
    methods of ``cls`` itself (those are the runtime contract walk's job).
    """
    tracked = _close_over_calls(project, _tracked_seed(project, cls))
    own_methods = {m.qname for m in cls.methods.values()}
    writes: List[AttributeAccess] = []
    for qname, param in sorted(tracked):
        if qname in own_methods:
            continue
        info = project.functions.get(qname)
        if info is None:
            continue
        for access in _writes_on(info, param):
            writes.append(access)
    return writes


def _writes_on(info: FunctionInfo, param: str) -> Iterator[AttributeAccess]:
    """``param.X = ...`` style bindings inside ``info`` (incl. augmented)."""
    def targets(node: ast.AST) -> Iterator[ast.Attribute]:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == param:
                yield node
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                for found in targets(element):
                    yield found

    for node in own_statements(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for attr in targets(target):
                    yield AttributeAccess(attr.attr, info.qname, node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            for attr in targets(node.target):
                yield AttributeAccess(attr.attr, info.qname, node)


# ----------------------------------------------------------------------
# Key-function field coverage (KEY001)
# ----------------------------------------------------------------------

@dataclass
class FieldCoverage:
    """Which dataclass fields a function's payload provably includes."""

    #: Fields covered (reads, dict keys, or asdict minus popped).
    covered: Set[str]
    #: True when coverage came from an ``asdict(obj)`` whole-object copy.
    from_asdict: bool = False


def field_coverage(
    info: FunctionInfo, param: str, fields: Set[str]
) -> FieldCoverage:
    """How ``info`` covers ``fields`` of the object bound to ``param``.

    Covered means any of:

    * an attribute read ``param.X``;
    * a string dict-literal key equal to a field name (the explicit
      payload-building idiom: ``{"requests": requests, ...}``);
    * ``dataclasses.asdict(param)`` — all fields, **minus** any field
      popped *unconditionally* (a top-level ``fields.pop("X")`` statement
      of the function body; a pop nested under ``if`` still counts as
      covered, since on some path the field reaches the payload).
    """
    covered: Set[str] = set()
    saw_asdict = False
    for node in own_statements(info.node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and node.attr in fields
        ):
            covered.add(node.attr)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value in fields
                ):
                    covered.add(key.value)
        elif isinstance(node, ast.Call):
            parts = _call_parts(node)
            if (
                parts
                and parts[-1] == "asdict"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == param
            ):
                saw_asdict = True
    if saw_asdict:
        covered |= fields - _unconditional_pops(info)
    return FieldCoverage(covered=covered, from_asdict=saw_asdict)


def _unconditional_pops(info: FunctionInfo) -> Set[str]:
    """Field names removed by top-level ``<x>.pop("name")`` statements."""
    popped: Set[str] = set()
    for stmt in info.node.body:
        calls: List[ast.Call] = []
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            calls.append(stmt.value)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            calls.append(stmt.value)
        for call in calls:
            parts = _call_parts(call)
            if (
                parts
                and parts[-1] == "pop"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                popped.add(call.args[0].value)
    return popped


def _call_parts(call: ast.Call) -> Optional[Tuple[str, ...]]:
    node: ast.AST = call.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
