"""Spans around the program's public functions, installed from outside it.

``Tracer.install()`` looks up each target in ``SPANS`` and replaces the
function object at every module binding of ``memsig`` that holds it, so a
call through ``memsig.cli.sig_tensor_fast`` is traced as well as one through
``memsig.fastsig.sig_tensor_fast``.  A target the program no longer has is
recorded as absent and skipped, so a refactor that deletes or renames a
function does not break the traced run.

Spans stay in memory (name, start, end, parent, counts) and ``write`` puts
them in one JSON file when the job ends.  Self times are computed by the
reader (``run.py``).
"""

import json
import sys
import time

# span name -> targets as "module:function"; several targets may share a name
SPANS = {
    "fileio.load_json_file": ["memsig.fileio:load_json_file"],
    "fileio.grid_from_doc": ["memsig.fileio:grid_from_doc"],
    "fileio.serialize": [
        "memsig.fileio:tensor_to_doc",
        "memsig.fileio:matrix_to_doc",
        "memsig.fileio:dump_json",
    ],
    "fastsig.cell_derivatives": ["memsig.fastsig:cell_derivatives"],
    "fastsig.advance_letter": ["memsig.fastsig:advance_letter"],
    "fastsig.sig_tensor_fast": ["memsig.fastsig:sig_tensor_fast"],
    "membranes.core_tensor": ["memsig.membranes:core_tensor"],
    "membranes.bilinear_decompose": ["memsig.membranes:bilinear_decompose"],
    "variety.image_dimension": ["memsig.variety:image_dimension"],
    "variety.tucker_jacobian_rank": ["memsig.variety:tucker_jacobian_rank"],
    "variety.congruence_invariants": ["memsig.variety:congruence_invariants"],
    "tensor.mode_apply": ["memsig.tensor:mode_apply"],
    "linalg.rank_int_rows": ["memsig.linalg:rank_int_rows"],
    "linalg.cosquare": ["memsig.linalg:cosquare"],
    "linalg.pm1_jordan_structure": ["memsig.linalg:pm1_jordan_structure"],
    "linalg.det": ["memsig.linalg:det"],
}


def _grid_values(args, result):
    return {"fileio.values_parsed": result.d * (result.m + 1) * (result.n + 1)}


def _bytes_out(args, result):
    return {"fileio.bytes_out": len(result.encode("utf-8"))}


def _cell_advance(args, result):
    field = args[0]
    return {"fastsig.cell_advances": field.m * field.n, "depth": field.word_len + 1}


def _core_entries(args, result):
    return {"membranes.core_tensor.entries": len(result.entries)}


def _rank_entries(args, result):
    return {"linalg.rank_int_rows.entries": sum(len(row) for row in args[0])}


# counts taken from a target's arguments and result; a count the program's
# objects no longer support is dropped, never raised.  "depth" is not a count:
# it files the span's self time under <span>.depth<n>.self_s as well
COUNTS = {
    "memsig.fileio:grid_from_doc": _grid_values,
    "memsig.fileio:dump_json": _bytes_out,
    "memsig.fastsig:advance_letter": _cell_advance,
    "memsig.membranes:core_tensor": _core_entries,
    "memsig.linalg:rank_int_rows": _rank_entries,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, counts]
        self.stack = []
        self.absent = []

    def _wrap(self, name, fn, count_fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_fn is not None:
                try:
                    span[4] = count_fn(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("memsig") and m]
        for name, targets in SPANS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                fn = getattr(sys.modules.get(mod_name), attr, None)
                if fn is None:
                    self.absent.append(target)
                    continue
                wrapped = self._wrap(name, fn, COUNTS.get(target))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)
