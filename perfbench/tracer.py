"""Span tracer for the traced run.

Each public layer function is wrapped where the calling module binds it, so
the program's own source stays untouched.  A span is (name, start, end,
parent, query id); spans stay in memory and are written out when the run
ends.  ``ParamValue`` construction is only counted: a span per
construction would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module that binds the name, attribute, span name).  Spans are named after
# where the function is defined; one function bound in two modules is one name.
# Entries with no metric of their own keep their time out of cli.self_ms.
WRAPPED = [
    ("cli", "parse_param", "exactnum.parse_param"),
    ("cli", "format_param", "exactnum.format_param"),
    ("cli", "classify", "classify.classify"),
    ("cli", "orbit_with_word", "weyl.orbit_with_word"),
    ("cli", "cross_family_verdict", "weyl.cross_family_verdict"),
    ("cli", "named_generators", "weyl.named_generators"),
    ("cli", "word_map", "weyl.word_map"),
    ("cli", "verify_riccati", "diffpoly.verify_riccati"),
    ("cli", "verify_pv_change_of_variables", "diffpoly.verify_pv_change_of_variables"),
    ("cli", "pv_random_point_check", "diffpoly.pv_random_point_check"),
    ("cli", "verify_group_relation", "diffpoly.verify_group_relation"),
    ("classify", "stratum", "classify.stratum"),
    ("classify", "decide_coset", "exactnum.decide_coset"),
    ("classify", "transcendence_degree", "exactnum.transcendence_degree"),
    ("weyl", "decide_coset", "exactnum.decide_coset"),
    ("weyl", "transcendence_degree", "exactnum.transcendence_degree"),
    ("weyl", "orbit_decide", "weyl.orbit_decide"),
    ("weyl", "generator_word", "weyl.generator_word"),
    ("weyl", "resolve_token", "weyl.resolve_token"),
    ("diffpoly", "reduce", "diffpoly.reduce"),
    ("numint", "integrate", "numint.integrate"),
    ("numint", "integrate_rhs", "numint.integrate_rhs"),
    ("numint", "residual_norm", "numint.residual_norm"),
    ("numint", "write_csv", "numint.write_csv"),
    ("numint", "write_json", "numint.write_json"),
]


class Tracer:
    def __init__(self, query_id):
        self.query_id = query_id  # callable: id of the query now running
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.qids: list[int] = []
        self.stack: list[int] = []
        self.constructions = 0
        self.rk4_steps = 0
        self.word_tokens: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name, fn, on_result=None):
        names, starts, ends, parents, qids, stack = (
            self.names, self.starts, self.ends, self.parents, self.qids, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            qids.append(self.query_id())
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(f"painleve.{module}")
            hook = None
            if name == "numint.integrate_rhs":
                hook = self._count_steps
            elif name == "weyl.generator_word":
                hook = self._count_tokens
            self._patch(mod, attr, self.span(name, getattr(mod, attr), hook))
        catalog = importlib.import_module("painleve.catalog")
        exactnum = importlib.import_module("painleve.exactnum")
        self._patch(catalog.EquationId, "__init__", self.span("catalog.EquationId", catalog.EquationId.__init__))
        init = exactnum.ParamValue.__init__

        def counted(obj, *args, **kwargs):
            self.constructions += 1
            init(obj, *args, **kwargs)

        self._patch(exactnum.ParamValue, "__init__", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_steps(self, trajectory):
        self.rk4_steps += len(trajectory.samples) - 1

    def _count_tokens(self, result):
        if result.word is not None:
            self.word_tokens.append(len(result.word))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,query\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]},{self.qids[i]}\n")

    def layer_metrics(self, wall_s: float, queries: int) -> dict[str, float]:
        """Per-query counts and times.  ``.ms`` is inclusive time of the
        outermost span of a name (recursion is not counted twice);
        ``.self_ms`` subtracts the direct children."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                children[p] += duration[i]
            else:
                top += duration[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        coset_in_orbit = 0
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + duration[i] - children[i]
            ancestors = self._ancestor_names(i)
            if name not in ancestors:
                incl[name] = incl.get(name, 0.0) + duration[i]
            if name == "exactnum.decide_coset" and "weyl.orbit_decide" in ancestors:
                coset_in_orbit += 1
        outer_orbit = sum(
            1 for i, name in enumerate(self.names)
            if name == "weyl.orbit_decide" and "weyl.orbit_decide" not in self._ancestor_names(i)
        )
        per_q = 1.0 / queries

        def ms(name):
            return incl.get(name, 0.0) * 1e3 * per_q

        rk4_s = incl.get("numint.integrate_rhs", 0.0)
        out = {
            "cli.self_ms": (wall_s - top) * 1e3 * per_q,
            "exactnum.ParamValue.constructions": self.constructions * per_q,
            "weyl.coset_tests_per_decision": coset_in_orbit / outer_orbit if outer_orbit else 0.0,
            "weyl.word_tokens_mean": sum(self.word_tokens) / len(self.word_tokens) if self.word_tokens else 0.0,
            "numint.rk4_steps_per_s": self.rk4_steps / rk4_s if rk4_s else 0.0,
            "numint.write_ms": ms("numint.write_csv") + ms("numint.write_json"),
            "classify.classify.self_ms": self_t.get("classify.classify", 0.0) * 1e3 * per_q,
            "weyl.orbit_decide.self_ms": self_t.get("weyl.orbit_decide", 0.0) * 1e3 * per_q,
        }
        for name in (
            "exactnum.parse_param", "exactnum.decide_coset", "weyl.orbit_decide",
            "weyl.resolve_token", "diffpoly.reduce",
        ):
            out[f"{name}.calls"] = calls.get(name, 0) * per_q
        for name in (
            "exactnum.parse_param", "exactnum.decide_coset", "exactnum.transcendence_degree",
            "catalog.EquationId", "classify.classify", "classify.stratum", "weyl.orbit_decide",
            "weyl.generator_word", "weyl.resolve_token", "weyl.cross_family_verdict",
            "diffpoly.reduce", "diffpoly.verify_pv_change_of_variables",
            "diffpoly.pv_random_point_check", "diffpoly.verify_riccati",
            "diffpoly.verify_group_relation", "numint.integrate", "numint.residual_norm",
        ):
            out[f"{name}.ms"] = ms(name)
        return out

    def _ancestor_names(self, i: int) -> set[str]:
        out = set()
        p = self.parents[i]
        while p >= 0:
            out.add(self.names[p])
            p = self.parents[p]
        return out
