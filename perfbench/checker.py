"""Output checks that share no code with enforcement.

A record is checked against the rule pack it was generated under by
evaluating the pack's serialized formulas (the ``lejit-rules/1`` JSON the
benchmark wrote to disk) in exact rational arithmetic.  No solver, interval
or mask-table code is involved, nor the program's own formula evaluator.
Records under the paper pack are also checked against R1-R3 restated in
plain arithmetic, and imputed records must keep the prompt's coarse values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence

Formula = Mapping[str, object]


def _exact(number):
    """Integers stay integers; anything else becomes an exact fraction."""
    return number if type(number) is int else Fraction(str(number))


def evaluate(formula: Formula, values: Mapping[str, int]) -> bool:
    """Truth of one serialized formula under a complete assignment."""
    op = formula["op"]
    if op in ("<=", "=="):
        total = _exact(formula["const"])
        for name, coeff in formula["coeffs"].items():
            total += _exact(coeff) * values[name]
        return total <= 0 if op == "<=" else total == 0
    args = formula.get("args", [])
    if op == "and":
        return all(evaluate(arg, values) for arg in args)
    if op == "or":
        return any(evaluate(arg, values) for arg in args)
    if op == "not":
        return not evaluate(args[0], values)
    if op == "implies":
        return (not evaluate(args[0], values)) or evaluate(args[1], values)
    if op == "iff":
        return evaluate(args[0], values) == evaluate(args[1], values)
    if op == "true":
        return True
    if op == "false":
        return False
    raise ValueError(f"unknown formula op {op!r}")


def pack_violations(pack: Mapping[str, object], values: Mapping[str, int]) -> List[str]:
    """Names of the pack's rules the record breaks (or cannot be judged by)."""
    broken = []
    for rule in pack["rules"]:
        try:
            holds = evaluate(rule["formula"], values)
        except KeyError as exc:
            broken.append(f"{rule['name']}: missing variable {exc.args[0]}")
            continue
        if not holds:
            broken.append(rule["name"])
    return broken


def paper_violations(values: Mapping[str, int], window: int, bandwidth: int) -> List[str]:
    """R1-R3 of the paper in plain arithmetic.

    R1: 0 <= I_t <= BW; R2: sum I_t == total; R3: cong >= 1 implies
    max I_t >= BW/2.
    """
    fine = [values[f"I{t}"] for t in range(window)]
    broken = [f"R1[{t}]" for t, v in enumerate(fine) if not 0 <= v <= bandwidth]
    if sum(fine) != values["total"]:
        broken.append("R2")
    if values["cong"] >= 1 and 2 * max(fine) < bandwidth:
        broken.append("R3")
    return broken


def record_problems(
    values: object,
    variables: Sequence[str],
    pack: Mapping[str, object],
    prompt: Optional[Mapping[str, int]] = None,
    paper: Optional[Mapping[str, int]] = None,
) -> List[str]:
    """Everything wrong with one finished record; empty means it passes.

    ``variables`` is the record's full schema, ``prompt`` the coarse values
    an imputation must keep, and ``paper`` (``window``/``bandwidth``) turns
    on the plain-arithmetic R1-R3 check.
    """
    if not isinstance(values, Mapping):
        return [f"not a record: {type(values).__name__}"]
    problems = []
    if sorted(values) != sorted(variables):
        problems.append("record fields differ from the schema")
    if not all(type(v) is int for v in values.values()):
        problems.append("non-integer value")
    if problems:
        return problems
    problems.extend(pack_violations(pack, values))
    if paper is not None:
        problems.extend(paper_violations(values, paper["window"], paper["bandwidth"]))
    if prompt is not None:
        for name, value in prompt.items():
            if values[name] != value:
                problems.append(f"prompt value {name} changed")
    return problems


@dataclass
class Tally:
    """Operations attempted and the ids of those that failed.

    An operation that fails several checks counts once.
    """

    attempted: int = 0
    failed_ids: set = field(default_factory=set)
    problems: List[str] = field(default_factory=list)

    def fail(self, op_id, why: str) -> None:
        if op_id not in self.failed_ids and len(self.problems) < 20:
            self.problems.append(f"{op_id}: {why}")
        self.failed_ids.add(op_id)
