"""An ArgumentSpec written back as DSL text that parses to the same spec.

test_dsl.py's round-trip tests and its fuzz inputs are built with it; the
package itself never prints a spec.
"""

from probarg.dsl import Certain, QuiteSure
from probarg.events import Every, If, NegIf


def _format_stmt(s) -> str:
    if isinstance(s, If):
        return f"if({s.antecedent}, {s.consequent})"
    if isinstance(s, NegIf):
        return f"not_if({s.antecedent}, {s.consequent})"
    if isinstance(s, Every):
        return f"every({s.subject}, {s.predicate})"
    return str(s.formula)


def format_spec(spec) -> str:
    lines = [f"task {spec.name} {{"]
    lines.append("  atoms: " + ", ".join(spec.atoms))
    for p in spec.premises:
        stmt = _format_stmt(p.statement)
        if isinstance(p.strength, QuiteSure):
            lines.append(f"  premise: quite_sure({stmt})")
        elif isinstance(p.strength, Certain):
            lines.append(f"  premise: certain({stmt})")
        else:
            lines.append(f"  premise: P({stmt}) in [{p.strength.lo}, {p.strength.hi}]")
    lines.append(f"  conclusion: {_format_stmt(spec.conclusion)}")
    lines.append("}")
    return "\n".join(lines)
