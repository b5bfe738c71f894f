"""Proof text for tests, printed with :func:`pbsym.parsing.render_step`."""

from pbsym import breaker, parsing


def step_text(step):
    """The text of one proof step, without a trailing newline."""
    out = []
    parsing.render_step(out, step)
    return "\n".join(out)


def proof_text(doc):
    """The text of a document as :func:`parsing.parse_proof` returns it."""
    out = [doc["header"]]
    for step in doc["steps"]:
        parsing.render_step(out, step)
    return "\n".join(out) + "\n"


def strip_lines(obj):
    """A copy of a step or document without its source line numbers."""
    if isinstance(obj, dict):
        return {k: strip_lines(v) for k, v in obj.items() if k != "line"}
    if isinstance(obj, (list, tuple)):
        return type(obj)(strip_lines(x) for x in obj)
    return obj


def lex_order_text(n):
    """The def_order text of lex<n>, without a trailing newline."""
    return step_text(breaker.build_lex_order(n))


def big_order_text(n):
    """The def_order text of biglex<n>, without a trailing newline."""
    return step_text(breaker.build_big_order(n))
