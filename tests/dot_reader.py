"""A reader of DOT text that shares no code with the package, used only by
the tests.

It splits the text into the tokens of the DOT language
(https://graphviz.org/doc/info/lang.html): IDs (names, numerals and quoted
strings) and operators.  The body of one undirected `graph` is split into
statements at each `;` outside an attribute list, and each statement must be
a node statement `ID [a=b, ...]` or an edge statement `ID -- ID [...]`.
"""
import re

_TOKEN = re.compile(
    r'(?P<space>\s+)'
    r'|(?P<id>"(?:[^"\\]|\\.)*"'
    r'|[A-Za-z_\x80-\U0010ffff][A-Za-z_0-9\x80-\U0010ffff]*'
    r'|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?))'
    r'|(?P<op>--|->|[{}\[\];,=:])',
    re.S,
)


def tokens(text: str) -> list[tuple[str, str]]:
    """(kind, text) of each token, spaces left out; raises where no token
    starts."""
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"no DOT token at offset {pos}: {text[pos:pos + 20]!r}")
        if m.lastgroup != "space":
            out.append((m.lastgroup, m.group()))
        pos = m.end()
    return out


def unquote(token: str) -> str:
    """The text an ID shows: a quoted string without its quotes, each `\\"`
    read as `"` and each `\\\\` as `\\`."""
    if not token.startswith('"'):
        return token
    return re.sub(r"\\(.)", r"\1", token[1:-1], flags=re.S)


def _attributes(toks) -> dict:
    """The attributes of the list `[a=b, ...]` that makes up all of `toks`."""
    if not toks:
        return {}
    if toks[0] != ("op", "[") or toks[-1] != ("op", "]"):
        raise ValueError(f"not an attribute list: {toks}")
    body = [t for t in toks[1:-1] if t not in (("op", ","), ("op", ";"))]
    if len(body) % 3 or any(
        (a[0], eq, b[0]) != ("id", ("op", "="), "id")
        for a, eq, b in zip(body[::3], body[1::3], body[2::3])
    ):
        raise ValueError(f"not an attribute list: {toks}")
    return {unquote(a[1]): unquote(b[1]) for a, b in zip(body[::3], body[2::3])}


def read_graph(text: str) -> tuple[list, list]:
    """The node statements of one undirected graph as (ID, attributes) and
    its edge statements as (ID, ID), in order."""
    toks = tokens(text)
    if toks[:1] != [("id", "graph")] or toks[2:3] != [("op", "{")] or toks[-1:] != [("op", "}")]:
        raise ValueError("not one undirected graph")
    statements, current, depth = [], [], 0
    for tok in toks[3:-1]:
        if tok == ("op", ";") and depth == 0:
            statements.append(current)
            current = []
            continue
        depth += {("op", "["): 1, ("op", "]"): -1}.get(tok, 0)
        current.append(tok)
    if current:
        statements.append(current)
    nodes, edges = [], []
    for st in statements:
        if st[0][0] != "id":
            raise ValueError(f"statement does not start with an ID: {st}")
        if st[1:2] == [("op", "--")]:
            if st[2][0] != "id":
                raise ValueError(f"edge statement without a second end: {st}")
            edges.append((unquote(st[0][1]), unquote(st[2][1])))
            _attributes(st[3:])
        else:
            nodes.append((unquote(st[0][1]), _attributes(st[1:])))
    return nodes, edges
