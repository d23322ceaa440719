"""Seeded mutants of certificates for the hostile-verify workload.

Each mutant kind carries the exit codes `hadwiger verify` may give on it,
derived from the kind alone:

  type      a field gets a value of the wrong JSON type        -> exit 2
  property  a certified property is broken                     -> exit 1
  neutral   key order, member order, guarantee_float   -> exit 0
  display   guarantee_expr / guarantee_float alone changed     -> exit 0 or 1

The seed picks where and with what value each kind strikes.  Every kind is
applied once, the kinds dealt over the base certificates in a fixed turn,
so a round always holds the same mutants of each kind on the same base.

`known_fault_mutants` are fixed: they do not depend on the seed.  Each hits
a fault of the current verifier (an exception escapes `cli.main`, or the
exit code is wrong, or `guarantee_expr` runs as code), so they count as
failed operations until the verifier is fixed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

TYPE = frozenset({2})
PROPERTY = frozenset({1})
NEUTRAL = frozenset({0})
DISPLAY = frozenset({0, 1})


@dataclass(frozen=True)
class Mutant:
    name: str
    expect: frozenset
    text: str
    known_fault: bool = False


def _copy(obj):
    return json.loads(json.dumps(obj))


def _text(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _shuffle_keys(obj, rng: random.Random):
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {k: _shuffle_keys(v, rng) for k, v in items}
    if isinstance(obj, list):
        return [_shuffle_keys(v, rng) for v in obj]
    return obj


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 6)))


def _vortex(c, rng):
    return rng.choice(c["structure"]["vortices"])


# ------------------------------------------------------------- type changes

def _t_structure_list(c, rng):
    c["structure"] = [rng.randint(0, 9)]


def _t_model_list(c, rng):
    c["model"] = [_word(rng)]


def _t_root_list(c, rng):
    return [c] * rng.randint(1, 3)


def _t_set_int(c, rng):
    c["model"]["sets"][rng.choice(sorted(c["model"]["sets"]))] = rng.randint(0, 99)


def _t_multiplicity_str(c, rng):
    c["model"]["k"] = str(rng.randint(1, 3))


def _t_pattern_n_str(c, rng):
    c["model"]["pattern_n"] = str(c["model"]["pattern_n"])


def _t_vortex_str(c, rng):
    vs = c["structure"]["vortices"]
    vs[rng.randrange(len(vs))] = _word(rng)


def _t_bags_list(c, rng):
    v = _vortex(c, rng)
    v["bags"] = list(v["bags"].values())


def _t_vortex_n_str(c, rng):
    g = _vortex(c, rng)["graph"]
    g["n"] = str(g["n"])


def _t_vortex_edges_str(c, rng):
    _vortex(c, rng)["graph"]["edges"] = _word(rng)


def _t_vortex_edge_str(c, rng):
    edges = _vortex(c, rng)["graph"]["edges"]
    edges[rng.randrange(len(edges))] = rng.choice(["ab", "cd", "xy"])


def _t_apex_edges_str(c, rng):
    c["structure"]["apex_edges"] = _word(rng)


def _t_params_float(c, rng):
    c["structure"]["params"] = [float(x) for x in c["structure"]["params"]]


# ------------------------------------------------------------- broken properties

def _p_shared_vertex(c, rng):
    sets = c["model"]["sets"]
    x, y = rng.sample(sorted(sets), 2)
    sets[y] = sorted(set(sets[y]) | {rng.choice(sets[x])})


def _p_missing_set(c, rng):
    del c["model"]["sets"][rng.choice(sorted(c["model"]["sets"]))]


def _p_n_too_large(c, rng):
    c["n"] += rng.randint(1, 3)


def _p_k_below_width(c, rng):
    width = max(len(b) for v in c["structure"]["vortices"] for b in v["bags"].values()) - 1
    c["structure"]["params"][2] = rng.randint(0, width - 1)


def _p_too_many_vortices(c, rng):
    c["structure"]["params"][1] = rng.randint(0, len(c["structure"]["vortices"]) - 1)


def _p_perimeter_outside_bag(c, rng):
    v = _vortex(c, rng)
    pos = rng.randrange(len(v["perimeter"]))
    own = json.dumps(v["perimeter"][pos], sort_keys=True)
    v["bags"][str(pos)] = [x for x in v["bags"][str(pos)] if json.dumps(x, sort_keys=True) != own]


def _p_perimeter_swap(c, rng):
    per = _vortex(c, rng)["perimeter"]
    i = rng.randrange(len(per))
    j = (i + rng.randint(2, len(per) - 2)) % len(per)
    per[i], per[j] = per[j], per[i]


# ------------------------------------------------------------- neutral rewrites

def _n_member_order(c, rng):
    for s in c["model"]["sets"].values():
        rng.shuffle(s)
    for v in c["structure"]["vortices"]:
        for bag in v["bags"].values():
            rng.shuffle(bag)


def _n_vortex_edge_order(c, rng):
    for v in c["structure"]["vortices"]:
        edges = v["graph"]["edges"]
        rng.shuffle(edges)
        for e in edges:
            if rng.random() < 0.5:
                e.reverse()


def _n_guarantee_float(c, rng):
    c["guarantee_float"] = rng.uniform(-1e6, 1e6)


def _n_key_order(c, rng):
    return _shuffle_keys(c, rng)


# ------------------------------------------------------------- display fields

def _d_integer(c, rng):
    c["guarantee_expr"] = str(rng.randint(0, 2 * c["n"]))


def _d_rational(c, rng):
    c["guarantee_expr"] = f"{rng.randint(0, 4 * c['n'])}/{rng.randint(1, 4)}"


def _d_surd(c, rng):
    c["guarantee_expr"] = f"{rng.randint(1, 9)}*sqrt({rng.randint(2, 99)})/{rng.randint(1, 9)}"
    c["guarantee_float"] = rng.random()


KINDS = [
    (TYPE, [
        _t_structure_list, _t_model_list, _t_root_list, _t_set_int,
        _t_multiplicity_str, _t_pattern_n_str, _t_vortex_str, _t_bags_list,
        _t_vortex_n_str, _t_vortex_edges_str, _t_vortex_edge_str,
        _t_apex_edges_str, _t_params_float,
    ]),
    (PROPERTY, [
        _p_shared_vertex, _p_missing_set, _p_n_too_large, _p_k_below_width,
        _p_too_many_vortices, _p_perimeter_outside_bag, _p_perimeter_swap,
    ]),
    (NEUTRAL, [_n_member_order, _n_vortex_edge_order, _n_guarantee_float, _n_key_order]),
    (DISPLAY, [_d_integer, _d_rational, _d_surd]),
]


def seeded_mutants(bases: dict, rng: random.Random) -> list[Mutant]:
    """One mutant of every kind; kind i strikes base i mod len(bases)."""
    names = list(bases)
    kinds = [(expect, fn) for expect, fns in KINDS for fn in fns]
    out = []
    for i, (expect, fn) in enumerate(kinds):
        base_name = names[i % len(names)]
        c = _copy(bases[base_name])
        c = fn(c, rng) or c
        out.append(Mutant(f"{base_name}:{fn.__name__[1:]}", expect, _text(c)))
    return out


def known_fault_mutants(base: dict, marker: str) -> list[Mutant]:
    """Fixed mutants that the current verifier mishandles.

    `marker` is a path that must not exist afterwards: the code mutant
    creates it if `guarantee_expr` is evaluated.
    """
    n = base["n"]

    def edit(fn):
        c = _copy(base)
        fn(c)
        return _text(c)

    def set_(path, value):
        def fn(c):
            cur = c
            for key in path[:-1]:
                cur = cur[key]
            cur[path[-1]] = value
        return fn

    params = base["structure"]["params"]
    return [
        # non-integer n or params: a TypeError escapes cli.main
        Mutant("n-list", TYPE, edit(set_(["n"], [n])), True),
        Mutant("n-null", TYPE, edit(set_(["n"], None)), True),
        Mutant("params-strings", TYPE, edit(set_(["structure", "params"], [str(x) for x in params])), True),
        # guarantee_expr goes through sympy.sympify
        Mutant("expr-code", DISPLAY, edit(set_(["guarantee_expr"], f"__import__('os').mkdir({marker!r})")), True),
        Mutant("expr-symbol", DISPLAY, edit(set_(["guarantee_expr"], "x")), True),
        # further fields whose type is not checked before use
        Mutant("n-string", TYPE, edit(set_(["n"], str(n))), True),
        Mutant("n-float", TYPE, edit(set_(["n"], float(n))), True),
        Mutant("sets-list", TYPE, edit(set_(["model", "sets"], [[0]])), True),
        Mutant("set-strings", TYPE, edit(set_(["model", "sets", "0"], ["0"])), True),
        Mutant("base-edges-list", TYPE, edit(set_(["structure", "base", "edges"], [])), True),
        Mutant("disc-faces-string", TYPE, edit(set_(["structure", "disc_faces"], "x")), True),
    ]
