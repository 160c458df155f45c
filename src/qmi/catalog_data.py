"""Builtin catalog content.

Everything here is plain data: named integer matrices, the 73-group
table with structure labels, and the case list. Expressions are strings
in the parser's grammar; catalog._PAYLOAD_KEYS lists the keys each
kind's payload may hold, and catalog.validate_catalog enforces the
payload shapes. Each case's `source` is
a short content gloss saying what the claim is about; ids are stable and
referenced by tests.

Variable naming: inputs are always x1,x2,x3; derived bases reuse the
letters of the construction they came from (y, z, w, u, v, t, s, p),
with doubled letters (xx1, ww1, uu1, pp1, tt1) standing in for the
capitalized quantities of the underlying derivations and a trailing `p`
marking primed ones. Rooted parameters are written sqrt(a), sqrt(b),
sqrt(d), sqrt(g); square roots of specific integers use a specialized
parameter (m = -3, m1 = -1, c5 = 5).
"""

MATRICES = {
    "i3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "ca": [[0, -1, 0], [1, -1, 0], [0, 0, 1]],
    "cb": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    "caa": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    "cbb": [[0, 1, 0], [0, 1, -1], [-1, 1, 0]],
    "ta1": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
    "ta2": [[0, 1, 0], [1, 0, 0], [-1, -1, -1]],
    "ta3": [[0, 1, -1], [1, 0, -1], [0, 0, -1]],
    "la1": [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
    "la2": [[0, 0, 1], [-1, -1, -1], [1, 0, 0]],
    "la3": [[0, -1, 1], [0, -1, 0], [1, -1, 0]],
    "be1": [[0, -1, 0], [-1, 0, 0], [0, 0, 1]],
    "be2": [[1, 0, 0], [0, 1, 0], [-1, -1, -1]],
    "be3": [[1, 0, -1], [0, 1, -1], [0, 0, -1]],
    "alpha": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "p1": [[1, 0, 0], [0, 1, 0], [1, 1, 2]],
    "p2": [[1, 0, 0], [1, 2, 0], [1, 0, 2]],
}


def _g(gens, label, system, star=False):
    return {"generators": gens, "label": label, "system": system, "star": star}


GROUPS = {
    # crystal system 1
    "G_1_1_1": _g(["i3"], "C1", "1"),
    "G_1_2_1": _g(["-i3"], "C2", "1"),
    # crystal system 2
    "G_2_1_1": _g(["la1"], "C2", "2"),
    "G_2_1_2": _g(["-alpha"], "C2", "2"),
    "G_2_2_1": _g(["-la1"], "C2", "2"),
    "G_2_2_2": _g(["alpha"], "C2", "2"),
    "G_2_3_1": _g(["la1", "-i3"], "C2xC2", "2"),
    "G_2_3_2": _g(["-alpha", "-i3"], "C2xC2", "2"),
    # crystal system 3, sublist i
    "G_3_1_1": _g(["ta1", "la1"], "C2xC2", "3i"),
    "G_3_1_2": _g(["ta1", "-alpha"], "C2xC2", "3i"),
    "G_3_2_1": _g(["ta1", "-la1"], "C2xC2", "3i"),
    "G_3_2_2": _g(["ta1", "alpha"], "C2xC2", "3i"),
    "G_3_2_3": _g(["-alpha", "be1"], "C2xC2", "3i"),
    "G_3_3_1": _g(["ta1", "la1", "-i3"], "C2xC2xC2", "3i"),
    "G_3_3_2": _g(["ta1", "-alpha", "-i3"], "C2xC2xC2", "3i"),
    # crystal system 3, sublist ii
    "G_3_1_3": _g(["ta2", "la2"], "C2xC2", "3ii"),
    "G_3_1_4": _g(["ta3", "la3"], "C2xC2", "3ii", star=True),
    "G_3_2_4": _g(["ta2", "-la2"], "C2xC2", "3ii"),
    "G_3_2_5": _g(["ta3", "-la3"], "C2xC2", "3ii"),
    "G_3_3_3": _g(["ta2", "la2", "-i3"], "C2xC2xC2", "3ii", star=True),
    "G_3_3_4": _g(["ta3", "la3", "-i3"], "C2xC2xC2", "3ii", star=True),
    # crystal system 4, sublist i
    "G_4_1_1": _g(["caa"], "C4", "4i"),
    "G_4_2_1": _g(["-caa"], "C4", "4i"),
    "G_4_3_1": _g(["caa", "-i3"], "C4xC2", "4i"),
    "G_4_4_1": _g(["caa", "la1"], "D4", "4i"),
    "G_4_5_1": _g(["caa", "-la1"], "D4", "4i"),
    "G_4_6_1": _g(["-caa", "la1"], "D4", "4i"),
    "G_4_6_2": _g(["-caa", "-la1"], "D4", "4i"),
    "G_4_7_1": _g(["caa", "la1", "-i3"], "D4xC2", "4i"),
    # crystal system 4, sublist ii
    "G_4_1_2": _g(["cbb"], "C4", "4ii"),
    "G_4_2_2": _g(["-cbb"], "C4", "4ii"),
    "G_4_3_2": _g(["cbb", "-i3"], "C4xC2", "4ii", star=True),
    "G_4_4_2": _g(["cbb", "la3"], "D4", "4ii", star=True),
    "G_4_5_2": _g(["cbb", "-la3"], "D4", "4ii"),
    "G_4_6_3": _g(["-cbb", "-la3"], "D4", "4ii"),
    "G_4_6_4": _g(["-cbb", "la3"], "D4", "4ii", star=True),
    "G_4_7_2": _g(["cbb", "la3", "-i3"], "D4xC2", "4ii", star=True),
    # crystal system 5, sublist i
    "G_5_1_1": _g(["cb"], "C3", "5i"),
    "G_5_2_1": _g(["cb", "-i3"], "C6", "5i"),
    "G_5_3_1": _g(["cb", "-alpha"], "S3", "5i"),
    "G_5_4_1": _g(["cb", "alpha"], "S3", "5i"),
    "G_5_5_1": _g(["cb", "-alpha", "-i3"], "D6", "5i"),
    # crystal system 5, sublist ii
    "G_5_1_2": _g(["ca"], "C3", "5ii"),
    "G_5_2_2": _g(["ca", "-i3"], "C6", "5ii"),
    "G_5_3_2": _g(["ca", "-alpha"], "S3", "5ii"),
    "G_5_3_3": _g(["ca", "-be1"], "S3", "5ii"),
    "G_5_4_2": _g(["ca", "be1"], "S3", "5ii"),
    "G_5_4_3": _g(["ca", "alpha"], "S3", "5ii"),
    "G_5_5_2": _g(["ca", "-alpha", "-i3"], "D6", "5ii"),
    "G_5_5_3": _g(["ca", "-be1", "-i3"], "D6", "5ii"),
    # crystal system 6
    "G_6_1_1": _g(["ca", "ta1"], "C6", "6"),
    "G_6_2_1": _g(["ca", "-ta1"], "C6", "6"),
    "G_6_3_1": _g(["ca", "ta1", "-i3"], "C6xC2", "6"),
    "G_6_4_1": _g(["ca", "ta1", "-be1"], "D6", "6"),
    "G_6_5_1": _g(["ca", "ta1", "be1"], "D6", "6"),
    "G_6_6_1": _g(["ca", "-ta1", "be1"], "D6", "6"),
    "G_6_6_2": _g(["ca", "-ta1", "-be1"], "D6", "6"),
    "G_6_7_1": _g(["ca", "ta1", "-be1", "-i3"], "D6xC2", "6"),
    # crystal system 7, sublist i
    "G_7_1_1": _g(["ta1", "la1", "cb"], "A4", "7i"),
    "G_7_2_1": _g(["ta1", "la1", "cb", "-i3"], "A4xC2", "7i"),
    "G_7_3_1": _g(["ta1", "la1", "cb", "-be1"], "S4", "7i"),
    "G_7_4_1": _g(["ta1", "la1", "cb", "be1"], "S4", "7i"),
    "G_7_5_1": _g(["ta1", "la1", "cb", "be1", "-i3"], "S4xC2", "7i"),
    # crystal system 7, sublist ii
    "G_7_1_2": _g(["ta2", "la2", "cb"], "A4", "7ii"),
    "G_7_2_2": _g(["ta2", "la2", "cb", "-i3"], "A4xC2", "7ii", star=True),
    "G_7_3_2": _g(["ta2", "la2", "cb", "-be2"], "S4", "7ii", star=True),
    "G_7_4_2": _g(["ta2", "la2", "cb", "be2"], "S4", "7ii"),
    "G_7_5_2": _g(["ta2", "la2", "cb", "be2", "-i3"], "S4xC2", "7ii", star=True),
    # crystal system 7, sublist iii
    "G_7_1_3": _g(["ta3", "la3", "cb"], "A4", "7iii", star=True),
    "G_7_2_3": _g(["ta3", "la3", "cb", "-i3"], "A4xC2", "7iii", star=True),
    "G_7_3_3": _g(["ta3", "la3", "cb", "-be3"], "S4", "7iii", star=True),
    "G_7_4_3": _g(["ta3", "la3", "cb", "be3"], "S4", "7iii", star=True),
    "G_7_5_3": _g(["ta3", "la3", "cb", "be3", "-i3"], "S4xC2", "7iii", star=True),
}

LABEL_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
    "C2xC2": 4, "C2xC2xC2": 8, "C4xC2": 8, "C6xC2": 12,
    "S3": 6, "D4": 8, "D6": 12, "D4xC2": 16, "D6xC2": 24,
    "A4": 12, "S4": 24, "A4xC2": 24, "S4xC2": 48,
}

CASES = []


def _case(id, kind, section, source, payload):
    CASES.append({
        "id": id, "kind": kind, "section": section,
        "source": source, "payload": payload,
    })


# -- group facts: order, structure label, rational reducibility ---------------

for _gid, _rec in GROUPS.items():
    _case(
        f"order_{_gid}", "GroupOrder", "2",
        f"closure of {_gid} has the order its structure label implies",
        {"group": _gid, "order": LABEL_ORDERS[_rec["label"]]},
    )
    _case(
        f"iso_{_gid}", "IsoType", "2",
        f"structure label of {_gid}",
        {"group": _gid, "label": _rec["label"]},
    )
    _case(
        f"qred_{_gid}", "QReducibility", "2",
        f"rational reducibility of {_gid} (irreducible only in the last system)",
        {"group": _gid, "reducible": not _rec["system"].startswith("7")},
    )


# -- conjugacy moves between the sublists --------------------------------------

# The second-sublist groups are unimodular conjugates of p1/p2 images of
# the first-sublist ones.  p1 and p2 alone move the group to an integral
# but differently-embedded copy, so each certificate here is the full
# product (p1 or p2) * V with V in GL_3(Z); V was found by exhaustive
# search over entries in {-1,0,1} and is part of the claim being checked.
_Q_P1_KLEIN = [[-1, -1, 0], [-1, 0, -1], [0, -1, -1]]
_Q_P2_KLEIN = [[-1, -1, 1], [-1, 1, -1], [-1, 1, 1]]
_Q_P1_ORD4 = [[-1, 1, 0], [0, 0, -1], [-1, -1, 1]]

_CONJUGACIES = [
    ("G_3_1_1", "G_3_1_3", "p1", _Q_P1_KLEIN),
    ("G_3_1_1", "G_3_1_4", "p2", _Q_P2_KLEIN),
    ("G_3_2_1", "G_3_2_4", "p1", [[-1, 0, -1], [0, -1, -1], [-1, -1, 0]]),
    ("G_3_2_1", "G_3_2_5", "p2", [[-1, 1, -1], [-1, 1, 1], [-1, -1, 1]]),
    ("G_3_3_1", "G_3_3_3", "p1", _Q_P1_KLEIN),
    ("G_3_3_1", "G_3_3_4", "p2", _Q_P2_KLEIN),
    ("G_4_1_1", "G_4_1_2", "p1", _Q_P1_ORD4),
    ("G_4_2_1", "G_4_2_2", "p1", _Q_P1_ORD4),
    ("G_4_3_1", "G_4_3_2", "p1", _Q_P1_ORD4),
    ("G_4_4_1", "G_4_4_2", "p1", _Q_P1_ORD4),
    ("G_4_5_1", "G_4_5_2", "p1", _Q_P1_ORD4),
    ("G_4_6_1", "G_4_6_3", "p1", _Q_P1_ORD4),
    ("G_4_6_2", "G_4_6_4", "p1", _Q_P1_ORD4),
    ("G_4_7_1", "G_4_7_2", "p1", _Q_P1_ORD4),
    ("G_7_1_1", "G_7_1_2", "p1", _Q_P1_KLEIN),
    ("G_7_2_1", "G_7_2_2", "p1", _Q_P1_KLEIN),
    ("G_7_3_1", "G_7_3_2", "p1", _Q_P1_KLEIN),
    ("G_7_4_1", "G_7_4_2", "p1", _Q_P1_KLEIN),
    ("G_7_5_1", "G_7_5_2", "p1", _Q_P1_KLEIN),
]

for _left, _right, _via, _q in _CONJUGACIES:
    _sec = {"3": "4.1", "4": "4.2", "7": "5.1"}[_left.split("_")[1]]
    _case(
        f"conj_{_left}_{_right}", "Conjugacy", _sec,
        f"{_right} is a GL_3(Z) conjugate of {_via}^-1 {_left} {_via}; "
        f"the stored matrix is {_via} times the unimodular witness",
        {"left": _left, "right": _right, "via": _q},
    )


# -- displayed normal-subgroup lists -------------------------------------------

_NORMAL_LISTS = {
    "G_4_1_1": [["caa^2"]],
    "G_4_2_1": [["caa^2"]],
    "G_4_3_1": [["caa^2"], ["-caa^2"], ["caa"], ["-caa"], ["-i3"], ["caa^2", "-i3"]],
    "G_4_4_1": [["caa^2"], ["caa^2", "la1"], ["caa^2", "caa*la1"], ["caa"]],
    "G_4_5_1": [["caa^2"], ["caa^2", "-la1"], ["caa^2", "-caa*la1"], ["caa"]],
    "G_4_6_1": [["caa^2"], ["caa^2", "la1"], ["caa^2", "-caa*la1"], ["-caa"]],
    "G_4_6_2": [["caa^2"], ["caa^2", "-la1"], ["caa^2", "caa*la1"], ["-caa"]],
    "G_4_7_1": [
        ["caa^2"], ["-caa^2"],
        ["caa^2", "la1"], ["caa^2", "-la1"],
        ["caa^2", "caa*la1"], ["caa^2", "-caa*la1"],
        ["caa"], ["-caa"],
        ["caa", "la1"], ["caa", "-la1"], ["-caa", "la1"], ["-caa", "-la1"],
        ["-i3"], ["caa^2", "-i3"],
        ["caa^2", "la1", "-i3"], ["caa^2", "caa*la1", "-i3"],
        ["caa", "-i3"],
    ],
    "G_5_1_1": [],
    "G_5_2_1": [["cb"], ["-i3"]],
    "G_5_3_1": [["cb"]],
    "G_5_4_1": [["cb"]],
    "G_5_5_1": [["cb"], ["-i3"], ["cb", "alpha"], ["cb", "-alpha"], ["cb", "-i3"]],
}

for _k in ("1", "2", "3"):
    _t, _l, _b = f"ta{_k}", f"la{_k}", f"be{_k}"
    _NORMAL_LISTS[f"G_7_1_{_k}"] = [[_t, _l]]
    _NORMAL_LISTS[f"G_7_2_{_k}"] = [
        [_t, _l], [_t, _l, "cb"], ["-i3"], [_t, _l, "-i3"],
    ]
    _NORMAL_LISTS[f"G_7_3_{_k}"] = [[_t, _l], [_t, _l, "cb"]]
    _NORMAL_LISTS[f"G_7_4_{_k}"] = [[_t, _l], [_t, _l, "cb"]]
    _NORMAL_LISTS[f"G_7_5_{_k}"] = [
        [_t, _l], [_t, _l, "cb"], ["-i3"], [_t, _l, "-i3"],
        [_t, _l, "cb", _b], [_t, _l, "cb", f"-{_b}"], [_t, _l, "cb", "-i3"],
    ]

for _gid, _subs in _NORMAL_LISTS.items():
    _sys = _gid.split("_")[1]
    _sec = {"4": "4.2", "5": "4.3", "7": "5"}[_sys]
    _case(
        f"normals_{_gid}", "NormalSubgroups", _sec,
        f"nontrivial proper normal subgroups of {_gid}, as listed",
        {"group": _gid, "subgroups": _subs},
    )


# -- fixed-field generator lemmas ----------------------------------------------

_case(
    "lemma_tau1", "Invariance", "3",
    "two-variable simultaneous-inversion invariants (odd characteristic form)",
    {
        "context": {"variables": ["x1", "x2"]},
        "actions": {"tau": {"bindings": {"x1": "1/x1", "x2": "1/x2"}}},
        "exprs": {
            "t1": "(x1*x2+1)/(x1+x2)",
            "t2": "(x1*x2-1)/(x1-x2)",
        },
    },
)

_case(
    "lemma_ab", "Invariance", "3",
    "twisted two-variable inversion with level depending on the first variable",
    {
        "context": {"variables": ["x1", "x2"], "parameters": ["a", "c", "d"]},
        "actions": {
            "flip": {"bindings": {
                "x1": "a/x1",
                "x2": "(c*(x1+a/x1)+d)/x2",
            }},
        },
        "exprs": {
            "u1": "x2*(x1^2-a)/(x1^2*x2^2-a*(c*(x1+a/x1)+d))",
            "u2": "x1*(x2^2-(c*(x1+a/x1)+d))/(x1^2*x2^2-a*(c*(x1+a/x1)+d))",
        },
    },
)

_case(
    "lemma_mI3", "Invariance", "3",
    "three-variable simultaneous-inversion invariants",
    {
        "context": {"variables": ["x1", "x2", "x3"]},
        "actions": {"inv": {"bindings": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"}}},
        "exprs": {
            "t1": "(x1*x2+1)/(x1+x2)",
            "t2": "(x2*x3+1)/(x2+x3)",
            "t3": "(x3*x1+1)/(x3+x1)",
        },
    },
)

_case(
    "lemma_masuda", "Invariance", "3",
    "three-cycle invariants: elementary sum plus two cubic-symmetric ratios",
    {
        "context": {"variables": ["x1", "x2", "x3"]},
        "actions": {"cyc": {"bindings": {"x1": "x2", "x2": "x3", "x3": "x1"}}},
        "exprs": {
            "s1": "x1+x2+x3",
            "u": "(x1*x2^2+x2*x3^2+x3*x1^2-3*x1*x2*x3)/(x1^2+x2^2+x3^2-x1*x2-x2*x3-x3*x1)",
            "v": "(x1^2*x2+x2^2*x3+x3^2*x1-3*x1*x2*x3)/(x1^2+x2^2+x3^2-x1*x2-x2*x3-x3*x1)",
        },
    },
)

_case(
    "lemma_tau1_lambda1", "Invariance", "3",
    "invariants for the pair of two-coordinate inversions",
    {
        "context": {"variables": ["x1", "x2", "x3"]},
        "actions": {
            "tau1": {"bindings": {"x1": "1/x1", "x2": "1/x2", "x3": "x3"}},
            "lambda1": {"bindings": {"x1": "1/x1", "x2": "x2", "x3": "1/x3"}},
        },
        "exprs": {
            "t1": "(-x1+x2+x3-x1*x2*x3)/(1-x1*x2+x2*x3-x3*x1)",
            "t2": "(x1-x2+x3-x1*x2*x3)/(1-x1*x2-x2*x3+x3*x1)",
            "t3": "(x1+x2-x3-x1*x2*x3)/(1+x1*x2-x2*x3-x3*x1)",
        },
    },
)

_case(
    "lemma_v42", "Invariance", "3",
    "invariants for the swap pair with a scaled product inversion, generic level c",
    {
        "context": {"variables": ["x1", "x2", "x3"], "parameters": ["c"]},
        "actions": {
            "ta3": {"bindings": {"x1": "x2", "x2": "x1", "x3": "c/(x1*x2*x3)"}},
            "la3": {"bindings": {"x1": "x3", "x2": "c/(x1*x2*x3)", "x3": "x1"}},
        },
        "exprs": {
            "v1": "(c-x1*x2*x3*(x1+x2-x3))/(x3*(c-x1^2*x2^2))",
            "v2": "(c-x1*x2*x3*(-x1+x2+x3))/(x1*(c-x2^2*x3^2))",
            "v3": "(c-x1*x2*x3*(x1-x2+x3))/(x2*(c-x1^2*x3^2))",
        },
    },
)

_case(
    "lemma_xy_invariance", "Invariance", "3",
    "norm-pair coordinates fixed by a root flip combined with f/x inversion",
    {
        "context": {
            "variables": ["x1", "x2"],
            "parameters": ["d", "e1", "e2", "e3"],
            "roots": ["d"],
        },
        "actions": {
            "flip": {
                "bindings": {"x1": "x1", "x2": "(e1*x1^2+e2*x1+e3)/x2"},
                "signs": {"d": -1},
            },
        },
        "exprs": {
            "xn": "(x2+(e1*x1^2+e2*x1+e3)/x2)/2",
            "yn": "(x2-(e1*x1^2+e2*x1+e3)/x2)/(2*sqrt(d))",
            "x1fix": "x1",
        },
    },
)

_case(
    "lemma_xy_norm", "Identity", "3",
    "the norm-pair coordinates satisfy a conic equation with the inverted level",
    {
        "context": {
            "variables": ["x1", "x2"],
            "parameters": ["d", "e1", "e2", "e3"],
            "roots": ["d"],
        },
        "where": [
            ["f", "e1*x1^2+e2*x1+e3"],
            ["xn", "(x2+f/x2)/2"],
            ["yn", "(x2-f/x2)/(2*sqrt(d))"],
        ],
        "lhs": "xn^2-d*yn^2",
        "rhs": "f",
    },
)


# -- 3rd system, second sublist -------------------------------------------------

_XYZ = {"variables": ["x1", "x2", "x3"]}

_RHO = {
    "rho1": {"bindings": {"x1": "-x1", "x2": "-x2", "x3": "-x3"}},
    "rho2": {"bindings": {"x1": "-x1", "x2": "x2", "x3": "-x3"}},
    "rho3": {"bindings": {"x1": "x1", "x2": "-x2", "x3": "-x3"}},
}

_case(
    "sys3_xtable", "InducedAction", "4.1",
    "inversion actions of the three diagonal generators on the coordinates",
    {
        "context": _XYZ,
        "actions": {"tau1": {"word": "ta1"}, "lambda1": {"word": "la1"}, "mi3": {"word": "-i3"}},
        "forward": None,
        "claimed": {
            "tau1": {"x1": "1/x1", "x2": "1/x2", "x3": "x3"},
            "lambda1": {"x1": "1/x1", "x2": "x2", "x3": "1/x3"},
            "mi3": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"},
        },
        "claimed_context": _XYZ,
    },
)

_case(
    "sys3_case1_fixed_field", "InducedAction", "4.1",
    "full fixed field of the first C2xC2 group over k(sqrt(a)); sign-twisted "
    "coordinates and how the three unit translations act on them",
    {
        "context": {"variables": ["x1", "x2", "x3"], "parameters": ["a"], "roots": ["a"]},
        "actions": {
            "tau1": {"bindings": {"x1": "1/x1", "x2": "1/x2", "x3": "x3"}},
            "lambda1": {"bindings": {"x1": "1/x1", "x2": "x2", "x3": "1/x3"}, "signs": {"a": -1}},
            **_RHO,
        },
        "forward": {
            "y1": "((x1-1)/(x1+1))^2",
            "y2": "sqrt(a)*(x1-1)*(x2-1)/((x1+1)*(x2+1))",
            "y3": "sqrt(a)*(x3-1)/(x3+1)",
        },
        "claimed": {
            "tau1": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "lambda1": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "rho1": {"y1": "1/y1", "y2": "a/y2", "y3": "a/y3"},
            "rho2": {"y1": "1/y1", "y2": "y2/y1", "y3": "a/y3"},
            "rho3": {"y1": "y1", "y2": "a*y1/y2", "y3": "a/y3"},
        },
        "claimed_context": {"variables": ["y1", "y2", "y3"], "parameters": ["a"]},
    },
)

_case(
    "sys3_case3_i_slice", "Invariance", "4.1",
    "coordinates fixed by the single inversion -tau1*lambda1",
    {
        "context": _XYZ,
        "actions": {"minv": {"word": "-ta1*la1"}},
        "exprs": {"y1": "x1+1/x1", "y2": "x2", "y3": "x3"},
    },
)

_case(
    "sys3_case3_ii_pair_slice", "InducedAction", "4.1",
    "partial invariants for the two-coordinate inversion and the actions the "
    "remaining generators and unit translations induce on them",
    {
        "context": _XYZ,
        "actions": {
            "tau1": {"word": "ta1"}, "lambda1": {"word": "la1"}, "mi3": {"word": "-i3"},
            **_RHO,
        },
        "forward": {
            "y1": "(x1*x2+1)/(x1+x2)",
            "y2": "(x1*x2-1)/(x1-x2)",
            "y3": "x3",
        },
        "claimed": {
            "tau1": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "lambda1": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"},
            "mi3": {"y1": "y1", "y2": "y2", "y3": "1/y3"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
            "rho2": {"y1": "y2", "y2": "y1", "y3": "-y3"},
            "rho3": {"y1": "-y2", "y2": "-y1", "y3": "-y3"},
        },
        "claimed_context": {"variables": ["y1", "y2", "y3"]},
    },
)

_case(
    "sys3_case3_ii_rho1_slice", "InducedAction", "4.1",
    "invariants of the sign flip rho1 inside the previous coordinate field",
    {
        "context": {"variables": ["y1", "y2", "y3"]},
        "actions": {
            "lambda1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"}},
            "mi3": {"bindings": {"y1": "y1", "y2": "y2", "y3": "1/y3"}},
            "rho1": {"bindings": {"y1": "-y1", "y2": "-y2", "y3": "-y3"}},
        },
        "forward": {
            "z1": "y1^2",
            "z2": "(y1*y2-1)/(y1*y2+1)",
            "z3": "y1*y3",
        },
        "claimed": {
            "lambda1": {"z1": "1/z1", "z2": "-z2", "z3": "1/z3"},
            "mi3": {"z1": "z1", "z2": "z2", "z3": "z1/z3"},
            "rho1": {"z1": "z1", "z2": "z2", "z3": "z3"},
        },
        "claimed_context": {"variables": ["z1", "z2", "z3"]},
    },
)

_case(
    "sys3_case3_ii_rho23_slice", "InducedAction", "4.1",
    "invariants of the composite flip rho2*rho3 and the induced actions, under "
    "which rho2 and rho3 become the same map",
    {
        "context": {"variables": ["y1", "y2", "y3"]},
        "actions": {
            "lambda1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"}},
            "mi3": {"bindings": {"y1": "y1", "y2": "y2", "y3": "1/y3"}},
            "rho2": {"bindings": {"y1": "y2", "y2": "y1", "y3": "-y3"}},
            "rho3": {"bindings": {"y1": "-y2", "y2": "-y1", "y3": "-y3"}},
        },
        "forward": {
            "w1": "(y1-y2)/(y1+y2)",
            "w2": "(y1*y2-1)/(y1*y2+1)",
            "w3": "y3",
        },
        "claimed": {
            "lambda1": {"w1": "-w1", "w2": "-w2", "w3": "1/w3"},
            "mi3": {"w1": "w1", "w2": "w2", "w3": "1/w3"},
            "rho2": {"w1": "-w1", "w2": "w2", "w3": "-w3"},
            "rho3": {"w1": "-w1", "w2": "w2", "w3": "-w3"},
        },
        "claimed_context": {"variables": ["w1", "w2", "w3"]},
    },
)

_case(
    "sys3_case3_iii_slice", "InducedAction", "4.1",
    "invariants of the total inversion -I3 and the plain induced tables",
    {
        "context": _XYZ,
        "actions": {
            "tau1": {"word": "ta1"}, "lambda1": {"word": "la1"}, "mi3": {"word": "-i3"},
            **_RHO,
        },
        "forward": {
            "y1": "((x1-1)/(x1+1))^2",
            "y2": "(x1-1)*(x2-1)/((x1+1)*(x2+1))",
            "y3": "(x1-1)*(x3-1)/((x1+1)*(x3+1))",
        },
        "claimed": {
            "mi3": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "tau1": {"y1": "y1", "y2": "y2", "y3": "-y3"},
            "lambda1": {"y1": "y1", "y2": "-y2", "y3": "y3"},
            "rho1": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"},
            "rho2": {"y1": "1/y1", "y2": "y2/y1", "y3": "1/y3"},
            "rho3": {"y1": "y1", "y2": "y1/y2", "y3": "y1/y3"},
        },
        "claimed_context": {"variables": ["y1", "y2", "y3"]},
    },
)

_case(
    "sys3_case3_iii_rooted", "InducedAction", "4.1",
    "descent to k with two root flips: scaling the previous coordinates by "
    "sqrt(a), sqrt(b) makes them fixed and turns the translations monomial",
    {
        "context": {"variables": ["y1", "y2", "y3"], "parameters": ["a", "b"], "roots": ["a", "b"]},
        "actions": {
            "tau1": {"bindings": {"y1": "y1", "y2": "y2", "y3": "-y3"}, "signs": {"a": -1}},
            "lambda1": {"bindings": {"y1": "y1", "y2": "-y2", "y3": "y3"}, "signs": {"b": -1}},
            "rho1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"}},
            "rho2": {"bindings": {"y1": "1/y1", "y2": "y2/y1", "y3": "1/y3"}},
            "rho3": {"bindings": {"y1": "y1", "y2": "y1/y2", "y3": "y1/y3"}},
        },
        "forward": {
            "z1": "y1",
            "z2": "sqrt(b)*y2",
            "z3": "sqrt(a)*y3",
        },
        "claimed": {
            "tau1": {"z1": "z1", "z2": "z2", "z3": "z3"},
            "lambda1": {"z1": "z1", "z2": "z2", "z3": "z3"},
            "rho1": {"z1": "1/z1", "z2": "b/z2", "z3": "a/z3"},
            "rho2": {"z1": "1/z1", "z2": "z2/z1", "z3": "a/z3"},
            "rho3": {"z1": "z1", "z2": "b*z1/z2", "z3": "a*z1/z3"},
        },
        "claimed_context": {"variables": ["z1", "z2", "z3"], "parameters": ["a", "b"]},
    },
)


# -- 4th system, first sublist ---------------------------------------------------

_case(
    "sys4_xtable", "InducedAction", "4.2",
    "coordinate actions of the order-four rotation, its square and negatives, "
    "and the diagonal involutions",
    {
        "context": _XYZ,
        "actions": {
            "caa": {"word": "caa"}, "mcaa": {"word": "-caa"}, "caa2": {"word": "caa^2"},
            "lambda1": {"word": "la1"}, "mlambda1": {"word": "-la1"}, "mi3": {"word": "-i3"},
        },
        "forward": None,
        "claimed": {
            "caa": {"x1": "x2", "x2": "1/x1", "x3": "x3"},
            "mcaa": {"x1": "1/x2", "x2": "x1", "x3": "1/x3"},
            "caa2": {"x1": "1/x1", "x2": "1/x2", "x3": "x3"},
            "lambda1": {"x1": "1/x1", "x2": "x2", "x3": "1/x3"},
            "mlambda1": {"x1": "x1", "x2": "1/x2", "x3": "x3"},
            "mi3": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"},
        },
        "claimed_context": _XYZ,
    },
)

_case(
    "sys4_case1_y", "InducedAction", "4.2",
    "invariants of the squared rotation and the induced tables on them",
    {
        "context": _XYZ,
        "actions": {
            "caa": {"word": "caa"}, "mcaa": {"word": "-caa"}, "caa2": {"word": "caa^2"},
            "lambda1": {"word": "la1"}, "mlambda1": {"word": "-la1"}, "mi3": {"word": "-i3"},
            "rho1": {"bindings": {"x1": "-x1", "x2": "-x2", "x3": "-x3"}},
        },
        "forward": {
            "y1": "(x1*x2+1)/(x1+x2)",
            "y2": "(x1*x2-1)/(x1-x2)",
            "y3": "x3",
        },
        "claimed": {
            "caa2": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "caa": {"y1": "1/y1", "y2": "-1/y2", "y3": "y3"},
            "mcaa": {"y1": "1/y1", "y2": "-1/y2", "y3": "1/y3"},
            "lambda1": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"},
            "mlambda1": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"},
            "mi3": {"y1": "y1", "y2": "y2", "y3": "1/y3"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
        },
        "claimed_context": {"variables": ["y1", "y2", "y3"]},
    },
)

_Y4 = {"variables": ["y1", "y2", "y3"]}

_Y4_ACTS = {
    "caa": {"bindings": {"y1": "1/y1", "y2": "-1/y2", "y3": "y3"}},
    "mcaa": {"bindings": {"y1": "1/y1", "y2": "-1/y2", "y3": "1/y3"}},
    "lambda1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"}},
    "mlambda1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"}},
    "mi3": {"bindings": {"y1": "y1", "y2": "y2", "y3": "1/y3"}},
    "rho1": {"bindings": {"y1": "-y1", "y2": "-y2", "y3": "-y3"}},
}

_case(
    "sys4_case1_z", "InducedAction", "4.2",
    "Moebius rescaling of the previous coordinates that straightens every "
    "generator to a signed monomial table",
    {
        "context": _Y4,
        "actions": _Y4_ACTS,
        "forward": {
            "z1": "(y2-1)/(y2+1)",
            "z2": "(y1-1)/(y1+1)",
            "z3": "(y3-1)/(y3+1)",
        },
        "claimed": {
            "caa": {"z1": "-1/z1", "z2": "-z2", "z3": "z3"},
            "mcaa": {"z1": "-1/z1", "z2": "-z2", "z3": "-z3"},
            "lambda1": {"z1": "-z1", "z2": "-z2", "z3": "-z3"},
            "mlambda1": {"z1": "-z1", "z2": "-z2", "z3": "z3"},
            "mi3": {"z1": "z1", "z2": "z2", "z3": "-z3"},
        },
        "claimed_context": {"variables": ["z1", "z2", "z3"]},
    },
)

_Z4 = {"variables": ["z1", "z2", "z3"]}

_Z4_ACTS = {
    "caa": {"bindings": {"z1": "-1/z1", "z2": "-z2", "z3": "z3"}},
    "mcaa": {"bindings": {"z1": "-1/z1", "z2": "-z2", "z3": "-z3"}},
    "lambda1": {"bindings": {"z1": "-z1", "z2": "-z2", "z3": "-z3"}},
    "mlambda1": {"bindings": {"z1": "-z1", "z2": "-z2", "z3": "z3"}},
    "mi3": {"bindings": {"z1": "z1", "z2": "z2", "z3": "-z3"}},
}

_W4 = {"variables": ["w1", "w2", "w3"]}


def _sys4_slice(id, source, forward, claimed):
    _case(id, "InducedAction", "4.2", source, {
        "context": _Z4,
        "actions": _Z4_ACTS,
        "forward": forward,
        "claimed": claimed,
        "claimed_context": _W4,
    })


_IDW = {"w1": "w1", "w2": "w2", "w3": "w3"}

_sys4_slice(
    "sys4_case1_iii_l1", "slice by the subgroup generated by the square and the "
    "first involution; displayed table",
    {"w1": "z1*z2", "w2": "z2/z1", "w3": "z3/z1"},
    {
        "lambda1": _IDW,
        "caa": {"w1": "w2", "w2": "w1", "w3": "-w1*w3/w2"},
        "mcaa": {"w1": "w2", "w2": "w1", "w3": "w1*w3/w2"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_iii_ml1", "companion slice for the negated involution, worked "
    "out along the same lines as the displayed one",
    {"w1": "z1*z2", "w2": "z2/z1", "w3": "z3"},
    {
        "mlambda1": _IDW,
        "caa": {"w1": "w2", "w2": "w1", "w3": "w3"},
        "mcaa": {"w1": "w2", "w2": "w1", "w3": "-w3"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_iii_l1_mi3", "companion slice adding the total inversion, "
    "worked out along the same lines as the displayed one",
    {"w1": "z1*z2", "w2": "z2/z1", "w3": "z3^2"},
    {
        "lambda1": _IDW,
        "mi3": _IDW,
        "caa": {"w1": "w2", "w2": "w1", "w3": "w3"},
        "mcaa": {"w1": "w2", "w2": "w1", "w3": "w3"},
    },
)

_sys4_slice(
    "sys4_case1_iv_cl1", "slice by the subgroup generated by the square and "
    "the rotation-involution product; displayed table",
    {"w1": "(z1+1)/(z1-1)*z3", "w2": "(z1-1)/(z1+1)*z3", "w3": "z2"},
    {
        "caa": {"w1": "-w2", "w2": "-w1", "w3": "-w3"},
        "mcaa": {"w1": "w2", "w2": "w1", "w3": "-w3"},
        "lambda1": {"w1": "-w2", "w2": "-w1", "w3": "-w3"},
        "mlambda1": {"w1": "w2", "w2": "w1", "w3": "-w3"},
        "mi3": {"w1": "-w1", "w2": "-w2", "w3": "w3"},
    },
)

_sys4_slice(
    "sys4_case1_iv_mcl1", "companion slice for the negated product, worked out "
    "along the same lines as the displayed one",
    {"w1": "z1+1/z1", "w2": "z2", "w3": "z3"},
    {
        "caa": {"w1": "-w1", "w2": "-w2", "w3": "w3"},
        "mcaa": {"w1": "-w1", "w2": "-w2", "w3": "-w3"},
        "lambda1": {"w1": "-w1", "w2": "-w2", "w3": "-w3"},
        "mlambda1": {"w1": "-w1", "w2": "-w2", "w3": "w3"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_iv_cl1_mi3", "companion slice adding the total inversion, "
    "worked out along the same lines as the displayed one",
    {"w1": "z2", "w2": "z3^2", "w3": "((z1+1)/(z1-1))^2"},
    {
        "mi3": _IDW,
        "caa": {"w1": "-w1", "w2": "w2", "w3": "1/w3"},
        "mcaa": {"w1": "-w1", "w2": "w2", "w3": "1/w3"},
        "lambda1": {"w1": "-w1", "w2": "w2", "w3": "1/w3"},
        "mlambda1": {"w1": "-w1", "w2": "w2", "w3": "1/w3"},
    },
)

_sys4_slice(
    "sys4_case1_v_caa", "slice by the rotation itself; displayed table",
    {"w1": "z1-1/z1", "w2": "(z1+1/z1)/z2", "w3": "z3"},
    {
        "caa": _IDW,
        "lambda1": {"w1": "-w1", "w2": "w2", "w3": "-w3"},
        "mlambda1": {"w1": "-w1", "w2": "w2", "w3": "w3"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_v_mcaa", "companion slice for the negated rotation, worked out "
    "along the same lines as the displayed one",
    {"w1": "z1-1/z1", "w2": "(z1+1/z1)/z2", "w3": "z2*z3"},
    {
        "mcaa": _IDW,
        "lambda1": {"w1": "-w1", "w2": "w2", "w3": "w3"},
        "mlambda1": {"w1": "-w1", "w2": "w2", "w3": "-w3"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_v_caa_mi3", "companion slice adding the total inversion, "
    "worked out along the same lines as the displayed one",
    {"w1": "z1-1/z1", "w2": "(z1+1/z1)/z2", "w3": "z3^2"},
    {
        "caa": _IDW,
        "mi3": _IDW,
        "lambda1": {"w1": "-w1", "w2": "w2", "w3": "w3"},
        "mlambda1": {"w1": "-w1", "w2": "w2", "w3": "w3"},
    },
)

_sys4_slice(
    "sys4_case1_vi_c_l1", "slice by rotation and involution together; "
    "displayed table",
    {"w1": "(z1-1/z1)*z3", "w2": "(z1+1/z1)/z2", "w3": "z3^2"},
    {
        "caa": _IDW,
        "lambda1": _IDW,
        "mi3": {"w1": "-w1", "w2": "w2", "w3": "w3"},
    },
)

_sys4_slice(
    "sys4_case1_vi_c_ml1", "companion slice for the rotation with the negated "
    "involution, worked out along the same lines as the displayed one",
    {"w1": "(z1+1/z1)/z2", "w2": "z2^2", "w3": "z3"},
    {
        "caa": _IDW,
        "mlambda1": _IDW,
        "lambda1": {"w1": "w1", "w2": "w2", "w3": "-w3"},
        "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
    },
)

_sys4_slice(
    "sys4_case1_vi_mc_l1", "companion slice for the negated rotation with the "
    "involution, worked out along the same lines as the displayed one",
    {"w1": "(z1+1/z1)/z2", "w2": "z2*z3", "w3": "z3^2"},
    {
        "mcaa": _IDW,
        "lambda1": _IDW,
        "caa": {"w1": "w1", "w2": "-w2", "w3": "w3"},
        "mi3": {"w1": "w1", "w2": "-w2", "w3": "w3"},
    },
)

_sys4_slice(
    "sys4_case1_vi_mc_ml1", "companion slice for both generators negated, "
    "worked out along the same lines as the displayed one",
    {"w1": "(z1+1/z1)/z2", "w2": "(z1-1/z1)*z3/z2", "w3": "z2^2"},
    {
        "mcaa": _IDW,
        "mlambda1": _IDW,
        "caa": {"w1": "w1", "w2": "-w2", "w3": "w3"},
        "mi3": {"w1": "w1", "w2": "-w2", "w3": "w3"},
    },
)

_case(
    "sys4_case1_rho1_side", "InducedAction", "4.2",
    "invariants of the sign flip on the intermediate coordinates; the induced "
    "tables match the straightened ones",
    {
        "context": _Y4,
        "actions": _Y4_ACTS,
        "forward": {
            "w1": "(y1*y2-1)/(y1*y2+1)",
            "w2": "(y1-y3)/(y1+y3)+(y1*y3-1)/(y1*y3+1)",
            "w3": "(y1-y3)/(y1+y3)-(y1*y3-1)/(y1*y3+1)",
        },
        "claimed": {
            "rho1": _IDW,
            "caa": {"w1": "-1/w1", "w2": "-w2", "w3": "w3"},
            "mcaa": {"w1": "-1/w1", "w2": "-w2", "w3": "-w3"},
            "lambda1": {"w1": "-w1", "w2": "-w2", "w3": "-w3"},
            "mi3": {"w1": "w1", "w2": "w2", "w3": "-w3"},
        },
        "claimed_context": _W4,
    },
)

_case(
    "sys4_case2_y", "InducedAction", "4.2",
    "invariants of the total inversion and the induced rotation/involution tables",
    {
        "context": _XYZ,
        "actions": {
            "caa": {"word": "caa"}, "lambda1": {"word": "la1"}, "mi3": {"word": "-i3"},
            "rho1": {"bindings": {"x1": "-x1", "x2": "-x2", "x3": "-x3"}},
        },
        "forward": {
            "y1": "(x1*x2+1)/(x1+x2)",
            "y2": "(x2*x3+1)/(x2+x3)",
            "y3": "(x3*x1+1)/(x3+x1)",
        },
        "claimed": {
            "mi3": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "caa": {"y1": "1/y1", "y2": "1/y3", "y3": "y2"},
            "lambda1": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
        },
        "claimed_context": _Y4,
    },
)

_case(
    "sys4_case2_z", "InducedAction", "4.2",
    "invariants of the sign flip inside the total-inversion slice",
    {
        "context": _Y4,
        "actions": {
            "caa": {"bindings": {"y1": "1/y1", "y2": "1/y3", "y3": "y2"}},
            "lambda1": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"}},
            "rho1": {"bindings": {"y1": "-y1", "y2": "-y2", "y3": "-y3"}},
        },
        "forward": {"z1": "y1^2", "z2": "y1*y2", "z3": "y1*y3"},
        "claimed": {
            "rho1": {"z1": "z1", "z2": "z2", "z3": "z3"},
            "caa": {"z1": "1/z1", "z2": "1/z3", "z3": "z2/z1"},
            "lambda1": {"z1": "1/z1", "z2": "1/z2", "z3": "z3/z1"},
        },
        "claimed_context": _Z4,
    },
)

_case(
    "sys4_case3_y", "InducedAction", "4.2",
    "invariants of the negated squared rotation and the induced tables",
    {
        "context": _XYZ,
        "actions": {
            "caa": {"word": "caa"}, "lambda1": {"word": "la1"}, "mi3": {"word": "-i3"},
            "mcaa2": {"word": "-caa^2"},
            "rho1": {"bindings": {"x1": "-x1", "x2": "-x2", "x3": "-x3"}},
        },
        "forward": {
            "y1": "x1",
            "y2": "x2",
            "y3": "(x1+1/x1+x2+1/x2)*(x3+1/x3)",
        },
        "claimed": {
            "mcaa2": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "caa": {"y1": "y2", "y2": "1/y1", "y3": "y3"},
            "lambda1": {"y1": "1/y1", "y2": "y2", "y3": "y3"},
            "mi3": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "y3"},
        },
        "claimed_context": _Y4,
    },
)

_case(
    "sys4_case3_z", "InducedAction", "4.2",
    "invariants of the sign flip inside the negated-square slice",
    {
        "context": _Y4,
        "actions": {
            "caa": {"bindings": {"y1": "y2", "y2": "1/y1", "y3": "y3"}},
            "lambda1": {"bindings": {"y1": "1/y1", "y2": "y2", "y3": "y3"}},
            "mi3": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"}},
            "rho1": {"bindings": {"y1": "-y1", "y2": "-y2", "y3": "y3"}},
        },
        "forward": {"z1": "y2/y1", "z2": "y1*y2", "z3": "y3"},
        "claimed": {
            "rho1": {"z1": "z1", "z2": "z2", "z3": "z3"},
            "caa": {"z1": "1/z2", "z2": "z1", "z3": "z3"},
            "lambda1": {"z1": "z2", "z2": "z1", "z3": "z3"},
            "mi3": {"z1": "1/z1", "z2": "1/z2", "z3": "z3"},
        },
        "claimed_context": _Z4,
    },
)


# -- 5th system, first sublist ---------------------------------------------------

_case(
    "sys5_xtable", "InducedAction", "4.3",
    "coordinate actions of the three-cycle, the swap and their negatives",
    {
        "context": _XYZ,
        "actions": {
            "cb": {"word": "cb"}, "mi3": {"word": "-i3"},
            "alpha": {"word": "alpha"}, "malpha": {"word": "-alpha"},
        },
        "forward": None,
        "claimed": {
            "cb": {"x1": "x2", "x2": "x3", "x3": "x1"},
            "mi3": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"},
            "alpha": {"x1": "x2", "x2": "x1", "x3": "x3"},
            "malpha": {"x1": "1/x2", "x2": "1/x1", "x3": "1/x3"},
        },
        "claimed_context": _XYZ,
    },
)

_case(
    "sys5_case1_moebius", "InducedAction", "4.3",
    "shifted coordinates on which every generator acts by signed permutation",
    {
        "context": _XYZ,
        "actions": {
            "cb": {"word": "cb"}, "mi3": {"word": "-i3"},
            "alpha": {"word": "alpha"}, "malpha": {"word": "-alpha"},
        },
        "forward": {
            "xx1": "(x1-1)/(x1+1)",
            "xx2": "(x2-1)/(x2+1)",
            "xx3": "(x3-1)/(x3+1)",
        },
        "claimed": {
            "cb": {"xx1": "xx2", "xx2": "xx3", "xx3": "xx1"},
            "mi3": {"xx1": "-xx1", "xx2": "-xx2", "xx3": "-xx3"},
            "alpha": {"xx1": "xx2", "xx2": "xx1", "xx3": "xx3"},
            "malpha": {"xx1": "-xx2", "xx2": "-xx1", "xx3": "-xx3"},
        },
        "claimed_context": {"variables": ["xx1", "xx2", "xx3"]},
    },
)

_case(
    "sys5_case1_masuda", "InducedAction", "4.3",
    "three-cycle invariants of the shifted coordinates and the induced "
    "actions of the remaining generators",
    {
        "context": {"variables": ["xx1", "xx2", "xx3"]},
        "actions": {
            "cb": {"bindings": {"xx1": "xx2", "xx2": "xx3", "xx3": "xx1"}},
            "mi3": {"bindings": {"xx1": "-xx1", "xx2": "-xx2", "xx3": "-xx3"}},
            "alpha": {"bindings": {"xx1": "xx2", "xx2": "xx1", "xx3": "xx3"}},
            "malpha": {"bindings": {"xx1": "-xx2", "xx2": "-xx1", "xx3": "-xx3"}},
        },
        "forward": {
            "y1": "xx1+xx2+xx3",
            "y2": "(xx1*xx2^2+xx2*xx3^2+xx3*xx1^2-3*xx1*xx2*xx3)"
                  "/(xx1^2+xx2^2+xx3^2-xx1*xx2-xx2*xx3-xx3*xx1)",
            "y3": "(xx1^2*xx2+xx2^2*xx3+xx3^2*xx1-3*xx1*xx2*xx3)"
                  "/(xx1^2+xx2^2+xx3^2-xx1*xx2-xx2*xx3-xx3*xx1)",
        },
        "claimed": {
            "cb": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "mi3": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
            "alpha": {"y1": "y1", "y2": "y3", "y3": "y2"},
            "malpha": {"y1": "-y1", "y2": "-y3", "y3": "-y2"},
        },
        "claimed_context": _Y4,
    },
)

_case(
    "sys5_case2", "InducedAction", "4.3",
    "total-inversion invariants; the cycle and the swap act by permutation",
    {
        "context": _XYZ,
        "actions": {
            "cb": {"word": "cb"}, "alpha": {"word": "alpha"}, "mi3": {"word": "-i3"},
        },
        "forward": {
            "y1": "(x1*x2+1)/(x1+x2)",
            "y2": "(x2*x3+1)/(x2+x3)",
            "y3": "(x3*x1+1)/(x3+x1)",
        },
        "claimed": {
            "mi3": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "cb": {"y1": "y2", "y2": "y3", "y3": "y1"},
            "alpha": {"y1": "y1", "y2": "y3", "y3": "y2"},
        },
        "claimed_context": _Y4,
    },
)


# -- 7th system, first sublist ---------------------------------------------------

_SYS7_WORDS = {
    "tau1": {"word": "ta1"}, "lambda1": {"word": "la1"}, "cb": {"word": "cb"},
    "mi3": {"word": "-i3"}, "be1": {"word": "be1"},
    "rho1": {"bindings": {"x1": "-x1", "x2": "-x2", "x3": "-x3"}},
}

_case(
    "sys7_xtable", "InducedAction", "5.1",
    "coordinate actions of the tetrahedral generators",
    {
        "context": _XYZ,
        "actions": _SYS7_WORDS,
        "forward": None,
        "claimed": {
            "tau1": {"x1": "1/x1", "x2": "1/x2", "x3": "x3"},
            "lambda1": {"x1": "1/x1", "x2": "x2", "x3": "1/x3"},
            "cb": {"x1": "x2", "x2": "x3", "x3": "x1"},
            "mi3": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"},
            "be1": {"x1": "1/x2", "x2": "1/x1", "x3": "x3"},
        },
        "claimed_context": _XYZ,
    },
)

_case(
    "sys7_case1_y", "InducedAction", "5.1",
    "invariants of the two-coordinate inversion pair; cycle and swap descend "
    "to permutations, total inversion to coordinatewise inversion",
    {
        "context": _XYZ,
        "actions": _SYS7_WORDS,
        "forward": {
            "y1": "(-x1+x2+x3-x1*x2*x3)/(1-x1*x2+x2*x3-x3*x1)",
            "y2": "(x1-x2+x3-x1*x2*x3)/(1-x1*x2-x2*x3+x3*x1)",
            "y3": "(x1+x2-x3-x1*x2*x3)/(1+x1*x2-x2*x3-x3*x1)",
        },
        "claimed": {
            "tau1": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "lambda1": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "cb": {"y1": "y2", "y2": "y3", "y3": "y1"},
            "mi3": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"},
            "be1": {"y1": "y2", "y2": "y1", "y3": "y3"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
        },
        "claimed_context": _Y4,
    },
)

_case(
    "sys7_case1_z", "InducedAction", "5.1",
    "pair products fixed by the sign flip; the induced actions keep the same "
    "shape as before",
    {
        "context": _Y4,
        "actions": {
            "cb": {"bindings": {"y1": "y2", "y2": "y3", "y3": "y1"}},
            "mi3": {"bindings": {"y1": "1/y1", "y2": "1/y2", "y3": "1/y3"}},
            "be1": {"bindings": {"y1": "y2", "y2": "y1", "y3": "y3"}},
            "rho1": {"bindings": {"y1": "-y1", "y2": "-y2", "y3": "-y3"}},
        },
        "forward": {"z1": "y2*y3", "z2": "y1*y3", "z3": "y1*y2"},
        "claimed": {
            "rho1": {"z1": "z1", "z2": "z2", "z3": "z3"},
            "cb": {"z1": "z2", "z2": "z3", "z3": "z1"},
            "mi3": {"z1": "1/z1", "z2": "1/z2", "z3": "1/z3"},
            "be1": {"z1": "z2", "z2": "z1", "z3": "z3"},
        },
        "claimed_context": _Z4,
    },
)

_case(
    "sys7_case2", "InducedAction", "5.1",
    "total-inversion invariants for the tetrahedral groups",
    {
        "context": _XYZ,
        "actions": _SYS7_WORDS,
        "forward": {
            "y1": "(x1*x2+1)/(x1+x2)",
            "y2": "(x2*x3+1)/(x2+x3)",
            "y3": "(x3*x1+1)/(x3+x1)",
        },
        "claimed": {
            "mi3": {"y1": "y1", "y2": "y2", "y3": "y3"},
            "tau1": {"y1": "y1", "y2": "1/y2", "y3": "1/y3"},
            "lambda1": {"y1": "1/y1", "y2": "1/y2", "y3": "y3"},
            "cb": {"y1": "y2", "y2": "y3", "y3": "y1"},
            "be1": {"y1": "y1", "y2": "1/y3", "y3": "1/y2"},
            "rho1": {"y1": "-y1", "y2": "-y2", "y3": "-y3"},
        },
        "claimed_context": _Y4,
    },
)


# -- 7th system, second sublist ----------------------------------------------
#
# Octahedral-family groups built on the swap pair whose product column picks
# up the full inversion x1*x2*x3.

_SYS7III_WORDS = {
    "ta3": {"word": "ta3"}, "la3": {"word": "la3"}, "cb": {"word": "cb"},
    "mbe3": {"word": "-be3"}, "be3": {"word": "be3"}, "mi3": {"word": "-i3"},
}

_U7 = {"variables": ["u1", "u2", "u3"]}
_V7 = {"variables": ["v1", "v2", "v3"]}
_T7 = {"variables": ["t1", "t2", "t3"]}
_S7 = {"variables": ["s1", "s2", "s3"]}

_case(
    "sys7iii_xtable", "InducedAction", "5.2",
    "coordinate actions of the octahedral generators",
    {
        "context": _XYZ,
        "actions": _SYS7III_WORDS,
        "forward": None,
        "claimed": {
            "ta3": {"x1": "x2", "x2": "x1", "x3": "1/(x1*x2*x3)"},
            "la3": {"x1": "x3", "x2": "1/(x1*x2*x3)", "x3": "x1"},
            "cb": {"x1": "x2", "x2": "x3", "x3": "x1"},
            "mbe3": {"x1": "1/x1", "x2": "1/x2", "x3": "x1*x2*x3"},
            "be3": {"x1": "x1", "x2": "x2", "x3": "1/(x1*x2*x3)"},
            "mi3": {"x1": "1/x1", "x2": "1/x2", "x3": "1/x3"},
        },
        "claimed_context": _XYZ,
    },
)

# Moebius shift of the total-inversion invariants.  The long rows share one
# numerator; only the denominator slot moves.
_V7_TA3 = {
    "v1": "v1",
    "v2": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v2*(1+v1+v2+v3))",
    "v3": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v3*(1+v1+v2+v3))",
}
_V7_LA3 = {
    "v1": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v1*(1+v1+v2+v3))",
    "v2": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v2*(1+v1+v2+v3))",
    "v3": "v3",
}
_V7_CB = {"v1": "v2", "v2": "v3", "v3": "v1"}
_V7_MBE3 = {
    "v1": "v1",
    "v2": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v3*(1+v1+v2+v3))",
    "v3": "-(v1*v2+v1*v3+v2*v3+v1*v2*v3)/(v2*(1+v1+v2+v3))",
}

_case(
    "sys7iii_case1_v", "InducedAction", "5.2",
    "shifted total-inversion invariants; the swap generators act by one shared "
    "numerator over a moving slot",
    {
        "context": _XYZ,
        "actions": _SYS7III_WORDS,
        "where": [
            ["u1", "(x1*x2+1)/(x1+x2)"],
            ["u2", "(x2*x3+1)/(x2+x3)"],
            ["u3", "(x1*x3+1)/(x1+x3)"],
        ],
        "forward": {
            "v1": "(u1+1)/(u1-1)",
            "v2": "(u2+1)/(u2-1)",
            "v3": "(u3+1)/(u3-1)",
        },
        "claimed": {
            "ta3": _V7_TA3,
            "la3": _V7_LA3,
            "cb": _V7_CB,
            "mbe3": _V7_MBE3,
            "mi3": {"v1": "v1", "v2": "v2", "v3": "v3"},
        },
        "claimed_context": _V7,
    },
)

_case(
    "sys7iii_case1_vt", "InversePair", "5.2",
    "change of generators ahead of the orbit-sum step",
    {
        "source": _V7,
        "target": _T7,
        "forward": {
            "t1": "2*v2*(v1+1)*(v1+v2)*(v1+v3)"
                  "/((v1-v2)*(2*v1*v2+v1^2*v2+v1*v2^2+v1*v3+v2*v3+2*v1*v2*v3))",
            "t2": "-(v1+v3)*(-2*v2-v1*v2-v2^2+v1*v3-v2*v3)"
                  "/((v2+v3)*(2*v1+v1^2+v1*v2+v1*v3-v2*v3))",
            "t3": "2*v1*(v2+1)*(v1+v2)*(v2+v3)"
                  "/((v1-v2)*(2*v1*v2+v1^2*v2+v1*v2^2+v1*v3+v2*v3+2*v1*v2*v3))",
        },
        "backward": {
            "v1": "(t1-t3+2)*(t1+t3+2)*(t1-t2*t3)/dd",
            "v2": "(t1-t3+2)*(t1+t3-2)*(t1-t2*t3)/dd",
            "v3": "(t2-1)*(2-t1-t3)*(2+t1+t3)*(t1-t2*t3)/((t2+1)*dd)",
        },
        "where_backward": [
            ["dd", "4*t1-t1^3+4*t2*t3+t1^2*t2*t3+t1*t3^2-t2*t3^3"],
        ],
    },
)

# The same three generators written directly over the coordinates.
_T_OF_V = [
    ["t1", "2*v2*(v1+1)*(v1+v2)*(v1+v3)"
           "/((v1-v2)*(2*v1*v2+v1^2*v2+v1*v2^2+v1*v3+v2*v3+2*v1*v2*v3))"],
    ["t2", "-(v1+v3)*(-2*v2-v1*v2-v2^2+v1*v3-v2*v3)"
           "/((v2+v3)*(2*v1+v1^2+v1*v2+v1*v3-v2*v3))"],
    ["t3", "2*v1*(v2+1)*(v1+v2)*(v2+v3)"
           "/((v1-v2)*(2*v1*v2+v1^2*v2+v1*v2^2+v1*v3+v2*v3+2*v1*v2*v3))"],
]
_UV_CHAIN = [
    ["u1", "(x1*x2+1)/(x1+x2)"],
    ["u2", "(x2*x3+1)/(x2+x3)"],
    ["u3", "(x1*x3+1)/(x1+x3)"],
    ["v1", "(u1+1)/(u1-1)"],
    ["v2", "(u2+1)/(u2-1)"],
    ["v3", "(u3+1)/(u3-1)"],
]

_case(
    "sys7iii_case1_t1", "Identity", "5.2",
    "first generator collapses to a three-factor form over the coordinates",
    {
        "context": _XYZ,
        "where": _UV_CHAIN + [_T_OF_V[0]],
        "lhs": "t1",
        "rhs": "-(x1*x2+1)*(x1*x3-1)*(x2*x3-1)/((x1-x3)*(x1*x2^2*x3-1))",
    },
)

_case(
    "sys7iii_case1_t2", "Identity", "5.2",
    "second generator over the coordinates",
    {
        "context": _XYZ,
        "where": _UV_CHAIN + [_T_OF_V[1]],
        "lhs": "t2",
        "rhs": "(x2*x3-1)*(1-2*x1+x1*x2+x1*x3-2*x1*x2*x3+x1^2*x2*x3)"
               "/((x1*x2-1)*(1-2*x3+x1*x3+x2*x3-2*x1*x2*x3+x1*x2*x3^2))",
    },
)

_case(
    "sys7iii_case1_t3", "Identity", "5.2",
    "third generator over the coordinates",
    {
        "context": _XYZ,
        "where": _UV_CHAIN + [_T_OF_V[2]],
        "lhs": "t3",
        "rhs": "-(x1*x2-1)*(x1*x3-1)*(x2*x3+1)/((x1-x3)*(x1*x2^2*x3-1))",
    },
)

_V7_ACTS = {
    "ta3": {"bindings": _V7_TA3},
    "la3": {"bindings": _V7_LA3},
    "cb": {"bindings": _V7_CB},
    "mbe3": {"bindings": _V7_MBE3},
}

# The generator actions rewritten over the second triple.  These tables
# are not displayed in the source; they are forced by the change of
# generators, and the tact case below certifies them against the first
# table.  The later cases in this chain then run over the small triple,
# which keeps the composites tractable.
_T7_ACTS = {
    "ta3": {"bindings": {"t1": "t1", "t2": "-t2", "t3": "-t3"}},
    "la3": {"bindings": {"t1": "-t1", "t2": "t2", "t3": "-t3"}},
    "cb": {"bindings": {
        "t1": "4*t3*(t2-1)*(t2+1)/((t1*t2-2*t2-t3)*(t1*t2+2*t2-t3))",
        "t2": "-(t1*t2-t3)/(2*t2)",
        "t3": "2*(t1^2*t2-t1*t2^2*t3-t1*t3+t2*t3^2-4*t2)"
              "/((t1*t2-2*t2-t3)*(t1*t2+2*t2-t3))",
    }},
    "mbe3": {"bindings": {
        "t1": "4*t1*(t2-1)*(t2+1)/((t1*t2-t3-2)*(t1*t2-t3+2))",
        "t2": "(t1*t2-t3)/2",
        "t3": "-2*(t1^2*t2-t1*t2^2*t3-t1*t3+t2*t3^2-4*t2)"
              "/((t1*t2-t3-2)*(t1*t2-t3+2))",
    }},
}

_case(
    "sys7iii_case1_tact", "InducedAction", "5.2",
    "the four generator actions carried through the change of generators",
    {
        "context": _V7,
        "actions": _V7_ACTS,
        "forward": {name: expr for name, expr in _T_OF_V},
        "claimed": {
            name: spec["bindings"] for name, spec in _T7_ACTS.items()
        },
        "claimed_context": _T7,
    },
)

_P1_SEED = "(-4*t2^2+t1^2*t2^2-2*t1*t2^3*t3-t3^2+2*t2^2*t3^2)/((t1*t2-t3)^2)"

_case(
    "sys7iii_case1_pp", "InducedAction", "5.2",
    "candidate first generator before averaging: fixed by the two swap "
    "generators, moved by the cycle and the signed swap",
    {
        "context": _T7,
        "actions": _T7_ACTS,
        "forward": {
            "pp1": _P1_SEED,
            "p2": "-2/(t1*t2-t3)",
            "p3": "1/t2",
        },
        "claimed": {
            "ta3": {"pp1": "pp1", "p2": "-p2", "p3": "-p3"},
            "la3": {"pp1": "pp1", "p2": "-p2", "p3": "p3"},
            "cb": {"pp1": "(-1+p3^2+pp1*p3^2)/p2^2", "p2": "1/p3", "p3": "p2/p3"},
            "mbe3": {"pp1": "pp1*p3^2/p2^2", "p2": "-p3", "p3": "-p2"},
        },
        "claimed_context": {"variables": ["pp1", "p2", "p3"]},
    },
)

# The group generated by the cycle and the signed swap has order 24, not
# 6: their product has order 4 (in the sign-wreath model its square is
# diag(-1,1,-1)), so the averaging below runs over 24 images.
_case(
    "sys7iii_case1_actg", "InducedAction", "5.2",
    "averaging the candidate over the subgroup generated by the cycle and "
    "the signed swap makes the first generator fully invariant",
    {
        "context": _T7,
        "actions": _T7_ACTS,
        "forward": {
            "p1": {"orbit_sum": {"of": _P1_SEED, "group": ["cb", "mbe3"]}},
            "p2": "-2/(t1*t2-t3)",
            "p3": "1/t2",
        },
        "claimed": {
            "ta3": {"p1": "p1", "p2": "-p2", "p3": "-p3"},
            "la3": {"p1": "p1", "p2": "-p2", "p3": "p3"},
            "cb": {"p1": "p1", "p2": "1/p3", "p3": "p2/p3"},
            "mbe3": {"p1": "p1", "p2": "-p3", "p3": "-p2"},
        },
        "claimed_context": {"variables": ["p1", "p2", "p3"]},
    },
)

_case(
    "sys7iii_case1_wreath", "InducedAction", "5.2",
    "sign-wreath model: dividing out the first coordinate reproduces the "
    "averaged tables up to the extra sign generator",
    {
        "context": {"variables": ["xx", "yy", "zz"]},
        "actions": {
            "gamma": {"bindings": {"xx": "-xx", "yy": "-yy", "zz": "-zz"}},
            "ta3": {"bindings": {"xx": "xx", "yy": "-yy", "zz": "-zz"}},
            "la3": {"bindings": {"xx": "xx", "yy": "-yy", "zz": "zz"}},
            "cb": {"bindings": {"xx": "zz", "yy": "xx", "zz": "yy"}},
            "mbe3": {"bindings": {"xx": "xx", "yy": "-zz", "zz": "-yy"}},
        },
        "forward": {"pp1": "xx", "pp2": "yy/xx", "pp3": "zz/xx"},
        "claimed": {
            "gamma": {"pp1": "-pp1", "pp2": "pp2", "pp3": "pp3"},
            "ta3": {"pp1": "pp1", "pp2": "-pp2", "pp3": "-pp3"},
            "la3": {"pp1": "pp1", "pp2": "-pp2", "pp3": "pp3"},
            "cb": {"pp1": "pp1*pp3", "pp2": "1/pp3", "pp3": "pp2/pp3"},
            "mbe3": {"pp1": "pp1", "pp2": "-pp3", "pp3": "-pp2"},
        },
        "claimed_context": {"variables": ["pp1", "pp2", "pp3"]},
    },
)

_case(
    "sys7iii_case1_rooted", "InducedAction", "5.2",
    "scaling the first generator by the root absorbs the sign generator; the "
    "remaining tables match the averaged ones",
    {
        "context": {
            "variables": ["pp1", "pp2", "pp3"],
            "parameters": ["a"],
            "roots": ["a"],
        },
        "actions": {
            "gamma": {
                "bindings": {"pp1": "-pp1", "pp2": "pp2", "pp3": "pp3"},
                "signs": {"a": -1},
            },
            "ta3": {"bindings": {"pp1": "pp1", "pp2": "-pp2", "pp3": "-pp3"}},
            "la3": {"bindings": {"pp1": "pp1", "pp2": "-pp2", "pp3": "pp3"}},
            "cb": {"bindings": {"pp1": "pp1*pp3", "pp2": "1/pp3", "pp3": "pp2/pp3"}},
            "mbe3": {"bindings": {"pp1": "pp1", "pp2": "-pp3", "pp3": "-pp2"}},
        },
        "forward": {"pp1p": "sqrt(a)*pp1", "pp2": "pp2", "pp3": "pp3"},
        "claimed": {
            "gamma": {"pp1p": "pp1p", "pp2": "pp2", "pp3": "pp3"},
            "ta3": {"pp1p": "pp1p", "pp2": "-pp2", "pp3": "-pp3"},
            "la3": {"pp1p": "pp1p", "pp2": "-pp2", "pp3": "pp3"},
            "cb": {"pp1p": "pp1p*pp3", "pp2": "1/pp3", "pp3": "pp2/pp3"},
            "mbe3": {"pp1p": "pp1p", "pp2": "-pp3", "pp3": "-pp2"},
        },
        "claimed_context": {"variables": ["pp1p", "pp2", "pp3"]},
    },
)

_case(
    "sys7iii_case2", "InversePair", "5.2",
    "the signed swap acts on the pair-invariant triple as an involution",
    {
        "source": _U7,
        "target": _T7,
        "forward": {
            "t1": "(-u1+u2+u3)/(u2*u3)",
            "t2": "(u1+u2-u3)/(u1*u2)",
            "t3": "(u1-u2+u3)/(u1*u3)",
        },
        "backward": {
            "u1": "(-t1+t2+t3)/(t2*t3)",
            "u2": "(t1+t2-t3)/(t1*t2)",
            "u3": "(t1-t2+t3)/(t1*t3)",
        },
    },
)

_U7_ACTS = {
    "cb": {"bindings": {"u1": "u2", "u2": "u3", "u3": "u1"}},
    "mbe3": {"bindings": {
        "u1": "(-u1+u2+u3)/(u2*u3)",
        "u2": "(u1+u2-u3)/(u1*u2)",
        "u3": "(u1-u2+u3)/(u1*u3)",
    }},
    "be3": {"bindings": {"u1": "u1", "u2": "u3", "u3": "u2"}},
    "mi3": {"bindings": {
        "u1": "(-u1+u2+u3)/(u2*u3)",
        "u2": "(u1-u2+u3)/(u1*u3)",
        "u3": "(u1+u2-u3)/(u1*u2)",
    }},
}

_case(
    "sys7iii_case3", "InducedAction", "5.2",
    "summing each generator with its total-inversion image yields a triple "
    "on which only permutations remain",
    {
        "context": _U7,
        "actions": _U7_ACTS,
        "forward": {
            "t1": "u1+(-u1+u2+u3)/(u2*u3)",
            "t2": "u2+(u1-u2+u3)/(u1*u3)",
            "t3": "u3+(u1+u2-u3)/(u1*u2)",
        },
        "claimed": {
            "cb": {"t1": "t2", "t2": "t3", "t3": "t1"},
            "be3": {"t1": "t1", "t2": "t3", "t3": "t2"},
            "mi3": {"t1": "t1", "t2": "t2", "t3": "t3"},
        },
        "claimed_context": _T7,
    },
)

# The source display scales the bb image by an unnamed unit constant.
# The claimed table below, the companion folded identity, and the later
# cases that build on this triple all force that unit to equal 1 (the
# check reduces to a*C^2*(C^2-1)^2*(1-A^2+4*A*C) = C^2*(C^2-1)^2*
# (1-A^2+4*A*C), an equality of polynomials), so it is dropped here.
_case(
    "sys7iii_case4", "InducedAction", "5.2",
    "tetrahedral-invariant triple rewritten so the signed swap becomes a "
    "two-parameter inversion pattern",
    {
        "context": {"variables": ["aa", "bb", "cc"]},
        "actions": {
            "mbe3": {"bindings": {
                "aa": "(-aa+5*cc-7*aa*cc^2+27*cc^3)/(1-aa*cc+7*cc^2+aa*cc^3)",
                "bb": "4*(1-aa*cc+7*cc^2+aa*cc^3)/(bb*(1-aa^2+4*aa*cc)*(1+3*cc^2))",
                "cc": "cc",
            }},
            "be3": {"bindings": {"aa": "-aa", "bb": "-bb", "cc": "-cc"}},
            "mi3": {"bindings": {
                "aa": "-(-aa+5*cc-7*aa*cc^2+27*cc^3)/(1-aa*cc+7*cc^2+aa*cc^3)",
                "bb": "-4*(1-aa*cc+7*cc^2+aa*cc^3)/(bb*(1-aa^2+4*aa*cc)*(1+3*cc^2))",
                "cc": "-cc",
            }},
        },
        "forward": {
            "s1": "cc",
            "s2": "(1-aa*cc+7*cc^2+aa*cc^3)/(1+3*cc^2)",
            "s3": "2*cc*(cc^2-1)*(1+3*cc^2)/(bb*(1-aa*cc+7*cc^2+aa*cc^3))",
        },
        "claimed": {
            "mbe3": {
                "s1": "s1",
                "s2": "(1+3*s1^2)/s2",
                "s3": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2"
                      "-s2^2-3*s1^2*s2^2)/(s2*s3)",
            },
            "be3": {"s1": "-s1", "s2": "s2", "s3": "s3"},
            "mi3": {
                "s1": "-s1",
                "s2": "(1+3*s1^2)/s2",
                "s3": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2"
                      "-s2^2-3*s1^2*s2^2)/(s2*s3)",
            },
        },
        "claimed_context": _S7,
    },
)

_case(
    "sys7iii_case4_note", "Identity", "5.2",
    "the long third row folds into a two-term symmetric form",
    {
        "context": _S7,
        "lhs": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2)"
               "/(s2*s3)",
        "rhs": "(2*(1+5*s1^2+2*s1^4)-(1+3*s1^2)*(s2+(1+3*s1^2)/s2))/s3",
    },
)

_case(
    "sys7iii_case5", "InducedAction", "5.2",
    "cycle invariants split the remaining swap into a transposition of the "
    "two cubic ratios together with a root flip",
    {
        "context": {
            "variables": ["t1", "t2", "t3"],
            "parameters": ["g"],
            "roots": ["g"],
        },
        "actions": {
            "be3": {
                "bindings": {"t1": "t1", "t2": "t3", "t3": "t2"},
                "signs": {"g": -1},
            },
            "cb": {"bindings": {"t1": "t2", "t2": "t3", "t3": "t1"}},
        },
        "forward": {
            "s1": "t1+t2+t3",
            "u": "(t1*t2^2+t2*t3^2+t3*t1^2-3*t1*t2*t3)"
                 "/(t1^2+t2^2+t3^2-t1*t2-t2*t3-t3*t1)",
            "v": "(t1^2*t2+t2^2*t3+t3^2*t1-3*t1*t2*t3)"
                 "/(t1^2+t2^2+t3^2-t1*t2-t2*t3-t3*t1)",
        },
        "claimed": {
            "be3": {"s1": "s1", "u": "v", "v": "u"},
            "cb": {"s1": "s1", "u": "u", "v": "v"},
        },
        "claimed_context": {"variables": ["s1", "u", "v"]},
    },
)

_AB_WHERE = [
    ["aa", "1+3*s1^2"],
    ["bb", "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2)/s2"],
]
_S7_DEL = {"variables": ["s1", "s2", "s3"], "parameters": ["del"], "roots": ["del"]}
_MBE3_S_ROW = {
    "s1": "s1",
    "s2": "(1+3*s1^2)/s2",
    "s3": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2)/(s2*s3)",
}

_case(
    "sys7iii_case6_t", "Invariance", "5.2",
    "paired-inversion quotient generators survive the signed swap with its "
    "root flip",
    {
        "context": _S7_DEL,
        "actions": {"mbe3": {"bindings": _MBE3_S_ROW, "signs": {"del": -1}}},
        "where": _AB_WHERE,
        "exprs": {
            "t1": "s1",
            "t2": "(s2-aa/s2)/(s2*s3-aa*bb/(s2*s3))",
            "t3": "(s3-bb/s3)/(s2*s3-aa*bb/(s2*s3))",
        },
    },
)

_case(
    "sys7iii_case6_g", "InducedAction", "5.2",
    "on the same quotient generators the plain swap only negates the first",
    {
        "context": {
            "variables": ["s1", "s2", "s3"],
            "parameters": ["g"],
            "roots": ["g"],
        },
        "actions": {
            "be3": {
                "bindings": {"s1": "-s1", "s2": "s2", "s3": "s3"},
                "signs": {"g": -1},
            },
        },
        "where": _AB_WHERE,
        "forward": {
            "t1": "s1",
            "t2": "(s2-aa/s2)/(s2*s3-aa*bb/(s2*s3))",
            "t3": "(s3-bb/s3)/(s2*s3-aa*bb/(s2*s3))",
        },
        "claimed": {"be3": {"t1": "-t1", "t2": "t2", "t3": "t3"}},
        "claimed_context": _T7,
    },
)

_case(
    "sys7iii_case6_b", "Identity", "5.2",
    "second inversion level written through the symmetric combination",
    {
        "context": {"variables": ["s1", "s2"]},
        "lhs": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2)/s2",
        "rhs": "-(s2+(1+3*s1^2)/s2-2)*(1+3*s1^2)+4*s1^2*(1+s1^2)",
    },
)

_case(
    "sys7iii_case7_u", "InducedAction", "5.2",
    "squared-first-generator slice: the shifted sum and difference reduce "
    "the signed swap to one quartic row",
    {
        "context": _S7_DEL,
        "actions": {
            "mbe3": {"bindings": _MBE3_S_ROW, "signs": {"del": -1}},
            "be3": {"bindings": {"s1": "-s1", "s2": "s2", "s3": "s3"}},
        },
        "forward": {
            "u1": "(1+3*s1^2)/s2+s2-4",
            "u2": "(1+3*s1^2)/s2-s2",
            "u3": "6*s3",
        },
        "claimed": {
            "mbe3": {
                "u1": "u1",
                "u2": "-u2",
                "u3": "(10*u1^2+7*u1^3+u1^4-18*u2^2-7*u1*u2^2-2*u1^2*u2^2+u2^4)"
                      "/u3",
            },
            "be3": {"u1": "u1", "u2": "u2", "u3": "u3"},
        },
        "claimed_context": _U7,
    },
)

_case(
    "sys7iii_case7_v", "InducedAction", "5.2",
    "dividing by the root turns the quartic row into a conic numerator",
    {
        "context": {
            "variables": ["u1", "u2", "u3"],
            "parameters": ["d"],
            "roots": ["d"],
        },
        "actions": {
            "mbe3": {
                "bindings": {
                    "u1": "u1",
                    "u2": "-u2",
                    "u3": "(10*u1^2+7*u1^3+u1^4-18*u2^2-7*u1*u2^2"
                          "-2*u1^2*u2^2+u2^4)/u3",
                },
                "signs": {"d": -1},
            },
        },
        "forward": {
            "v1": "(7*u1+2*u1^2-2*u2^2)/(3*u1)",
            "v2": "2*u2/(sqrt(d)*u1)",
            "v3": "2*u3/(3*u1)",
        },
        "claimed": {
            "mbe3": {"v1": "v1", "v2": "v2", "v3": "(-1+v1^2-2*d*v2^2)/v3"},
        },
        "claimed_context": {"variables": ["v1", "v2", "v3"], "parameters": ["d"]},
    },
)


# -- the main chain ------------------------------------------------------------
#
# Three long verification chains for the octahedral-family fixed fields, each
# ending in a norm-form identity, plus the characteristic-3 shortcut.

_ACTS_S = {
    "mbe3": {"bindings": _MBE3_S_ROW},
    "be3": {"bindings": {"s1": "-s1", "s2": "s2", "s3": "s3"}},
    "mi3": {"bindings": {
        "s1": "-s1",
        "s2": "(1+3*s1^2)/s2",
        "s3": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2)"
              "/(s2*s3)",
    }},
}

_T_OF_S = {
    "t1": "(1+3*s1^2-2*s2-2*s1^2*s2+s2^2)/((1+s1-s2)*(1+3*s1^2-s2-s1*s2))",
    "t2": "s1*(1+3*s1^2-s2^2)/(1+3*s1^2-2*s2-2*s1^2*s2+s2^2)",
    "t3": "2*(1+3*s1^2-2*s2+s2^2)*s3"
          "/((1+s1-s2)*(1+3*s1^2-2*s2-2*s1^2*s2+s2^2))",
}

_case(
    "prop1_1_st", "InversePair", "6",
    "opening change of generators for the first chain",
    {
        "source": _S7,
        "target": _T7,
        "forward": dict(_T_OF_S),
        "backward": {
            "s1": "(1-t1^2+t1^2*t2^2)/(-1+4*t1-t1^2+t1^2*t2^2)",
            "s2": "2*(-1+2*t1-2*t1^2+t1^3+2*t1^2*t2-t1^3*t2-t1^3*t2^2+t1^3*t2^3)"
                  "/(-1+5*t1-5*t1^2+t1^3-t1*t2+4*t1^2*t2-t1^3*t2+t1^2*t2^2"
                  "-t1^3*t2^2+t1^3*t2^3)",
            "s3": "2*(t1*t3-t1^3*t3+t1^3*t2^2*t3)"
                  "/((1-t1+t1*t2)*(-1+4*t1-t1^2+t1^2*t2^2)^2)",
        },
    },
)

_T7_TABLES = {
    "mbe3": {
        "t1": "t1",
        "t2": "-t2",
        "t3": "2*(5-t2^2+8*(t2^2-1)*t1-(t2^2-1)*(5-t2^2)*t1^2)/t3",
    },
    "be3": {
        "t1": "-1/(t1*(t2^2-1))",
        "t2": "-t2",
        "t3": "-t3/(t1*(t2-1))",
    },
    "mi3": {
        "t1": "-1/(t1*(t2^2-1))",
        "t2": "t2",
        "t3": "2*(5-t2^2+8*(t2^2-1)*t1-(t2^2-1)*(5-t2^2)*t1^2)/(t1*(t2+1)*t3)",
    },
}

_case(
    "prop1_1_t", "InducedAction", "6",
    "first hop of the chain",
    {
        "context": _S7,
        "actions": _ACTS_S,
        "forward": dict(_T_OF_S),
        "claimed": _T7_TABLES,
        "claimed_context": _T7,
    },
)

_U7_TABLES = {
    "mbe3": {
        "u1": "u1",
        "u2": "-u2",
        "u3": "2*(5-u2^2)*(1+u1^2-u2^2)/u3",
    },
    "be3": {
        "u1": "-(u2^2-1)*(3-4*u1+u2^2)/(4+3*u1-4*u2^2+u1*u2^2)",
        "u2": "-u2",
        "u3": "-(u2+1)*(5-u2^2)*u3/(4+3*u1-4*u2^2+u1*u2^2)",
    },
    "mi3": {
        "u1": "-(u2^2-1)*(3-4*u1+u2^2)/(4+3*u1-4*u2^2+u1*u2^2)",
        "u2": "u2",
        "u3": "2*(u2-1)*(1+u1^2-u2^2)*(5-u2^2)^2"
              "/((4+3*u1-4*u2^2+u1*u2^2)*u3)",
    },
}

_case(
    "prop1_1_u", "InducedAction", "6",
    "second hop; the signed swap already has its final shape here",
    {
        "context": _T7,
        "actions": {k: {"bindings": v} for k, v in _T7_TABLES.items()},
        "forward": {
            "u1": "(3+t2^2)/(4-5*t1+t1*t2^2)",
            "u2": "t2",
            "u3": "-(5-t2^2)*t3/(4-5*t1+t1*t2^2)",
        },
        "claimed": _U7_TABLES,
        "claimed_context": _U7,
    },
)

_case(
    "prop1_1_tu", "InversePair", "6",
    "second hop is invertible; the reverse direction is linear in the first "
    "slot once the shared denominator is recognized",
    {
        "source": _T7,
        "target": _U7,
        "forward": {
            "u1": "(3+t2^2)/(4-5*t1+t1*t2^2)",
            "u2": "t2",
            "u3": "-(5-t2^2)*t3/(4-5*t1+t1*t2^2)",
        },
        "backward": {
            "t1": "(3+u2^2-4*u1)/(u1*(u2^2-5))",
            "t2": "u2",
            "t3": "u3*(3+u2^2)/(u1*(u2^2-5))",
        },
    },
)

_case(
    "prop1_1_uv", "InversePair", "6",
    "third hop is invertible",
    {
        "source": _U7,
        "target": _V7,
        "forward": {
            "v1": "-(4+3*u1-4*u2^2+u1*u2^2)/((u2+1)*(5-u2^2))",
            "v2": "-(u2-1)/(u2+1)",
            "v3": "(3+u2^2)*u3/((u2+1)*(4+3*u1-4*u2^2+u1*u2^2))",
        },
        "backward": {
            "u1": "-(2*v1*(1+3*v2+v2^2)+4*v2*(1+v2))/((1+v2)*(1+v2+v2^2))",
            "u2": "(1-v2)/(1+v2)",
            "u3": "-4*v1*v3*(1+3*v2+v2^2)/((1+v2)^2*(1+v2+v2^2))",
        },
    },
)

_V7_TABLES = {
    "mbe3": {
        "v1": "v1/v2",
        "v2": "1/v2",
        "v3": "2*(v1^2+v2+4*v1*v2+3*v1^2*v2+3*v2^2+4*v1*v2^2+v1^2*v2^2+v2^3)"
              "/(v1^2*v2*v3)",
    },
    "be3": {"v1": "1/v1", "v2": "1/v2", "v3": "v1*v3/v2^2"},
    "mi3": {
        "v1": "v2/v1",
        "v2": "v2",
        "v3": "2*(v1^2+v2+4*v1*v2+3*v1^2*v2+3*v2^2+4*v1*v2^2+v1^2*v2^2+v2^3)"
              "/(v1*v3)",
    },
}

_case(
    "prop1_1_v", "InducedAction", "6",
    "third hop, normalizing the denominators",
    {
        "context": _U7,
        "actions": {k: {"bindings": v} for k, v in _U7_TABLES.items()},
        "forward": {
            "v1": "-(4+3*u1-4*u2^2+u1*u2^2)/((u2+1)*(5-u2^2))",
            "v2": "-(u2-1)/(u2+1)",
            "v3": "(3+u2^2)*u3/((u2+1)*(4+3*u1-4*u2^2+u1*u2^2))",
        },
        "claimed": _V7_TABLES,
        "claimed_context": _V7,
    },
)

_case(
    "prop1_1_note", "Identity", "6",
    "the total-inversion third row regrouped around the norm pattern",
    {
        "context": _V7,
        "lhs": "2*(v1^2+v2+4*v1*v2+3*v1^2*v2+3*v2^2+4*v1*v2^2+v1^2*v2^2+v2^3)"
               "/(v1*v3)",
        "rhs": "(8*v2*(v2+1)+2*(1+3*v2+v2^2)*(v1+v2/v1))/v3",
    },
)

_case(
    "prop1_1_w", "InducedAction", "6",
    "final hop: half-sum and half-difference coordinates",
    {
        "context": _V7,
        "actions": {k: {"bindings": v} for k, v in _V7_TABLES.items()},
        "forward": {
            "w1": "(v1+v2/v1)/2",
            "w2": "(v1-v2/v1)/2",
            "w3": "v3/2",
        },
        "claimed": {
            "mbe3": {
                "w1": "w1/(w1^2-w2^2)",
                "w2": "w2/(w1^2-w2^2)",
                "w3": "(w1*(1+w1+w1^2)^2-(2+3*w1+4*w1^2+2*w1^3)*w2^2"
                      "+(w1+2)*w2^4)/((w1+w2)*(w1^2-w2^2)*w3)",
            },
            "be3": {
                "w1": "w1/(w1^2-w2^2)",
                "w2": "-w2/(w1^2-w2^2)",
                "w3": "w3/((w1-w2)*(w1^2-w2^2))",
            },
            "mi3": {
                "w1": "w1",
                "w2": "-w2",
                "w3": "(w1*(1+w1+w1^2)^2-(2+3*w1+4*w1^2+2*w1^3)*w2^2"
                      "+(w1+2)*w2^4)/w3",
            },
        },
        "claimed_context": {"variables": ["w1", "w2", "w3"]},
    },
)

_case(
    "prop1_1_conic", "Identity", "6",
    "norm form of the first chain after pulling the root out of the second "
    "coordinate",
    {
        "context": {
            "variables": ["ww1", "ww2"],
            "parameters": ["d"],
            "roots": ["d"],
        },
        "lhs": "ww1*(1+ww1+ww1^2)^2-(2+3*ww1+4*ww1^2+2*ww1^3)*(sqrt(d)*ww2)^2"
               "+(ww1+2)*(sqrt(d)*ww2)^4",
        "rhs": "ww1*(1+ww1+ww1^2)^2-d*(2+3*ww1+4*ww1^2+2*ww1^3)*ww2^2"
               "+d^2*(ww1+2)*ww2^4",
    },
)

_case(
    "prop1_2_hop", "InducedAction", "6",
    "second chain: one scaling hop removes both root occurrences from the "
    "signed-swap row",
    {
        "context": {
            "variables": ["u1", "u2", "u3"],
            "parameters": ["d", "c5"],
            "roots": ["d", "c5"],
            "specialize": {"c5": 5},
        },
        "actions": {
            "mbe3": {
                "bindings": {
                    "u1": "u1",
                    "u2": "-u2",
                    "u3": "2*(5-u2^2)*(1+u1^2-u2^2)/u3",
                },
                "signs": {"d": -1},
            },
        },
        "forward": {
            "uu1": "u1",
            "uu2": "u2/sqrt(d)",
            "uu3": "u3/(u2-sqrt(c5))",
        },
        "claimed": {
            "mbe3": {"uu1": "uu1", "uu2": "uu2", "uu3": "2*(1+uu1^2-d*uu2^2)/uu3"},
        },
        "claimed_context": {
            "variables": ["uu1", "uu2", "uu3"],
            "parameters": ["d"],
        },
    },
)

_case(
    "prop1_2_conic", "Identity", "6",
    "norm form of the second chain",
    {
        "context": {
            "variables": ["uu1", "uu2"],
            "parameters": ["d"],
            "roots": ["d"],
        },
        "lhs": "2*(5-(sqrt(d)*uu2)^2)*(1+uu1^2-(sqrt(d)*uu2)^2)",
        "rhs": "2*(5-d*uu2^2)*(1+uu1^2-d*uu2^2)",
    },
)

_case(
    "prop1_3_vp", "InversePair", "6",
    "third chain opener",
    {
        "source": _V7,
        "target": {"variables": ["p1", "p2", "p3"]},
        "forward": {
            "p1": "-v1*(v2-1)/((v1-1)*(v1-v2))",
            "p2": "(v1^2-v2)/((v1-1)*(v1-v2))",
            "p3": "4*v1^2*(v1+v2^2)*v3/((v1-v2)^3*(v1*v2+1))",
        },
        "backward": {
            "v1": "(p1+p2+1)/(p1+p2-1)",
            "v2": "(1+2*p1+p1^2-p2^2)/(1-2*p1+p1^2-p2^2)",
            "v3": "-2*(3*p1+p1^3+p2+p1^2*p2-p1*p2^2-p2^3)*p3"
                  "/((p1-p2-1)^2*(-3*p1+3*p1^2-p1^3+p1^4+p2+2*p1*p2+p1^2*p2"
                  "-p2^2+p1*p2^2-2*p1^2*p2^2-p2^3+p2^4))",
        },
    },
)

_MI3_P3_ROW = (
    "(-1-5*p1^2-7*p2^2-(p1^2-p2^2)*(3*p1^2+17*p2^2)+9*(p1^2-p2^2)^3)/p3"
)

_case(
    "prop1_3_p", "InducedAction", "6",
    "both residual generators act on the new triple through signs and one "
    "sextic row",
    {
        "context": {
            "variables": ["v1", "v2", "v3"],
            "parameters": ["a", "b"],
            "roots": ["a", "b"],
        },
        "actions": {
            "be3": {
                "bindings": {"v1": "1/v1", "v2": "1/v2", "v3": "v1*v3/v2^2"},
                "signs": {"a": -1},
            },
            "mi3": {
                "bindings": {
                    "v1": "v2/v1",
                    "v2": "v2",
                    "v3": "2*(v1^2+v2+4*v1*v2+3*v1^2*v2+3*v2^2+4*v1*v2^2"
                          "+v1^2*v2^2+v2^3)/(v1*v3)",
                },
                "signs": {"b": -1},
            },
        },
        "forward": {
            "p1": "-v1*(v2-1)/((v1-1)*(v1-v2))",
            "p2": "(v1^2-v2)/((v1-1)*(v1-v2))",
            "p3": "4*v1^2*(v1+v2^2)*v3/((v1-v2)^3*(v1*v2+1))",
        },
        "claimed": {
            "be3": {"p1": "-p1", "p2": "-p2", "p3": "-p3"},
            "mi3": {"p1": "p1", "p2": "-p2", "p3": _MI3_P3_ROW},
        },
        "claimed_context": {"variables": ["p1", "p2", "p3"]},
    },
)

_case(
    "prop1_3_rooted", "InducedAction", "6",
    "dividing by the roots kills the swap and leaves one norm row",
    {
        "context": {
            "variables": ["p1", "p2", "p3"],
            "parameters": ["a", "b"],
            "roots": ["a", "b"],
        },
        "actions": {
            "be3": {
                "bindings": {"p1": "-p1", "p2": "-p2", "p3": "-p3"},
                "signs": {"a": -1},
            },
            "mi3": {
                "bindings": {"p1": "p1", "p2": "-p2", "p3": _MI3_P3_ROW},
                "signs": {"b": -1},
            },
        },
        "forward": {
            "pp1": "p1/sqrt(a)",
            "pp2": "p2/(sqrt(a)*sqrt(b))",
            "pp3": "p3/sqrt(a)",
        },
        "claimed": {
            "be3": {"pp1": "pp1", "pp2": "pp2", "pp3": "pp3"},
            "mi3": {
                "pp1": "pp1",
                "pp2": "pp2",
                "pp3": "(-1/a-5*pp1^2-7*b*pp2^2-a*(pp1^2-b*pp2^2)"
                       "*(3*pp1^2+17*b*pp2^2)+9*a^2*(pp1^2-b*pp2^2)^3)/pp3",
            },
        },
        "claimed_context": {
            "variables": ["pp1", "pp2", "pp3"],
            "parameters": ["a", "b"],
        },
    },
)

_case(
    "prop1_3_conic", "Identity", "6",
    "norm form of the third chain",
    {
        "context": {
            "variables": ["pp1", "pp2"],
            "parameters": ["a", "b"],
            "roots": ["a", "b"],
        },
        "lhs": "(-1-5*(sqrt(a)*pp1)^2-7*(sqrt(a)*sqrt(b)*pp2)^2"
               "-((sqrt(a)*pp1)^2-(sqrt(a)*sqrt(b)*pp2)^2)"
               "*(3*(sqrt(a)*pp1)^2+17*(sqrt(a)*sqrt(b)*pp2)^2)"
               "+9*((sqrt(a)*pp1)^2-(sqrt(a)*sqrt(b)*pp2)^2)^3)/a",
        "rhs": "-1/a-5*pp1^2-7*b*pp2^2-a*(pp1^2-b*pp2^2)*(3*pp1^2+17*b*pp2^2)"
               "+9*a^2*(pp1^2-b*pp2^2)^3",
    },
)

_case(
    "prop1_4_st", "InversePair", "6",
    "fourth chain opener, over the field with a square root of -3",
    {
        "source": {
            "variables": ["s1", "s2", "s3"],
            "parameters": ["m"],
            "roots": ["m"],
            "specialize": {"m": -3},
        },
        "target": {
            "variables": ["t1", "t2", "t3"],
            "parameters": ["m"],
            "roots": ["m"],
            "specialize": {"m": -3},
        },
        "forward": {
            "t1": "2*s1",
            "t2": "(-s1-7*s1^3+2*s1*s2+2*s1^3*s2"
                  "+(1+5*s1^2+2*s1^4-s2-3*s1^2*s2)*sqrt(m))"
                  "/((s1^2-1)*(1-s2+s1*sqrt(m)))",
            "t3": "4*(s1^2+1)*s2*s3/((s1^2-1)*(1-s2+s1*sqrt(m)))",
        },
        "backward": {
            "s1": "t1/2",
            "s2": "(4*t1+7*t1^3-8*t2+2*t1^2*t2"
                  "+(-8-10*t1^2-t1^4-4*t1*t2+t1^3*t2)*sqrt(m))"
                  "/(2*(4*t1+t1^3-4*t2+t1^2*t2-(4+3*t1^2)*sqrt(m)))",
            "s3": "-(t1^2-4)*t1*t3*(2+t1*sqrt(m))"
                  "/(2*(-4*t1-7*t1^3+8*t2-2*t1^2*t2"
                  "+(8+10*t1^2+t1^4+4*t1*t2-t1^3*t2)*sqrt(m)))",
        },
    },
)

_case(
    "prop1_4_t", "InducedAction", "6",
    "fourth chain, first hop",
    {
        "context": {
            "variables": ["s1", "s2", "s3"],
            "parameters": ["b", "m"],
            "roots": ["b", "m"],
            "specialize": {"m": -3},
        },
        "actions": {
            "mi3": {
                "bindings": {
                    "s1": "-s1",
                    "s2": "(1+3*s1^2)/s2",
                    "s3": "(-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2"
                          "-s2^2-3*s1^2*s2^2)/(s2*s3)",
                },
                "signs": {"b": -1},
            },
        },
        "forward": {
            "t1": "2*s1",
            "t2": "(-s1-7*s1^3+2*s1*s2+2*s1^3*s2"
                  "+(1+5*s1^2+2*s1^4-s2-3*s1^2*s2)*sqrt(m))"
                  "/((s1^2-1)*(1-s2+s1*sqrt(m)))",
            "t3": "4*(s1^2+1)*s2*s3/((s1^2-1)*(1-s2+s1*sqrt(m)))",
        },
        "claimed": {
            "mi3": {
                "t1": "-t1",
                "t2": "t2",
                "t3": "(t1^2+4)*(t1^2-t2^2+1)/t3",
            },
        },
        "claimed_context": {"variables": ["t1", "t2", "t3"]},
    },
)

_case(
    "prop1_4_u", "InducedAction", "6",
    "fourth chain, second hop, now also using a square root of -1",
    {
        "context": {
            "variables": ["t1", "t2", "t3"],
            "parameters": ["b", "m1"],
            "roots": ["b", "m1"],
            "specialize": {"m1": -1},
        },
        "actions": {
            "mi3": {
                "bindings": {
                    "t1": "-t1",
                    "t2": "t2",
                    "t3": "(t1^2+4)*(t1^2-t2^2+1)/t3",
                },
                "signs": {"b": -1},
            },
        },
        "forward": {
            "u1": "t1/sqrt(b)",
            "u2": "t2",
            "u3": "t3/(t1+2*sqrt(m1))",
        },
        "claimed": {
            "mi3": {"u1": "u1", "u2": "u2", "u3": "-(b*u1^2-u2^2+1)/u3"},
        },
        "claimed_context": {
            "variables": ["u1", "u2", "u3"],
            "parameters": ["b"],
        },
    },
)

_case(
    "prop1_4_conic", "Identity", "6",
    "norm form of the fourth chain",
    {
        "context": {"variables": ["u1", "u2"], "parameters": ["b"]},
        "lhs": "-(b*u1^2-u2^2+1)",
        "rhs": "-b*u1^2+u2^2-1",
    },
)

_case(
    "prop1_5_sred", "Identity", "6",
    "over the three-element prime field the long numerator collapses",
    {
        "context": {"field": "F3", "variables": ["s1", "s2"]},
        "lhs": "-1-6*s1^2-9*s1^4+2*s2+10*s1^2*s2+4*s1^4*s2-s2^2-3*s1^2*s2^2",
        "rhs": "-1-s2+s1^2*s2+s1^4*s2-s2^2",
    },
)

_case(
    "prop1_5_t", "InducedAction", "6",
    "characteristic-3 shortcut: one hop already yields the final tables",
    {
        "context": {"field": "F3", "variables": ["s1", "s2", "s3"]},
        "actions": {
            "mbe3": {"bindings": {
                "s1": "s1",
                "s2": "1/s2",
                "s3": "(-1-s2+s1^2*s2+s1^4*s2-s2^2)/(s2*s3)",
            }},
            "be3": {"bindings": {"s1": "-s1", "s2": "s2", "s3": "s3"}},
            "mi3": {"bindings": {
                "s1": "-s1",
                "s2": "1/s2",
                "s3": "(-1-s2+s1^2*s2+s1^4*s2-s2^2)/(s2*s3)",
            }},
        },
        "forward": {
            "t1": "s1",
            "t2": "(s1^2-1)*(s2-1)/(s1*(s2+1))",
            "t3": "s3/(s1*(s2+1))",
        },
        "claimed": {
            "mbe3": {"t1": "t1", "t2": "-t2", "t3": "(t1^2-t2^2+1)/t3"},
            "be3": {"t1": "-t1", "t2": "-t2", "t3": "-t3"},
            "mi3": {"t1": "-t1", "t2": "t2", "t3": "-(t1^2-t2^2+1)/t3"},
        },
        "claimed_context": {"field": "F3", "variables": ["t1", "t2", "t3"]},
    },
)

_case(
    "prop1_5_rooted", "InducedAction", "6",
    "characteristic-3 shortcut for the largest group: scaling by the root "
    "absorbs the swap",
    {
        "context": {
            "field": "F3",
            "variables": ["t1", "t2", "t3"],
            "parameters": ["a", "b"],
            "roots": ["a", "b"],
        },
        "actions": {
            "be3": {
                "bindings": {"t1": "-t1", "t2": "-t2", "t3": "-t3"},
                "signs": {"a": -1},
            },
            "mi3": {
                "bindings": {"t1": "-t1", "t2": "t2", "t3": "-(t1^2-t2^2+1)/t3"},
                "signs": {"b": -1},
            },
        },
        "forward": {
            "tt1": "sqrt(a)*t1",
            "tt2": "sqrt(a)*t2",
            "tt3": "sqrt(a)*t3",
        },
        "claimed": {
            "be3": {"tt1": "tt1", "tt2": "tt2", "tt3": "tt3"},
            "mi3": {"tt1": "-tt1", "tt2": "tt2", "tt3": "-(tt1^2-tt2^2+a)/tt3"},
        },
        "claimed_context": {
            "field": "F3",
            "variables": ["tt1", "tt2", "tt3"],
            "parameters": ["a"],
        },
    },
)

_case(
    "prop1_5_char3_conic", "Identity", "6",
    "norm form of the characteristic-3 branch",
    {
        "context": {
            "field": "F3",
            "variables": ["uu1", "uu2"],
            "parameters": ["a", "b"],
            "roots": ["b"],
        },
        "lhs": "-((sqrt(b)*uu1)^2-uu2^2+a)",
        "rhs": "-b*uu1^2+uu2^2-a",
    },
)


# -- numeric rationality criteria ----------------------------------------------

_case(
    "crit_c4_neg", "RationalityCriterion", "criteria",
    "cyclic quartic twist at level -1: the norm equation has no solution",
    {"case": "c4", "a": -1, "expect_rational": False},
)

_case(
    "crit_c4_pos", "RationalityCriterion", "criteria",
    "cyclic quartic twist at level 5: solvable norm equation",
    {"case": "c4", "a": 5, "expect_rational": True},
)

_case(
    "crit_d4_pos", "RationalityCriterion", "criteria",
    "dihedral twist at levels (2,2)",
    {"case": "d4", "a": 2, "b": 2, "expect_rational": True},
)

_case(
    "crit_d4_neg", "RationalityCriterion", "criteria",
    "dihedral twist at levels (3,-3)",
    {"case": "d4", "a": 3, "b": -3, "expect_rational": False},
)

_case(
    "crit_quadric", "RationalityCriterion", "criteria",
    "five-term diagonal quadric with mixed signs",
    {"case": "quadric", "coeffs": [1, 1, -2, -2, -2], "expect_rational": True},
)
