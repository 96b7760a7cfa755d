"""Generate the shipped character tables.

Each table is assembled from a closed-form construction: root-of-unity
powers for the cyclic group, the classical small tables for d4/s4/a5,
and the PSL(2, q) series tables for q = 7 and q = 31 (q = 3 mod 4:
principal series of degree q+1, discrete series of degree q-1, the two
half-discrete characters of degree (q-1)/2 carrying the quadratic Gauss
sum on the unipotent classes, and the Steinberg character).

Nothing here is trusted on its own: every assembled document runs
through the strict parser (exact orthogonality included) and its class
data is cross-checked against the permutation-group pipeline before the
file is written.  Columns are ordered by (element order, size, label),
matching the class-table sort on the group side.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallmark.catalog import build
from hallmark.chartab import encode_value, parse_table
from hallmark.classdata import class_table
from hallmark.cyclotomic import Cyc

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "hallmark", "data", "tables")


def table_doc(name, order, exponent, classes, rows):
    """A schema document; each value is a plain int or a Cyc."""
    return {
        "schema": "hallmark-ct/1",
        "name": name,
        "order": order,
        "exponent": exponent,
        "classes": [
            {"label": lab, "size": size, "element_order": o} for lab, size, o in classes
        ],
        "irreducibles": [
            [v if isinstance(v, int) else encode_value(v) for v in row] for row in rows
        ],
    }


def root_sum(n, *terms):
    """sum of c * zeta_n^e over the (e, c) pairs, as one Cyc; the
    coefficients of exponents equal mod n add up."""
    coeffs = {}
    for e, c in terms:
        coeffs[e % n] = coeffs.get(e % n, 0) + c
    return Cyc(n, coeffs)


def build_c6():
    # column k of the sorted table is the power g^e with e as listed
    exps = [0, 3, 2, 4, 1, 5]
    labels = ["1a", "2a", "3a", "3b", "6a", "6b"]
    orders = [1, 2, 3, 3, 6, 6]
    classes = [(labels[i], 1, orders[i]) for i in range(6)]
    rows = [[root_sum(6, (j * e, 1)) for e in exps] for j in range(6)]
    return table_doc("c6", 6, 6, classes, rows), "c6"


def build_d4():
    classes = [("1a", 1, 1), ("2a", 1, 2), ("2b", 2, 2), ("2c", 2, 2), ("4a", 2, 4)]
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ]
    return table_doc("d4", 8, 4, classes, rows), "d4"


def build_s4():
    classes = [("1a", 1, 1), ("2a", 3, 2), ("2b", 6, 2), ("3a", 8, 3), ("4a", 6, 4)]
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [2, 2, 0, -1, 0],
        [3, -1, 1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    return table_doc("s4", 24, 12, classes, rows), "s4"


def build_a5():
    # golden values: phi = (1+sqrt5)/2 = -(z5^2+z5^3), psi = (1-sqrt5)/2
    phi = root_sum(5, (2, -1), (3, -1))
    psi = root_sum(5, (1, -1), (4, -1))
    classes = [("1a", 1, 1), ("2a", 15, 2), ("3a", 20, 3), ("5a", 12, 5), ("5b", 12, 5)]
    rows = [
        [1, 1, 1, 1, 1],
        [3, -1, 0, phi, psi],
        [3, -1, 0, psi, phi],
        [4, 0, 1, -1, -1],
        [5, 1, -1, 0, 0],
    ]
    return table_doc("a5", 60, 30, classes, rows), "a5"


def build_psl2_7():
    # alpha = (-1+sqrt(-7))/2 = sum of zeta_7 over the squares mod 7, and
    # beta its complex conjugate, over the non-squares
    alpha = root_sum(7, (1, 1), (2, 1), (4, 1))
    beta = root_sum(7, (-1, 1), (-2, 1), (-4, 1))
    classes = [
        ("1a", 1, 1),
        ("2a", 21, 2),
        ("3a", 56, 3),
        ("4a", 42, 4),
        ("7a", 24, 7),
        ("7b", 24, 7),
    ]
    rows = [
        [1, 1, 1, 1, 1, 1],
        [3, -1, 0, 1, alpha, beta],
        [3, -1, 0, 1, beta, alpha],
        [6, 2, 0, 0, -1, -1],
        [7, -1, 1, -1, 0, 0],
        [8, 0, -1, 0, 1, 1],
    ]
    return table_doc("psl2_7", 168, 84, classes, rows), "psl2_7"


def build_psl2_31():
    q = 31
    order = q * (q - 1) * (q + 1) // 2
    # split torus element a has order 15, nonsplit b has order 16; the
    # involution is b^8, unipotent classes have size (q*q-1)/2
    split = {"3a": 5, "5a": 3, "5b": 6, "15a": 1, "15b": 2, "15c": 4, "15d": 7}
    nonsplit = {"2a": 8, "4a": 4, "8a": 2, "8b": 6, "16a": 1, "16b": 3, "16c": 5, "16d": 7}
    columns = [("1a", 1, 1, "id", 0)]
    columns.append(("2a", q * (q - 1) // 2, 2, "ns", nonsplit["2a"]))
    columns.append(("3a", q * (q + 1), 3, "s", split["3a"]))
    columns.append(("4a", q * (q - 1), 4, "ns", nonsplit["4a"]))
    for lab in ("5a", "5b"):
        columns.append((lab, q * (q + 1), 5, "s", split[lab]))
    for lab in ("8a", "8b"):
        columns.append((lab, q * (q - 1), 8, "ns", nonsplit[lab]))
    for lab in ("15a", "15b", "15c", "15d"):
        columns.append((lab, q * (q + 1), 15, "s", split[lab]))
    for lab in ("16a", "16b", "16c", "16d"):
        columns.append((lab, q * (q - 1), 16, "ns", nonsplit[lab]))
    columns.append(("31a", (q * q - 1) // 2, q, "u", 0))
    columns.append(("31b", (q * q - 1) // 2, q, "u", 1))
    assert sum(c[1] for c in columns) == order

    # (-1+sqrt(-31))/2 over the nonzero squares mod q, and its conjugate
    squares = {x * x % q for x in range(1, q)}
    gauss = root_sum(q, *((s, 1) for s in squares))
    gauss_bar = root_sum(q, *((-s, 1) for s in squares))

    def value(row_kind, j, kind, param):
        if row_kind == "triv":
            return 1
        if row_kind == "st":
            return {"id": q, "s": 1, "ns": -1, "u": 0}[kind]
        if row_kind == "principal":  # degree q+1, indexed by eps^j on the split torus
            if kind == "id":
                return q + 1
            if kind == "s":
                return root_sum(15, (j * param, 1), (-j * param, 1))
            if kind == "ns":
                return 0
            return 1
        if row_kind == "discrete":  # degree q-1, indexed by eta^j on the nonsplit torus
            if kind == "id":
                return q - 1
            if kind == "s":
                return 0
            if kind == "ns":
                return root_sum(16, (j * param, -1), (-j * param, -1))
            return -1
        # the two halves of degree (q-1)/2; j picks the Gauss-sum pairing
        if kind == "id":
            return (q - 1) // 2
        if kind == "s":
            return 0
        if kind == "ns":
            return (-1) ** (param + 1)
        return (gauss, gauss_bar)[(param + j) % 2]

    rows = []
    rows.append([value("triv", 0, k, p) for _, _, _, k, p in columns])
    rows.append([value("half", 0, k, p) for _, _, _, k, p in columns])
    rows.append([value("half", 1, k, p) for _, _, _, k, p in columns])
    for j in range(1, 8):
        rows.append([value("discrete", j, k, p) for _, _, _, k, p in columns])
    rows.append([value("st", 0, k, p) for _, _, _, k, p in columns])
    for j in range(1, 8):
        rows.append([value("principal", j, k, p) for _, _, _, k, p in columns])

    classes = [(lab, size, o) for lab, size, o, _, _ in columns]
    return table_doc("psl2_31", order, 7440, classes, rows), "psl2_31"


def cross_check(doc, group_name):
    """Class sizes and element orders must match the group pipeline."""
    group = build(group_name)
    table = class_table(group)
    got = sorted((c.element_order, c.size) for c in table.classes)
    want = sorted((c["element_order"], c["size"]) for c in doc["classes"])
    if got != want:
        raise SystemExit("%s: class data mismatch\n table: %s\n group: %s" % (group_name, want, got))
    if group.order != doc["order"]:
        raise SystemExit("%s: order mismatch" % group_name)


def documents():
    """(name, document, file text) of each shipped table, in file order."""
    for builder in (build_c6, build_d4, build_s4, build_a5, build_psl2_7, build_psl2_31):
        doc, name = builder()
        yield name, doc, json.dumps(doc, indent=1) + "\n"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, doc, text in documents():
        parsed = parse_table(text)  # full strict validation, orthogonality included
        assert parsed.name == name
        cross_check(doc, name)
        path = os.path.join(OUT_DIR, name + ".json")
        with open(path, "w") as handle:
            handle.write(text)
        print("wrote %s (%d classes, degrees %s)" % (path, len(parsed.classes), parsed.degrees))

if __name__ == "__main__":
    main()
