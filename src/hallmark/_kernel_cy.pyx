# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled enumeration kernels.

Mirrors _kernel_py function for function on its own row format: two
big-endian bytes per point, so rows of equal degree sort like the image
tuples _kernel_py uses.  Rows are bytes objects, which hash and compare
natively; only the image loops and the commuting test drop to C.
"""

from math import lcm

from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_FromStringAndSize, PyBytes_GET_SIZE

BACKEND = "compiled"


def pack(images):
    cdef list vals = list(images)
    cdef Py_ssize_t n = len(vals), i
    cdef bytes out = PyBytes_FromStringAndSize(NULL, 2 * n)
    cdef unsigned char* o = <unsigned char*> PyBytes_AS_STRING(out)
    cdef int v
    for i in range(n):
        v = vals[i]
        o[2 * i] = (v >> 8) & 0xFF
        o[2 * i + 1] = v & 0xFF
    return out


def unpack(bytes row):
    cdef const unsigned char* a = <const unsigned char*> PyBytes_AS_STRING(row)
    cdef Py_ssize_t n = PyBytes_GET_SIZE(row) >> 1, i
    cdef list out = [0] * n
    for i in range(n):
        out[i] = (a[2 * i] << 8) | a[2 * i + 1]
    return tuple(out)


def identity_row(degree):
    return pack(range(degree))


cdef inline bytes _compose(bytes a, bytes b):
    cdef Py_ssize_t m = PyBytes_GET_SIZE(a), k, j
    cdef const unsigned char* pa = <const unsigned char*> PyBytes_AS_STRING(a)
    cdef const unsigned char* pb = <const unsigned char*> PyBytes_AS_STRING(b)
    cdef bytes out = PyBytes_FromStringAndSize(NULL, m)
    cdef unsigned char* po = <unsigned char*> PyBytes_AS_STRING(out)
    for k in range(0, m, 2):
        j = ((pa[k] << 8) | pa[k + 1]) << 1
        po[k] = pb[j]
        po[k + 1] = pb[j + 1]
    return out


cdef inline bytes _inverse(bytes a):
    cdef Py_ssize_t m = PyBytes_GET_SIZE(a), k, j, p
    cdef const unsigned char* pa = <const unsigned char*> PyBytes_AS_STRING(a)
    cdef bytes out = PyBytes_FromStringAndSize(NULL, m)
    cdef unsigned char* po = <unsigned char*> PyBytes_AS_STRING(out)
    for k in range(0, m, 2):
        j = ((pa[k] << 8) | pa[k + 1]) << 1
        p = k >> 1
        po[j] = (p >> 8) & 0xFF
        po[j + 1] = p & 0xFF
    return out


def compose(bytes a, bytes b):
    """Row of `apply a, then b`."""
    return _compose(a, b)


def inverse(bytes a):
    return _inverse(a)


def conjugate(bytes a, bytes g):
    """Row of g^-1 * a * g (apply g^-1, then a, then g)."""
    return _compose(_compose(_inverse(g), a), g)


def order_of(bytes a):
    cdef const unsigned char* pa = <const unsigned char*> PyBytes_AS_STRING(a)
    cdef Py_ssize_t n = PyBytes_GET_SIZE(a) >> 1, start, p, length
    cdef bytearray seen = bytearray(n)
    result = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = 1
            p = (pa[2 * p] << 8) | pa[2 * p + 1]
            length += 1
        result = lcm(result, length)
    return result


def orders_list(rows):
    return [order_of(r) for r in rows]


def close_group(gens, degree, cap):
    """Sorted closure of the generators, or None if it would exceed cap."""
    cdef bytes e = identity_row(degree)
    cdef set seen = {e}
    cdef list frontier = [e]
    cdef list gen_list = list(gens)
    cdef list nxt
    cdef bytes x, g, y
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_list:
                y = _compose(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def conjugacy_partition(rows, gens):
    """Class id per row; ids are numbered by least member, rows sorted."""
    cdef dict idx = {r: i for i, r in enumerate(rows)}
    cdef list gen_list = list(gens)
    cdef list ginv = [_inverse(g) for g in gen_list]
    cdef Py_ssize_t n = len(rows), i, t
    cdef list cid = [-1] * n
    cdef list stack
    cdef int c = 0
    cdef bytes x, y
    for i in range(n):
        if cid[i] >= 0:
            continue
        cid[i] = c
        stack = [rows[i]]
        while stack:
            x = stack.pop()
            for t in range(len(gen_list)):
                y = _compose(_compose(ginv[t], x), gen_list[t])
                j = idx[y]
                if cid[j] < 0:
                    cid[j] = c
                    stack.append(y)
        c += 1
    return cid


cdef bint _commutes(bytes r, bytes x):
    # compares r*x with x*r pointwise without building either row
    cdef Py_ssize_t m = PyBytes_GET_SIZE(r), k, jr, jx
    cdef const unsigned char* pr = <const unsigned char*> PyBytes_AS_STRING(r)
    cdef const unsigned char* px = <const unsigned char*> PyBytes_AS_STRING(x)
    for k in range(0, m, 2):
        jr = ((pr[k] << 8) | pr[k + 1]) << 1
        jx = ((px[k] << 8) | px[k + 1]) << 1
        if px[jr] != pr[jx] or px[jr + 1] != pr[jx + 1]:
            return 0
    return 1


def centralizer_filter(rows, xs):
    """Rows commuting with every row in xs."""
    cdef list out = []
    cdef list x_list = list(xs)
    cdef bytes r, x
    for r in rows:
        for x in x_list:
            if not _commutes(r, x):
                break
        else:
            out.append(r)
    return out


def normalizer_filter(rows, sub_gens, sub_set):
    """Rows g with s^g in sub_set for every generator s."""
    cdef list out = []
    cdef list gen_list = list(sub_gens)
    cdef bytes g, gi, s
    for g in rows:
        gi = _inverse(g)
        for s in gen_list:
            if _compose(_compose(gi, s), g) not in sub_set:
                break
        else:
            out.append(g)
    return out


def coset_min(n_rows, bytes g):
    """Lexicographically least element of the coset N*g."""
    cdef bytes best = None
    cdef bytes n, c
    for n in n_rows:
        c = _compose(n, g)
        if best is None or c < best:
            best = c
    return best
