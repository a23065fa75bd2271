/* Compiled bitset kernels: a hand-written CPython extension.
 *
 * Only the hot loops live here: the flood fill, the two cut searches and
 * power iteration. Each mirrors the function of the same name in
 * specconn._kernels_py, positional arguments only, with the same results
 * and the same ValueError messages; the parity tests compare the two on
 * random inputs. The one-set predicate cut_valid is not exported: the pure
 * one is the reference both searches are tested against, and cut_valid_c
 * below serves only this search. Adjacency is a sequence of n neighbour
 * bitmasks and vertex sets are bitmasks, held here as uint64_t, so
 * 1 <= n <= 64. The cut mode codes are connectivity.CutMode's, 0..3, whose
 * docstring states what their two bits mean; read_search decodes them once
 * per call. Any other code is a ValueError, and so is a negative g or r.
 * min_cut_search_many is a loop over the same search; only the pure kernel
 * decides a batch in shared tables. power_iteration also returns the
 * Collatz-Wielandt bracket of its iterate and can stop on it against a
 * threshold; the specconn._kernels_py docstring derives the bracket and
 * its rounding slack.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>

#define MAX_N 64
/* exhaustive cut search order cap; the same as _kernels_py.SEARCH_MAX_N */
#define SEARCH_MAX_N 20

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) __builtin_popcountll(x)
#define CTZ64(x) __builtin_ctzll(x)
#else
static int
POPCOUNT64(uint64_t x)
{
    int count = 0;
    for (; x; x &= x - 1)
        count++;
    return count;
}

static int
CTZ64(uint64_t x)
{
    int count = 0;
    for (; !(x & 1); x >>= 1)
        count++;
    return count;
}
#endif

static uint64_t
full_mask(int n)
{
    return ~(uint64_t)0 >> (MAX_N - n);
}

/* Check that fname got lo..hi arguments; returns -1 with an exception set.
 * The functions are METH_FASTCALL only, so the interpreter itself rejects
 * keyword arguments. */
static int
check_arity(const char *fname, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (nargs >= lo && nargs <= hi)
        return 0;
    if (lo == hi)
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     fname, lo, nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s() takes from %zd to %zd arguments (%zd given)",
                     fname, lo, hi, nargs);
    return -1;
}

/* Convert a Python int to a C int; returns -1 with an exception set. */
static int
as_int(PyObject *obj, int *out)
{
    long value = PyLong_AsLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < INT_MIN || value > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "Python int too large to convert to C int");
        return -1;
    }
    *out = (int)value;
    return 0;
}

/* Convert a cut search's g or r, named `name`, to a C int clamped to
 * SEARCH_MAX_N + 1; returns -1 with an exception set, a ValueError when it
 * is negative. On n <= SEARCH_MAX_N vertices no survivor keeps that many
 * neighbours and no cut leaves that many components, so every larger value
 * gives the same cut. */
static int
as_threshold(PyObject *obj, const char *name, int *out)
{
    int overflow;
    long value = PyLong_AsLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred())
        return -1;
    /* on overflow the value reads -1, so the sign comes from overflow */
    if (overflow > 0 || value > SEARCH_MAX_N + 1)
        value = SEARCH_MAX_N + 1;
    else if (overflow < 0 || value < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be >= 0, got %S", name, obj);
        return -1;
    }
    *out = (int)value;
    return 0;
}

/* Convert a Python int to a bitmask; returns -1 with an exception set. */
static int
as_mask(PyObject *obj, uint64_t *out)
{
    unsigned long long value = PyLong_AsUnsignedLongLong(obj);
    if (value == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = (uint64_t)value;
    return 0;
}

/* Read n and check that it is in 1..MAX_N; returns -1 with an exception
 * set. */
static int
read_order(PyObject *n_obj, int *n)
{
    if (as_int(n_obj, n) < 0)
        return -1;
    if (*n < 1 || *n > MAX_N) {
        PyErr_Format(PyExc_ValueError, "n must be in 1..%d, got %d", MAX_N, *n);
        return -1;
    }
    return 0;
}

/* Copy adj[0..n-1] into rows; returns -1 with an exception set. */
static int
read_rows(PyObject *adj, int n, uint64_t *rows)
{
    PyObject *seq;
    Py_ssize_t i;
    seq = PySequence_Fast(adj, "adj must be a sequence of int bitmasks");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd rows, fewer than n = %d",
                     PySequence_Fast_GET_SIZE(seq), n);
        Py_DECREF(seq);
        return -1;
    }
    for (i = 0; i < n; i++) {
        if (as_mask(PySequence_Fast_GET_ITEM(seq, i), &rows[i]) < 0) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* Read and check n, then copy adj[0..n-1] into rows; returns -1 with an
 * exception set. */
static int
read_adj(PyObject *adj, PyObject *n_obj, int *n, uint64_t *rows)
{
    if (read_order(n_obj, n) < 0)
        return -1;
    return read_rows(adj, *n, rows);
}

/* Component of surv containing the lowest vertex of start. */
static uint64_t
flood(const uint64_t *rows, uint64_t surv, uint64_t start)
{
    uint64_t comp = start, frontier = start;
    while (frontier) {
        uint64_t nxt = 0;
        for (; frontier; frontier &= frontier - 1)
            nxt |= rows[CTZ64(frontier)];
        frontier = nxt & surv & ~comp;
        comp |= frontier;
    }
    return comp;
}

/* Number of components of surv, counting stops once it reaches stop_at. */
static int
count_components(const uint64_t *rows, uint64_t surv, int stop_at)
{
    uint64_t rem = surv;
    int count = 0;
    while (rem) {
        count++;
        if (count >= stop_at)
            return count;
        rem &= ~flood(rows, surv, rem & (~rem + 1));
    }
    return count;
}

/* Whether deleting fmask is a cut of a search that read_search decoded to
 * g and r: fewer than r survivors, or every survivor keeping g neighbours
 * and >= r components. Only the sizes of a search without mode bit 1 leave
 * fewer than r survivors. */
static int
cut_valid_c(const uint64_t *rows, int n, uint64_t fmask, int g, int r)
{
    uint64_t surv = full_mask(n) & ~fmask;
    uint64_t f;
    if (POPCOUNT64(surv) < r)
        return 1;
    if (g > 0) {
        for (f = surv; f; f &= f - 1) {
            if (POPCOUNT64(rows[CTZ64(f)] & surv) < g)
                return 0;
        }
    }
    return count_components(rows, surv, r) >= r;
}

static PyObject *
components_masks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *out, *item;
    uint64_t rows[MAX_N], removed = 0, surv, rem, comp;
    int n;
    if (check_arity("components_masks", nargs, 2, 3) < 0
        || read_adj(args[0], args[1], &n, rows) < 0
        || (nargs == 3 && as_mask(args[2], &removed) < 0))
        return NULL;
    out = PyList_New(0);
    if (out == NULL)
        return NULL;
    surv = full_mask(n) & ~removed;
    for (rem = surv; rem; rem &= ~comp) {
        comp = flood(rows, surv, rem & (~rem + 1));
        item = PyLong_FromUnsignedLongLong(comp);
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(item);
    }
    return out;
}

/* A cut search as read_search decodes it: the order, g and r as the mode
 * bits leave them, and the cut sizes lo .. hi - 1. */
struct query {
    int n, g, r, lo, hi;
};

/* Read the n, g, r and mode of a cut search, in that order: n in
 * 1..SEARCH_MAX_N, g and r >= 0 and clamped by as_threshold, then mode in
 * 0..3; then decode the mode's two bits into q, as _kernels_py._decode
 * does. Returns -1 with an exception set. */
static int
read_search(PyObject *const *a, struct query *q)
{
    long mode;
    if (read_order(a[0], &q->n) < 0)
        return -1;
    if (q->n > SEARCH_MAX_N) {
        PyErr_Format(PyExc_ValueError,
                     "exhaustive cut search is capped at %d vertices, got n = %d",
                     SEARCH_MAX_N, q->n);
        return -1;
    }
    if (as_threshold(a[1], "g", &q->g) < 0 || as_threshold(a[2], "r", &q->r) < 0)
        return -1;
    mode = PyLong_AsLong(a[3]);
    if (mode == -1 && PyErr_Occurred())
        return -1;
    if (mode < 0 || mode > 3) {
        PyErr_Format(PyExc_ValueError, "mode must be in 0..3, got %ld", mode);
        return -1;
    }
    if (!(mode & 1))
        q->r = 2;
    if (!(mode & 2)) {
        q->g = 0;
        q->lo = 0;
        q->hi = q->n + 1;
        return 0;
    }
    /* every survivor keeps g neighbours, so each of the >= r components has
     * >= g + 1 vertices: no cut exceeds n - r*(g+1). As clamped, g and r
     * are at most SEARCH_MAX_N + 1, so the product fits in an int. */
    q->lo = 1;
    q->hi = q->n - q->r * (q->g + 1) + 1;
    if (q->hi > q->n)
        q->hi = q->n;
    return 0;
}

/* First valid cut of least size in lexicographic order, or -1. */
static int64_t
search(const uint64_t *rows, const struct query *q)
{
    uint64_t fmask;
    int n = q->n, size, i, j;
    int c[MAX_N + 1];
    /* subsets of each size in lexicographic order, as itertools.combinations */
    for (size = q->lo; size < q->hi; size++) {
        for (i = 0; i < size; i++)
            c[i] = i;
        for (;;) {
            fmask = 0;
            for (i = 0; i < size; i++)
                fmask |= (uint64_t)1 << c[i];
            if (cut_valid_c(rows, n, fmask, q->g, q->r))
                return (int64_t)fmask;
            for (i = size - 1; i >= 0 && c[i] == n - size + i; i--)
                ;
            if (i < 0)
                break;
            c[i]++;
            for (j = i + 1; j < size; j++)
                c[j] = c[j - 1] + 1;
        }
    }
    return -1;
}

static PyObject *
min_cut_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t rows[MAX_N];
    struct query q;
    if (check_arity("min_cut_search", nargs, 5, 5) < 0 || read_search(args + 1, &q) < 0
        || read_rows(args[0], q.n, rows) < 0)
        return NULL;
    return PyLong_FromLongLong(search(rows, &q));
}

static PyObject *
min_cut_search_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *seq, *out, *item;
    uint64_t rows[MAX_N];
    struct query q;
    Py_ssize_t i, count;
    if (check_arity("min_cut_search_many", nargs, 5, 5) < 0 || read_search(args + 1, &q) < 0)
        return NULL;
    seq = PySequence_Fast(args[0], "adjs must be a sequence of adjacencies");
    if (seq == NULL)
        return NULL;
    count = PySequence_Fast_GET_SIZE(seq);
    out = PyList_New(count);
    if (out == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    for (i = 0; i < count; i++) {
        if (read_rows(PySequence_Fast_GET_ITEM(seq, i), q.n, rows) < 0
            || (item = PyLong_FromLongLong(search(rows, &q))) == NULL) {
            Py_DECREF(out);
            Py_DECREF(seq);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    Py_DECREF(seq);
    return out;
}

static PyObject *
vector_to_list(const double *x, int size)
{
    PyObject *out = PyList_New(size), *item;
    int i;
    if (out == NULL)
        return NULL;
    for (i = 0; i < size; i++) {
        item = PyFloat_FromDouble(x[i]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

/* The Collatz-Wielandt bracket of x on comp, z = A x: the least and
 * greatest z_v / x_v, each widened by rel times itself; an x_v that
 * underflowed to 0.0 leaves no upper bound. The same operations as
 * _kernels_py._bracket, so the same bits. */
static void
bracket(uint64_t comp, const double *z, const double *x, double rel, double *lower,
        double *upper)
{
    uint64_t m;
    double q, low = INFINITY, high = -INFINITY;
    int v;
    for (m = comp; m; m &= m - 1) {
        v = CTZ64(m);
        if (x[v] == 0.0) {
            high = INFINITY;
            continue;
        }
        q = z[v] / x[v];
        if (q < low)
            low = q;
        if (q > high)
            high = q;
    }
    *lower = low - rel * low;
    *upper = high + rel * high;
}

/* Dominant adjacency eigenpair of one component, with its bracket.
 *
 * Shifted power iteration on A+I; returns (rho, x, iterations, residual,
 * converged, lower, upper) with x a list of n floats indexed by vertex, 0.0
 * off the component, unit Euclidean norm. Every loop visits the
 * component's vertices in ascending order and takes rows[v] & comp as v's
 * neighbours. [lower, upper] is the Collatz-Wielandt bracket of the x that
 * rho belongs to; a threshold t other than NaN stops the loop at the first
 * bracket that excludes t, unless the residual test passes there first.
 * The _kernels_py docstring derives the bracket's rounding slack.
 */
static PyObject *
power_iteration(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *xs;
    uint64_t rows[MAX_N], comp, m, row;
    double x[MAX_N] = {0.0}, z[MAX_N] = {0.0};
    double tol, t, rho = 0.0, resid = 0.0, acc, d, norm, bound, rel;
    double lower = 0.0, upper = INFINITY;
    long max_iter, it;
    int n, size, v, decide, converged = 0;
    if (check_arity("power_iteration", nargs, 6, 6) < 0
        || read_adj(args[0], args[1], &n, rows) < 0 || as_mask(args[2], &comp) < 0)
        return NULL;
    tol = PyFloat_AsDouble(args[3]);
    if (tol == -1.0 && PyErr_Occurred())
        return NULL;
    max_iter = PyLong_AsLong(args[4]);
    if (max_iter == -1 && PyErr_Occurred())
        return NULL;
    t = PyFloat_AsDouble(args[5]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (comp == 0 || (comp & ~full_mask(n)) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "comp_mask must be a nonempty subset of the n vertices");
        return NULL;
    }
    size = POPCOUNT64(comp);
    d = 1.0 / sqrt((double)size);
    for (m = comp; m; m &= m - 1) {
        v = CTZ64(m);
        rows[v] &= comp;
        x[v] = d;
    }
    if (size == 1)
        return Py_BuildValue("dNidOdd", 0.0, vector_to_list(x, n), 0, 0.0, Py_True, 0.0, 0.0);
    rel = 4.0 * size * DBL_EPSILON;
    decide = !isnan(t);
    for (it = 1; it <= max_iter; it++) {
        for (m = comp; m; m &= m - 1) {
            v = CTZ64(m);
            acc = 0.0;
            for (row = rows[v]; row; row &= row - 1)
                acc += x[CTZ64(row)];
            z[v] = acc;
        }
        rho = 0.0;
        for (m = comp; m; m &= m - 1)
            rho += x[CTZ64(m)] * z[CTZ64(m)];
        resid = 0.0;
        for (m = comp; m; m &= m - 1) {
            v = CTZ64(m);
            d = fabs(z[v] - rho * x[v]);
            if (d > resid)
                resid = d;
        }
        bound = rho < 1.0 ? 1.0 : rho;
        converged = resid <= tol * bound;
        /* the bracket of this x, where the loop may stop: z is y below */
        if (converged || decide || it == max_iter) {
            bracket(comp, z, x, rel, &lower, &upper);
            if (converged || lower > t || upper < t)
                break;
        }
        norm = 0.0;
        for (m = comp; m; m &= m - 1) {
            v = CTZ64(m);
            z[v] += x[v];
            norm += z[v] * z[v];
        }
        norm = sqrt(norm);
        for (m = comp; m; m &= m - 1)
            x[CTZ64(m)] = z[CTZ64(m)] / norm;
    }
    xs = vector_to_list(x, n);
    if (xs == NULL)
        return NULL;
    if (it > max_iter)
        it = max_iter;
    return Py_BuildValue("dNldOdd", rho, xs, it, resid, converged ? Py_True : Py_False,
                         lower, upper);
}

static PyMethodDef kernel_methods[] = {
    {"components_masks", (PyCFunction)(void (*)(void))components_masks, METH_FASTCALL,
     "components_masks(adj, n, removed=0, /)\n--\n\n"
     "Component bitmasks of the graph minus `removed`, lowest vertex first."},
    {"min_cut_search", (PyCFunction)(void (*)(void))min_cut_search, METH_FASTCALL,
     "min_cut_search(adj, n, g, r, mode, /)\n--\n\n"
     "First valid cut of least size in lexicographic order, or -1."},
    {"min_cut_search_many", (PyCFunction)(void (*)(void))min_cut_search_many, METH_FASTCALL,
     "min_cut_search_many(adjs, n, g, r, mode, /)\n--\n\n"
     "[min_cut_search(adj, n, g, r, mode) for adj in adjs]."},
    {"power_iteration", (PyCFunction)(void (*)(void))power_iteration, METH_FASTCALL,
     "power_iteration(adj, n, comp_mask, tol, max_iter, threshold, /)\n--\n\n"
     "(rho, x, iterations, residual, converged, lower, upper) for one\n"
     "component; x holds n floats indexed by vertex, 0.0 off the component,\n"
     "and [lower, upper] is its Collatz-Wielandt bracket. A threshold other\n"
     "than NaN stops at the first bracket that excludes it."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "specconn._kernels",
    "Compiled hot loops; the same positional-only contract as specconn._kernels_py.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
        || PyModule_AddIntConstant(m, "SEARCH_MAX_N", SEARCH_MAX_N) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
