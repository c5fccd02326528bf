/* Native step interpreter of the ``c`` execution backend.
 *
 * One fixed translation unit serves every plan.  The packer in
 * repro/runtime/backends/cemit.py turns each frozen execution plan into a
 * step record once per variant, at plan-compile time.  run() binds the
 * record's sizes from the operands' shapes, allocates one workspace,
 * releases the GIL and walks the steps, calling BLAS/LAPACK through the
 * function pointers init() receives once per process (harvested from
 * scipy's cython_blas / cython_lapack capsules).
 *
 * run(plans, pool, snapshot, log, operands, out)
 *
 *   plans is one record, or a plan table that maps a shape key -- the
 *   (rows, cols) of every operand as native int64s, in bytes -- to (memo
 *   entry, record).  run() takes each operand's buffer, binds the record's
 *   sizes from their shapes and replays it into out when out conforms: a
 *   2-D float64 C-contiguous writeable array of exactly the result shape
 *   whose address range overlaps no operand's (the final step may write
 *   while it still reads an input; this is np.may_share_memory's bounds
 *   test).  It returns None, running nothing, for operands that are not
 *   C-contiguous float64 matrices, whose shapes do not bind, or whose
 *   shape key is not in the table.
 *
 *   With a record (pool, snapshot and log None), this is one plan's replay
 *   (cemit.NativePlan): a non-conforming out gets a fresh array instead,
 *   which run() returns.
 *
 *   With a plan table, it is a dispatcher's whole warm call.  run()
 *   declines (None) unless the variant list pool still holds exactly the
 *   snapshot tuple's variants, tracing is off (the "_enabled" flag of
 *   repro.obs.trace) and out is None or conforms; a full log declines
 *   with False, asking the caller to drain it.  A warm call sets the
 *   entry's CLOCK bit ("referenced"), appends (end stamp, elapsed
 *   seconds) to the log bytearray and returns (entry, result, elapsed).
 *   The caller's Python path handles whatever run() declines, and so owns
 *   every message about bad operands; its memo is the source of truth,
 *   and it changes plans under its lock whenever the memo changes.
 *
 * Record: a bytes object of int64 fields in native byte order, packed once
 * per variant (no field depends on the sizes):
 *
 *   header   n_inputs, n_steps, out_rows, out_cols
 *   shapes   rows, cols of every operand's stored (C-ordered) array
 *   steps    n_steps step_t records
 *
 * The shapes and out_rows, out_cols index the size vector q; a square
 * operand names one entry twice, so bind() checks what size inference
 * does by declining unless each entry binds to one size.  A step's m, n,
 * k, lda, ldb, ldc are size refs: i << 1 is q[i], i << 1 | 1 is q[i] + 1.
 *
 * Every buffer is read Fortran-contiguously: a C-ordered (r, c) array is
 * the F-ordered (c, r) buffer of its transpose, and the packer has already
 * folded that into each step's flags and leading dimensions.  A buffer
 * reference is (index << 2) | kind, where kind names an operand (index =
 * operand position), an intermediate (index = the step that writes it;
 * bind() lays them out in one workspace and rewrites the index to the
 * offset in doubles) or the output array.
 *
 * Step fields per opcode, as bound (unlisted fields are unused):
 *
 *   GEMM        c := op_f0(a) op_f1(b), c is m x n, inner dimension k
 *   SYMM        c := a b (f0 = 'L') or b a (f0 = 'R'), a symmetric,
 *               stored triangle f1; b and c are m x n
 *   TRMM/TRSM   c := b, then c := op_f2(a) c or c op_f2(a) (side f0),
 *               inverted for TRSM; a triangular with triangle f1
 *   ROW_SCALE   c[i, j] := a[i * lda] * b[i, j]   (a diagonal, b m x n)
 *   COL_SCALE   c[i, j] := a[j * lda] * b[i, j]
 *   ROW_DIV     c[i, j] := b[i, j] / a[i * lda]   (a diagonal, b m x n; a
 *   COL_DIV     c[i, j] := b[i, j] / a[j * lda]    zero a entry fails the
 *               step, info = its position + 1)
 *   DIAG_DIAG   c := diag(a[k * lda] * b[k * ldb]), c is m x m
 *   POSV/SYSV/  w0 := a (the m x m coefficient, so operands are never
 *   GESV        factored), c := b (f2 = 'N') or b^T (f2 = 'T', b has
 *               leading dimension ldb), then solve in place: c is ldc x n.
 *               SYSV pivots in w1, works in w2 (lwork k, packed as
 *               lwork per row); GESV pivots in w1 and solves with trans
 *               f0.  bind() sets the workspace offsets w0..w2.
 *   STORE_T     c := transpose of a (a has leading dimension lda), c is
 *               m x n
 */
/* A release build, as CPython builds extensions: no API debug asserts. */
#define NDEBUG
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef void (*dgemm_fn)(char*, char*, int*, int*, int*, double*, double*,
                         int*, double*, int*, double*, double*, int*);
typedef void (*dsymm_fn)(char*, char*, int*, int*, double*, double*, int*,
                         double*, int*, double*, double*, int*);
typedef void (*dtrxm_fn)(char*, char*, char*, char*, int*, int*, double*,
                         double*, int*, double*, int*);
typedef void (*dposv_fn)(char*, int*, int*, double*, int*, double*, int*,
                         int*);
typedef void (*dsysv_fn)(char*, int*, int*, double*, int*, int*, double*,
                         int*, double*, int*, int*);
typedef void (*dgetrf_fn)(int*, int*, double*, int*, int*, int*);
typedef void (*dgetrs_fn)(char*, int*, int*, double*, int*, int*, double*,
                          int*, int*);

/* Assigned by init() in the order of cemit._ROUTINES. */
static dgemm_fn p_dgemm;
static dsymm_fn p_dsymm;
static dtrxm_fn p_dtrmm;
static dtrxm_fn p_dtrsm;
static dposv_fn p_dposv;
static dsysv_fn p_dsysv;
static dgetrf_fn p_dgetrf;
static dgetrs_fn p_dgetrs;
#define N_ROUTINES 8

/* Also passed to init(): repro.errors.ExecutionError, numpy.empty, the
 * float64 dtype, and the globals of repro.obs.trace (its "_enabled" flag). */
static PyObject *execution_error, *empty_fn, *float64, *trace_state;
static PyObject *str_enabled, *str_referenced;

/* Operands of the longest chain run() serves (cemit.MAX_OPERANDS), which
 * also bounds a record's steps (one per product, plus a store pass), and
 * the warm calls it logs between two drains of a log. */
#define MAX_OPERANDS 64
#define LOG_HITS 256

enum { H_NINPUTS, H_NSTEPS, H_OUT_ROWS, H_OUT_COLS, H_LEN };
enum { REF_INPUT, REF_WS, REF_OUT };
enum {
    OP_GEMM = 1, OP_SYMM, OP_TRMM, OP_TRSM, OP_ROW_SCALE, OP_COL_SCALE,
    OP_DIAG_DIAG, OP_POSV, OP_SYSV, OP_GESV, OP_STORE_T, OP_ROW_DIV,
    OP_COL_DIV
};

typedef struct {
    int64_t op;
    int64_t f0, f1, f2;
    int64_t m, n, k;
    int64_t a, lda;
    int64_t b, ldb;
    int64_t c, ldc;
    int64_t w0, w1, w2;
} step_t;

/* Why the walk stopped early: the failing step, routine and LAPACK info. */
typedef struct {
    Py_ssize_t step;
    const char *routine;
    int info;
} failure_t;

static double *
resolve(int64_t ref, double *const *in, double *ws, double *out)
{
    switch (ref & 3) {
    case REF_INPUT: return in[ref >> 2];
    case REF_WS: return ws + (ref >> 2);
    default: return out;
    }
}

/* dst (rows x cols) := transpose of src (leading dimension src_ld). */
static void
transpose_copy(double *dst, const double *src, int rows, int cols, int src_ld)
{
    int i, j;
    for (j = 0; j < cols; j++)
        for (i = 0; i < rows; i++)
            dst[i + (size_t)j * rows] = src[j + (size_t)i * src_ld];
}

static void
copy(double *dst, const double *src, size_t doubles)
{
    memcpy(dst, src, doubles * sizeof(double));
}

/* Solve steps: factor a workspace copy of the coefficient, solve into c. */
static int
solve(const step_t *s, double *a, double *b, double *c, double *ws,
      failure_t *fail)
{
    char uplo = (char)s->f1, trans = (char)s->f0;
    int n = (int)s->m, nrhs = (int)s->n, ldb = (int)s->ldc;
    int lwork = (int)s->k, info = 0;
    double *acopy = ws + s->w0;
    int *ipiv = (int *)(ws + s->w1);
    copy(acopy, a, (size_t)n * n);
    if (s->f2 == 'T')
        transpose_copy(c, b, ldb, nrhs, (int)s->ldb);
    else
        copy(c, b, (size_t)ldb * nrhs);
    switch (s->op) {
    case OP_POSV:
        fail->routine = "dposv";
        p_dposv(&uplo, &n, &nrhs, acopy, &n, c, &ldb, &info);
        break;
    case OP_SYSV:
        fail->routine = "dsysv";
        p_dsysv(&uplo, &n, &nrhs, acopy, &n, ipiv, c, &ldb,
                ws + s->w2, &lwork, &info);
        break;
    default:
        fail->routine = "dgetrf";
        p_dgetrf(&n, &n, acopy, &n, ipiv, &info);
        if (info == 0) {
            fail->routine = "dgetrs";
            p_dgetrs(&trans, &n, &nrhs, acopy, &n, ipiv, c, &ldb, &info);
        }
    }
    fail->info = info;
    return info == 0 ? 0 : -1;
}

/* Diagonal solves: c := b with each row (or column) divided by the
 * matching entry of the diagonal a.  Divides rather than multiplying by
 * reciprocals, so results match numpy's elementwise division bit for bit. */
static int
divide(const step_t *s, const double *a, const double *b, double *c,
       failure_t *fail)
{
    int m = (int)s->m, n = (int)s->n, p, q;
    int rows = s->op == OP_ROW_DIV;
    size_t lda = (size_t)s->lda;
    for (p = 0; p < (rows ? m : n); p++) {
        if (a[p * lda] == 0.0) {
            fail->routine = "diagonal solve";
            fail->info = p + 1;
            return -1;
        }
    }
    for (q = 0; q < n; q++) {
        if (rows) {
            for (p = 0; p < m; p++)
                c[p + (size_t)q * m] = b[p + (size_t)q * m] / a[p * lda];
        }
        else {
            double d = a[q * lda];
            for (p = 0; p < m; p++)
                c[p + (size_t)q * m] = b[p + (size_t)q * m] / d;
        }
    }
    return 0;
}

/* Walk the steps; runs without the GIL.  0, or -1 with *fail filled in. */
static int
walk(const step_t *steps, Py_ssize_t n_steps, double *const *in, double *ws,
     double *out, failure_t *fail)
{
    double one = 1.0, zero = 0.0;
    Py_ssize_t i;
    for (i = 0; i < n_steps; i++) {
        const step_t *s = &steps[i];
        double *a = resolve(s->a, in, ws, out);
        double *b = resolve(s->b, in, ws, out);
        double *c = resolve(s->c, in, ws, out);
        char f0 = (char)s->f0, f1 = (char)s->f1, f2 = (char)s->f2;
        char unit = 'N';
        int m = (int)s->m, n = (int)s->n, k = (int)s->k;
        int lda = (int)s->lda, ldb = (int)s->ldb, ldc = (int)s->ldc;
        int p, q;
        fail->step = i;
        switch (s->op) {
        case OP_GEMM:
            p_dgemm(&f0, &f1, &m, &n, &k, &one, a, &lda, b, &ldb, &zero, c,
                    &ldc);
            break;
        case OP_SYMM:
            p_dsymm(&f0, &f1, &m, &n, &one, a, &lda, b, &ldb, &zero, c, &ldc);
            break;
        case OP_TRMM:
        case OP_TRSM:
            /* Both routines work in place: the operand buffers must
             * survive the call, so they run on the output's own copy. */
            copy(c, b, (size_t)m * n);
            (s->op == OP_TRMM ? p_dtrmm : p_dtrsm)(
                &f0, &f1, &f2, &unit, &m, &n, &one, a, &lda, c, &ldc);
            break;
        case OP_ROW_SCALE:
            for (q = 0; q < n; q++)
                for (p = 0; p < m; p++)
                    c[p + (size_t)q * m] =
                        a[(size_t)p * lda] * b[p + (size_t)q * m];
            break;
        case OP_COL_SCALE:
            for (q = 0; q < n; q++) {
                double scale = a[(size_t)q * lda];
                for (p = 0; p < m; p++)
                    c[p + (size_t)q * m] = scale * b[p + (size_t)q * m];
            }
            break;
        case OP_DIAG_DIAG:
            memset(c, 0, (size_t)m * m * sizeof(double));
            for (p = 0; p < m; p++)
                c[(size_t)p * (m + 1)] =
                    a[(size_t)p * lda] * b[(size_t)p * ldb];
            break;
        case OP_POSV:
        case OP_SYSV:
        case OP_GESV:
            if (solve(s, a, b, c, ws, fail) < 0)
                return -1;
            break;
        case OP_STORE_T:
            transpose_copy(c, a, m, n, lda);
            break;
        case OP_ROW_DIV:
        case OP_COL_DIV:
            if (divide(s, a, b, c, fail) < 0)
                return -1;
            break;
        default:
            fail->routine = "an unknown opcode";
            fail->info = (int)s->op;
            return -1;
        }
    }
    return 0;
}

/* Monotonic seconds: the clock time.perf_counter reads on Linux. */
static double
now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static int
is_f64_matrix(const Py_buffer *view)
{
    return view->ndim == 2 && view->itemsize == 8 && view->format != NULL
           && strcmp(view->format, "d") == 0
           && PyBuffer_IsContiguous(view, 'C');
}

static void
release(Py_buffer *views, Py_ssize_t held)
{
    while (held > 0)
        PyBuffer_Release(&views[--held]);
}

/* Hold the buffers of the n operands (a list or tuple) in views, their
 * addresses in in and their (rows, cols) in shapes: 1 if each is a
 * C-contiguous float64 matrix, else 0 with nothing held and no error set. */
static int
take_operands(PyObject *operands, Py_ssize_t n, Py_buffer *views,
              double **in, int64_t *shapes)
{
    Py_ssize_t held;
    if (!(PyTuple_Check(operands) || PyList_Check(operands)))
        return 0;
    for (held = 0; held < n; held++) {
        Py_buffer *view = &views[held];
        if (PySequence_Fast_GET_SIZE(operands) != n)
            break;
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(operands, held), view,
                               PyBUF_RECORDS_RO) < 0) {
            PyErr_Clear();
            break;
        }
        if (!is_f64_matrix(view)) {
            PyBuffer_Release(view);
            break;
        }
        shapes[2 * held] = view->shape[0];
        shapes[2 * held + 1] = view->shape[1];
        in[held] = (double *)view->buf;
    }
    if (held == n && PySequence_Fast_GET_SIZE(operands) == n)
        return 1;
    release(views, held);
    return 0;
}

/* Hold out's buffer in *view if out conforms to a rows x cols result of the
 * n operands in (see the header): 1 if it does, else 0 with nothing held
 * and no error set. */
static int
conforming_out(PyObject *out, int64_t rows, int64_t cols,
               const Py_buffer *in, Py_ssize_t n, Py_buffer *view)
{
    const char *lo, *hi;
    Py_ssize_t i;
    if (out == Py_None)
        return 0;
    if (PyObject_GetBuffer(out, view, PyBUF_RECORDS) < 0) {
        PyErr_Clear();  /* read-only, or no buffer at all */
        return 0;
    }
    lo = (const char *)view->buf;
    hi = lo + view->len;
    if (!is_f64_matrix(view) || view->shape[0] != rows
        || view->shape[1] != cols)
        goto reject;
    for (i = 0; i < n; i++) {
        const char *start = (const char *)in[i].buf;
        if (lo < start + in[i].len && start < hi)
            goto reject;
    }
    return 1;
reject:
    PyBuffer_Release(view);
    return 0;
}

/* The int64 fields of a well-formed step record, or NULL with an error. */
static const int64_t *
record_fields(PyObject *record)
{
    const int64_t *head;
    Py_ssize_t size, n_inputs, n_steps;
    if (!PyBytes_Check(record)) {
        PyErr_SetString(PyExc_TypeError, "expected a step record");
        return NULL;
    }
    head = (const int64_t *)PyBytes_AS_STRING(record);
    size = PyBytes_GET_SIZE(record);
    if (size < (Py_ssize_t)(H_LEN * sizeof(int64_t))) {
        PyErr_SetString(PyExc_ValueError, "truncated step record");
        return NULL;
    }
    n_inputs = (Py_ssize_t)head[H_NINPUTS];
    n_steps = (Py_ssize_t)head[H_NSTEPS];
    if (n_inputs < 1 || n_steps < 1 || n_steps > MAX_OPERANDS
        || size != (Py_ssize_t)((H_LEN + 2 * n_inputs) * sizeof(int64_t)
                                + n_steps * sizeof(step_t))) {
        PyErr_SetString(PyExc_ValueError, "malformed step record");
        return NULL;
    }
    return head;
}

/* The value of a size ref (see the header) under the sizes q. */
static int64_t
size_of(int64_t ref, const int64_t *q)
{
    return q[ref >> 1] + (ref & 1);
}

/* Bind a record to the stored shapes of its operands (see the header):
 * derive q, then copy the steps to bound with their sizes and workspace
 * offsets resolved.  The workspace doubles, with the result shape in
 * *rows, *cols; -1 when the shapes do not bind. */
static int64_t
bind(const int64_t *head, const int64_t *shapes, step_t *bound,
     int64_t *rows, int64_t *cols)
{
    Py_ssize_t n = (Py_ssize_t)head[H_NINPUTS], i;
    const int64_t *at = head + H_LEN;
    const step_t *steps = (const step_t *)(at + 2 * n);
    int64_t q[MAX_OPERANDS + 1] = {0}, offset[MAX_OPERANDS], ws = 0;
    int solve;
    for (i = 0; i < 2 * n; i++) {
        if (shapes[i] < 1 || (q[at[i]] && q[at[i]] != shapes[i]))
            return -1;
        q[at[i]] = shapes[i];
    }
    *rows = q[head[H_OUT_ROWS]];
    *cols = q[head[H_OUT_COLS]];
    for (i = 0; i < head[H_NSTEPS]; i++) {
        step_t *s = &bound[i];
        *s = steps[i];
        s->m = size_of(s->m, q);
        s->n = size_of(s->n, q);
        s->k = s->op == OP_SYSV ? s->k * s->m : size_of(s->k, q);
        s->lda = size_of(s->lda, q);
        s->ldb = size_of(s->ldb, q);
        s->ldc = size_of(s->ldc, q);
        if ((s->a & 3) == REF_WS)
            s->a = offset[s->a >> 2] << 2 | REF_WS;
        if ((s->b & 3) == REF_WS)
            s->b = offset[s->b >> 2] << 2 | REF_WS;
        solve = s->op == OP_POSV || s->op == OP_SYSV || s->op == OP_GESV;
        if (solve) {
            /* The factor copy, the pivots (two ints per double) and
             * dsysv's workspace, ahead of the solution. */
            s->w0 = ws;
            s->w1 = ws += s->m * s->m;
            s->w2 = ws += s->op == OP_POSV ? 0 : (s->m + 1) / 2;
            ws += s->op == OP_SYSV ? s->k : 0;
        }
        if ((s->c & 3) == REF_WS) {
            offset[i] = ws;
            s->c = ws << 2 | REF_WS;
            ws += solve ? s->ldc * s->n
                  : s->op == OP_DIAG_DIAG ? s->m * s->m : s->m * s->n;
        }
    }
    return ws;
}

/* Replay a record over the n held operands, their stored shapes in shapes,
 * into out when it conforms; else, when out is None or fresh is set, into
 * a fresh numpy.empty(shape) (the caller copies it where it wants it).
 * The array written; Py_None for shapes that do not bind, or a
 * non-conforming out without fresh; NULL on error. */
static PyObject *
execute(const int64_t *head, const int64_t *shapes, Py_buffer *views,
        double *const *in, Py_ssize_t n, PyObject *out, int fresh)
{
    step_t bound[MAX_OPERANDS];
    failure_t fail = {0, NULL, 0};
    Py_buffer view;
    double *ws = NULL;
    int64_t rows, cols, doubles;
    int status;
    doubles = bind(head, shapes, bound, &rows, &cols);
    if (doubles < 0)
        Py_RETURN_NONE;
    if (conforming_out(out, rows, cols, views, n, &view))
        Py_INCREF(out);
    else if (out != Py_None && !fresh)
        Py_RETURN_NONE;
    else {
        PyObject *r = PyLong_FromLongLong(rows), *c = PyLong_FromLongLong(cols);
        PyObject *args[2] = {r && c ? PyTuple_Pack(2, r, c) : NULL, float64};
        Py_XDECREF(r);
        Py_XDECREF(c);
        out = args[0] ? PyObject_Vectorcall(empty_fn, args, 2, NULL) : NULL;
        Py_XDECREF(args[0]);
        if (out == NULL)
            return NULL;
        if (PyObject_GetBuffer(out, &view, PyBUF_RECORDS) < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    if (doubles > 0) {
        ws = (double *)malloc((size_t)doubles * sizeof(double));
        if (ws == NULL) {
            PyErr_NoMemory();
            status = -1;
            goto done;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    status = walk(bound, (Py_ssize_t)head[H_NSTEPS], in, ws,
                  (double *)view.buf, &fail);
    Py_END_ALLOW_THREADS
    free(ws);
    if (status < 0)
        PyErr_Format(execution_error, "plan step %zd: %s failed (info=%d)",
                     fail.step, fail.routine, fail.info);
done:
    PyBuffer_Release(&view);
    if (status < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
interp_init(PyObject *self, PyObject *args)
{
    PyObject *addrs, *error, *empty, *dtype, *trace;
    void **slots[N_ROUTINES] = {
        (void **)&p_dgemm, (void **)&p_dsymm, (void **)&p_dtrmm,
        (void **)&p_dtrsm, (void **)&p_dposv, (void **)&p_dsysv,
        (void **)&p_dgetrf, (void **)&p_dgetrs,
    };
    Py_ssize_t i;
    if (!PyArg_ParseTuple(args, "O!OOOO!", &PyTuple_Type, &addrs, &error,
                          &empty, &dtype, &PyDict_Type, &trace))
        return NULL;
    if (PyTuple_GET_SIZE(addrs) != N_ROUTINES) {
        PyErr_SetString(PyExc_TypeError,
                        "init expects a tuple of 8 routine addresses");
        return NULL;
    }
    for (i = 0; i < N_ROUTINES; i++) {
        void *address = PyLong_AsVoidPtr(PyTuple_GET_ITEM(addrs, i));
        if (address == NULL && PyErr_Occurred())
            return NULL;
        *slots[i] = address;
    }
    Py_XSETREF(empty_fn, Py_NewRef(empty));
    Py_XSETREF(float64, Py_NewRef(dtype));
    Py_XSETREF(trace_state, Py_NewRef(trace));
    Py_XSETREF(execution_error, Py_NewRef(error));
    Py_RETURN_NONE;
}

/* run(plans, pool, snapshot, log, operands, out): see the header. */
static PyObject *
interp_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *plans, *log, *state, *key, *plan, *result, *elapsed;
    PyObject *hit = NULL;
    Py_buffer views[MAX_OPERANDS];
    double *in[MAX_OPERANDS], stamps[2], start;
    int64_t shapes[2 * MAX_OPERANDS];
    const int64_t *head;
    Py_ssize_t n, i;

    if (execution_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "init() was not called");
        return NULL;
    }
    if (nargs != 6
        || !(args[3] == Py_None
                 ? PyBytes_Check(args[0])
                 : PyDict_Check(args[0]) && PyByteArray_Check(args[3])
                       && PyList_Check(args[1]) && PyTuple_Check(args[2]))) {
        PyErr_SetString(PyExc_TypeError, "run expects a record, or a plan "
                        "table, a variant list, its snapshot and a log; "
                        "then operands and out");
        return NULL;
    }
    plans = args[0];
    log = args[3];
    if (log != Py_None) {
        /* A warm call: decline unless the pool is still the snapshot
         * and tracing is off; a full log asks for a drain. */
        n = PyList_GET_SIZE(args[1]);
        if (n != PyTuple_GET_SIZE(args[2]))
            Py_RETURN_NONE;
        for (i = 0; i < n; i++)
            if (PyList_GET_ITEM(args[1], i) != PyTuple_GET_ITEM(args[2], i))
                Py_RETURN_NONE;
        state = PyDict_GetItemWithError(trace_state, str_enabled);
        if (state != Py_False) {
            if (state == NULL && PyErr_Occurred())
                return NULL;
            Py_RETURN_NONE;
        }
        if (PyByteArray_GET_SIZE(log) >= LOG_HITS * (Py_ssize_t)sizeof stamps)
            Py_RETURN_FALSE;
    }
    if (!(PyTuple_Check(args[4]) || PyList_Check(args[4])))
        Py_RETURN_NONE;
    n = PySequence_Fast_GET_SIZE(args[4]);
    if (n < 1 || n > MAX_OPERANDS
        || !take_operands(args[4], n, views, in, shapes))
        Py_RETURN_NONE;
    /* Own the plan: taking the output may run code that changes plans,
     * and the walk runs without the GIL. */
    if (log == Py_None)
        plan = Py_NewRef(plans);
    else {
        key = PyBytes_FromStringAndSize((const char *)shapes,
                                        2 * n * sizeof(int64_t));
        plan = key ? Py_XNewRef(PyDict_GetItemWithError(plans, key)) : NULL;
        Py_XDECREF(key);
        if (plan == NULL) {
            if (!PyErr_Occurred())
                hit = Py_NewRef(Py_None);
            release(views, n);
            return hit;
        }
    }
    if (log != Py_None
        && (!PyTuple_CheckExact(plan) || PyTuple_GET_SIZE(plan) != 2))
        PyErr_SetString(PyExc_TypeError, "a plan is (entry, record)");
    else if ((head = record_fields(log == Py_None
                                       ? plan
                                       : PyTuple_GET_ITEM(plan, 1))) == NULL)
        ;
    else if (head[H_NINPUTS] != n)
        PyErr_SetString(PyExc_ValueError, "a record of another chain");
    else if (log == Py_None)
        hit = execute(head, shapes, views, in, n, args[5], 1);
    else if (PyObject_SetAttr(PyTuple_GET_ITEM(plan, 0), str_referenced,
                              Py_True) == 0) {
        start = now();
        result = execute(head, shapes, views, in, n, args[5], 0);
        stamps[0] = now();
        stamps[1] = stamps[0] - start;
        if (result == NULL || result == Py_None)
            hit = result;
        else {
            /* Log (end stamp, elapsed seconds), then answer. */
            if (PyByteArray_Resize(log, PyByteArray_GET_SIZE(log)
                                   + sizeof stamps) == 0) {
                memcpy(PyByteArray_AS_STRING(log) + PyByteArray_GET_SIZE(log)
                       - sizeof stamps, stamps, sizeof stamps);
                if ((elapsed = PyFloat_FromDouble(stamps[1])) != NULL) {
                    hit = PyTuple_Pack(3, PyTuple_GET_ITEM(plan, 0), result,
                                       elapsed);
                    Py_DECREF(elapsed);
                }
            }
            Py_DECREF(result);
        }
    }
    release(views, n);
    Py_DECREF(plan);
    return hit;
}

static PyMethodDef interp_methods[] = {
    {"init", (PyCFunction)interp_init, METH_VARARGS,
     "init(addresses, execution_error, empty, float64, trace_globals)."},
    {"run", (PyCFunction)(void (*)(void))interp_run, METH_FASTCALL,
     "run(plans, pool, snapshot, log, operands, out): replay a plan."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef interp_module = {
    PyModuleDef_HEAD_INIT, "_step_interp", NULL, -1, interp_methods
};

PyMODINIT_FUNC
PyInit__step_interp(void)
{
    if (str_enabled == NULL
        && (str_enabled = PyUnicode_InternFromString("_enabled")) == NULL)
        return NULL;
    if (str_referenced == NULL
        && (str_referenced = PyUnicode_InternFromString("referenced")) == NULL)
        return NULL;
    return PyModule_Create(&interp_module);
}
