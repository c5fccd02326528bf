/* Native step interpreter of the ``c`` execution backend.
 *
 * One fixed translation unit serves every plan.  The packer in
 * repro/runtime/backends/cemit.py turns each frozen execution plan into a
 * step record once, at plan-compile time; run() checks the operands against
 * the record's header, allocates one workspace, releases the GIL and walks
 * the steps, calling BLAS/LAPACK through the function pointers init()
 * receives once per process (harvested from scipy's cython_blas /
 * cython_lapack capsules).
 *
 * Record: a bytes object of int64 fields in native byte order,
 *
 *   header   n_inputs, out_rows, out_cols, ws_doubles, n_steps
 *   shapes   rows, cols of every operand's stored (C-ordered) array
 *   steps    n_steps step_t records
 *
 * Every buffer is read Fortran-contiguously: a C-ordered (r, c) array is
 * the F-ordered (c, r) buffer of its transpose, and the packer has already
 * folded that into each step's flags and leading dimensions.  A buffer
 * reference is (index << 2) | kind, where kind names an operand (index =
 * operand position), the workspace (index = offset in doubles) or the
 * output array.
 *
 * Step fields per opcode (unlisted fields are zero):
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
 *               SYSV pivots in w1, works in w2 (lwork k); GESV pivots in
 *               w1 and solves with trans f0.  w0..w2 are workspace
 *               offsets in doubles, not buffer references.
 *   STORE_T     c := transpose of a (a has leading dimension lda), c is
 *               m x n
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* repro.errors.ExecutionError, also passed to init(). */
static PyObject *execution_error;

/* Chains up to this many operands keep their buffer views on the stack. */
#define STACK_OPERANDS 16

enum { H_NINPUTS, H_OUT_ROWS, H_OUT_COLS, H_WS, H_NSTEPS, H_LEN };
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

/* Get one operand's buffer and check it against the expected stored shape.
 * A wrong shape raises ExecutionError; a right-shaped array that is not
 * C-contiguous float64 raises BufferError, on which the caller retries
 * with contiguous float64 copies. */
static int
get_operand(PyObject *obj, Py_buffer *view, int writable, int64_t rows,
            int64_t cols, const char *what, Py_ssize_t index)
{
    int flags = writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 2 || view->shape[0] != rows || view->shape[1] != cols) {
        if (view->ndim == 2)
            PyErr_Format(execution_error,
                         "%s %zd: expected stored shape (%lld, %lld), "
                         "got (%zd, %zd)", what, index, (long long)rows,
                         (long long)cols, view->shape[0], view->shape[1]);
        else
            PyErr_Format(execution_error,
                         "%s %zd: expected stored shape (%lld, %lld), "
                         "got a %d-D array", what, index, (long long)rows,
                         (long long)cols, view->ndim);
        PyBuffer_Release(view);
        return -1;
    }
    if (view->itemsize != 8 || view->format == NULL
        || strcmp(view->format, "d") != 0
        || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_BufferError,
                     "%s %zd: not a C-contiguous float64 array", what, index);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
interp_init(PyObject *self, PyObject *args)
{
    PyObject *addrs, *error;
    void **slots[N_ROUTINES] = {
        (void **)&p_dgemm, (void **)&p_dsymm, (void **)&p_dtrmm,
        (void **)&p_dtrsm, (void **)&p_dposv, (void **)&p_dsysv,
        (void **)&p_dgetrf, (void **)&p_dgetrs,
    };
    Py_ssize_t i;
    if (!PyArg_ParseTuple(args, "O!O", &PyTuple_Type, &addrs, &error))
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
    Py_INCREF(error);
    Py_XSETREF(execution_error, error);
    Py_RETURN_NONE;
}

/* run(record, *operands, out): replay one plan into out. */
static PyObject *
interp_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int64_t *head, *shapes;
    const step_t *steps;
    Py_ssize_t n_inputs, n_steps, size, held = 0, i;
    Py_buffer stack_views[STACK_OPERANDS + 1], *views = NULL;
    double *stack_in[STACK_OPERANDS], **in = NULL, *ws = NULL;
    failure_t fail = {0, NULL, 0};
    PyObject *result = NULL;
    int status;

    if (execution_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "init() was not called");
        return NULL;
    }
    if (nargs < 1 || !PyBytes_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "run expects a step record first");
        return NULL;
    }
    head = (const int64_t *)PyBytes_AS_STRING(args[0]);
    size = PyBytes_GET_SIZE(args[0]);
    if (size < (Py_ssize_t)(H_LEN * sizeof(int64_t))) {
        PyErr_SetString(PyExc_ValueError, "truncated step record");
        return NULL;
    }
    n_inputs = (Py_ssize_t)head[H_NINPUTS];
    n_steps = (Py_ssize_t)head[H_NSTEPS];
    if (n_inputs < 1 || n_steps < 1
        || size != (Py_ssize_t)((H_LEN + 2 * n_inputs) * sizeof(int64_t)
                                + n_steps * sizeof(step_t))) {
        PyErr_SetString(PyExc_ValueError, "malformed step record");
        return NULL;
    }
    if (nargs != n_inputs + 2) {
        PyErr_Format(PyExc_TypeError,
                     "run expects the record, %zd operands and the output",
                     n_inputs);
        return NULL;
    }
    shapes = head + H_LEN;
    steps = (const step_t *)(shapes + 2 * n_inputs);

    if (n_inputs <= STACK_OPERANDS) {
        views = stack_views;
        in = stack_in;
    }
    else {
        views = PyMem_Malloc((n_inputs + 1) * sizeof(Py_buffer));
        in = PyMem_Malloc(n_inputs * sizeof(double *));
        if (views == NULL || in == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (; held < n_inputs; held++) {
        if (get_operand(args[1 + held], &views[held], 0, shapes[2 * held],
                        shapes[2 * held + 1], "operand", held) < 0)
            goto done;
        in[held] = (double *)views[held].buf;
    }
    if (get_operand(args[1 + n_inputs], &views[n_inputs], 1,
                    head[H_OUT_ROWS], head[H_OUT_COLS], "output", 0) < 0)
        goto done;
    held++;
    if (head[H_WS] > 0) {
        ws = (double *)malloc((size_t)head[H_WS] * sizeof(double));
        if (ws == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    status = walk(steps, n_steps, in, ws, (double *)views[n_inputs].buf,
                  &fail);
    Py_END_ALLOW_THREADS
    if (status < 0)
        PyErr_Format(execution_error, "plan step %zd: %s failed (info=%d)",
                     fail.step, fail.routine, fail.info);
    else
        result = Py_NewRef(Py_None);

done:
    free(ws);
    for (i = 0; i < held; i++)
        PyBuffer_Release(&views[i]);
    if (views != stack_views) {
        PyMem_Free(views);
        PyMem_Free(in);
    }
    return result;
}

static PyMethodDef interp_methods[] = {
    {"init", (PyCFunction)interp_init, METH_VARARGS,
     "init(addresses, execution_error): routine pointers, error class."},
    {"run", (PyCFunction)(void (*)(void))interp_run, METH_FASTCALL,
     "run(record, *operands, out): replay one packed plan into out."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef interp_module = {
    PyModuleDef_HEAD_INIT, "_step_interp", NULL, -1, interp_methods
};

PyMODINIT_FUNC
PyInit__step_interp(void)
{
    return PyModule_Create(&interp_module);
}
