/* Compiled register-file kernel: the twin of _pykernel.py, written against
 * the CPython C API. It has the same names and arguments, returns
 * bit-identical hashes and estimates, and raises the same exception type for
 * every bad argument (_pykernel's docstring states the policy). check_element
 * holds the one element rule for insert, insert_many, scan and witness:
 * insert_many checks every element before it changes a register. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

typedef unsigned long long u64;
typedef unsigned __int128 u128;

#define P1 0x9E3779B185EBCA87ULL
#define P2 0xC2B2AE3D27D4EB4FULL
#define P3 0x165667B19E3779F9ULL
#define P4 0x85EBCA77C2B2AE63ULL
#define P5 0x27D4EB2F165667C5ULL

/* 2**-63 is an exact double, so scaling Z_scaled by it rounds only once. */
#define Z_SCALE 0x1p-63

static inline u64 rotl(u64 x, int r) { return (x << r) | (x >> (64 - r)); }

static inline u64 splitmix(u64 x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static inline u64 hash(const unsigned char *p, Py_ssize_t n, u64 salt) {
    u64 acc = salt * P1 + (u64)n * P5 + P4, w;
    for (; n >= 8; p += 8, n -= 8) {
        memcpy(&w, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w);
#endif
        acc = rotl(acc ^ (w * P2), 31) * P1 + P4;
    }
    if (n) {
        w = 0;
        for (int j = 0; j < n; j++) w |= (u64)p[j] << (8 * j);
        acc = rotl(acc ^ (w * P3), 27) * P2 + P5;
    }
    acc ^= acc >> 33;
    acc *= 0xFF51AFD7ED558CCDULL;
    acc ^= acc >> 33;
    acc *= 0xC4CEB9FE1A85EC53ULL;
    return acc ^ (acc >> 33);
}

/* -- argument conversions ------------------------------------------------ */
static int wrong_type(const char *expected, PyObject *o) {
    PyErr_Format(PyExc_TypeError, "expected %s, got %.100s", expected, Py_TYPE(o)->tp_name);
    return -1;
}

static int expect_bytes(PyObject *o) { return PyBytes_CheckExact(o) ? 0 : wrong_type("bytes", o); }

static int as_u64(PyObject *o, u64 *out) {
    if (!PyLong_Check(o)) return wrong_type("int", o);
    *out = PyLong_AsUnsignedLongLongMask(o);
    return 0;
}

/* Fill out[] from a vectorcall's positional and keyword arguments, in the
 * order of names (NULL-terminated); the first nreq are required. */
static int parse(const char *sig, const char *const *names, int nreq, PyObject *const *args,
                 Py_ssize_t nargs, PyObject *kwnames, PyObject **out) {
    int n = 0, ok = 1;
    while (names[n]) n++;
    for (int i = 0; i < n; i++) out[i] = i < nargs ? args[i] : NULL;
    for (Py_ssize_t j = 0; ok && kwnames && j < PyTuple_GET_SIZE(kwnames); j++) {
        int i = 0;
        while (i < n && PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(kwnames, j), names[i]))
            i++;
        if ((ok = i < n && !out[i])) out[i] = args[nargs + j];
    }
    for (int i = 0; i < nreq; i++) ok = ok && out[i];
    if (ok && nargs <= n) return 0;
    PyErr_Format(PyExc_TypeError, "arguments do not match %s", sig);
    return -1;
}

#define FASTCALL_ARGS PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames
#define PARSE(sig, nreq, out, ...) \
    parse(sig, (const char *const[]){__VA_ARGS__, NULL}, nreq, args, nargs, kwnames, out)

/* -- module functions ---------------------------------------------------- */
static PyObject *py_hash64(PyObject *module, FASTCALL_ARGS) {
    PyObject *a[2];
    u64 salt = 0;
    if (PARSE("hash64(data, salt=0)", 1, a, "data", "salt") < 0) return NULL;
    if (expect_bytes(a[0]) < 0 || (a[1] && as_u64(a[1], &salt) < 0)) return NULL;
    const unsigned char *p = (const unsigned char *)PyBytes_AS_STRING(a[0]);
    return PyLong_FromUnsignedLongLong(hash(p, PyBytes_GET_SIZE(a[0]), salt));
}

/* The 16 hex digits of a stream element, splitmix64 input x. */
static void stream_hex(char *buf, u64 x) {
    static const char hex[] = "0123456789abcdef";
    x = splitmix(x);
    for (int j = 15; j >= 0; j--, x >>= 4) buf[j] = hex[x & 15];
}

/* Element k of the stream whose seed splitmix64 mixed to base. */
static PyObject *stream_bytes(u64 base, u64 k) {
    char buf[16];
    stream_hex(buf, base + k);
    return PyBytes_FromStringAndSize(buf, 16);
}

static PyObject *py_stream_element(PyObject *module, FASTCALL_ARGS) {
    PyObject *a[2];
    u64 seed, k;
    if (PARSE("stream_element(seed, k)", 2, a, "seed", "k") < 0) return NULL;
    if (as_u64(a[0], &seed) < 0 || as_u64(a[1], &k) < 0) return NULL;
    return stream_bytes(splitmix(seed), k);
}

/* Check a stream's seed, start and count, the first three of a[]; set the
 * splitmix64 input of its first element and its count. */
static int stream_args(PyObject **a, u64 *first, Py_ssize_t *count) {
    u64 seed, start;
    if (as_u64(a[0], &seed) < 0 || as_u64(a[1], &start) < 0) return -1;
    if (!PyLong_Check(a[2])) return wrong_type("int", a[2]);
    if ((*count = PyLong_AsSsize_t(a[2])) == -1 && PyErr_Occurred()) return -1;
    if (*count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must not be negative");
        return -1;
    }
    *first = splitmix(seed) + start;
    return 0;
}

static PyObject *py_stream_elements(PyObject *module, FASTCALL_ARGS) {
    PyObject *a[3], *out, *element;
    u64 first;
    Py_ssize_t count;
    if (PARSE("stream_elements(seed, start, count)", 3, a, "seed", "start", "count") < 0)
        return NULL;
    if (stream_args(a, &first, &count) < 0 || !(out = PyList_New(count))) return NULL;
    for (Py_ssize_t j = 0; j < count; j++) {
        if (!(element = stream_bytes(first, (u64)j))) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, j, element);
    }
    return out;
}

/* -- RegisterFile -------------------------------------------------------- */
typedef struct {
    PyObject_HEAD
    Py_ssize_t count; /* R */
    int bits, max_reg;
    u64 salt;
    double switch_factor, alpha_r2;
    unsigned char *regs;
    Py_ssize_t zero; /* registers holding 0 */
    u128 zs;         /* Z_scaled = sum(2**(63 - r_i)) */
} RegisterFile;

static PyObject *rf_reset(RegisterFile *self, PyObject *unused) {
    memset(self->regs, 0, self->count);
    self->zero = self->count;
    self->zs = (u128)self->count << 63;
    Py_RETURN_NONE;
}

static PyObject *rf_new(PyTypeObject *type, PyObject *args, PyObject *kw) {
    static char *names[] = {"register_count", "register_width", "salt", "alpha",
                            "switch_factor", NULL};
    Py_ssize_t count;
    int width;
    u64 salt;
    double alpha, switch_factor;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "niKdd:RegisterFile", names, &count, &width,
                                     &salt, &alpha, &switch_factor))
        return NULL;
    if (count < 1 || count & (count - 1))
        return PyErr_Format(PyExc_ValueError, "register_count must be a power of two");
    if (width < 0) return PyErr_Format(PyExc_ValueError, "negative shift count");
    RegisterFile *self = (RegisterFile *)type->tp_alloc(type, 0);
    if (!self) return NULL;
    if (!(self->regs = PyMem_Malloc(count))) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->count = count;
    self->salt = salt;
    self->bits = 63 - __builtin_clzll((u64)count);
    /* Ranks above 63 cannot occur from a 64-bit hash; Z_scaled relies on that. */
    self->max_reg = width >= 6 ? 63 : (1 << width) - 1;
    self->switch_factor = switch_factor;
    self->alpha_r2 = alpha * (double)count * (double)count;
    Py_DECREF(rf_reset(self, NULL)); /* drops the None it returns */
    return (PyObject *)self;
}

static void rf_dealloc(RegisterFile *self) {
    PyTypeObject *type = Py_TYPE(self);
    PyMem_Free(self->regs);
    type->tp_free(self);
    Py_DECREF(type);
}

/* The (register index, rank) pair a 64-bit hash selects. */
static void split_hash(RegisterFile *self, u64 h, Py_ssize_t *index, int *rank) {
    u64 g = h >> self->bits;
    int r = 65 - self->bits - (g ? 64 - __builtin_clzll(g) : 0);
    *rank = r > self->max_reg ? self->max_reg : r;
    *index = (Py_ssize_t)(h & (u64)(self->count - 1));
}

/* Refuse an element that is not a non-empty bytes: the element rule. */
static int check_element(PyObject *element) {
    if (expect_bytes(element) < 0) return -1;
    if (PyBytes_GET_SIZE(element)) return 0;
    PyErr_SetString(PyExc_ValueError, "element must be non-empty");
    return -1;
}

/* The (register index, rank) pair an element selects, under the element rule. */
static int split(RegisterFile *self, PyObject *element, Py_ssize_t *index, int *rank) {
    if (check_element(element) < 0) return -1;
    const unsigned char *p = (const unsigned char *)PyBytes_AS_STRING(element);
    split_hash(self, hash(p, PyBytes_GET_SIZE(element), self->salt), index, rank);
    return 0;
}

/* Raise a register to rank if that is higher; return the increment. */
static int raise_to(RegisterFile *self, Py_ssize_t index, int rank) {
    int old = self->regs[index];
    if (rank <= old) return 0;
    self->regs[index] = (unsigned char)rank;
    self->zero -= old == 0;
    self->zs -= ((u128)1 << (63 - old)) - ((u128)1 << (63 - rank));
    return rank - old;
}

static PyObject *rf_insert(RegisterFile *self, FASTCALL_ARGS) {
    PyObject *a[1];
    Py_ssize_t index;
    int rank;
    if (PARSE("insert(element)", 1, a, "element") < 0) return NULL;
    if (split(self, a[0], &index, &rank) < 0) return NULL;
    return PyLong_FromLong(raise_to(self, index, rank));
}

/* Checks every element before it inserts any, so a refusal changes nothing. */
static PyObject *rf_insert_many(RegisterFile *self, FASTCALL_ARGS) {
    PyObject *a[1], *seq;
    Py_ssize_t index, changed = 0;
    int rank;
    if (PARSE("insert_many(elements)", 1, a, "elements") < 0) return NULL;
    if (!(seq = PySequence_Fast(a[0], "expected an iterable of elements"))) return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), j = 0;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    while (j < n && check_element(items[j]) == 0) j++;
    for (Py_ssize_t i = 0; j == n && i < n; i++) {
        split(self, items[i], &index, &rank); /* cannot fail: every item passed above */
        changed += raise_to(self, index, rank) > 0;
    }
    Py_DECREF(seq);
    return j < n ? NULL : PyLong_FromSsize_t(changed);
}

static double z_sum(RegisterFile *self) { return (double)self->zs * Z_SCALE; }

#define GETTER(name, value) \
    static PyObject *rf_##name(RegisterFile *self, PyObject *unused) { return value; }
GETTER(z_sum, PyFloat_FromDouble(z_sum(self)))
GETTER(zero_registers, PyLong_FromSsize_t(self->zero))
GETTER(dump_registers, PyBytes_FromStringAndSize((const char *)self->regs, self->count))

/* The integer estimate, as a double: exact, however large. */
static double estimate(RegisterFile *self) {
    double n = (double)self->count, x;
    if (!(self->zero && (x = n * log(n / (double)self->zero)) <= self->switch_factor * n))
        x = self->alpha_r2 / z_sum(self);
    return rint(x);
}

static PyObject *rf_estimate(RegisterFile *self, PyObject *unused) {
    return PyLong_FromDouble(estimate(self));
}

/* Raise a register; if it rose, read the estimate into *last and say if that went up. */
static int climb(RegisterFile *self, Py_ssize_t index, int rank, double *last) {
    if (!raise_to(self, index, rank)) return 0;
    double after = estimate(self), before = *last;
    *last = after;
    return after > before;
}

static PyObject *rf_scan(RegisterFile *self, FASTCALL_ARGS) {
    PyObject *a[2], *it, *element;
    Py_ssize_t index, insertions = 0;
    int rank;
    if (PARSE("scan(elements, kept)", 2, a, "elements", "kept") < 0) return NULL;
    if (!PyList_Check(a[1])) return wrong_type("list", a[1]), NULL;
    if (!(it = PyObject_GetIter(a[0]))) return NULL;
    double last = estimate(self);
    while ((element = PyIter_Next(it))) {
        int bad = split(self, element, &index, &rank) < 0 ||
                  (climb(self, index, rank, &last) && PyList_Append(a[1], element) < 0);
        Py_DECREF(element);
        if (bad) break;
        insertions++;
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? NULL : Py_BuildValue("(Nn)", PyLong_FromDouble(last), insertions);
}

/* scan(stream_elements(seed, start, count), kept), with each element formatted
 * and hashed in a stack buffer: only a kept one becomes a bytes object. */
static PyObject *rf_scan_stream(RegisterFile *self, FASTCALL_ARGS) {
    PyObject *a[4], *element;
    u64 first;
    Py_ssize_t count, index;
    int rank;
    char buf[16];
    if (PARSE("scan_stream(seed, start, count, kept)", 4, a, "seed", "start", "count", "kept") < 0)
        return NULL;
    if (stream_args(a, &first, &count) < 0) return NULL;
    if (!PyList_Check(a[3])) return wrong_type("list", a[3]), NULL;
    double last = estimate(self);
    for (Py_ssize_t j = 0; j < count; j++) {
        stream_hex(buf, first + (u64)j);
        split_hash(self, hash((const unsigned char *)buf, 16, self->salt), &index, &rank);
        if (!climb(self, index, rank, &last)) continue;
        if (!(element = PyBytes_FromStringAndSize(buf, 16))) return NULL;
        int bad = PyList_Append(a[3], element) < 0;
        Py_DECREF(element);
        if (bad) return NULL;
    }
    return Py_BuildValue("(Nn)", PyLong_FromDouble(last), count);
}

/* The first element to reach each register's final rank, in register order,
 * for the elements alone: the file's registers are neither read nor changed. */
static PyObject *rf_witness(RegisterFile *self, FASTCALL_ARGS) {
    PyObject *a[1], *it, *element, *out = NULL;
    Py_ssize_t index;
    int rank;
    if (PARSE("witness(elements)", 1, a, "elements") < 0) return NULL;
    if (!(it = PyObject_GetIter(a[0]))) return NULL;
    unsigned char *ranks = PyMem_Calloc(self->count, 1);
    PyObject **slots = PyMem_Calloc(self->count, sizeof(PyObject *)); /* strong references */
    if (!ranks || !slots) PyErr_NoMemory();
    while (!PyErr_Occurred() && (element = PyIter_Next(it))) {
        if (split(self, element, &index, &rank) == 0 && rank > ranks[index]) {
            ranks[index] = (unsigned char)rank;
            Py_XDECREF(slots[index]);
            slots[index] = element;
        } else {
            Py_DECREF(element);
        }
    }
    if (!PyErr_Occurred()) out = PyList_New(0);
    for (Py_ssize_t i = 0; slots && i < self->count; i++) {
        if (out && slots[i] && PyList_Append(out, slots[i]) < 0) Py_CLEAR(out);
        Py_XDECREF(slots[i]);
    }
    PyMem_Free(slots);
    PyMem_Free(ranks);
    Py_DECREF(it);
    return out;
}

/* The bytes of a valid register dump, or NULL with the exception set. */
static const unsigned char *checked_dump(RegisterFile *self, const char *sig, FASTCALL_ARGS) {
    static const char *const names[] = {"data", NULL};
    PyObject *data;
    if (parse(sig, names, 1, args, nargs, kwnames, &data) < 0 || expect_bytes(data) < 0)
        return NULL;
    const unsigned char *p = (const unsigned char *)PyBytes_AS_STRING(data);
    Py_ssize_t n = PyBytes_GET_SIZE(data), i = 0;
    while (i < n && p[i] <= self->max_reg) i++;
    if (n != self->count)
        PyErr_Format(PyExc_ValueError, "expected %zd register bytes, got %zd", self->count, n);
    else if (i < n)
        PyErr_Format(PyExc_ValueError, "register value %d outside supported range 0..%d", p[i],
                     self->max_reg);
    else
        return p;
    return NULL;
}

static PyObject *rf_load_registers(RegisterFile *self, FASTCALL_ARGS) {
    const unsigned char *p = checked_dump(self, "load_registers(data)", args, nargs, kwnames);
    if (!p) return NULL;
    memcpy(self->regs, p, self->count);
    self->zero = 0;
    self->zs = 0;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        self->zero += p[i] == 0;
        self->zs += (u128)1 << (63 - p[i]);
    }
    Py_RETURN_NONE;
}

static PyObject *rf_merge_registers(RegisterFile *self, FASTCALL_ARGS) {
    const unsigned char *p = checked_dump(self, "merge_registers(data)", args, nargs, kwnames);
    if (!p) return NULL;
    for (Py_ssize_t i = 0; i < self->count; i++) raise_to(self, i, p[i]);
    Py_RETURN_NONE;
}

#define METHOD(name, fn, flags, doc) {name, (PyCFunction)(void (*)(void))fn, flags, doc}
#define FAST(name, fn, doc) METHOD(name, fn, METH_FASTCALL | METH_KEYWORDS, doc)
#define NOARGS(name, fn, doc) METHOD(name, fn, METH_NOARGS, doc)

static PyMethodDef rf_methods[] = {
    FAST("insert", rf_insert, "Insert one element; return the register increment (0 if none)."),
    FAST("insert_many", rf_insert_many, "Insert a batch; return how many changed a register."),
    FAST("scan", rf_scan, "Insert every element, keeping those that raise the estimate."),
    FAST("scan_stream", rf_scan_stream, "scan(stream_elements(seed, start, count), kept)."),
    FAST("witness", rf_witness, "The first element to reach each register's final rank."),
    NOARGS("z_sum", rf_z_sum, "Current harmonic-mean denominator Z = sum(2**-r_i)."),
    NOARGS("estimate", rf_estimate, NULL),
    NOARGS("zero_registers", rf_zero_registers, NULL),
    NOARGS("dump_registers", rf_dump_registers, NULL),
    FAST("load_registers", rf_load_registers, NULL),
    FAST("merge_registers", rf_merge_registers, "Take the elementwise maximum with a dump."),
    NOARGS("reset", rf_reset, NULL),
    {NULL},
};

static PyType_Slot rf_slots[] = {
    {Py_tp_doc, "R max-rank registers with incremental estimate bookkeeping."},
    {Py_tp_new, rf_new},
    {Py_tp_dealloc, rf_dealloc},
    {Py_tp_methods, rf_methods},
    {0, NULL},
};

static PyType_Spec rf_spec = {
    "hllrt._kernel._ckernel.RegisterFile", sizeof(RegisterFile), 0, Py_TPFLAGS_DEFAULT, rf_slots,
};

/* -- module -------------------------------------------------------------- */
static PyMethodDef module_functions[] = {
    FAST("hash64", py_hash64, "64-bit non-cryptographic hash of ``data`` keyed by ``salt``."),
    FAST("stream_element", py_stream_element, "Element ``k`` of the stream keyed by ``seed``."),
    FAST("stream_elements", py_stream_elements, "Elements ``start`` .. ``start + count - 1``."),
    {NULL},
};

static int module_exec(PyObject *module) {
    PyObject *type = PyType_FromSpec(&rf_spec);
    if (type && PyModule_AddObject(module, "RegisterFile", type) == 0) return 0;
    Py_XDECREF(type);
    return -1;
}

static PyModuleDef_Slot module_slots[] = {{Py_mod_exec, module_exec}, {0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ckernel", "Compiled register-file kernel; twin of _pykernel.", 0,
    module_functions, module_slots, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel(void) { return PyModuleDef_Init(&module_def); }
