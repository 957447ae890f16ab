/* Reflected Euler fine steps for a block of a path: the compiled twin of
 * simulate._reflect_path, which takes the same arguments and makes the
 * same operations in the same order; the residuals of the least-squares
 * contrast for a mean-reversion or shifted-covariate drift,
 * contrast_residuals, the compiled twin of the residual pass
 * estimate._contrast_value; a strict reader for the CSV rows that
 * simulate.write_csv emits, which scans digits eight at a time and
 * converts a field of up to 19 significant digits by the exact
 * Eisel-Lemire algorithm (Lemire 2021, "Number parsing at a gigabyte per
 * second", Softw. Pract. Exp. 51(8)), one the algorithm cannot round with
 * certainty by Clinger's exact quotient where that applies, and any other
 * by strtod; check_path, the checks of SamplePath.validate and the
 * increments of the path in one pass; and write_rows, the twin of the
 * Python expression of simulate.write_csv, which formats rows of doubles
 * as '{:.17g}' by exact 128-bit integer arithmetic.  Both exact
 * conversions take unsigned __int128: a build without it reads every
 * field by strtod and hands every row back to write_csv.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add rounds once where Python rounds twice.  log, sqrt and pow
 * are the libm calls behind CPython's math.log, math.sqrt and x ** y;
 * the power drift takes x**0.5 by sqrt in both twins.
 */
#include <errno.h>
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The eleven functions, the exception, the type and the None of CPython's
 * stable ABI that call a custom drift and convert its result, and that
 * read the arrays of a path through the buffer protocol, declared here
 * rather than through Python.h so that the build needs no Python headers
 * and the library depends on no Python version: they resolve from the
 * interpreter that loads the library.  Py_buffer has had this layout since
 * Python 3.3 and is part of the stable ABI since 3.11. */
typedef struct _object PyObject;
typedef struct _typeobject PyTypeObject;
typedef struct {
    void *buf;
    PyObject *obj;
    ptrdiff_t len, itemsize;
    int readonly, ndim;
    char *format;
    ptrdiff_t *shape, *strides, *suboffsets;
    void *internal;
} Py_buffer;
extern PyObject *PyExc_TypeError;
extern PyTypeObject PyFloat_Type;
extern struct _object _Py_NoneStruct;
PyObject *PyFloat_FromDouble(double v);
double PyFloat_AsDouble(PyObject *o);
int PyObject_IsInstance(PyObject *o, PyObject *cls);
PyObject *PyObject_CallFunctionObjArgs(PyObject *callable, ...);
PyObject *PyErr_Occurred(void);
int PyErr_ExceptionMatches(PyObject *exc);
void PyErr_Clear(void);
void Py_IncRef(PyObject *o);
void Py_DecRef(PyObject *o);
/* GCC calls these two through the GOT rather than the PLT, and check_path
 * and then write_rows, which makes no call into libc, come last, so that
 * every other function keeps its address: a 32-byte shift of read_rows
 * made it about 5% slower on a 2-vCPU Xeon. */
#if defined(__GNUC__) && !defined(__clang__)
#define NOPLT __attribute__((noplt))
#else
#define NOPLT
#endif
NOPLT int PyObject_GetBuffer(PyObject *o, Py_buffer *view, int flags);
NOPLT void PyBuffer_Release(Py_buffer *view);
enum { PyBUF_SIMPLE = 0, PyBUF_WRITABLE = 1 };

enum { POWER, MEAN_REVERSION, CONSTANT, SHIFTED, CALLBACK };

/* The complex types, (complex, numpy.complexfloating), which the loader
 * sets once: PyFloat_AsDouble would cut a numpy.complex64, complex128 or
 * clongdouble to its real part. */
static PyObject *complex_types;

void set_complex_types(PyObject *types)
{
    Py_IncRef(types);
    complex_types = types;
}

/* Whether a custom drift's result is complex: 1, 0, or -1 with the
 * exception of the test set.  A float, the usual result, is told by the
 * first test's exact type match alone. */
static int is_complex(PyObject *res)
{
    int real = PyObject_IsInstance(res, (PyObject *)&PyFloat_Type);
    return real ? (real < 0 ? -1 : 0) : PyObject_IsInstance(res, complex_types);
}

/* Integrate the n observation intervals k0 to k0 + n - 1 of m fine steps,
 * resuming from the state xs[k0] and the cumulative regulators ls[k0] and
 * rs[k0], so that a path can run in blocks of whole intervals.  z, u,
 * shift and fine are buffers of the block, read and written from index 0.
 * The drift is (-theta) * x**gamma, theta * (1 - x), theta, shift[i] +
 * theta at fine step i, or for CALLBACK the custom drift f(x, theta)
 * called directly: the Python callable drift with the state and param,
 * the caller's theta object, once per fine step in order with the GIL
 * held, its result converted by PyFloat_AsDouble unless it is complex
 * (drift and param are unused for the other kinds).  xs, ls, rs receive
 * the observations k0 + 1 to k0 + n, hit_lo and hit_up the flags of
 * intervals k0 to k0 + n - 1, and fine (when not NULL) the left endpoint
 * of every fine step.  Returns -1, or the fine step of the block where the drift is not
 * a real number: sqrt or pow gives NaN from an x that is not NaN (a
 * negative x, whose root math.sqrt refuses and whose x ** gamma CPython
 * makes complex), a custom drift's result is complex,
 * or its conversion raises TypeError (a str), which is cleared; the caller
 * raises there.  Where the drift, or the test or the conversion otherwise,
 * raises, *stop receives the fine step and the exception stays set. */
long reflect_path(int kind, double theta, double gamma, const double *shift,
                  const double *z, const double *u, long k0, long n, long m,
                  double a, double b, double hf, double sig2hf, int exact_min,
                  double *xs, double *ls, double *rs, unsigned char *hit_lo,
                  unsigned char *hit_up, double *fine, PyObject *drift, PyObject *param,
                  long *stop)
{
    PyObject *arg, *res;
    double x = xs[k0], cl = ls[k0], cr = rs[k0], mu, s, dl;
    int cplx;
    for (long k = k0, i = 0; k < k0 + n; k++) {
        unsigned char lo = 0, up = 0;
        for (long end = i + m; i < end; i++) {
            if (fine)
                fine[i] = x;
            if (kind == POWER) {
                /* x**1 is x, and x**0.5 is sqrt(x), which IEEE 754 rounds
                 * correctly on every machine, where glibc pow errs by up
                 * to 0.52 ulp and its variants differ.  Both give NaN from
                 * a negative x, sqrt from -inf too (pow gives inf), as the
                 * Python twin refuses every x < 0 under gamma 0.5 */
                mu = gamma == 1.0 ? x : gamma == 0.5 ? sqrt(x) : pow(x, gamma);
                if (isnan(mu) && !isnan(x))
                    return i;
                mu = -theta * mu;
            } else if (kind == MEAN_REVERSION) {
                mu = theta * (1.0 - x);
            } else if (kind == CONSTANT) {
                mu = theta;
            } else if (kind == SHIFTED) {
                mu = shift[i] + theta;
            } else {
                arg = PyFloat_FromDouble(x);
                res = arg ? PyObject_CallFunctionObjArgs(drift, arg, param, (PyObject *)NULL)
                          : NULL;
                Py_DecRef(arg);
                if (!res) {
                    *stop = i;
                    return i;
                }
                cplx = is_complex(res);
                mu = cplx ? -1.0 : PyFloat_AsDouble(res);
                Py_DecRef(res);
                if (cplx) {
                    if (cplx < 0)
                        *stop = i;
                    return i;
                }
                if (mu == -1.0 && PyErr_Occurred()) {
                    if (PyErr_ExceptionMatches(PyExc_TypeError))
                        PyErr_Clear(); /* not a real number */
                    else
                        *stop = i;
                    return i;
                }
            }
            s = mu * hf + z[i];
            if (exact_min)
                dl = a - x - 0.5 * (s - sqrt(s * s - sig2hf * log(u[i])));
            else
                dl = a - (x + s);
            if (dl < 0.0)
                dl = 0.0;
            x = x + s + dl;
            if (dl > 0.0) {
                lo = 1;
                cl += dl;
            }
            if (x > b) {
                up = 1;
                cr += x - b;
                x = b;
            }
        }
        xs[k + 1] = x;
        ls[k + 1] = cl;
        rs[k + 1] = cr;
        hit_lo[k] = lo;
        hit_up[k] = up;
    }
    return -1;
}

/* The arrays and constants of one contrast, which estimate._contrast_of
 * fixes once per closure: res receives the n residuals; dx, dl and dr are
 * the increments of the state and of both regulators over the n
 * observation intervals, and x holds their left endpoints. */
struct contrast {
    double *res;
    const double *dx, *dl, *dr, *x;
    long n;
    int kind;
    double h, c;
};

/* The residuals ((dx - f h) - dl) + dr of the least-squares contrast at
 * theta, with the drift f at the left endpoints of the intervals:
 * theta * (1.0 - x) for MEAN_REVERSION and (c + theta) + 0.0 * x for
 * CONSTANT, the shifted covariate c.  These are the operations of the
 * drifts' numpy expressions and of the residual's, in their order; the
 * caller sums the squares with np.dot, as estimate._contrast_value does,
 * whose summation order is part of the result. */
void contrast_residuals(const struct contrast *c, double theta)
{
    const double *dx = c->dx, *dl = c->dl, *dr = c->dr, *x = c->x;
    double *res = c->res, h = c->h, f;
    long n = c->n;
#define RESIDUALS(F)                                                       \
    for (long i = 0; i < n; i++) {                                         \
        f = (F);                                                           \
        res[i] = ((dx[i] - f * h) - dl[i]) + dr[i];                        \
    }
    if (c->kind == MEAN_REVERSION) {
        RESIDUALS(theta * (1.0 - x[i]))
    } else {
        double shifted = c->c + theta;
        RESIDUALS(shifted + 0.0 * x[i])
    }
#undef RESIDUALS
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

#ifdef __SIZEOF_INT128__
/* From here to clinger: the exact conversions of read_rows, which take
 * unsigned __int128, a GCC and Clang extension for 64-bit targets.  A
 * build without it converts every field by strtod.
 *
 * 10^q for q in [Q_MIN, Q_MAX] as 128 bits {high, low}, scaled by a power
 * of two to [2^127, 2^128) and truncated: 5^q shifted for q >= 0, and
 * floor(2^k / 5^-q) for q < 0.  simulate.write_csv writes every double of
 * magnitude in [10^-24, 10^17) with q in this range. */
enum { Q_MIN = -40, Q_MAX = 10 };
static const uint64_t POW10[][2] = {
    {0x8b61313bbabce2c6, 0x2323ac4b3b3da015}, /* 1e-40 */
    {0xae397d8aa96c1b77, 0xabec975e0a0d081a}, /* 1e-39 */
    {0xd9c7dced53c72255, 0x96e7bd358c904a21}, /* 1e-38 */
    {0x881cea14545c7575, 0x7e50d64177da2e54}, /* 1e-37 */
    {0xaa242499697392d2, 0xdde50bd1d5d0b9e9}, /* 1e-36 */
    {0xd4ad2dbfc3d07787, 0x955e4ec64b44e864}, /* 1e-35 */
    {0x84ec3c97da624ab4, 0xbd5af13bef0b113e}, /* 1e-34 */
    {0xa6274bbdd0fadd61, 0xecb1ad8aeacdd58e}, /* 1e-33 */
    {0xcfb11ead453994ba, 0x67de18eda5814af2}, /* 1e-32 */
    {0x81ceb32c4b43fcf4, 0x80eacf948770ced7}, /* 1e-31 */
    {0xa2425ff75e14fc31, 0xa1258379a94d028d}, /* 1e-30 */
    {0xcad2f7f5359a3b3e, 0x096ee45813a04330}, /* 1e-29 */
    {0xfd87b5f28300ca0d, 0x8bca9d6e188853fc}, /* 1e-28 */
    {0x9e74d1b791e07e48, 0x775ea264cf55347d}, /* 1e-27 */
    {0xc612062576589dda, 0x95364afe032a819d}, /* 1e-26 */
    {0xf79687aed3eec551, 0x3a83ddbd83f52204}, /* 1e-25 */
    {0x9abe14cd44753b52, 0xc4926a9672793542}, /* 1e-24 */
    {0xc16d9a0095928a27, 0x75b7053c0f178293}, /* 1e-23 */
    {0xf1c90080baf72cb1, 0x5324c68b12dd6338}, /* 1e-22 */
    {0x971da05074da7bee, 0xd3f6fc16ebca5e03}, /* 1e-21 */
    {0xbce5086492111aea, 0x88f4bb1ca6bcf584}, /* 1e-20 */
    {0xec1e4a7db69561a5, 0x2b31e9e3d06c32e5}, /* 1e-19 */
    {0x9392ee8e921d5d07, 0x3aff322e62439fcf}, /* 1e-18 */
    {0xb877aa3236a4b449, 0x09befeb9fad487c2}, /* 1e-17 */
    {0xe69594bec44de15b, 0x4c2ebe687989a9b3}, /* 1e-16 */
    {0x901d7cf73ab0acd9, 0x0f9d37014bf60a10}, /* 1e-15 */
    {0xb424dc35095cd80f, 0x538484c19ef38c94}, /* 1e-14 */
    {0xe12e13424bb40e13, 0x2865a5f206b06fb9}, /* 1e-13 */
    {0x8cbccc096f5088cb, 0xf93f87b7442e45d3}, /* 1e-12 */
    {0xafebff0bcb24aafe, 0xf78f69a51539d748}, /* 1e-11 */
    {0xdbe6fecebdedd5be, 0xb573440e5a884d1b}, /* 1e-10 */
    {0x89705f4136b4a597, 0x31680a88f8953030}, /* 1e-9 */
    {0xabcc77118461cefc, 0xfdc20d2b36ba7c3d}, /* 1e-8 */
    {0xd6bf94d5e57a42bc, 0x3d32907604691b4c}, /* 1e-7 */
    {0x8637bd05af6c69b5, 0xa63f9a49c2c1b10f}, /* 1e-6 */
    {0xa7c5ac471b478423, 0x0fcf80dc33721d53}, /* 1e-5 */
    {0xd1b71758e219652b, 0xd3c36113404ea4a8}, /* 1e-4 */
    {0x83126e978d4fdf3b, 0x645a1cac083126e9}, /* 1e-3 */
    {0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a3}, /* 1e-2 */
    {0xcccccccccccccccc, 0xcccccccccccccccc}, /* 1e-1 */
    {0x8000000000000000, 0x0000000000000000}, /* 1e0 */
    {0xa000000000000000, 0x0000000000000000}, /* 1e1 */
    {0xc800000000000000, 0x0000000000000000}, /* 1e2 */
    {0xfa00000000000000, 0x0000000000000000}, /* 1e3 */
    {0x9c40000000000000, 0x0000000000000000}, /* 1e4 */
    {0xc350000000000000, 0x0000000000000000}, /* 1e5 */
    {0xf424000000000000, 0x0000000000000000}, /* 1e6 */
    {0x9896800000000000, 0x0000000000000000}, /* 1e7 */
    {0xbebc200000000000, 0x0000000000000000}, /* 1e8 */
    {0xee6b280000000000, 0x0000000000000000}, /* 1e9 */
    {0x9502f90000000000, 0x0000000000000000}, /* 1e10 */
};

/* The high word of the 128-bit product a * b; *lo receives the low word. */
static uint64_t mul128(uint64_t a, uint64_t b, uint64_t *lo)
{
    unsigned __int128 r = (unsigned __int128)a * b;
    *lo = (uint64_t)r;
    return (uint64_t)(r >> 64);
}

/* Store in *out the double nearest w * 10^q, ties to even, for w > 0 and
 * q in [Q_MIN, Q_MAX], and return 1; or return 0 where the 128 bits of
 * the table cannot decide the rounding, or the result is not a normal
 * double.  This is the variant of fast_double_parser.  The product with
 * the high word of 10^q falls short of w * 10^q by less than w in its low
 * word; only where that could carry into the 54 bits kept is the low word
 * of 10^q multiplied in, and a product that still could is given back.
 * For q < 0 that gives back every value that is a double, or halfway
 * between two, such as 0.5: the truncated table leaves it just below;
 * clinger takes most of those. */
static int eisel_lemire(uint64_t w, long q, double *out)
{
    const uint64_t *p10 = POW10[q - Q_MIN];
    uint64_t lo, hi, m, bits;
    int lz = __builtin_clzll(w), top;
    long e2;
    /* w shifted up to its top bit: the compilers that define __int128 have
     * the builtin, one instruction */
    w <<= lz;
    hi = mul128(w, p10[0], &lo);
    if ((hi & 0x1FF) == 0x1FF && lo + w < lo) {
        uint64_t low, mid = mul128(w, p10[1], &low);
        mid += lo;
        hi += mid < lo;
        if (mid + 1 == 0 && (hi & 0x1FF) == 0x1FF && low + w < low)
            return 0;
        lo = mid;
    }
    /* 54 bits: the 53 of the double and one to round with */
    top = (int)(hi >> 63);
    m = hi >> (top + 9);
    lz += 1 - top;
    if (lo == 0 && (hi & 0x1FF) == 0 && (m & 3) == 1)
        return 0;
    m = (m + (m & 1)) >> 1;
    if (m >> 53) {
        m = (uint64_t)1 << 52;
        lz--;
    }
    /* 217706 / 2^16 is log2(10) to within 2e-6, so the shift gives
     * floor(q log2 10) over the table, rounding down for q < 0 */
    e2 = ((217706 * q) >> 16) + 1087 - lz;
    if (e2 < 1 || e2 > 2046)
        return 0;
    bits = (m & (((uint64_t)1 << 52) - 1)) | (uint64_t)e2 << 52;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* 10^k for k in [0, 22], each a double exactly: 10^k = 5^k * 2^k, and
 * 5^22 < 2^53. */
static const double EXACT_POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* Store in *out the double nearest w * 10^q and return 1 where w <= 2^53
 * and -22 <= q < 0, or return 0: there w and 10^-q are doubles exactly, so
 * their IEEE quotient is the correctly rounded value (Clinger 1990, "How
 * to read floating point numbers accurately").  Only where doubles are
 * evaluated in double precision (FLT_EVAL_METHOD 0): x87 arithmetic
 * would round twice. */
static int clinger(uint64_t w, long q, double *out)
{
#if FLT_EVAL_METHOD == 0
    if (w <= (uint64_t)1 << 53 && q >= -22 && q < 0) {
        *out = (double)w / EXACT_POW10[-q];
        return 1;
    }
#else
    (void)w;
    (void)q;
    (void)out;
#endif
    return 0;
}
#endif

/* The 8 bytes at p as a little-endian word, whatever the byte order of the
 * machine; compilers make one load of it where that is little-endian. */
static uint64_t load8(const char *p)
{
    const unsigned char *b = (const unsigned char *)p;
    return (uint64_t)b[0] | (uint64_t)b[1] << 8 | (uint64_t)b[2] << 16 | (uint64_t)b[3] << 24
           | (uint64_t)b[4] << 32 | (uint64_t)b[5] << 40 | (uint64_t)b[6] << 48
           | (uint64_t)b[7] << 56;
}

/* Whether all 8 bytes of v are ASCII digits: a byte above '9' sets its top
 * bit when 0x46 is added, one below '0' when 0x30 is taken away. */
static int eight_digits(uint64_t v)
{
    return !(((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080);
}

/* The number the 8 digits of v spell, first byte first: adjacent digits,
 * then pairs and quadruples of them, combine by multiplying and shifting
 * within the word (fast_float's parse_eight_digits_unrolled). */
static uint64_t eight_digit_value(uint64_t v)
{
    const uint64_t mask = 0x000000FF000000FF;
    const uint64_t mul1 = 0x000F424000000064; /* 100 + (1000000 << 32) */
    const uint64_t mul2 = 0x0000271000000001; /* 1 + (10000 << 32) */
    v -= 0x3030303030303030;
    v = (v * 10) + (v >> 8);
    return (((v & mask) * mul1) + (((v >> 16) & mask) * mul2)) >> 32;
}

/* Append the digits at p to the significand *w and count in *nd those
 * from the first nonzero one (*w wraps past 19 of them, 10^19 < 2^64);
 * returns the end of the run.  Leading zeros are skipped one by one, then
 * the digits go eight at a time while eight are left, and one by one after
 * that: *w wraps the same way either way. */
static const char *read_digits(const char *p, const char *end, uint64_t *w, int *nd)
{
    if (!*nd)
        while (p < end && *p == '0')
            p++;
    for (uint64_t v; end - p >= 8 && eight_digits(v = load8(p)); p += 8) {
        *w = 100000000 * *w + eight_digit_value(v);
        *nd += 8;
    }
    for (; p < end && is_digit(*p); p++) {
        *w = 10 * *w + (uint64_t)(*p - '0');
        ++*nd;
    }
    return p;
}

/* Parse rows of ncol comma-separated fields, each row ended by '\n', from
 * the len bytes at text into out (row-major, at most maxrows rows).  A
 * field must read [-+]digits[.digits][(e|E)[-+]digits], where either
 * digit run of the mantissa may be empty but not both.  The scan builds
 * the field's significand w and exponent q, its value being w * 10^q: w = 0
 * gives a signed zero, and w of up to 19 significant digits with q in the
 * table goes to eisel_lemire, then to clinger if eisel_lemire gives it
 * back.  Every other field, and one both give back, is converted by
 * strtod, as is every field on a build without __int128.  All three round correctly like the PyOS_string_to_double behind
 * np.loadtxt.  Returns the number of rows, or -1 for any other text: a
 * comment, a blank line, whitespace, '\r', inf or nan, a value strtod
 * reports out of range, or a field strtod ends elsewhere than the scan (a
 * locale whose decimal point is not '.'). */
long read_rows(const char *text, long len, long ncol, double *out, long maxrows)
{
    const char *p = text, *end = text + len;
    long rows = 0;
    while (p < end) {
        if (rows == maxrows)
            return -1;
        for (long j = 0; j < ncol; j++) {
            const char *start = p, *mant;
            double *v = out + rows * ncol + j;
            uint64_t w = 0;
            long q = 0, e = 0;
            int nd = 0, neg = p < end && *p == '-';
            if (p < end && (*p == '-' || *p == '+'))
                p++;
            mant = p;
            p = read_digits(p, end, &w, &nd);
            if (p < end && *p == '.') {
                const char *frac = ++p;
                p = read_digits(p, end, &w, &nd);
                q = frac - p;
            }
            if (p == mant || (p == mant + 1 && *mant == '.'))
                return -1;
            if (p < end && (*p == 'e' || *p == 'E')) {
                int eneg;
                p++;
                eneg = p < end && *p == '-';
                if (p < end && (*p == '-' || *p == '+'))
                    p++;
                if (!(p < end && is_digit(*p)))
                    return -1;
                /* e stops growing at 10^5; such an e sends the field to strtod */
                for (; p < end && is_digit(*p); p++)
                    if (e < 100000)
                        e = 10 * e + (*p - '0');
                q += eneg ? -e : e;
            }
            if (p == end || *p != (j + 1 < ncol ? ',' : '\n'))
                return -1;
            if (nd == 0) {
                *v = neg ? -0.0 : 0.0;
#ifdef __SIZEOF_INT128__
            } else if (nd <= 19 && e < 100000 && q >= Q_MIN && q <= Q_MAX
                       && (eisel_lemire(w, q, v) || clinger(w, q, v))) {
                if (neg)
                    *v = -*v;
#endif
            } else {
                char *stop;
                errno = 0;
                *v = strtod(start, &stop);
                if (stop != p || errno == ERANGE)
                    return -1;
            }
            p++;
        }
        rows++;
    }
    return rows;
}

/* The data of o's buffer, taken into *view, where it is a contiguous
 * buffer of len bytes (writable, with PyBUF_WRITABLE in flags); else NULL,
 * with nothing held and no exception set. */
static void *buffer_of(PyObject *o, Py_buffer *view, ptrdiff_t len, int flags)
{
    view->obj = NULL;
    if (PyObject_GetBuffer(o, view, flags) < 0) {
        PyErr_Clear();
        return NULL;
    }
    if (view->len != len) {
        PyBuffer_Release(view);
        return NULL;
    }
    return view->buf;
}

/* The checks of simulate.SamplePath.validate in one pass over the n + 1
 * observations x, l and r of a path and its n hit flags hit_lo and hit_up
 * (None for a path read from CSV), which also writes the increments
 * x[i + 1] - x[i], the IEEE subtraction of np.diff, of x, l and r into dx,
 * dl and dr.  Returns 0 where x, l and r are finite,
 * lo <= x <= hi, l[0] and r[0] are 0, no increment of l or r is negative,
 * r is 0 throughout where one_sided, and no increment of l (r) is positive
 * where hit_lo (hit_up) is not set.  Returns 1 at the first check that
 * fails, or where an array is not a contiguous buffer of its length,
 * writable for the increments; the caller then runs the numpy checks,
 * which name the fault.  Called with the GIL held, which the buffer
 * protocol needs. */
int check_path(long n, PyObject *x, PyObject *l, PyObject *r, PyObject *hit_lo,
               PyObject *hit_up, double lo, double hi, int one_sided, PyObject *dx,
               PyObject *dl, PyObject *dr)
{
    PyObject *obs[] = {x, l, r}, *inc[] = {dx, dl, dr}, *flags[] = {hit_lo, hit_up};
    Py_buffer views[8];
    const double *v[3];
    double *d[3];
    const unsigned char *hit[2] = {NULL, NULL};
    int k, held = 0, bad = 1;
    for (k = 0; k < 3; k++, held++)
        if (!(v[k] = buffer_of(obs[k], &views[held], (n + 1) * sizeof(double), PyBUF_SIMPLE)))
            goto release;
    for (k = 0; k < 3; k++, held++)
        if (!(d[k] = buffer_of(inc[k], &views[held], n * sizeof(double), PyBUF_WRITABLE)))
            goto release;
    for (k = 0; k < 2; k++)
        if (flags[k] != &_Py_NoneStruct) {
            if (!(hit[k] = buffer_of(flags[k], &views[held], n, PyBUF_SIMPLE)))
                goto release;
            held++;
        }
    const double *xs = v[0], *ls = v[1], *rs = v[2];
    if (ls[0] != 0.0 || rs[0] != 0.0)
        goto release;
    for (long i = 0;; i++) {
        double xi = xs[i], li = ls[i], ri = rs[i];
        if (!isfinite(xi) || !isfinite(li) || !isfinite(ri) || xi < lo || xi > hi
            || (one_sided && ri != 0.0))
            goto release;
        if (i == n)
            break;
        d[0][i] = xs[i + 1] - xi;
        double el = d[1][i] = ls[i + 1] - li, er = d[2][i] = rs[i + 1] - ri;
        if (el < 0.0 || er < 0.0 || (hit[0] && el > 0.0 && !hit[0][i])
            || (hit[1] && er > 0.0 && !hit[1][i]))
            goto release;
    }
    bad = 0;
release:
    while (held--)
        PyBuffer_Release(&views[held]);
    return bad;
}

#ifdef __SIZEOF_INT128__
/* 5^s for s in [0, 27], the largest power of 5 below 2^64 */
static const uint64_t POW5[] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
    244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
    3814697265625, 19073486328125, 95367431640625, 476837158203125, 2384185791015625,
    11920928955078125, 59604644775390625, 298023223876953125, 1490116119384765625,
    7450580596923828125,
};

/* Write the nd digits of d at p, from the last one back, with '.' after
 * the first point of them where 0 < point < nd; return the end.  They go
 * straight to their place: a loop that copied them there would compile to
 * a call of memcpy. */
static char *put_digits(uint64_t d, int nd, int point, char *p)
{
    char *end = p + nd + (point > 0 && point < nd), *q = end;
    for (int i = nd - 1; i >= 0; i--, d /= 10) {
        *--q = (char)('0' + d % 10);
        if (i == point && i > 0)
            *--q = '.';
    }
    return end;
}

/* Write v at p as Python's '{:.17g}'.format(v) and return the end, or
 * return NULL where v is not zero and not of magnitude in [1e-16, 1e17):
 * a NaN, an infinity, a subnormal, or a value outside that range.  With
 * v = m 2^e and k = floor(log10 |v|), s = 16 - k lies in [0, 32], so
 * N = m 5^s < 2^53 5^32 < 2^128 holds exactly in 128 bits, and the 17
 * significant digits are N 2^(e + s) rounded to an integer, half to even
 * on the exact remainder: the correctly rounded conversion of CPython's
 * dtoa (the fixed-precision problem of Adams 2019, "Ryu revisited: printf
 * floating point conversion").  The digits are laid out as %g lays them
 * out: trailing zeros stripped, fixed notation for -4 <= k < 17, else
 * d.ddde-XX. */
static char *format_g17(double v, char *p)
{
    const uint64_t e16 = 10000000000000000, e17 = 100000000000000000;
    uint64_t bits, m, d;
    unsigned __int128 n, rem, half;
    int e, k, s, t, nd = 17;
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    bits &= ~((uint64_t)1 << 63);
    if (bits == 0) {
        *p++ = '0';
        return p;
    }
    v = v < 0.0 ? -v : v;
    /* 1e17 is a double exactly, and a NaN or an infinity fails the test;
     * the search for k below hands back a magnitude under 10^-16 (the
     * double 1e-16 among them, which lies just below it) */
    if (!(v < 1e17))
        return NULL;
    m = (bits & (((uint64_t)1 << 52) - 1)) | (uint64_t)1 << 52;
    e = (int)(bits >> 52) - 1075;
    /* |v| lies in [2^(e + 52), 2^(e + 53)), so k is floor((e + 52) log10 2)
     * or one more; 78913 / 2^18 gives that floor exactly for |e| < 1650.
     * Try the larger, which is at most 16 as |v| < 10^17 */
    k = (((e + 52) * 78913) >> 18) + 1;
    if (k > 16)
        k = 16;
    for (;; k--) {
        s = 16 - k;
        if (s > 32)
            return NULL;
        n = (unsigned __int128)m * POW5[s < 27 ? s : 27];
        if (s > 27)
            n *= POW5[s - 27];
        t = e + s;
        if (t >= 0) {
            d = (uint64_t)(n << t);
            rem = half = 0;
        } else {
            d = (uint64_t)(n >> -t);
            rem = n & (((unsigned __int128)1 << -t) - 1);
            half = (unsigned __int128)1 << (-t - 1);
        }
        /* floor(|v| 10^s) >= 10^16 exactly where k is floor(log10 |v|) */
        if (d >= e16)
            break;
    }
    if (rem > half || (rem == half && rem && (d & 1))) {
        if (++d == e17) {
            d = e16;
            k++;
        }
    }
    /* trailing zeros go, but not those of the integer part */
    for (int keep = k < 0 ? 1 : k + 1; nd > keep && d % 10 == 0; nd--)
        d /= 10;
    if (k < -4) {
        p = put_digits(d, nd, 1, p);
        *p++ = 'e';
        *p++ = '-';
        *p++ = (char)('0' + -k / 10);
        *p++ = (char)('0' + -k % 10);
    } else if (k < 0) {
        /* "0." and -k - 1 zeros */
        p[0] = '0', p[1] = '.', p[2] = '0', p[3] = '0', p[4] = '0';
        p = put_digits(d, nd, 0, p + 1 - k);
    } else {
        p = put_digits(d, nd, k + 1, p);
    }
    return p;
}
#endif

/* The longest field format_g17 writes, '-0.000' and 17 digits or '-d.',
 * 16 digits and 'e-XX', with its ',' or '\n'. */
enum { FIELD_BYTES = 24 };

/* Write nrows rows of the ncol columns of doubles cols[0], ..., cols[ncol -
 * 1] at out, as simulate.write_csv writes them: every value as
 * '{:.17g}'.format(v), fields separated by ',' and each row ended by '\n'.
 * The compiled twin of the Python expression in write_csv, which stays
 * the reference: returns the number of bytes written, or -1 where a value
 * is handed back (see format_g17), where cap bytes could not hold
 * FIELD_BYTES a field, or on a build without __int128, for the caller to
 * format the rows itself.  It makes no call into libc: the 8-byte memcpy
 * of format_g17 compiles to a move. */
long write_rows(const double *const *cols, long ncol, long nrows, char *out, long cap)
{
#ifdef __SIZEOF_INT128__
    char *p = out;
    if (cap < ncol * nrows * FIELD_BYTES)
        return -1;
    for (long i = 0; i < nrows; i++)
        for (long j = 0; j < ncol; j++) {
            if (!(p = format_g17(cols[j][i], p)))
                return -1;
            *p++ = j + 1 < ncol ? ',' : '\n';
        }
    return p - out;
#else
    (void)cols;
    (void)ncol;
    (void)nrows;
    (void)out;
    (void)cap;
    return -1;
#endif
}
