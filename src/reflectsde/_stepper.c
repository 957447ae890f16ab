/* Reflected Euler fine steps for a block of a path: the compiled twin of
 * simulate._reflect_path, which takes the same arguments and makes the
 * same operations in the same order; the residuals of the least-squares
 * contrast for a mean-reversion or shifted-covariate drift,
 * contrast_residuals, the compiled twin of the numpy expression of
 * estimate._numpy_contrast_of; and a strict reader for the CSV rows that
 * simulate.write_csv emits, which scans digits eight at a time and
 * converts a field of up to 19 significant digits by the exact
 * Eisel-Lemire algorithm (Lemire 2021, "Number parsing at a gigabyte per
 * second", Softw. Pract. Exp. 51(8)), one the algorithm cannot round with
 * certainty by Clinger's exact quotient where that applies, and any other
 * by strtod.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add rounds once where Python rounds twice.  log, sqrt and pow
 * are the libm calls behind CPython's math.log, math.sqrt and x ** y.
 */
#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The eight functions, the exception and the two types of CPython's
 * stable ABI that call a custom drift and convert its result, declared
 * here rather than through Python.h so that the build needs no Python
 * headers and the library depends on no Python version: they resolve from
 * the interpreter that loads the library. */
typedef struct _object PyObject;
typedef struct _typeobject PyTypeObject;
extern PyObject *PyExc_TypeError;
extern PyTypeObject PyFloat_Type;
PyObject *PyFloat_FromDouble(double v);
double PyFloat_AsDouble(PyObject *o);
int PyObject_IsInstance(PyObject *o, PyObject *cls);
PyObject *PyObject_CallFunctionObjArgs(PyObject *callable, ...);
PyObject *PyErr_Occurred(void);
int PyErr_ExceptionMatches(PyObject *exc);
void PyErr_Clear(void);
void Py_IncRef(PyObject *o);
void Py_DecRef(PyObject *o);

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
 * a real number: pow gives NaN from a finite x (a negative x, whose
 * x ** gamma CPython makes complex), a custom drift's result is complex,
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
                /* pow(x, 1.0) is x: glibc pow errs by under 0.52 ulp and
                 * the exact result x is a double (it held bit for bit on
                 * 2e8 random finite doubles), so the linear drift skips
                 * the call and keeps the bits of CPython's x ** 1.0 */
                mu = gamma == 1.0 ? x : pow(x, gamma);
                if (isfinite(x) && !isfinite(mu))
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
 * SHIFTED, the shifted covariate c.  These are the operations of the
 * drifts' numpy expressions and of the residual's, in their order; the
 * caller sums the squares with np.dot, whose summation order is part of
 * the result. */
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

/* 10^q for q in [Q_MIN, Q_MAX] as 128 bits {high, low}, scaled by a power
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

/* The high word of the 128-bit product a * b; *lo receives the low word.
 * unsigned __int128 is a GCC and Clang extension for 64-bit targets; it
 * made read_rows about a third faster on x86-64 than the four 32-bit
 * products that stand in for it elsewhere. */
static uint64_t mul128(uint64_t a, uint64_t b, uint64_t *lo)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 r = (unsigned __int128)a * b;
    *lo = (uint64_t)r;
    return (uint64_t)(r >> 64);
#else
    uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *lo = (mid << 32) | (uint32_t)p00;
    return a1 * b1 + (mid >> 32) + (p01 >> 32) + (p10 >> 32);
#endif
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
    int lz = 0, top;
    long e2;
    /* shift w up to its top bit: GCC's and Clang's __builtin_clzll counts
     * its leading zeros in one instruction, the loop in six steps.  The
     * builtin is taken where mul128 takes __int128, which only those
     * compilers define, so that one build without __SIZEOF_INT128__ checks
     * both portable paths. */
#ifdef __SIZEOF_INT128__
    lz = __builtin_clzll(w);
    w <<= lz;
#else
    for (int s = 32; s; s >>= 1)
        if (w >> (64 - s) == 0) {
            w <<= s;
            lz += s;
        }
#endif
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
 * strtod.  All three round correctly like the PyOS_string_to_double behind
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
            } else if (nd <= 19 && e < 100000 && q >= Q_MIN && q <= Q_MAX
                       && (eisel_lemire(w, q, v) || clinger(w, q, v))) {
                if (neg)
                    *v = -*v;
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
