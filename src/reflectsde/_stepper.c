/* Reflected Euler fine steps for a whole path: the compiled twin of
 * simulate._reflect_interval, with the same operations in the same order;
 * and a strict reader for the CSV rows that simulate.write_csv emits.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add rounds once where Python rounds twice.  log, sqrt and pow
 * are the libm calls behind CPython's math.log, math.sqrt and x ** y.
 */
#include <errno.h>
#include <math.h>
#include <stdlib.h>

enum { POWER, MEAN_REVERSION, CONSTANT, SHIFTED, CALLBACK };

/* Integrate n observation intervals of m fine steps from x.  The drift is
 * (-theta) * x**gamma, theta * (1 - x), theta, shift[i] + theta at fine
 * step i, or drift(x), called once per fine step in order (drift is NULL
 * for the other kinds).  xs, ls, rs receive n + 1 observations, hit_lo and hit_up n
 * flags, and fine (when not NULL) the left endpoint of every fine step.
 * Returns -1, or the fine step where x ** gamma would make CPython turn
 * complex or raise: pow gives nan (a negative x) or inf from a finite x. */
long reflect_path(int kind, double theta, double gamma, const double *shift,
                  double x, const double *z, const double *u, long n, long m,
                  double a, double b, double hf, double sig2hf, int exact_min,
                  double *xs, double *ls, double *rs, unsigned char *hit_lo,
                  unsigned char *hit_up, double *fine, double (*drift)(double))
{
    double cl = 0.0, cr = 0.0, mu, s, dl;
    xs[0] = x;
    ls[0] = rs[0] = 0.0;
    for (long k = 0, i = 0; k < n; k++) {
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
                mu = drift(x);
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

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Parse rows of ncol comma-separated fields, each row ended by '\n', from
 * the len bytes at text into out (row-major, at most maxrows rows).  A
 * field must read [-+]digits[.digits][(e|E)[-+]digits], where either
 * digit run of the mantissa may be empty but not both.  Each field is
 * converted by strtod, which rounds correctly like the PyOS_string_to_double
 * behind np.loadtxt.  Returns the number of rows, or -1 for any other
 * text: a comment, a blank line, whitespace, '\r', inf or nan, a value
 * strtod reports out of range, or a field strtod ends elsewhere than the
 * scan (a locale whose decimal point is not '.'). */
long read_rows(const char *text, long len, long ncol, double *out, long maxrows)
{
    const char *p = text, *end = text + len;
    long rows = 0;
    while (p < end) {
        if (rows == maxrows)
            return -1;
        for (long j = 0; j < ncol; j++) {
            const char *start = p, *mant;
            char *stop;
            if (p < end && (*p == '-' || *p == '+'))
                p++;
            mant = p;
            while (p < end && is_digit(*p))
                p++;
            if (p < end && *p == '.')
                p++;
            while (p < end && is_digit(*p))
                p++;
            if (p == mant || (p == mant + 1 && *mant == '.'))
                return -1;
            if (p < end && (*p == 'e' || *p == 'E')) {
                p++;
                if (p < end && (*p == '-' || *p == '+'))
                    p++;
                if (!(p < end && is_digit(*p)))
                    return -1;
                while (p < end && is_digit(*p))
                    p++;
            }
            if (p == end || *p != (j + 1 < ncol ? ',' : '\n'))
                return -1;
            errno = 0;
            out[rows * ncol + j] = strtod(start, &stop);
            if (stop != p || errno == ERANGE)
                return -1;
            p++;
        }
        rows++;
    }
    return rows;
}
