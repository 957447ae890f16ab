/* Reflected Euler fine steps for a whole path: the compiled twin of
 * simulate._reflect_interval, with the same operations in the same order.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add rounds once where Python rounds twice.  log, sqrt and pow
 * are the libm calls behind CPython's math.log, math.sqrt and x ** y.
 */
#include <math.h>

enum { POWER, MEAN_REVERSION, CONSTANT, SHIFTED };

/* Integrate n observation intervals of m fine steps from x.  The drift is
 * (-theta) * x**gamma, theta * (1 - x), theta, or shift[i] + theta at fine
 * step i.  xs, ls, rs receive n + 1 observations, hit_lo and hit_up n
 * flags, and fine (when not NULL) the left endpoint of every fine step.
 * Returns -1, or the fine step where x ** gamma would make CPython turn
 * complex or raise: pow gives nan (a negative x) or inf from a finite x. */
long reflect_path(int kind, double theta, double gamma, const double *shift,
                  double x, const double *z, const double *u, long n, long m,
                  double a, double b, double hf, double sig2hf, int exact_min,
                  double *xs, double *ls, double *rs, unsigned char *hit_lo,
                  unsigned char *hit_up, double *fine)
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
                mu = pow(x, gamma);
                if (isfinite(x) && !isfinite(mu))
                    return i;
                mu = -theta * mu;
            } else if (kind == MEAN_REVERSION) {
                mu = theta * (1.0 - x);
            } else if (kind == CONSTANT) {
                mu = theta;
            } else {
                mu = shift[i] + theta;
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
