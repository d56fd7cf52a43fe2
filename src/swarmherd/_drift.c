/* Pairwise drift of targets under herders on the periodic square [-pi, pi)^2.
 *
 * The arithmetic of swarmherd.microsim._table_drift, pair by pair: the exact
 * nearest-image term of the kernel (x / |x|) exp(-|x| / L) plus the tail of
 * the other images, read from the cubic table of microsim._tail_table with
 * the same cell, fraction and Horner grouping. The table comes cell by cell
 * (microsim._tail_rows), so one pair's 10 coefficients share two cache
 * lines; read from the table's 10 planes, the drift took 1.6 times as long.
 * Both positions must be wrapped into [-pi, pi). Built by
 * microsim._compiled_drift without -ffast-math or contraction, so every
 * operation rounds as NumPy's does; only exp (libm's) and the order of each
 * row's sum differ from NumPy.
 */

#include <math.h>
#include <stdint.h>

#define PI 3.141592653589793
#define TWO_PI 6.283185307179586

/* Unnormalized drift rows of targets (n_t x 2) under herders (n_h x 2) into
 * out (n_t x 2), all row-major; table holds cells * cells rows of 10
 * coefficients. Block j is the `block` targets from row j * block on (fewer in the last);
 * each caller takes block indices from *next until none is left, so any
 * number of threads can share one call. Rows are disjoint and each is summed
 * over the herders in index order, so the bits do not depend on the split. */
void drift_blocks(const double *targets, int64_t n_t, const double *herders,
                  int64_t n_h, double length, const double *table, int64_t cells,
                  int64_t block, int64_t *next, double *out)
{
    const double scale = (double)cells / PI;
    const double top = (double)(cells - 1);
    const double neg_length = -length;

    for (;;) {
        int64_t lo = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED) * block;
        if (lo >= n_t)
            return;
        int64_t hi = lo + block < n_t ? lo + block : n_t;
        for (int64_t t = lo; t < hi; t++) {
            double near[2] = {0.0, 0.0}, tail[2] = {0.0, 0.0};
            for (int64_t h = 0; h < n_h; h++) {
                double d[2], sign[2], frac[2];
                int64_t cell[2];
                for (int c = 0; c < 2; c++) {
                    /* both ends lie in [-pi, pi): one exact shift wraps d */
                    double x = targets[2 * t + c] - herders[2 * h + c];
                    if (x >= PI)
                        x -= TWO_PI;
                    else if (x < -PI)
                        x += TWO_PI;
                    d[c] = x;
                }
                double r = sqrt(d[0] * d[0] + d[1] * d[1]);
                double e = exp(r / neg_length);
                if (r > 0.0)
                    e /= r;
                for (int c = 0; c < 2; c++) {
                    near[c] += d[c] * e;
                    double a = fabs(d[c]) * scale;
                    double whole = fmin(trunc(a), top);
                    frac[c] = a - whole;
                    cell[c] = (int64_t)whole;
                    sign[c] = (double)((d[c] > 0.0) - (d[c] < 0.0));
                }
                /* tail: component k reads Q at (|d_k|, |d_other|) */
                for (int k = 0; k < 2; k++) {
                    const double u = frac[k], v = frac[1 - k];
                    const double *q = table + 10 * (cell[k] * cells + cell[1 - k]);
                    /* Horner in v for each power of u, then in u */
                    double c3 = q[3];
                    c3 = c3 * v + q[2];
                    c3 = c3 * v + q[1];
                    c3 = c3 * v + q[0];
                    double c6 = q[6];
                    c6 = c6 * v + q[5];
                    c6 = c6 * v + q[4];
                    double c8 = q[8] * v + q[7];
                    double c9 = q[9];
                    c9 = c9 * u + c8;
                    c9 = c9 * u + c6;
                    tail[k] += sign[k] * (c9 * u + c3);
                }
            }
            out[2 * t] = near[0] + tail[0];
            out[2 * t + 1] = near[1] + tail[1];
        }
    }
}
