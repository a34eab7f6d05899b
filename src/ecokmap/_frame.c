/* The point loop of ecokmap._kernels, compiled: the operations of
 * _kernels._py_loop, which documents the contract, in the same order.
 * Only + - * /, sqrt and fabs are used, all correctly rounded, so built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * its results are bitwise those of the Python loop. */
#include <math.h>

/* One map step of the state; returns 0, leaving it unchanged, if the new
 * state escapes (either component beyond threshold, or NaN). */
static int step(const double *p, double threshold, double *x, double *y)
{
    double xn = *x * p[0] * (1.0 - p[2] * *x - p[3] * *y);
    double yn = *y * p[1] * (1.0 - p[4] * *x - p[5] * *y);
    if (!(fabs(xn) <= threshold && fabs(yn) <= threshold))
        return 0;
    *x = xn;
    *y = yn;
    return 1;
}

long long point_loop(const double *p, double x, double y, long long n_transient,
                     long long n_record, long long n_lyap, double threshold,
                     double *tail, double *norm1, double *norm2, double *last)
{
    const double r1 = p[0], r2 = p[1], c1 = p[2], c2 = p[3], c3 = p[4], c4 = p[5];
    double q1x = 1.0, q1y = 0.0, q2x = 0.0, q2y = 1.0;
    long long n_post = n_record > n_lyap ? n_record : n_lyap;
    long long at_step = 0;

    for (long long n = 1; n <= n_transient; n++) {
        if (!step(p, threshold, &x, &y)) {
            at_step = n;
            goto done;
        }
    }
    for (long long i = 0; i < n_post; i++) {
        if (i < n_lyap) {
            double j11 = r1 * (1.0 - 2.0 * c1 * x - c2 * y);
            double j12 = -r1 * c2 * x;
            double j21 = -r2 * c3 * y;
            double j22 = r2 * (1.0 - c3 * x - 2.0 * c4 * y);

            double v1x = j11 * q1x + j12 * q1y;
            double v1y = j21 * q1x + j22 * q1y;
            double v2x = j11 * q2x + j12 * q2y;
            double v2y = j21 * q2x + j22 * q2y;

            double n1 = sqrt(v1x * v1x + v1y * v1y);
            if (n1 > 0.0) {
                q1x = v1x / n1;
                q1y = v1y / n1;
            }
            norm1[i] = n1;

            double proj = q1x * v2x + q1y * v2y;
            double wx = v2x - proj * q1x;
            double wy = v2y - proj * q1y;
            double n2 = sqrt(wx * wx + wy * wy);
            if (n2 > 0.0) {
                q2x = wx / n2;
                q2y = wy / n2;
            } else {
                q2x = -q1y;
                q2y = q1x;
            }
            norm2[i] = n2;
        }
        if (!step(p, threshold, &x, &y)) {
            at_step = n_transient + i + 1;
            goto done;
        }
        if (i < n_record) {
            tail[2 * i] = x;
            tail[2 * i + 1] = y;
        }
    }
done:
    last[0] = x;
    last[1] = y;
    return at_step;
}
