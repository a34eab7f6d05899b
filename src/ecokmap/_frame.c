/* The point loop of ecokmap._kernels, compiled: the operations of
 * _kernels._py_loop, which documents the contract, in the same order.
 * Only + - * /, sqrt and fabs are used, all correctly rounded, so built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * its results are bitwise those of the Python loop.
 *
 * point_loop runs k points (lanes) in lockstep.  One step of one point is
 * a chain of square roots and divisions that the core must wait on; the
 * lanes' chains are independent, so each step walks the lanes three times
 * (push, orthonormalize, map step), a short stretch of every lane's chain
 * per pass.  Neighbouring lanes' square roots and divisions then sit close
 * together in program order and overlap, even when a second hardware
 * thread halves the core's out-of-order window.  A lane's own operations
 * are those of a lone point, in the same order, so each lane is bitwise a
 * separate k = 1 call. */
#include <math.h>

/* Per-lane state: the map state, the orthonormal frame (q1, q2), and the
 * second pushed vector, carried from push() to orthonormalize(). */
struct lane {
    double x, y, q1x, q1y, q2x, q2y, v2x, v2y;
};

/* One map step of a lane; returns 0, leaving it unchanged, if the new
 * state escapes (either component beyond threshold, or NaN). */
static inline int step(const double *p, double threshold, struct lane *s)
{
    double xn = s->x * p[0] * (1.0 - p[2] * s->x - p[3] * s->y);
    double yn = s->y * p[1] * (1.0 - p[4] * s->x - p[5] * s->y);
    if (!(fabs(xn) <= threshold && fabs(yn) <= threshold))
        return 0;
    s->x = xn;
    s->y = yn;
    return 1;
}

/* Push the lane's frame through the Jacobian at its state, normalize the
 * first vector and store its norm. */
static inline void push(const double *p, struct lane *s, double *norm1)
{
    const double r1 = p[0], r2 = p[1], c1 = p[2], c2 = p[3], c3 = p[4], c4 = p[5];
    const double x = s->x, y = s->y;
    double j11 = r1 * (1.0 - 2.0 * c1 * x - c2 * y);
    double j12 = -r1 * c2 * x;
    double j21 = -r2 * c3 * y;
    double j22 = r2 * (1.0 - c3 * x - 2.0 * c4 * y);

    double v1x = j11 * s->q1x + j12 * s->q1y;
    double v1y = j21 * s->q1x + j22 * s->q1y;
    s->v2x = j11 * s->q2x + j12 * s->q2y;
    s->v2y = j21 * s->q2x + j22 * s->q2y;

    double n1 = sqrt(v1x * v1x + v1y * v1y);
    if (n1 > 0.0) {
        s->q1x = v1x / n1;
        s->q1y = v1y / n1;
    } else if (n1 != 0.0) {
        n1 = NAN; /* see _py_loop: one NaN, whatever the operand order */
    }
    *norm1 = n1;
}

/* Gram-Schmidt: the second pushed vector less its part along q1,
 * normalized, and its norm. */
static inline void orthonormalize(struct lane *s, double *norm2)
{
    double proj = s->q1x * s->v2x + s->q1y * s->v2y;
    double wx = s->v2x - proj * s->q1x;
    double wy = s->v2y - proj * s->q1y;
    double n2 = sqrt(wx * wx + wy * wy);
    if (n2 > 0.0) {
        s->q2x = wx / n2;
        s->q2y = wy / n2;
    } else {
        if (n2 != 0.0)
            n2 = NAN;
        s->q2x = -s->q1y;
        s->q2y = s->q1x;
    }
    *norm2 = n2;
}

/* Lane l has parameters params[6l .. 6l+5] and starts from (x0, y0); it
 * writes only its own rows: tail[2 n_record l ..], norm1[n_lyap l ..],
 * norm2[n_lyap l ..], last[2l], last[2l+1] and at_step[l]. */
void point_loop(long long k, const double *params, double x0, double y0,
                long long n_transient, long long n_record, long long n_lyap, double threshold,
                double *tail, double *norm1, double *norm2, double *last, long long *at_step)
{
    if (k <= 0)
        return;
    struct lane lane[k];
    long long n_post = n_record > n_lyap ? n_record : n_lyap;
    long long live = k;

    for (long long l = 0; l < k; l++) {
        lane[l] = (struct lane){x0, y0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0};
        at_step[l] = 0;
    }
    for (long long n = 1; n <= n_transient && live > 0; n++) {
        for (long long l = 0; l < k; l++) {
            if (!at_step[l] && !step(params + 6 * l, threshold, &lane[l])) {
                at_step[l] = n;
                live--;
            }
        }
    }
    for (long long i = 0; i < n_post && live > 0; i++) {
        if (i < n_lyap) {
            for (long long l = 0; l < k; l++)
                if (!at_step[l])
                    push(params + 6 * l, &lane[l], &norm1[l * n_lyap + i]);
            for (long long l = 0; l < k; l++)
                if (!at_step[l])
                    orthonormalize(&lane[l], &norm2[l * n_lyap + i]);
        }
        for (long long l = 0; l < k; l++) {
            if (at_step[l])
                continue;
            if (!step(params + 6 * l, threshold, &lane[l])) {
                at_step[l] = n_transient + i + 1;
                live--;
            } else if (i < n_record) {
                tail[2 * (l * n_record + i)] = lane[l].x;
                tail[2 * (l * n_record + i) + 1] = lane[l].y;
            }
        }
    }
    for (long long l = 0; l < k; l++) {
        last[2 * l] = lane[l].x;
        last[2 * l + 1] = lane[l].y;
    }
}

/* out[r] = the strict left-to-right sum of v[r * stride .. + len[r] - 1],
 * starting from its first value (bitwise the last element of np.cumsum),
 * 0.0 for an empty row.  The rows' chains of adds are independent, so they
 * run interleaved, for the same reason as the lanes above. */
void row_sums(long long n_rows, long long stride, const long long *len, const double *v,
              double *out)
{
    long long longest = 0;
    for (long long r = 0; r < n_rows; r++) {
        out[r] = len[r] > 0 ? v[r * stride] : 0.0;
        if (len[r] > longest)
            longest = len[r];
    }
    for (long long i = 1; i < longest; i++) {
        for (long long r = 0; r < n_rows; r++) {
            if (i < len[r])
                out[r] += v[r * stride + i];
        }
    }
}
