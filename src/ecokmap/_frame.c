/* The point loop of ecokmap._kernels, compiled: the operations of
 * _kernels._py_loop, which documents the contract, in the same order.
 * Only + - * /, sqrt and fabs are used, all correctly rounded, so built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * its results are bitwise those of the Python loop.
 *
 * point_loop runs k points (lanes) in lockstep.  One step of one point is
 * a chain of square roots and divisions that the core must wait on; the
 * lanes' chains are independent, so they are run side by side.  There
 * are two loops, with one result:
 *
 * - point_loop_scalar walks the lanes three times per step (push,
 *   orthonormalize, map step), a short stretch of every lane's chain per
 *   pass.  Neighbouring lanes' square roots and divisions then sit close
 *   together in program order and overlap, even when a second hardware
 *   thread halves the core's out-of-order window.
 * - vector_block holds up to 4 lanes as one AVX2 vector per quantity
 *   (GCC vector types: <immintrin.h> alone would add about 0.3 s to the
 *   one-time build), so one vsqrtpd or vdivpd serves all four.  Each lane's
 *   operations stay those of the scalar loop, in the same order; its
 *   branches become masks: a lane that escaped keeps its state and frame
 *   and writes no more rows, and a NaN norm is stored as NAN.  Only this
 *   function and its helpers are built for AVX2 (a target attribute,
 *   never -march), and AVX2 has no fused multiply-add.
 *
 * point_loop runs the vector loop, 4 lanes at a time, for k >= 2 lanes on
 * a CPU with AVX2 (vector_loop() says whether it does), and the scalar
 * loop otherwise: at k = 1 the vector form is the slower one.  Each lane
 * is bitwise a separate k = 1 call on either loop. */
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
void point_loop_scalar(long long k, const double *params, double x0, double y0,
                       long long n_transient, long long n_record, long long n_lyap,
                       double threshold, double *tail, double *norm1, double *norm2,
                       double *last, long long *at_step)
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

#if defined(__x86_64__) && defined(__GNUC__)
#define AVX2 __attribute__((target("avx2")))

typedef double v4d __attribute__((vector_size(32)));
typedef long long v4i __attribute__((vector_size(32)));

/* Four lanes' parameters, map states and frames, one vector each. */
struct block {
    v4d r1, r2, c1, c2, c3, c4, x, y, q1x, q1y, q2x, q2y;
};

/* Lane by lane, a where mask m is set (all ones), else b. */
static inline AVX2 v4d pick(v4i m, v4d a, v4d b)
{
    return (v4d)(((v4i)a & m) | ((v4i)b & ~m));
}

static inline AVX2 v4d splat(double a)
{
    return (v4d){a, a, a, a};
}

/* Bit l set for each lane l of mask m. */
static inline AVX2 int lanes_of(v4i m)
{
    return __builtin_ia32_movmskpd256((v4d)m);
}

static inline AVX2 v4i inside(v4d a, v4d threshold)
{
    v4d magnitude = (v4d)((v4i)a & 0x7fffffffffffffffLL); /* fabs */
    return (v4i)(magnitude <= threshold);
}

/* at_step[l] = s for each lane l of running (bit l) that is not in now;
 * returns now. */
static inline int stop(int running, int now, long long s, long long *at_step)
{
    for (int gone = running & ~now, l = 0; gone; gone >>= 1, l++)
        if (gone & 1)
            at_step[l] = s;
    return now;
}

/* step() of the lanes of mask live; returns the mask of those whose new
 * state did not escape, and only they take it. */
static inline AVX2 v4i vstep(struct block *b, v4d threshold, v4i live)
{
    v4d xn = b->x * b->r1 * (1.0 - b->c1 * b->x - b->c2 * b->y);
    v4d yn = b->y * b->r2 * (1.0 - b->c3 * b->x - b->c4 * b->y);
    v4i stay = live & inside(xn, threshold) & inside(yn, threshold);
    b->x = pick(stay, xn, b->x);
    b->y = pick(stay, yn, b->y);
    return stay;
}

/* push() then orthonormalize() of the lanes of mask live, whose norms go
 * to *norm1 and *norm2; the other lanes keep their frames. */
static inline AVX2 void vframe(struct block *b, v4i live, v4d *norm1, v4d *norm2)
{
    const v4d x = b->x, y = b->y;
    v4d j11 = b->r1 * (1.0 - 2.0 * b->c1 * x - b->c2 * y);
    v4d j12 = -b->r1 * b->c2 * x;
    v4d j21 = -b->r2 * b->c3 * y;
    v4d j22 = b->r2 * (1.0 - b->c3 * x - 2.0 * b->c4 * y);

    v4d v1x = j11 * b->q1x + j12 * b->q1y;
    v4d v1y = j21 * b->q1x + j22 * b->q1y;
    v4d v2x = j11 * b->q2x + j12 * b->q2y;
    v4d v2y = j21 * b->q2x + j22 * b->q2y;

    v4d n1 = __builtin_ia32_sqrtpd256(v1x * v1x + v1y * v1y);
    v4i grow = live & (v4i)(n1 > 0.0);
    b->q1x = pick(grow, v1x / n1, b->q1x);
    b->q1y = pick(grow, v1y / n1, b->q1y);
    *norm1 = pick((v4i)(n1 != n1), splat(NAN), n1);

    v4d proj = b->q1x * v2x + b->q1y * v2y;
    v4d wx = v2x - proj * b->q1x;
    v4d wy = v2y - proj * b->q1y;
    v4d n2 = __builtin_ia32_sqrtpd256(wx * wx + wy * wy);
    grow = (v4i)(n2 > 0.0);
    b->q2x = pick(live, pick(grow, wx / n2, -b->q1y), b->q2x);
    b->q2y = pick(live, pick(grow, wy / n2, b->q1x), b->q2y);
    *norm2 = pick((v4i)(n2 != n2), splat(NAN), n2);
}

/* point_loop_scalar's contract for n <= 4 lanes, as one vector.  Slots
 * past n hold lane 0's parameters and are never live. */
static AVX2 void vector_block(int n, const double *params, double x0, double y0,
                              long long n_transient, long long n_record, long long n_lyap,
                              double threshold, double *tail, double *norm1, double *norm2,
                              double *last, long long *at_step)
{
    v4d p[6];
    v4i live = {0, 0, 0, 0};
    for (int l = 0; l < 4; l++) {
        for (int j = 0; j < 6; j++)
            p[j][l] = params[6 * (l < n ? l : 0) + j];
        live[l] = l < n ? -1 : 0;
    }
    for (int l = 0; l < n; l++)
        at_step[l] = 0;
    struct block b = {p[0], p[1], p[2], p[3], p[4], p[5], splat(x0), splat(y0),
                      splat(1.0), splat(0.0), splat(0.0), splat(1.0)};
    const v4d thr = splat(threshold);
    long long n_post = n_record > n_lyap ? n_record : n_lyap;
    int running = lanes_of(live);

    for (long long s = 1; s <= n_transient && running; s++) {
        live = vstep(&b, thr, live);
        running = stop(running, lanes_of(live), s, at_step);
    }
    for (long long i = 0; i < n_post && running; i++) {
        if (i < n_lyap) {
            v4d n1, n2;
            vframe(&b, live, &n1, &n2);
            for (int l = 0; l < n; l++) {
                if (running >> l & 1) {
                    norm1[l * n_lyap + i] = n1[l];
                    norm2[l * n_lyap + i] = n2[l];
                }
            }
        }
        live = vstep(&b, thr, live);
        running = stop(running, lanes_of(live), n_transient + i + 1, at_step);
        if (i < n_record) {
            for (int l = 0; l < n; l++) {
                if (running >> l & 1) {
                    tail[2 * (l * n_record + i)] = b.x[l];
                    tail[2 * (l * n_record + i) + 1] = b.y[l];
                }
            }
        }
    }
    for (int l = 0; l < n; l++) {
        last[2 * l] = b.x[l];
        last[2 * l + 1] = b.y[l];
    }
}
#endif

/* 1 if point_loop runs k >= 2 lanes on the vector loop, 0 if on the
 * scalar one. */
int vector_loop(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* point_loop_scalar's contract, on the loop that is faster for k. */
void point_loop(long long k, const double *params, double x0, double y0,
                long long n_transient, long long n_record, long long n_lyap, double threshold,
                double *tail, double *norm1, double *norm2, double *last, long long *at_step)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (k >= 2 && vector_loop()) {
        for (long long g = 0; g < k; g += 4)
            vector_block(k - g < 4 ? (int)(k - g) : 4, params + 6 * g, x0, y0, n_transient,
                         n_record, n_lyap, threshold, tail + 2 * n_record * g,
                         norm1 + n_lyap * g, norm2 + n_lyap * g, last + 2 * g, at_step + g);
        return;
    }
#endif
    point_loop_scalar(k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1,
                      norm2, last, at_step);
}

/* acc[j] += rows[j][i] for i in [from, to), j = 0 .. 7: eight independent
 * chains of adds, each strictly left to right, held in registers. */
static void add8(const double *const *rows, long long from, long long to, double *acc)
{
    const double *p0 = rows[0], *p1 = rows[1], *p2 = rows[2], *p3 = rows[3];
    const double *p4 = rows[4], *p5 = rows[5], *p6 = rows[6], *p7 = rows[7];
    double a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    double a4 = acc[4], a5 = acc[5], a6 = acc[6], a7 = acc[7];
    for (long long i = from; i < to; i++) {
        a0 += p0[i];
        a1 += p1[i];
        a2 += p2[i];
        a3 += p3[i];
        a4 += p4[i];
        a5 += p5[i];
        a6 += p6[i];
        a7 += p7[i];
    }
    acc[0] = a0, acc[1] = a1, acc[2] = a2, acc[3] = a3;
    acc[4] = a4, acc[5] = a5, acc[6] = a6, acc[7] = a7;
}

/* out[r] = the strict left-to-right sum of v[r * stride .. + len[r] - 1],
 * starting from its first value (bitwise the last element of np.cumsum),
 * 0.0 for an empty row.  Non-empty rows go in groups of up to 8, whose
 * chains of adds run interleaved, for the same reason as the lanes
 * above, each in its own register.  A group runs in stretches up to its
 * next row end, so a group of rows of one length is one stretch; slots
 * of rows that have ended re-read a running row into a spare sum. */
void row_sums(long long n_rows, long long stride, const long long *len, const double *v,
              double *out)
{
    long long r = 0;
    while (r < n_rows) {
        long long row[8];
        const double *at[8];
        double acc[8];
        int run = 0;
        for (; r < n_rows && run < 8; r++) {
            if (len[r] > 0) {
                row[run] = r;
                at[run] = v + r * stride;
                acc[run] = at[run][0];
                run++;
            } else {
                out[r] = 0.0;
            }
        }
        for (long long from = 1; run > 0;) {
            for (int j = 0; j < run;) {
                if (len[row[j]] > from) {
                    j++;
                    continue;
                }
                out[row[j]] = acc[j];
                run--;
                row[j] = row[run];
                at[j] = at[run];
                acc[j] = acc[run];
            }
            if (run == 0)
                break;
            long long to = len[row[0]];
            for (int j = 1; j < run; j++)
                if (len[row[j]] < to)
                    to = len[row[j]];
            for (int j = run; j < 8; j++) {
                at[j] = at[0];
                acc[j] = 0.0;
            }
            add8(at, from, to, acc);
            from = to;
        }
    }
}
