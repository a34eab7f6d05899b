/* The point loop of ecokmap._kernels, compiled: the operations of
 * _kernels._py_loop, which documents the contract, in the same order.
 * Only + - * /, sqrt and fabs are used, all correctly rounded, so built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * its results are bitwise those of the Python loop.
 *
 * point_loop runs k points (lanes) in lockstep, in blocks of up to 4.  One
 * step of one point is a chain of a square root and two divisions that the
 * core must wait on; the lanes' chains are independent, so they run side
 * by side.  The block loop is written once, in plain C: each step is two
 * passes over the block's lanes (push, map step), a short stretch of every
 * lane's chain per pass, so neighbouring lanes' square roots and divisions
 * sit together in program order.  A branch of _py_loop is a ?: select, so
 * GCC vectorizes each pass: on AVX2 one vsqrtpd or vdivpd serves all four
 * lanes.  Two build flags let it and change no value: -fno-math-errno (sqrt
 * sets no errno, so needs no call for a negative operand) and
 * -fno-trapping-math (a select may compute both its arms, since no
 * floating-point exception is observed).
 *
 * The block loop is compiled three ways, its lane width a constant each
 * time: point_loop_scalar (4 lanes, baseline ISA), avx2_blocks (4 lanes, a
 * target("avx2") attribute, never -march; AVX2 has no fused multiply-add)
 * and one_lane.  point_loop runs a one-lane call on one_lane, k >= 2 lanes
 * on avx2_blocks on a CPU with AVX2 (vector_loop() says whether it does)
 * and on point_loop_scalar otherwise.  Each lane is bitwise a separate
 * k = 1 call on any of them. */
#include <math.h>

#define INLINE static inline __attribute__((always_inline))

/* Up to 4 lanes, one slot each: parameters, map state, the unit tangent
 * vector q1, the step's two norms, whether the lane is live (1: it has not
 * escaped) and the step at which it escaped.  A lane that escaped keeps
 * its last state; its q1 and norms are never read again. */
struct block {
    double r1[4], r2[4], c1[4], c2[4], c3[4], c4[4];
    double x[4], y[4], q1x[4], q1y[4], n1[4], n2[4];
    long long live[4], at[4];
};

/* Map step s of the w lanes: a live lane whose new state escapes (either
 * component beyond threshold, or NaN) keeps its state and escapes at s.
 * Returns whether any lane is still live. */
INLINE int step(int w, struct block *b, double threshold, long long s)
{
    long long any = 0;
    for (int l = 0; l < w; l++) {
        double x = b->x[l], y = b->y[l];
        double xn = x * b->r1[l] * (1.0 - b->c1[l] * x - b->c2[l] * y);
        double yn = y * b->r2[l] * (1.0 - b->c3[l] * x - b->c4[l] * y);
        long long stay = b->live[l] & (fabs(xn) <= threshold) & (fabs(yn) <= threshold);
        b->at[l] = b->live[l] != stay ? s : b->at[l];
        b->x[l] = stay ? xn : x;
        b->y[l] = stay ? yn : y;
        b->live[l] = stay;
        any |= stay;
    }
    return any != 0;
}

/* Push q1 through the Jacobian at the state and normalize it, keeping
 * its norm n1, and take n2, the area that the Jacobian's image of q1's
 * quarter turn spans over the new q1 (one NaN for any NaN: see _py_loop).
 * With skip set, lanes that escaped are left out: worth it where each lane
 * costs its own instructions, while a vector computes every slot at once.
 * q1 is read once and stored once, after the selects: a select whose else
 * arm re-reads the slot it stores to becomes a masked store. */
INLINE void push(int w, int skip, struct block *b)
{
    for (int l = 0; l < w; l++) {
        if (skip && !b->live[l])
            continue;
        const double r1 = b->r1[l], r2 = b->r2[l], c1 = b->c1[l], c2 = b->c2[l];
        const double c3 = b->c3[l], c4 = b->c4[l], x = b->x[l], y = b->y[l];
        const double q1x = b->q1x[l], q1y = b->q1y[l];
        double j11 = r1 * (1.0 - 2.0 * c1 * x - c2 * y);
        double j12 = -r1 * c2 * x;
        double j21 = -r2 * c3 * y;
        double j22 = r2 * (1.0 - c3 * x - 2.0 * c4 * y);

        double v1x = j11 * q1x + j12 * q1y;
        double v1y = j21 * q1x + j22 * q1y;
        double v2x = j12 * q1x - j11 * q1y;
        double v2y = j22 * q1x - j21 * q1y;

        double n1 = sqrt(v1x * v1x + v1y * v1y);
        double ux = n1 > 0.0 ? v1x / n1 : q1x;
        double uy = n1 > 0.0 ? v1y / n1 : q1y;
        double n2 = fabs(ux * v2y - uy * v2x);
        b->q1x[l] = ux;
        b->q1y[l] = uy;
        b->n1[l] = n1 == n1 ? n1 : NAN;
        b->n2[l] = n2 == n2 ? n2 : NAN;
    }
}

/* The point loop of k lanes, w at a time (w and skip are constants once
 * inlined).  Lane l has parameters params[6l .. 6l+5] and starts from
 * (x0, y0); it writes only its own rows: tail[2 n_record l ..],
 * norm1[n_lyap l ..], norm2[n_lyap l ..], last[2l], last[2l+1] and
 * at_step[l].  The slots of a block past its last lane hold that block's
 * first lane, never live. */
INLINE void blocks(int w, int skip, long long k, const double *params, double x0, double y0,
                   long long n_transient, long long n_record, long long n_lyap,
                   double threshold, double *tail, double *norm1, double *norm2,
                   double *last, long long *at_step)
{
    long long n_post = n_record > n_lyap ? n_record : n_lyap;
    for (long long g = 0; g < k; g += w) {
        int n = k - g < w ? (int)(k - g) : w;
        struct block b;
        for (int l = 0; l < w; l++) {
            const double *p = params + 6 * (g + (l < n ? l : 0));
            b.r1[l] = p[0], b.r2[l] = p[1], b.c1[l] = p[2];
            b.c2[l] = p[3], b.c3[l] = p[4], b.c4[l] = p[5];
            b.x[l] = x0, b.y[l] = y0;
            b.q1x[l] = 1.0, b.q1y[l] = 0.0;
            b.live[l] = l < n, b.at[l] = 0;
        }
        int live = 1;
        for (long long s = 1; s <= n_transient && live; s++)
            live = step(w, &b, threshold, s);
        for (long long i = 0; i < n_post && live; i++) {
            if (i < n_lyap) {
                push(w, skip, &b);
                for (int l = 0; l < n; l++) {
                    if (b.live[l]) {
                        norm1[(g + l) * n_lyap + i] = b.n1[l];
                        norm2[(g + l) * n_lyap + i] = b.n2[l];
                    }
                }
            }
            live = step(w, &b, threshold, n_transient + i + 1);
            for (int l = 0; l < n && i < n_record; l++) {
                if (b.live[l]) {
                    tail[2 * ((g + l) * n_record + i)] = b.x[l];
                    tail[2 * ((g + l) * n_record + i) + 1] = b.y[l];
                }
            }
        }
        for (int l = 0; l < n; l++) {
            last[2 * (g + l)] = b.x[l];
            last[2 * (g + l) + 1] = b.y[l];
            at_step[g + l] = b.at[l];
        }
    }
}

/* The block loop on the baseline ISA: point_loop's contract on any CPU.
 * Skipping escaped lanes pays here: GCC leaves these passes scalar. */
void point_loop_scalar(long long k, const double *params, double x0, double y0,
                       long long n_transient, long long n_record, long long n_lyap,
                       double threshold, double *tail, double *norm1, double *norm2,
                       double *last, long long *at_step)
{
    blocks(4, 1, k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2,
           last, at_step);
}

/* One lane: the block loop with no other lane to wait for or compute. */
static void one_lane(const double *params, double x0, double y0, long long n_transient,
                     long long n_record, long long n_lyap, double threshold, double *tail,
                     double *norm1, double *norm2, double *last, long long *at_step)
{
    blocks(1, 0, 1, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2,
           last, at_step);
}

#if defined(__x86_64__) && defined(__GNUC__)
/* The block loop built for AVX2: one vector per quantity of a block. */
static __attribute__((target("avx2"))) void
avx2_blocks(long long k, const double *params, double x0, double y0, long long n_transient,
            long long n_record, long long n_lyap, double threshold, double *tail,
            double *norm1, double *norm2, double *last, long long *at_step)
{
    blocks(4, 0, k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2,
           last, at_step);
}
#endif

/* 1 if point_loop runs k >= 2 lanes on the AVX2 loop, 0 if on
 * point_loop_scalar. */
int vector_loop(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* point_loop_scalar's contract, on the loop that is fastest for k. */
void point_loop(long long k, const double *params, double x0, double y0,
                long long n_transient, long long n_record, long long n_lyap, double threshold,
                double *tail, double *norm1, double *norm2, double *last, long long *at_step)
{
    if (k == 1) {
        one_lane(params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2,
                 last, at_step);
        return;
    }
#if defined(__x86_64__) && defined(__GNUC__)
    if (vector_loop()) {
        avx2_blocks(k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1,
                    norm2, last, at_step);
        return;
    }
#endif
    point_loop_scalar(k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1,
                      norm2, last, at_step);
}
