/* The compiled library of ecokmap._kernels: the point loop, then
 * render_rows, the CSV and SVG row renderer (its own comment, below).
 *
 * The point loop: the operations of
 * _kernels._py_loop, which documents the contract, in the same order.
 * Only + - * /, sqrt and fabs are used, all correctly rounded, so built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * its results are bitwise those of the Python loop.
 *
 * The point loop runs k points (lanes) in lockstep, in blocks of 4.  One
 * step of one point is a chain of a square root and two divisions that the
 * core must wait on; the lanes' chains are independent, so they run side
 * by side.  The block loop is written once, in plain C: each step is two
 * passes over the block's lanes (push, map step), a short stretch of every
 * lane's chain per pass, so neighbouring lanes' square roots and divisions
 * sit together in program order.  A branch of _py_loop is a ?: select, so
 * GCC vectorizes each pass: on x86-64's baseline ISA (SSE2) one sqrtpd or
 * divpd serves two lanes, on AVX2 one vsqrtpd or vdivpd all four.  Two build
 * flags let it and change no value: -fno-math-errno (sqrt sets no errno,
 * so needs no call for a negative operand) and -fno-trapping-math (a
 * select may compute both its arms, since no floating-point exception is
 * observed).
 *
 * The block loop is built twice from that one source: point_loop_scalar on
 * the baseline ISA and avx2_blocks with a target("avx2") attribute, never
 * -march (AVX2 has no fused multiply-add).  _kernels._c_loop binds one of
 * them when the library loads: avx2_blocks where vector_loop() says the
 * CPU has AVX2, else point_loop_scalar.  Each lane is bitwise a separate
 * k = 1 call on either. */
#include <math.h>

#define INLINE static inline __attribute__((always_inline))

/* The lanes of a block. */
enum { W = 4 };

/* W lanes, one slot each: parameters, map state, the unit tangent vector
 * q1, the step's two norms, whether the lane is live (1: it has not
 * escaped) and the step at which it escaped.  A lane that escaped keeps
 * its last state; its q1 and norms are never read again. */
struct block {
    double r1[W], r2[W], c1[W], c2[W], c3[W], c4[W];
    double x[W], y[W], q1x[W], q1y[W], n1[W], n2[W];
    long long live[W], at[W];
};

/* Map step s of the block: a live lane whose new state escapes (either
 * component beyond threshold, or NaN) keeps its state and escapes at s.
 * Returns whether any lane is still live. */
INLINE int step(struct block *b, double threshold, long long s)
{
    long long any = 0;
    for (int l = 0; l < W; l++) {
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
 * Every slot is computed, a lane that escaped too, so each quantity of the
 * pass is one vector operation; blocks never writes an escaped lane's
 * norms.  q1 is read once and stored once, after the selects: a select
 * whose else arm re-reads the slot it stores to becomes a masked store. */
INLINE void push(struct block *b)
{
    for (int l = 0; l < W; l++) {
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

/* The point loop of k lanes, W at a time.  Lane l has parameters
 * params[6l .. 6l+5] and starts from (x0, y0); it writes only its own
 * rows: tail[2 n_record l ..], norm1[n_lyap l ..], norm2[n_lyap l ..],
 * last[2l], last[2l+1] and at_step[l].  The slots of a block past its last
 * lane hold that block's first lane, never live. */
INLINE void blocks(long long k, const double *params, double x0, double y0,
                   long long n_transient, long long n_record, long long n_lyap,
                   double threshold, double *tail, double *norm1, double *norm2,
                   double *last, long long *at_step)
{
    long long n_post = n_record > n_lyap ? n_record : n_lyap;
    for (long long g = 0; g < k; g += W) {
        int n = k - g < W ? (int)(k - g) : W;
        struct block b;
        for (int l = 0; l < W; l++) {
            const double *p = params + 6 * (g + (l < n ? l : 0));
            b.r1[l] = p[0], b.r2[l] = p[1], b.c1[l] = p[2];
            b.c2[l] = p[3], b.c3[l] = p[4], b.c4[l] = p[5];
            b.x[l] = x0, b.y[l] = y0;
            b.q1x[l] = 1.0, b.q1y[l] = 0.0;
            b.live[l] = l < n, b.at[l] = 0;
        }
        int live = 1;
        for (long long s = 1; s <= n_transient && live; s++)
            live = step(&b, threshold, s);
        for (long long i = 0; i < n_post && live; i++) {
            if (i < n_lyap) {
                push(&b);
                for (int l = 0; l < n; l++) {
                    if (b.live[l]) {
                        norm1[(g + l) * n_lyap + i] = b.n1[l];
                        norm2[(g + l) * n_lyap + i] = b.n2[l];
                    }
                }
            }
            live = step(&b, threshold, n_transient + i + 1);
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

/* The block loop on the baseline ISA, for any CPU. */
void point_loop_scalar(long long k, const double *params, double x0, double y0,
                       long long n_transient, long long n_record, long long n_lyap,
                       double threshold, double *tail, double *norm1, double *norm2,
                       double *last, long long *at_step)
{
    blocks(k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2, last,
           at_step);
}

#if defined(__x86_64__) && defined(__GNUC__)
/* The block loop built for AVX2: one vector per quantity of a block.  Call
 * it only where vector_loop() is 1. */
__attribute__((target("avx2"))) void
avx2_blocks(long long k, const double *params, double x0, double y0, long long n_transient,
            long long n_record, long long n_lyap, double threshold, double *tail,
            double *norm1, double *norm2, double *last, long long *at_step)
{
    blocks(k, params, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2, last,
           at_step);
}
#endif

/* 1 if this CPU runs avx2_blocks (built here, and the CPU has AVX2), else 0:
 * which of the two builds _kernels._c_loop binds. */
int vector_loop(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* render_rows: the data rows of csvio's tables and svgplot's plots.  A row
 * is a template of n slots, each a literal piece and then one value of its
 * column, and a closing literal.  A value is written byte for byte as
 * Python's % writes it: 'g' a double as %.17g, 'f' a double as %.2f, 'd' a
 * long long as %d, 's' a long long index into a table of strings.  NaN of
 * either sign is "nan" (glibc would print "-nan"), infinities "inf" and
 * "-inf".
 *
 * Both float conversions are exact: a finite v is m 2^e with m an integer,
 * so v scaled by a power of ten is an integer product whose rounding, half
 * to even, needs no floating point.  %.17g takes D = m 5^q 2^(e+q), the 17
 * digits of v at scale 10^q, in 128-bit integers for 0 <= q <= 27 (about
 * 1e-11 <= |v| < 1e17); %.2f takes m 25 2^(e+2) in 64 bits for |v| < 2^50.
 * Other finite values go to snprintf, which is exact in glibc. */
#include <stdio.h>
#include <string.h>

typedef unsigned long long u64;

/* The most bytes one value takes: %.17g "-2.2250738585072014e-308", %.2f
 * of -DBL_MAX (309 digits before the point) and %d of -2^63.  csvio and
 * svgplot size their buffers from the same figures (_kernels._WIDEST). */
enum { WIDEST_G = 24, WIDEST_F = 313, WIDEST_D = 20 };

/* One slot of a row template; the layout of _kernels._SLOT. */
struct slot {
    const char *pre;       /* the literal before the value */
    long long pre_len;
    long long kind;        /* 'g', 'f', 'd' or 's' */
    const char *col;       /* row 0's value: a double or a long long */
    long long stride;      /* bytes from one row's value to the next */
    const char *text;      /* 's': the strings, concatenated */
    const long long *ends; /* 's': string j is text[ends[j] .. ends[j + 1]) */
};

static const char two_digits[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The n lowest decimal digits of v, zero-padded, at o[0 .. n). */
static void put_digits(u64 v, int n, char *o)
{
    for (; n >= 2; v /= 100) {
        n -= 2;
        memcpy(o + n, two_digits + 2 * (v % 100), 2);
    }
    if (n)
        o[0] = (char)('0' + v % 10);
}

/* v in decimal at o; returns its length. */
static int put_u64(u64 v, char *o)
{
    int n = 1;
    for (u64 p = 10; n < 20 && v >= p; p *= 10)
        n++;
    put_digits(v, n, o);
    return n;
}

/* v through snprintf's conversion fmt, at most widest bytes, at o, with no
 * terminating NUL (which could fall past the widest bytes the caller
 * has); returns its length. */
static int put_printf(const char *fmt, double v, int widest, char *o)
{
    char text[WIDEST_F + 1];
    int n = snprintf(text, (size_t)widest + 1, fmt, v);
    memcpy(o, text, (size_t)n);
    return n;
}

/* "nan" (either sign), "inf" or "-inf" at o; returns its length. */
static int put_special(int nan, int neg, char *o)
{
    const char *s = nan ? "nan" : neg ? "-inf" : "inf";
    int n = (int)strlen(s);
    memcpy(o, s, (size_t)n);
    return n;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define P16 10000000000000000ULL

/* The 17 significant digits of m 2^e (2^52 <= m < 2^53), rounded half to
 * even, as an integer P16 <= *digits < 10 P16, and the decimal exponent of
 * its first digit; 0 where the scale 10^(16 - exponent) is not 1 .. 10^27.
 * The exponent starts from e's estimate floor((e + 52) log10 2), which
 * the first truncated D corrects by one at a time. */
static int digits17(u64 m, int e, u64 *digits, int *exp10)
{
    static const u64 pow5[28] = {
        1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
        1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
        30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
        19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
        11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
        1490116119384765625ULL, 7450580596923828125ULL,
    };
    int e2 = e + 52;
    int d = e2 >= 0 ? e2 * 78913 >> 18 : -((-e2 * 78913 + 262143) >> 18);
    for (int tries = 0; tries < 4; tries++) {
        int q = 16 - d, s = e + q;
        if (q < 0 || q > 27 || s > 11 || s < -120)
            return 0;
        u128 n = (u128)m * pow5[q], t, r = 0, half = 0;
        if (s >= 0) {
            t = n << s;
        } else {
            t = n >> -s;
            r = n & (((u128)1 << -s) - 1);
            half = (u128)1 << (-s - 1);
        }
        if (t >= 10 * (u128)P16) {
            d++;
        } else if (t < P16) {
            d--;
        } else {
            t += half && (r > half || (r == half && (t & 1)));
            if (t == 10 * (u128)P16) {
                t = P16;
                d++;
            }
            *digits = (u64)t;
            *exp10 = d;
            return 1;
        }
    }
    return 0;
}

/* %.17g of the 17 digits D with decimal exponent x (-11 <= x <= 17). */
static int put_g17(int neg, u64 digits, int x, char *o)
{
    char dig[17], *p = o;
    put_digits(digits, 17, dig);
    int last = 16; /* the last digit kept: trailing zeros go */
    while (dig[last] == '0')
        last--;
    if (neg)
        *p++ = '-';
    if (x < -4 || x >= 17) {
        *p++ = dig[0];
        if (last > 0) {
            *p++ = '.';
            memcpy(p, dig + 1, (size_t)last);
            p += last;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        put_digits((u64)(x < 0 ? -x : x), 2, p);
        p += 2;
    } else if (x >= 0) {
        memcpy(p, dig, (size_t)x + 1);
        p += x + 1;
        if (last > x) {
            *p++ = '.';
            memcpy(p, dig + x + 1, (size_t)(last - x));
            p += last - x;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)(-x - 1));
        p += -x - 1;
        memcpy(p, dig, (size_t)last + 1);
        p += last + 1;
    }
    return (int)(p - o);
}
#endif

/* v as %.17g at o, with at least WIDEST_G bytes there; returns its length. */
static int put_g(double v, char *o)
{
    u64 bits;
    memcpy(&bits, &v, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    u64 m = bits & ((1ULL << 52) - 1);
    if (biased == 0x7ff)
        return put_special(m != 0, neg, o);
#ifdef __SIZEOF_INT128__
    u64 digits;
    int x;
    if (biased && digits17(m | 1ULL << 52, biased - 1075, &digits, &x))
        return put_g17(neg, digits, x, o);
#endif
    return put_printf("%.17g", v, WIDEST_G, o);
}

/* v as %.2f at o, with at least WIDEST_F bytes there; returns its length. */
static int put_f(double v, char *o)
{
    u64 bits;
    memcpy(&bits, &v, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    u64 m = bits & ((1ULL << 52) - 1);
    if (biased == 0x7ff)
        return put_special(m != 0, neg, o);
    if (biased >= 1023 + 50)
        return put_printf("%.2f", v, WIDEST_F, o);
    /* |v| 100 = m 25 2^(e+2), e = biased - 1075 (1 - 1075 if subnormal):
     * at most 2^58 before a right shift of s >= 1. */
    int s = 1073 - (biased ? biased : 1);
    u64 n = (biased ? m | 1ULL << 52 : m) * 25, t = 0;
    if (s < 64) {
        u64 r = n & ((1ULL << s) - 1), half = 1ULL << (s - 1);
        t = n >> s;
        t += r > half || (r == half && (t & 1));
    }
    char *p = o;
    if (neg)
        *p++ = '-';
    p += put_u64(t / 100, p);
    *p++ = '.';
    put_digits(t % 100, 2, p);
    return (int)(p + 2 - o);
}

/* v as %d at o; returns its length. */
static int put_d(long long v, char *o)
{
    if (v >= 0)
        return put_u64((u64)v, o);
    *o = '-';
    return 1 + put_u64(-(u64)v, o + 1);
}

/* Rows start .. stop - 1 of the n slots and the closing literal post, at
 * out, as many whole rows as cap bytes hold.  Returns the row after the
 * last one written and sets *used to the bytes written. */
long long render_rows(long long n, const struct slot *slots, const char *post,
                      long long post_len, long long start, long long stop, char *out,
                      long long cap, long long *used)
{
    long long pos = 0, row = start;
    for (; row < stop; row++) {
        long long row_at = pos;
        for (long long k = 0; k < n; k++) {
            const struct slot *sl = slots + k;
            u64 bits;
            memcpy(&bits, sl->col + row * sl->stride, sizeof bits);
            long long len = sl->kind == 's' ? sl->ends[bits + 1] - sl->ends[bits]
                            : sl->kind == 'f' ? WIDEST_F
                            : sl->kind == 'd' ? WIDEST_D
                                              : WIDEST_G;
            if (cap - pos < sl->pre_len + len) {
                pos = row_at;
                goto done;
            }
            memcpy(out + pos, sl->pre, (size_t)sl->pre_len);
            pos += sl->pre_len;
            if (sl->kind == 's') {
                memcpy(out + pos, sl->text + sl->ends[bits], (size_t)len);
            } else if (sl->kind == 'd') {
                len = put_d((long long)bits, out + pos);
            } else {
                double v;
                memcpy(&v, &bits, sizeof v);
                len = sl->kind == 'f' ? put_f(v, out + pos) : put_g(v, out + pos);
            }
            pos += len;
        }
        if (cap - pos < post_len) {
            pos = row_at;
            goto done;
        }
        memcpy(out + pos, post, (size_t)post_len);
        pos += post_len;
    }
done:
    *used = pos;
    return row;
}
