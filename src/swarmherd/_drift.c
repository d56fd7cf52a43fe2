/* Pairwise drift of targets under herders on the periodic square [-pi, pi)^2.
 *
 * Each pair adds the exact nearest-image term of the kernel
 * (x / |x|) exp(-|x| / L) to the tail of the other images. The image block is
 * symmetric, so the tail of a wrapped displacement d is
 * (sign(d_0) Q(|d_0|, |d_1|), sign(d_1) Q(|d_1|, |d_0|)), with Q read from
 * the cubic table of microsim._tail_table: the cell (i, j) of side pi / cells
 * holding (|d_k|, |d_other|), the fractions (u, v) in [0, 1) within it, and
 * a Horner evaluation of the cell's 10 coefficients in the order of
 * microsim._POWERS. The table comes cell by cell, so one pair's coefficients
 * share two cache lines. Both positions must be wrapped into [-pi, pi).
 *
 * The exponential is the kernel's own, neg_exp, built from add, sub and mul
 * alone, so its bits do not depend on the host's libm (glibc on x86-64 loads
 * an FMA build of exp where the CPU has FMA). On x86-64 CPUs with AVX2,
 * drift_group drifts four consecutive targets at once, one per lane of each
 * vector; every lane performs drift_row's operations in the same order, so a
 * row's bits depend neither on the lanes nor on the block size. The vector
 * code is that one function, compiled for AVX2 by its own attribute and run
 * only where the CPU reports AVX2; the rest builds for any host. Built by
 * microsim._compiled_drift without -march, -ffast-math or contraction, so
 * every operation rounds as written, on any build host.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_LANES 1
#include <immintrin.h>
#endif

#define PI 3.141592653589793
#define TWO_PI 6.283185307179586

/* neg_exp(x) = exp(-x): with z = -min(x, EXP_LIMIT) and n = round(z / ln 2),
 * the Cody-Waite remainder s = (z - n LN2_HI) - n LN2_LO lies in
 * [-ln 2 / 2, ln 2 / 2], where the Taylor polynomial of degree 13 is exp(s)
 * to 4e-18; adding n to the exponent bits then scales it by 2^n exactly. The
 * polynomial is 1 + s + s^2 (b0 + b1 s^4 + b2 s^8), each b a cubic in s:
 * Estrin's scheme, a third of Horner's chain of dependent operations.
 * Beyond EXP_LIMIT, where exp(-x) < 3.3e-308, it is 0. Within 1 ulp of
 * math.exp on [0, EXP_LIMIT] as measured (3 million points). */
#define EXP_LIMIT 708.0 /* 2^n stays normal: n >= -1021 */
#define LOG2E 1.4426950408889634
#define LN2_HI 6.93147180369123816490e-01 /* 32 bits: n LN2_HI is exact */
#define LN2_LO 1.90821492927058770002e-10
#define SHIFT 6755399441055744.0 /* 1.5 * 2^52: z / ln 2 + SHIFT rounds to n */

static const double INV_FACTORIAL[14] = {  /* 1 / k!, k = 0 to 13 */
    1.0, 1.0, 0.5, 0.16666666666666666, 0.041666666666666664,
    0.008333333333333333, 0.001388888888888889, 0.0001984126984126984,
    2.48015873015873e-05, 2.7557319223985893e-06, 2.755731922398589e-07,
    2.505210838544172e-08, 2.08767569878681e-09, 1.6059043836821613e-10,
};

static double neg_exp(double x)
{
    double z = -(x < EXP_LIMIT ? x : EXP_LIMIT);
    double t = z * LOG2E + SHIFT; /* the bits of SHIFT + n */
    double n = t - SHIFT;
    double s = (z - n * LN2_HI) - n * LN2_LO;
    const double *c = INV_FACTORIAL;
    double s2 = s * s, s4 = s2 * s2, s8 = s4 * s4;
    double b0 = (c[2] + c[3] * s) + (c[4] + c[5] * s) * s2;
    double b1 = (c[6] + c[7] * s) + (c[8] + c[9] * s) * s2;
    double b2 = (c[10] + c[11] * s) + (c[12] + c[13] * s) * s2;
    double p = 1.0 + (s + s2 * ((b0 + b1 * s4) + b2 * s8));
    /* the low 12 bits of SHIFT's bits are 0: shifted by 52 they leave n */
    uint64_t bits, power;
    memcpy(&bits, &p, sizeof bits);
    memcpy(&power, &t, sizeof power);
    bits += power << 52;
    memcpy(&p, &bits, sizeof p);
    return x > EXP_LIMIT ? 0.0 : p;
}

/* out[i] = neg_exp(x[i]) for i < n: the kernel's exp(-x), exported for tests */
void drift_exp(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = neg_exp(x[i]);
}

/* The unnormalized drift (2 values) of one target (2 values) under n_h
 * herders, summed over the herders in index order. */
static void drift_row(const double *target, const double *herders, int64_t n_h,
                      double length, const double *table, int64_t cells, double *out)
{
    const double scale = (double)cells / PI;
    const double top = (double)(cells - 1);
    double near[2] = {0.0, 0.0}, tail[2] = {0.0, 0.0};

    for (int64_t h = 0; h < n_h; h++) {
        double d[2], sign[2], frac[2];
        int64_t cell[2];
        for (int c = 0; c < 2; c++) {
            /* both ends lie in [-pi, pi): one exact shift wraps d */
            double x = target[c] - herders[2 * h + c];
            if (x >= PI)
                x -= TWO_PI;
            else if (x < -PI)
                x += TWO_PI;
            d[c] = x;
        }
        double r = sqrt(d[0] * d[0] + d[1] * d[1]);
        double e = neg_exp(r / length);
        if (r > 0.0)
            e /= r;
        for (int c = 0; c < 2; c++) {
            near[c] += d[c] * e;
            double a = fabs(d[c]) * scale;
            double whole = trunc(a);
            whole = whole < top ? whole : top;
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
    out[0] = near[0] + tail[0];
    out[1] = near[1] + tail[1];
}

#ifdef HAVE_LANES
/* drift_row of the four targets from `targets` on, lane j holding target j:
 * each herder is broadcast to all four lanes, and each lane performs
 * drift_row's operations, neg_exp's among them, in the same order. Every
 * vector stays inside this function: a vector argument or result would pass
 * differently with and without AVX (gcc's -Wpsabi). The table's offsets
 * must fit 32 bits. */
__attribute__((target("avx2")))
static void drift_group(const double *targets, const double *herders, int64_t n_h,
                        double length, const double *table, int64_t cells, double *out)
{
    const __m256d pi = _mm256_set1_pd(PI), neg_pi = _mm256_set1_pd(-PI);
    const __m256d two_pi = _mm256_set1_pd(TWO_PI), zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0), neg_zero = _mm256_set1_pd(-0.0);
    const __m256d len = _mm256_set1_pd(length), limit = _mm256_set1_pd(EXP_LIMIT);
    const __m256d scale = _mm256_set1_pd((double)cells / PI);
    const __m256d top = _mm256_set1_pd((double)(cells - 1));
    const __m128i row = _mm_set1_epi32((int32_t)cells), ten = _mm_set1_epi32(10);
    const __m256d coord[2] = { /* coordinate c of the four targets */
        _mm256_set_pd(targets[6], targets[4], targets[2], targets[0]),
        _mm256_set_pd(targets[7], targets[5], targets[3], targets[1]),
    };
    __m256d near[2] = {zero, zero}, tail[2] = {zero, zero};

    for (int64_t h = 0; h < n_h; h++) {
        __m256d d[2], sign[2], frac[2];
        __m128i cell[2];
        for (int c = 0; c < 2; c++) {
            __m256d x = _mm256_sub_pd(coord[c], _mm256_broadcast_sd(herders + 2 * h + c));
            __m256d high = _mm256_cmp_pd(x, pi, _CMP_GE_OQ);
            __m256d low = _mm256_cmp_pd(x, neg_pi, _CMP_LT_OQ);
            x = _mm256_blendv_pd(x, _mm256_sub_pd(x, two_pi), high);
            d[c] = _mm256_blendv_pd(x, _mm256_add_pd(x, two_pi), low);
        }
        __m256d r = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(d[0], d[0]),
                                                 _mm256_mul_pd(d[1], d[1])));
        /* neg_exp(r / length) */
        __m256d x = _mm256_div_pd(r, len);
        __m256d z = _mm256_xor_pd(_mm256_min_pd(x, limit), neg_zero);
        __m256d t = _mm256_add_pd(_mm256_mul_pd(z, _mm256_set1_pd(LOG2E)),
                                  _mm256_set1_pd(SHIFT));
        __m256d n = _mm256_sub_pd(t, _mm256_set1_pd(SHIFT));
        __m256d s = _mm256_sub_pd(_mm256_sub_pd(z, _mm256_mul_pd(n, _mm256_set1_pd(LN2_HI))),
                                  _mm256_mul_pd(n, _mm256_set1_pd(LN2_LO)));
        __m256d s2 = _mm256_mul_pd(s, s), s4 = _mm256_mul_pd(s2, s2);
        __m256d s8 = _mm256_mul_pd(s4, s4);
#define C(k) _mm256_set1_pd(INV_FACTORIAL[k])
#define LINEAR(k) _mm256_add_pd(C(k), _mm256_mul_pd(C((k) + 1), s))
#define CUBIC(k) _mm256_add_pd(LINEAR(k), _mm256_mul_pd(LINEAR((k) + 2), s2))
        __m256d b = _mm256_add_pd(_mm256_add_pd(CUBIC(2), _mm256_mul_pd(CUBIC(6), s4)),
                                  _mm256_mul_pd(CUBIC(10), s8));
#undef CUBIC
#undef LINEAR
#undef C
        __m256d p = _mm256_add_pd(_mm256_set1_pd(1.0),
                                  _mm256_add_pd(s, _mm256_mul_pd(s2, b)));
        p = _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(p), _mm256_slli_epi64(_mm256_castpd_si256(t), 52)));
        __m256d e = _mm256_andnot_pd(_mm256_cmp_pd(x, limit, _CMP_GT_OQ), p);
        e = _mm256_blendv_pd(e, _mm256_div_pd(e, r), _mm256_cmp_pd(r, zero, _CMP_GT_OQ));
        for (int c = 0; c < 2; c++) {
            near[c] = _mm256_add_pd(near[c], _mm256_mul_pd(d[c], e));
            __m256d a = _mm256_mul_pd(_mm256_andnot_pd(neg_zero, d[c]), scale);
            __m256d whole = _mm256_min_pd(
                _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC), top);
            frac[c] = _mm256_sub_pd(a, whole);
            cell[c] = _mm256_cvttpd_epi32(whole);
            sign[c] = _mm256_sub_pd(_mm256_and_pd(_mm256_cmp_pd(d[c], zero, _CMP_GT_OQ), one),
                                    _mm256_and_pd(_mm256_cmp_pd(d[c], zero, _CMP_LT_OQ), one));
        }
        for (int k = 0; k < 2; k++) {
            const __m256d u = frac[k], v = frac[1 - k];
            const __m128i at = _mm_mullo_epi32(
                _mm_add_epi32(_mm_mullo_epi32(cell[k], row), cell[1 - k]), ten);
#define Q(m) _mm256_i32gather_pd(table + (m), at, 8)
            __m256d c3 = Q(3);
            c3 = _mm256_add_pd(_mm256_mul_pd(c3, v), Q(2));
            c3 = _mm256_add_pd(_mm256_mul_pd(c3, v), Q(1));
            c3 = _mm256_add_pd(_mm256_mul_pd(c3, v), Q(0));
            __m256d c6 = Q(6);
            c6 = _mm256_add_pd(_mm256_mul_pd(c6, v), Q(5));
            c6 = _mm256_add_pd(_mm256_mul_pd(c6, v), Q(4));
            __m256d c8 = _mm256_add_pd(_mm256_mul_pd(Q(8), v), Q(7));
            __m256d c9 = Q(9);
#undef Q
            c9 = _mm256_add_pd(_mm256_mul_pd(c9, u), c8);
            c9 = _mm256_add_pd(_mm256_mul_pd(c9, u), c6);
            tail[k] = _mm256_add_pd(tail[k], _mm256_mul_pd(
                sign[k], _mm256_add_pd(_mm256_mul_pd(c9, u), c3)));
        }
    }
    double sums[2][4];
    for (int c = 0; c < 2; c++)
        _mm256_storeu_pd(sums[c], _mm256_add_pd(near[c], tail[c]));
    for (int j = 0; j < 4; j++) {
        out[2 * j] = sums[0][j];
        out[2 * j + 1] = sums[1][j];
    }
}
#endif

/* 4 where drift_blocks drifts four targets per AVX2 lane group, 1 where it
 * drifts each row alone. */
int drift_lanes(void)
{
#ifdef HAVE_LANES
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 1;
}

/* Unnormalized drift rows of targets (n_t x 2) under herders (n_h x 2) into
 * out (n_t x 2), all row-major; table holds cells * cells rows of 10
 * coefficients. Block j is the `block` targets from row j * block on (fewer in the last);
 * each caller takes block indices from *next until none is left, so any
 * number of threads can share one call. Rows are disjoint and each is summed
 * over the herders in index order, so the bits do not depend on the split.
 * Where drift_lanes() is 4, each block runs its targets four at a time and
 * its last 1 to 3 alone. */
void drift_blocks(const double *targets, int64_t n_t, const double *herders,
                  int64_t n_h, double length, const double *table, int64_t cells,
                  int64_t block, int64_t *next, double *out)
{
#ifdef HAVE_LANES
    const int lanes = 10 * cells * cells <= INT32_MAX ? drift_lanes() : 1;
#endif

    for (;;) {
        int64_t lo = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED) * block;
        if (lo >= n_t)
            return;
        int64_t hi = lo + block < n_t ? lo + block : n_t;
        int64_t t = lo;
#ifdef HAVE_LANES
        if (lanes == 4)
            for (; t + 4 <= hi; t += 4)
                drift_group(targets + 2 * t, herders, n_h, length, table, cells, out + 2 * t);
#endif
        for (; t < hi; t++)
            drift_row(targets + 2 * t, herders, n_h, length, table, cells, out + 2 * t);
    }
}
