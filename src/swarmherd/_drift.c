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
 * The drift is written once, for a group of four targets in GCC/clang
 * vectors, one target per lane; every lane performs the same operations in
 * the same order, so a row's bits depend on no other target. The group body
 * is compiled twice: for the baseline ISA, and for AVX2 by a target
 * attribute, run only where the CPU reports AVX2. The exponential is the
 * kernel's own, neg_exp, built from add, sub and mul alone, so its bits do
 * not depend on the host's libm (glibc on x86-64 loads an FMA build of exp
 * where the CPU has FMA). Built by microsim._compiled_drift without -march,
 * -ffast-math or contraction, so every operation rounds as written, on any
 * build host. A vector is never passed or returned by value: that passes
 * differently with and without AVX (gcc's -Wpsabi).
 *
 * The same library writes fileio's table and field text (text_rows, at the
 * end), so the package builds and loads one library.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define PI 3.141592653589793
#define TWO_PI 6.283185307179586

typedef double v4d __attribute__((vector_size(32)));
typedef uint64_t v4u __attribute__((vector_size(32)));
typedef int32_t v4i __attribute__((vector_size(16)));
/* four unaligned doubles, read as any type may be */
typedef double v4d_any __attribute__((vector_size(32), aligned(8), may_alias));

#define INLINE static inline __attribute__((always_inline))
#if defined(__clang__) || __GNUC__ >= 12
#define SHUFFLE(a, b, i, j, k, l) __builtin_shufflevector(a, b, i, j, k, l)
#else /* gcc before 12 has only __builtin_shuffle */
#define SHUFFLE(a, b, i, j, k, l) __builtin_shuffle(a, b, (v4u){i, j, k, l})
#endif
#define LOAD(p) (*(const v4d_any *)(p))
#define SPLAT(x) ((v4d){(x), (x), (x), (x)})
/* lane by lane, a where the comparison m holds, else b */
#define SELECT(m, a, b) ((v4d)(((v4u)(m) & (v4u)(a)) | (~(v4u)(m) & (v4u)(b))))

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

/* *out = exp(-*x), lane by lane */
INLINE void neg_exp(const v4d *x, v4d *out)
{
    const double *c = INV_FACTORIAL;
    v4d z = -SELECT(*x < EXP_LIMIT, *x, SPLAT(EXP_LIMIT));
    v4d t = z * LOG2E + SHIFT; /* the bits of SHIFT + n */
    v4d n = t - SHIFT;
    v4d s = (z - n * LN2_HI) - n * LN2_LO;
    v4d s2 = s * s, s4 = s2 * s2, s8 = s4 * s4;
    v4d b0 = (c[2] + c[3] * s) + (c[4] + c[5] * s) * s2;
    v4d b1 = (c[6] + c[7] * s) + (c[8] + c[9] * s) * s2;
    v4d b2 = (c[10] + c[11] * s) + (c[12] + c[13] * s) * s2;
    v4d p = 1.0 + (s + s2 * ((b0 + b1 * s4) + b2 * s8));
    /* the low 12 bits of SHIFT's bits are 0: shifted by 52 they leave n */
    p = (v4d)((v4u)p + ((v4u)t << 52));
    *out = (v4d)(~(v4u)(*x > EXP_LIMIT) & (v4u)p);
}

/* out[i] = neg_exp(x[i]) for i < n: the kernel's exp(-x), exported for tests */
void drift_exp(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i += 4) {
        v4d v = SPLAT(0.0), e;
        for (int j = 0; j < 4 && i + j < n; j++)
            v[j] = x[i + j];
        neg_exp(&v, &e);
        for (int j = 0; j < 4 && i + j < n; j++)
            out[i + j] = e[j];
    }
}

/* c[0..3] = the columns of the 4 x 4 matrix of rows r0 to r3 */
#define TRANSPOSE(r0, r1, r2, r3, c)                \
    do {                                            \
        v4d even01 = SHUFFLE(r0, r1, 0, 4, 2, 6);   \
        v4d odd01 = SHUFFLE(r0, r1, 1, 5, 3, 7);    \
        v4d even23 = SHUFFLE(r2, r3, 0, 4, 2, 6);   \
        v4d odd23 = SHUFFLE(r2, r3, 1, 5, 3, 7);    \
        c[0] = SHUFFLE(even01, even23, 0, 1, 4, 5); \
        c[1] = SHUFFLE(odd01, odd23, 0, 1, 4, 5);   \
        c[2] = SHUFFLE(even01, even23, 2, 3, 6, 7); \
        c[3] = SHUFFLE(odd01, odd23, 2, 3, 6, 7);   \
    } while (0)

/* d = x - herder wrapped into [-pi, pi), and for |d| its cell, its fraction
 * in that cell and the sign of d, lane by lane */
INLINE void axis(const v4d *x, double herder, const v4d *scale, const v4d *top,
                 v4d *d, v4i *cell, v4d *frac, v4d *sign)
{
    /* both ends lie in [-pi, pi): one exact shift wraps d */
    v4d w = *x - herder;
    *d = SELECT(w >= PI, w - TWO_PI, SELECT(w < -PI, w + TWO_PI, w));
    v4d a = (v4d)((v4u)*d & 0x7fffffffffffffffu) * *scale;
    /* trunc(min(a, top)), which is min(trunc(a), top): top is whole */
    *cell = __builtin_convertvector(SELECT(a < *top, a, *top), v4i);
    *frac = a - __builtin_convertvector(*cell, v4d);
    const v4u one = (v4u)SPLAT(1.0);
    *sign = (v4d)((v4u)(*d > 0.0) & one) - (v4d)((v4u)(*d < 0.0) & one);
}

/* *out = Q(u, v) in the cell (i, o) of lane j, from the table's 10
 * coefficients: each lane's 80-byte row is loaded as its coefficients 0-3,
 * 4-7 and 6-9, and the three 4 x 4 blocks are transposed. */
INLINE void tail_q(const double *table, int64_t cells, const v4i *i, const v4i *o,
                   const v4d *u, const v4d *v, v4d *out)
{
#define ROW(j) (table + 10 * ((*i)[j] * cells + (*o)[j]))
    const double *row[4] = {ROW(0), ROW(1), ROW(2), ROW(3)};
#undef ROW
    v4d q[10], high[4];
    TRANSPOSE(LOAD(row[0]), LOAD(row[1]), LOAD(row[2]), LOAD(row[3]), q);
    TRANSPOSE(LOAD(row[0] + 4), LOAD(row[1] + 4), LOAD(row[2] + 4), LOAD(row[3] + 4), (q + 4));
    TRANSPOSE(LOAD(row[0] + 6), LOAD(row[1] + 6), LOAD(row[2] + 6), LOAD(row[3] + 6), high);
    q[8] = high[2];
    q[9] = high[3];
    /* Horner in v for each power of u, then in u */
    v4d c3 = q[3];
    c3 = c3 * *v + q[2];
    c3 = c3 * *v + q[1];
    c3 = c3 * *v + q[0];
    v4d c6 = q[6];
    c6 = c6 * *v + q[5];
    c6 = c6 * *v + q[4];
    v4d c8 = q[8] * *v + q[7];
    v4d c9 = q[9];
    c9 = c9 * *u + c8;
    c9 = c9 * *u + c6;
    *out = c9 * *u + c3;
}

/* The unnormalized drift (rows x 2 values) of the `rows` targets (rows x 2
 * values) from `targets` on, four at a time, one per lane, each summed over
 * the n_h herders in index order. A group of fewer than four repeats its
 * last target and writes only its own rows. */
INLINE void drift_rows(const double *targets, int64_t rows, const double *herders,
                       int64_t n_h, double length, const double *table, int64_t cells,
                       double *out)
{
    const v4d scale = SPLAT((double)cells / PI), top = SPLAT((double)(cells - 1));

    for (int64_t g = 0; g < rows; g += 4) {
        const int64_t n = rows - g < 4 ? rows - g : 4;
        v4d x[2] = {SPLAT(0.0), SPLAT(0.0)}; /* coordinate c of each lane's target */
        v4d near[2] = {SPLAT(0.0), SPLAT(0.0)}, tail[2] = {SPLAT(0.0), SPLAT(0.0)};
        for (int j = 0; j < 4; j++)
            for (int c = 0; c < 2; c++)
                x[c][j] = targets[2 * (g + (j < n ? j : n - 1)) + c];

        for (int64_t h = 0; h < n_h; h++) {
            v4d d[2], frac[2], sign[2], q[2];
            v4i cell[2];
            axis(&x[0], herders[2 * h], &scale, &top, &d[0], &cell[0], &frac[0], &sign[0]);
            axis(&x[1], herders[2 * h + 1], &scale, &top, &d[1], &cell[1], &frac[1], &sign[1]);
            v4d r = d[0] * d[0] + d[1] * d[1];
            for (int j = 0; j < 4; j++)
                r[j] = sqrt(r[j]);
            v4d e, ratio = r / length;
            neg_exp(&ratio, &e);
            e = SELECT(r > 0.0, e / r, e);
            near[0] += d[0] * e;
            near[1] += d[1] * e;
            /* tail: component k reads Q at (|d_k|, |d_other|) */
            tail_q(table, cells, &cell[0], &cell[1], &frac[0], &frac[1], &q[0]);
            tail_q(table, cells, &cell[1], &cell[0], &frac[1], &frac[0], &q[1]);
            tail[0] += sign[0] * q[0];
            tail[1] += sign[1] * q[1];
        }
        v4d sums[2] = {near[0] + tail[0], near[1] + tail[1]};
        for (int j = 0; j < n; j++)
            for (int c = 0; c < 2; c++)
                out[2 * (g + j) + c] = sums[c][j];
    }
}

/* drift_rows compiled for one instruction set, as the function `name` */
#define INSTANCE(name, attributes)                                                  \
    attributes static void name(const double *targets, int64_t rows,                \
                                const double *herders, int64_t n_h, double length,  \
                                const double *table, int64_t cells, double *out)    \
    {                                                                               \
        drift_rows(targets, rows, herders, n_h, length, table, cells, out);         \
    }

INSTANCE(rows_baseline, )
#ifdef __x86_64__
INSTANCE(rows_avx2, __attribute__((target("avx2"))))
#endif

/* 4 where drift_blocks runs drift_rows compiled for AVX2, 1 where it runs
 * the baseline build. */
int drift_lanes(void)
{
#ifdef __x86_64__
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
 * over the herders in index order, so the bits do not depend on the split. */
void drift_blocks(const double *targets, int64_t n_t, const double *herders,
                  int64_t n_h, double length, const double *table, int64_t cells,
                  int64_t block, int64_t *next, double *out)
{
    __typeof__(rows_baseline) *rows = rows_baseline;
#ifdef __x86_64__
    if (drift_lanes() == 4)
        rows = rows_avx2;
#endif

    for (;;) {
        int64_t lo = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED) * block;
        if (lo >= n_t)
            return;
        int64_t n = block < n_t - lo ? block : n_t - lo;
        rows(targets + 2 * lo, n, herders, n_h, length, table, cells, out + 2 * lo);
    }
}

/* Table and field text. Each cell is the exact "%.17g" text of a double, as
 * Python's % formats it: 17 significant digits rounded half to even from the
 * double's exact value, trailing zeros and a bare point dropped, an exponent
 * ("e-05") below 1e-4. Where 1e-5 <= |x| < 2^52, x = m 2^e with m < 2^53, and
 * x 10^k, scaled into [10^16, 10^17), is m 5^k / 2^s: one unsigned __int128
 * product (m 5^k < 2^105) and a shift, its remainder deciding the rounding,
 * with no libc printf, so the bytes do not depend on the host's libc. Zero,
 * infinity and NaN have fixed texts; any other value, or a compiler without
 * __int128, makes text_rows return -1. A cell takes at most 24 bytes. */
#ifdef __SIZEOF_INT128__

typedef unsigned __int128 u128;

#define CELL_BYTES 24
#define E16 10000000000000000ull /* 10^16 */

/* 5^k for k <= 23, enough for 10^16 <= |x| 10^k where |x| >= 1e-5 */
static const uint64_t POW5[24] = {
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull, 390625ull,
    1953125ull, 9765625ull, 48828125ull, 244140625ull, 1220703125ull,
    6103515625ull, 30517578125ull, 152587890625ull, 762939453125ull,
    3814697265625ull, 19073486328125ull, 95367431640625ull, 476837158203125ull,
    2384185791015625ull, 11920928955078125ull,
};

/* "00" to "99" */
static const char PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the 8 decimal digits of v < 10^8 at p, in two independent halves */
static void eight_digits(uint32_t v, char *p)
{
    uint32_t high = v / 10000, low = v % 10000;
    memcpy(p, PAIRS + 2 * (high / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (high % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (low / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (low % 100), 2);
}

/* floor(m 5^k / 2^s), and through *rest how the part cut off compares with a
 * half: -1 below, 0 equal, 1 above */
static uint64_t scaled(uint64_t m, int k, int s, int *rest)
{
    u128 n = (u128)m * POW5[k];
    *rest = -1;
    if (s <= 0)
        return (uint64_t)(n << -s);
    u128 cut = n & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
    *rest = (cut > half) - (cut < half);
    return (uint64_t)(n >> s);
}

/* The text of x at p, nan_text standing for any NaN; its length, or -1 where x
 * lies outside the exact range. */
static int cell_text(double x, const char *nan_text, size_t nan_len, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t fraction = bits & ((1ull << 52) - 1);
    char *start = p;
    if (biased == 0x7ff && fraction) {
        memcpy(p, nan_text, nan_len);
        return (int)nan_len;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff || (biased == 0 && !fraction)) {
        memcpy(p, biased ? "inf" : "0", biased ? 3 : 1);
        return (int)(p - start) + (biased ? 3 : 1);
    }
    double a = fabs(x);
    if (!(a >= 1e-5 && a < 0x1p52))
        return -1;
    uint64_t m = fraction | 1ull << 52;
    int e = biased - 1075;
    /* k from about -log10 2^(biased - 1023), then moved until x 10^k is in range */
    int k = 16 - (biased - 1023) * 78913 / 262144, rest;
    uint64_t q;
    for (;;) {
        q = scaled(m, k, -(e + k), &rest);
        if (q < E16)
            k++;
        else if (q >= 10 * E16)
            k--;
        else
            break;
    }
    if (rest > 0 || (rest == 0 && (q & 1)))
        q++;
    if (q == 10 * E16) { /* rounded up to 18 digits */
        q = E16;
        k--;
    }
    char digits[17];
    uint32_t high = (uint32_t)(q / 100000000);
    digits[0] = (char)('0' + high / 100000000);
    eight_digits(high % 100000000, digits + 1);
    eight_digits((uint32_t)(q % 100000000), digits + 9);
    int used = 17; /* significant digits left once trailing zeros are dropped */
    while (digits[used - 1] == '0')
        used--;
    int exponent = 16 - k; /* of the leading digit */
    if (exponent < -4) {
        *p++ = digits[0];
        if (used > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, used - 1);
            p += used - 1;
        }
        *p++ = 'e';
        *p++ = '-';
        *p++ = (char)('0' + -exponent / 10);
        *p++ = (char)('0' + -exponent % 10);
    } else if (exponent < 0) {
        memcpy(p, "0.0000", 1 - exponent);
        p += 1 - exponent;
        memcpy(p, digits, used);
        p += used;
    } else {
        memcpy(p, digits, exponent + 1);
        p += exponent + 1;
        if (used > exponent + 1) {
            *p++ = '.';
            memcpy(p, digits + exponent + 1, used - exponent - 1);
            p += used - exponent - 1;
        }
    }
    return (int)(p - start);
}
#endif

/* The n rows of values (n x k, row-major) as text at out: each row the
 * prefix, its k cells joined by sep, then end, every cell as cell_text makes
 * it. out must hold n (strlen(prefix) + strlen(end) + k (24 + strlen(sep)))
 * bytes. Returns the bytes written, or -1 where a value lies outside the
 * exact range or the compiler has no __int128: the caller then formats the
 * rows itself. */
int64_t text_rows(const double *values, int64_t n, int64_t k, const char *prefix,
                  const char *sep, const char *end, const char *nan_text, char *out)
{
#ifdef __SIZEOF_INT128__
    size_t prefix_len = strlen(prefix), sep_len = strlen(sep), end_len = strlen(end);
    size_t nan_len = strlen(nan_text);
    if (nan_len > CELL_BYTES)
        return -1;
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        memcpy(p, prefix, prefix_len);
        p += prefix_len;
        for (int64_t j = 0; j < k; j++) {
            if (j) {
                memcpy(p, sep, sep_len);
                p += sep_len;
            }
            int written = cell_text(values[i * k + j], nan_text, nan_len, p);
            if (written < 0)
                return -1;
            p += written;
        }
        memcpy(p, end, end_len);
        p += end_len;
    }
    return p - out;
#else
    (void)values, (void)n, (void)k, (void)prefix, (void)sep, (void)end, (void)nan_text, (void)out;
    return -1;
#endif
}
