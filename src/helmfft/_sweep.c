/* Thomas sweeps along z of the decoupled spectral systems, real and complex.
 *
 * Each function solves the (n_z, n_m, n_x) slab w in place: line (m, n) is
 * the tridiagonal system of mode row m and mode column n, and level l of
 * that line sits at w[l * level_stride + m * row_stride + n]. The slab is
 * swept one mode row at a time: forward elimination level by level, each
 * level's three plane-operator eigenvalues computed in registers, then back
 * substitution of the row. cp is (n_z, n_x) scratch of the slab's element
 * size for the row's multipliers, a complex level's n_x real parts before
 * its n_x imaginary parts; its last level is written and never read.
 *
 * weights is (n_z, 3, 4): for row level l and level offset k (0 below,
 * 1 centre, 2 above) the four values 4a, 2b, 2c and d, so an eigenvalue is
 * ((4a cxy + 2b cx) + 2c cy) + d with cxy = cy cx. cx holds the n_x mode
 * cosines of x and cy the n_m cosines of the slab's rows.
 *
 * Every value is formed with numpy's operations in numpy's order, so the
 * result is bitwise oracle.sweep_reference's; SWEEP_FMA (with -mfma) is
 * defined where numpy's complex multiply is the fused form. With AVX-512 F
 * and DQ, picked once at load (sweep_lanes() is 8, else 1), both passes
 * take a level's mode columns eight at a time, each lane repeating the
 * scalar operations in order. A block whose pivots do not all clear the
 * threshold in one part, and each row's last n_x mod 8 columns, take the
 * scalar code, the one place for hypot, Smith's zero branch and the
 * failure record. Contraction and auto-vectorization stay off (see
 * tridiag._FLAGS): either would fuse products into sums, the lanes' too.
 *
 * A pivot whose magnitude is not at least threshold (NaN included) fails,
 * and failed = (l, m, n) names the first in (level, row, column) order:
 * the return value is 1 then, else 0.
 */
#include <math.h>
#include <stdint.h>

typedef struct { double re, im; } cplx;

/* numpy's complex product a * b, factor order kept */
static inline cplx cmul(cplx a, cplx b)
{
#ifdef SWEEP_FMA
    return (cplx){fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
#else
    return (cplx){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
#endif
}

static inline cplx cadd(cplx a, cplx b) { return (cplx){a.re + b.re, a.im + b.im}; }
static inline cplx csub(cplx a, cplx b) { return (cplx){a.re - b.re, a.im - b.im}; }

/* numpy's n1 / d and n2 / d by Smith's method, sharing d's ratio and scale */
static inline void cdiv2(cplx n1, cplx n2, cplx d, cplx *q1, cplx *q2)
{
    const double abs_re = fabs(d.re), abs_im = fabs(d.im);
    if (abs_re >= abs_im) {
        if (abs_re == 0 && abs_im == 0) {
            *q1 = (cplx){n1.re / abs_re, n1.im / abs_re};
            *q2 = (cplx){n2.re / abs_re, n2.im / abs_re};
        } else {
            const double rat = d.im / d.re;
            const double scl = 1.0 / (d.re + d.im * rat);
            *q1 = (cplx){(n1.re + n1.im * rat) * scl, (n1.im - n1.re * rat) * scl};
            *q2 = (cplx){(n2.re + n2.im * rat) * scl, (n2.im - n2.re * rat) * scl};
        }
    } else {
        const double rat = d.re / d.im;
        const double scl = 1.0 / (d.im + d.re * rat);
        *q1 = (cplx){(n1.re * rat + n1.im) * scl, (n1.im * rat - n1.re) * scl};
        *q2 = (cplx){(n2.re * rat + n2.im) * scl, (n2.im * rat - n2.re) * scl};
    }
}

/* a real eigenvalue, of doubles or of lanes */
#define REIG(q, cx, cy, cxy) ((((q)[0] * (cxy) + (q)[1] * (cx)) + (q)[2] * (cy)) + (q)[3])

/* the real cosines enter as numpy casts them, with a +0 imaginary part */
static inline cplx ceig(const cplx *q, double cx, double cy, double cxy)
{
    cplx s = cadd(cmul(q[0], (cplx){cxy, 0.0}), cmul(q[1], (cplx){cx, 0.0}));
    return cadd(cadd(s, cmul(q[2], (cplx){cy, 0.0})), q[3]);
}

/* one call's operands; first is the lowest level that has failed so far */
typedef struct {
    void *w; const void *weights; const double *cx, *cy; double threshold, *cp;
    int64_t level_stride, row_stride, n_z, n_x, first, *failed;
} slab;

#define LEVEL(type, s, m, l) ((type *)(s)->w + (m) * (s)->row_stride + (l) * (s)->level_stride)

/* elimination or substitution at level l of row m, mode columns n0 to n1 */
typedef void level(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1);

static void real_forward(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    const int64_t n_x = s->n_x, ls = s->level_stride;
    const double *q = (const double *)s->weights + 12 * l, *cx = s->cx;
    const double cy = s->cy[m], threshold = s->threshold;
    double *wl = LEVEL(double, s, m, l), *cpl = s->cp + l * n_x;
    for (int64_t n = n0; n < n1; n++) {
        const double cxy = cy * cx[n];
        double denom = REIG(q + 4, cx[n], cy, cxy), x = wl[n];
        if (l) {
            const double low = REIG(q, cx[n], cy, cxy);
            denom = denom - low * cpl[n - n_x];
            x = x - low * wl[n - ls];
        }
        if (!(fabs(denom) >= threshold) && l < s->first)
            s->first = l, s->failed[0] = l, s->failed[1] = m, s->failed[2] = n;
        cpl[n] = REIG(q + 8, cx[n], cy, cxy) / denom;
        wl[n] = x / denom;
    }
}

static void real_back(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    double *wl = LEVEL(double, s, m, l), *next = wl + s->level_stride;
    const double *cpl = s->cp + l * s->n_x;
    for (int64_t n = n0; n < n1; n++)
        wl[n] = wl[n] - cpl[n] * next[n];
}

static void complex_forward(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    const int64_t n_x = s->n_x, ls = s->level_stride;
    const cplx *q = (const cplx *)s->weights + 12 * l;
    const double *cx = s->cx, cy = s->cy[m], threshold = s->threshold;
    cplx *wl = LEVEL(cplx, s, m, l);
    double *cpl = s->cp + 2 * l * n_x;
    for (int64_t n = n0; n < n1; n++) {
        const double cxy = cy * cx[n];
        cplx denom = ceig(q + 4, cx[n], cy, cxy), x = wl[n], c;
        if (l) {
            const cplx low = ceig(q, cx[n], cy, cxy);
            denom = csub(denom, cmul(low, (cplx){cpl[n - 2 * n_x], cpl[n - n_x]}));
            x = csub(x, cmul(low, wl[n - ls]));
        }
        /* np.abs(denom) >= threshold; |denom| is at least its larger part */
        if (!(fabs(denom.re) >= threshold) && !(fabs(denom.im) >= threshold)
                && !(hypot(denom.re, denom.im) >= threshold) && l < s->first)
            s->first = l, s->failed[0] = l, s->failed[1] = m, s->failed[2] = n;
        cdiv2(ceig(q + 8, cx[n], cy, cxy), x, denom, &c, &wl[n]);
        cpl[n] = c.re, cpl[n + n_x] = c.im;
    }
}

static void complex_back(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    cplx *wl = LEVEL(cplx, s, m, l), *next = wl + s->level_stride;
    const double *cpl = s->cp + 2 * l * s->n_x;
    for (int64_t n = n0; n < n1; n++)
        wl[n] = csub(wl[n], cmul((cplx){cpl[n], cpl[n + s->n_x]}, next[n]));
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LANES __attribute__((target("avx512f,avx512dq")))
#define GE(a, b) _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ)

/* eight complex values, split into their real and imaginary parts */
typedef struct { __m512d re, im; } cvec;

LANES static inline cvec cload(const cplx *p)
{
    const __m512d a = _mm512_loadu_pd(&p[0].re), b = _mm512_loadu_pd(&p[4].re);
    return (cvec){_mm512_permutex2var_pd(a, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), b),
                  _mm512_permutex2var_pd(a, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), b)};
}
LANES static inline void cstore(cplx *p, cvec v)
{
    const __m512i lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    _mm512_storeu_pd(&p[0].re, _mm512_permutex2var_pd(v.re, lo, v.im));
    _mm512_storeu_pd(&p[4].re, _mm512_permutex2var_pd(v.re, hi, v.im));
}

LANES static inline cvec vset(cplx a) { return (cvec){_mm512_set1_pd(a.re), _mm512_set1_pd(a.im)}; }
LANES static inline cvec vsub(cvec a, cvec b) { return (cvec){a.re - b.re, a.im - b.im}; }

/* cmul and ceig lane by lane */
LANES static inline cvec vmul(cvec a, cvec b)
{
#ifdef SWEEP_FMA
    return (cvec){_mm512_fmsub_pd(a.re, b.re, a.im * b.im),
                  _mm512_fmadd_pd(a.re, b.im, a.im * b.re)};
#else
    return (cvec){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
#endif
}

LANES static inline cvec veig(const cplx *q, __m512d cx, __m512d cy, __m512d cxy)
{
    const __m512d zero = _mm512_setzero_pd();
    const cvec a = vmul(vset(q[0]), (cvec){cxy, zero}), b = vmul(vset(q[1]), (cvec){cx, zero});
    const cvec c = vmul(vset(q[2]), (cvec){cy, zero});
    return (cvec){a.re + b.re + c.re + q[3].re, a.im + b.im + c.im + q[3].im};
}

/* cdiv2's a / d off the zero branch; k holds the lanes with |Re d| >= |Im d| */
LANES static inline cvec vquot(cvec a, __m512d rat, __m512d scl, __mmask8 k)
{
    const __m512d tr = a.re * rat, ti = a.im * rat;
    return (cvec){_mm512_mask_blend_pd(k, tr + a.im, a.re + ti) * scl,
                  _mm512_mask_blend_pd(k, ti - a.re, a.im - tr) * scl};
}

LANES static void real_forward8(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    const int64_t n_x = s->n_x, ls = s->level_stride;
    const double *q = (const double *)s->weights + 12 * l;
    const __m512d cy = _mm512_set1_pd(s->cy[m]), threshold = _mm512_set1_pd(s->threshold);
    double *wl = LEVEL(double, s, m, l), *cpl = s->cp + l * n_x;
    for (int64_t n = n0; n < n1; n += 8) {
        const __m512d cx = _mm512_loadu_pd(s->cx + n), cxy = cy * cx;
        __m512d denom = REIG(q + 4, cx, cy, cxy), x = _mm512_loadu_pd(wl + n);
        if (l) {
            const __m512d low = REIG(q, cx, cy, cxy);
            denom = denom - low * _mm512_loadu_pd(cpl + n - n_x);
            x = x - low * _mm512_loadu_pd(wl + n - ls);
        }
        if (GE(_mm512_abs_pd(denom), threshold) == 0xff) {
            _mm512_storeu_pd(cpl + n, REIG(q + 8, cx, cy, cxy) / denom);
            _mm512_storeu_pd(wl + n, x / denom);
        } else
            real_forward(s, m, l, n, n + 8);
    }
}

LANES static void real_back8(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    double *wl = LEVEL(double, s, m, l), *next = wl + s->level_stride;
    const double *cpl = s->cp + l * s->n_x;
    for (int64_t n = n0; n < n1; n += 8)
        _mm512_storeu_pd(wl + n, _mm512_loadu_pd(wl + n)
                         - _mm512_loadu_pd(cpl + n) * _mm512_loadu_pd(next + n));
}

LANES static void complex_forward8(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    const int64_t n_x = s->n_x, ls = s->level_stride;
    const cplx *q = (const cplx *)s->weights + 12 * l;
    const __m512d cy = _mm512_set1_pd(s->cy[m]), threshold = _mm512_set1_pd(s->threshold);
    cplx *wl = LEVEL(cplx, s, m, l);
    double *cpl = s->cp + 2 * l * n_x;
    for (int64_t n = n0; n < n1; n += 8) {
        const __m512d cx = _mm512_loadu_pd(s->cx + n), cxy = cy * cx;
        cvec denom = veig(q + 4, cx, cy, cxy), x = cload(wl + n);
        if (l) {
            const cvec low = veig(q, cx, cy, cxy);
            const cvec prev = {_mm512_loadu_pd(cpl + n - 2 * n_x), _mm512_loadu_pd(cpl + n - n_x)};
            denom = vsub(denom, vmul(low, prev));
            x = vsub(x, vmul(low, cload(wl + n - ls)));
        }
        const __m512d abs_re = _mm512_abs_pd(denom.re), abs_im = _mm512_abs_pd(denom.im);
        if ((GE(abs_re, threshold) | GE(abs_im, threshold)) != 0xff) {
            complex_forward(s, m, l, n, n + 8);
            continue;
        }
        const __mmask8 k = GE(abs_re, abs_im);
        const __m512d p = _mm512_mask_blend_pd(k, denom.im, denom.re);
        const __m512d r = _mm512_mask_blend_pd(k, denom.re, denom.im);
        const __m512d rat = r / p, scl = 1.0 / (p + r * rat);
        const cvec c = vquot(veig(q + 8, cx, cy, cxy), rat, scl, k);
        _mm512_storeu_pd(cpl + n, c.re), _mm512_storeu_pd(cpl + n + n_x, c.im);
        cstore(wl + n, vquot(x, rat, scl, k));
    }
}

LANES static void complex_back8(slab *s, int64_t m, int64_t l, int64_t n0, int64_t n1)
{
    cplx *wl = LEVEL(cplx, s, m, l), *next = wl + s->level_stride;
    const double *cpl = s->cp + 2 * l * s->n_x;
    for (int64_t n = n0; n < n1; n += 8) {
        const cvec c = {_mm512_loadu_pd(cpl + n), _mm512_loadu_pd(cpl + n + s->n_x)};
        cstore(wl + n, vsub(cload(wl + n), vmul(c, cload(next + n))));
    }
}

static int lanes = 1;
__attribute__((constructor)) static void pick_lanes(void)
{
    __builtin_cpu_init();
    lanes = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") ? 8 : 1;
}
#define LANE(f, scalar) (lanes == 8 ? f : scalar)
#else
static const int lanes = 1;
#define LANE(f, scalar) scalar
#endif
int sweep_lanes(void) { return lanes; }

static int64_t sweep(slab *s, int64_t n_m, level *forward, level *back,
                     level *forward8, level *back8)
{
    const int64_t n_z = s->n_z, n_x = s->n_x, n8 = lanes == 8 ? n_x - n_x % 8 : 0;
    for (int64_t m = 0; m < n_m; m++) {
        for (int64_t l = 0; l < n_z; l++)
            forward8(s, m, l, 0, n8), forward(s, m, l, n8, n_x);
        for (int64_t l = n_z - 2; l >= 0; l--)
            back8(s, m, l, 0, n8), back(s, m, l, n8, n_x);
    }
    return s->first < n_z;
}

int64_t sweep_real(double *w, int64_t level_stride, int64_t row_stride, int64_t n_z,
                   int64_t n_m, int64_t n_x, const double *weights, const double *cx,
                   const double *cy, double threshold, double *cp, int64_t *failed)
{
    slab s = {w, weights, cx, cy, threshold, cp, level_stride, row_stride, n_z, n_x, n_z, failed};
    return sweep(&s, n_m, real_forward, real_back,
                 LANE(real_forward8, real_forward), LANE(real_back8, real_back));
}

int64_t sweep_complex(cplx *w, int64_t level_stride, int64_t row_stride, int64_t n_z,
                      int64_t n_m, int64_t n_x, const cplx *weights, const double *cx,
                      const double *cy, double threshold, double *cp, int64_t *failed)
{
    slab s = {w, weights, cx, cy, threshold, cp, level_stride, row_stride, n_z, n_x, n_z, failed};
    return sweep(&s, n_m, complex_forward, complex_back,
                 LANE(complex_forward8, complex_forward), LANE(complex_back8, complex_back));
}
