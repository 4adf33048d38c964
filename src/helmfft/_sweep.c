/* Thomas sweeps along z of the decoupled spectral systems, real and complex.
 *
 * Each function solves the (n_z, n_m, n_x) slab w in place: line (m, n) is
 * the tridiagonal system of mode row m and mode column n, and level l of
 * that line sits at w[l * level_stride + m * row_stride + n]. The slab is
 * swept one mode row at a time: forward elimination level by level, each
 * level's three plane-operator eigenvalues computed in registers, then back
 * substitution of the row. cp is (n_z, n_x) scratch for the row's
 * multipliers; its last level is written and never read.
 *
 * weights is (n_z, 3, 4): for row level l and level offset k (0 below,
 * 1 centre, 2 above) the four values 4a, 2b, 2c and d, so an eigenvalue is
 * ((4a cxy + 2b cx) + 2c cy) + d with cxy = cy cx. cx holds the n_x mode
 * cosines of x and cy the n_m cosines of the slab's rows.
 *
 * Every value is formed with the same operations in the same order as
 * numpy's elementwise ufuncs form it, so the result is bitwise that of
 * oracle.sweep_reference. Build without floating-point contraction or
 * vectorization (-ffp-contract=off -fno-tree-vectorize
 * -fno-tree-slp-vectorize), and with -mfma exactly where numpy's complex
 * multiply is the fused form.
 *
 * A pivot whose magnitude is not at least threshold (NaN included) fails.
 * The return value is 1 if any pivot failed, with failed = (l, m, n) of the
 * first failure in (level, row, column) order, and 0 otherwise.
 */
#include <math.h>
#include <stdint.h>

typedef struct { double re, im; } cplx;

/* numpy's complex product a * b, factor order kept */
static inline cplx cmul(cplx a, cplx b)
{
    cplx r;
#ifdef __FMA__
    r.re = fma(a.re, b.re, -(a.im * b.im));
    r.im = fma(a.re, b.im, a.im * b.re);
#else
    r.re = a.re * b.re - a.im * b.im;
    r.im = a.re * b.im + a.im * b.re;
#endif
    return r;
}

static inline cplx cadd(cplx a, cplx b) { return (cplx){a.re + b.re, a.im + b.im}; }
static inline cplx csub(cplx a, cplx b) { return (cplx){a.re - b.re, a.im - b.im}; }

/* numpy's quotients n1 / d and n2 / d (Smith's method), which share the
   ratio and the scale of the one divisor */
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

/* np.abs(p) >= threshold: the larger part decides when it clears the
   threshold, since |p| is never below it */
static inline int cfails(cplx p, double threshold)
{
    return !(fabs(p.re) >= threshold) && !(fabs(p.im) >= threshold)
        && !(hypot(p.re, p.im) >= threshold);
}

static inline double reig(const double *q, double cx, double cy, double cxy)
{
    return ((q[0] * cxy + q[1] * cx) + q[2] * cy) + q[3];
}

/* the real cosines enter as numpy casts them, with a +0 imaginary part */
static inline cplx ceig(const cplx *q, double cx, double cy, double cxy)
{
    cplx s = cadd(cmul(q[0], (cplx){cxy, 0.0}), cmul(q[1], (cplx){cx, 0.0}));
    return cadd(cadd(s, cmul(q[2], (cplx){cy, 0.0})), q[3]);
}

int64_t sweep_real(double *w, int64_t level_stride, int64_t row_stride,
                   int64_t n_z, int64_t n_m, int64_t n_x,
                   const double *weights, const double *cx, const double *cy,
                   double threshold, double *cp, int64_t *failed)
{
    int64_t first = n_z;  /* level of the first failure so far */
    for (int64_t m = 0; m < n_m; m++) {
        double *row = w + m * row_stride;
        for (int64_t l = 0; l < n_z; l++) {
            const double *q = weights + 12 * l;
            double *wl = row + l * level_stride, *cpl = cp + l * n_x;
            for (int64_t n = 0; n < n_x; n++) {
                const double cxy = cy[m] * cx[n];
                double denom = reig(q + 4, cx[n], cy[m], cxy), low = 0.0, x = wl[n];
                if (l) {
                    low = reig(q, cx[n], cy[m], cxy);
                    denom = denom - low * cpl[n - n_x];
                    x = x - low * wl[n - level_stride];
                }
                if (!(fabs(denom) >= threshold) && l < first) {
                    first = l;
                    failed[0] = l, failed[1] = m, failed[2] = n;
                }
                cpl[n] = reig(q + 8, cx[n], cy[m], cxy) / denom;
                wl[n] = x / denom;
            }
        }
        for (int64_t l = n_z - 2; l >= 0; l--) {
            double *wl = row + l * level_stride, *cpl = cp + l * n_x;
            for (int64_t n = 0; n < n_x; n++)
                wl[n] = wl[n] - cpl[n] * wl[n + level_stride];
        }
    }
    return first < n_z;
}

int64_t sweep_complex(cplx *w, int64_t level_stride, int64_t row_stride,
                      int64_t n_z, int64_t n_m, int64_t n_x,
                      const cplx *weights, const double *cx, const double *cy,
                      double threshold, cplx *cp, int64_t *failed)
{
    int64_t first = n_z;
    for (int64_t m = 0; m < n_m; m++) {
        cplx *row = w + m * row_stride;
        for (int64_t l = 0; l < n_z; l++) {
            const cplx *q = weights + 12 * l;
            cplx *wl = row + l * level_stride, *cpl = cp + l * n_x;
            for (int64_t n = 0; n < n_x; n++) {
                const double cxy = cy[m] * cx[n];
                cplx denom = ceig(q + 4, cx[n], cy[m], cxy), x = wl[n];
                if (l) {
                    const cplx low = ceig(q, cx[n], cy[m], cxy);
                    denom = csub(denom, cmul(low, cpl[n - n_x]));
                    x = csub(x, cmul(low, wl[n - level_stride]));
                }
                if (cfails(denom, threshold) && l < first) {
                    first = l;
                    failed[0] = l, failed[1] = m, failed[2] = n;
                }
                cdiv2(ceig(q + 8, cx[n], cy[m], cxy), x, denom, &cpl[n], &wl[n]);
            }
        }
        for (int64_t l = n_z - 2; l >= 0; l--) {
            cplx *wl = row + l * level_stride, *cpl = cp + l * n_x;
            for (int64_t n = 0; n < n_x; n++)
                wl[n] = csub(wl[n], cmul(cpl[n], wl[n + level_stride]));
        }
    }
    return first < n_z;
}
