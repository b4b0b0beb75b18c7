/* The pair rows of specularvp's field model (fields.FieldModel).
 *
 * For each target x_i, add to s_i the gradient sum
 *     sum_j q_j g'(s_ij)/s_ij grad_x(s_ij^2)/2
 * and to phi_i the potential sum sum_j q_j g(s_ij), over the sources j in
 * ascending order, one term at a time.  That order is the definition of
 * the sum: fields.py's numpy path does the same float operations per pair
 * and accumulates in the same order, so the two give the same bits.
 *
 * Geometry: the point separation |x - y_j|, or (a2 != NULL) the Kelvin
 * image separation s^2 = |x|^2 a2_j + R^2 - 2 x.y_j, clamped at 0, with
 * a2_j = |y_j|^2 / R^2 and gradient vector x a2_j - y_j: the symmetric
 * form (|y_j|/R)^2 |x - y_j*|^2 of the Kelvin image y_j*, defined at y_j = 0.
 * Profile: the cut Green function (cut != 0, param = delta),
 *     g = r(sep/delta) amp sep^(2-d), g'/sep = gain (r' sep/delta + (2-d) r) sep^-d,
 * with sep clamped at delta, where r = 0; or the Plummer kernel
 * (cut == 0, param = eps^2), b = sep^2 + eps^2,
 *     g = amp b^((2-d)/2), g'/sep = gain b^(-d/2).
 * Powers are products of 1/sep or 1/sqrt(b), taken left to right.
 *
 * Lane blocks: the rows go L = 32 at a time, one lane per row, and the
 * rows after the last full block (all of them, in a call with fewer than L
 * rows) go together as one shorter block.  The sources run in the outer
 * loop, in ascending order, and the block's targets in the inner loops,
 * stored lane-major (x_k of lane l at xl[k*L + l]).  Per source, each step
 * of a row's pair term is one loop over the lanes: the route's branches
 * (Kelvin or point, cut or Plummer, gradient, potential) sit outside those
 * loops and the clamps inside are selects, so the compiler puts the lanes
 * in vector registers.  Each lane does its row's float operations in its
 * row's order, so the block size changes no bit.
 *
 * Build with -O3 -fno-math-errno -ffp-contract=off and without -ffast-math:
 * no fused multiply-add and no reassociation; vector sqrt and division are
 * correctly rounded, as the scalar ones are; -fno-math-errno only lets sqrt
 * be vectorised.  Where gcc targets x86-64 Linux, pair_rows is cloned for
 * AVX-512 and AVX2 and the loader picks the clone the CPU runs, which sets
 * the vector width and nothing else. */

#include <math.h>

#define L 32

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

/* the rows of the nl <= L targets t[0..nl), one lane each; a full block
   passes the constant L, so its lane loops have a fixed trip count */
static inline __attribute__((always_inline)) void
lanes(int d, int cut, double param, double amp, double gain,
      double radius2, const double *a2,
      int nl, const double *t, long n, const double *y, const double *q,
      double *s, double *phi)
{
    double xl[d * L], acc[d * L], xx[L], pot[L];
    double sep2[L], sep[L], u[L], r[L], inv[L], p[L], coef[L];

    for (int l = 0; l < nl; l++) {
        xx[l] = 0.0;
        pot[l] = phi ? phi[l] : 0.0;
        for (int k = 0; k < d; k++) {
            xl[k * L + l] = t[l * d + k];
            acc[k * L + l] = s ? s[l * d + k] : 0.0;
            xx[l] += t[l * d + k] * t[l * d + k];
        }
    }

    for (long j = 0; j < n; j++) {
        const double *z = y + j * d;
        const double qj = q[j];

        for (int l = 0; l < nl; l++)
            sep2[l] = 0.0;                  /* x.y_j first, for a2 */
        for (int k = 0; k < d; k++) {
            const double *x = xl + k * L;
            if (a2)
                for (int l = 0; l < nl; l++)
                    sep2[l] += x[l] * z[k];
            else
                for (int l = 0; l < nl; l++)
                    sep2[l] += (x[l] - z[k]) * (x[l] - z[k]);
        }
        if (a2)
            for (int l = 0; l < nl; l++) {
                double v = xx[l] * a2[j] + radius2 - 2.0 * sep2[l];
                sep2[l] = v < 0.0 ? 0.0 : v;
            }

        if (cut)
            for (int l = 0; l < nl; l++) {
                double e = sqrt(sep2[l]), w;
                sep[l] = e < param ? param : e;
                w = sep[l] / param - 1.0;
                u[l] = w > 1.0 ? 1.0 : w;
                r[l] = u[l] * u[l] * u[l] * (u[l] * (6.0 * u[l] - 15.0) + 10.0);
                inv[l] = p[l] = 1.0 / sep[l];
            }
        else
            for (int l = 0; l < nl; l++)
                inv[l] = p[l] = 1.0 / sqrt(sep2[l] + param);
        for (int k = 3; k < d; k++)
            for (int l = 0; l < nl; l++)
                p[l] *= inv[l];

        if (phi && cut)
            for (int l = 0; l < nl; l++)
                pot[l] += r[l] * amp * p[l] * qj;
        else if (phi)
            for (int l = 0; l < nl; l++)
                pot[l] += amp * p[l] * qj;
        if (!s)
            continue;
        if (cut)
            for (int l = 0; l < nl; l++) {
                double rp = 30.0 * u[l] * u[l] * ((u[l] - 1.0) * (u[l] - 1.0));
                coef[l] = gain * (rp * sep[l] / param + (2.0 - d) * r[l])
                          * (p[l] * inv[l] * inv[l]) * qj;
            }
        else
            for (int l = 0; l < nl; l++)
                coef[l] = gain * (p[l] * inv[l] * inv[l]) * qj;
        for (int k = 0; k < d; k++) {
            const double *x = xl + k * L;
            double *a = acc + k * L;
            if (a2)
                for (int l = 0; l < nl; l++)
                    a[l] += (x[l] * a2[j] - z[k]) * coef[l];
            else
                for (int l = 0; l < nl; l++)
                    a[l] += (x[l] - z[k]) * coef[l];
        }
    }

    for (int l = 0; l < nl; l++) {
        for (int k = 0; k < d; k++)
            if (s)
                s[l * d + k] = acc[k * L + l];
        if (phi)
            phi[l] = pot[l];
    }
}

CLONES void
pair_rows(int d, int cut, double param, double amp, double gain,
          double radius2, const double *a2,
          long m, const double *t, long n, const double *y, const double *q,
          double *s, double *phi)
{
    long i = 0;

    /* full blocks run the same loops with d fixed at compile time in d = 3,
       the dimension of the demos and benchmark workloads; the rows after the
       last full block take the general-d loops, so the variable-width lanes
       are compiled once.  The float operations do not change. */
    for (; i + L <= m; i += L)
        if (d == 3)
            lanes(3, cut, param, amp, gain, radius2, a2, L, t + i * d, n, y, q,
                  s ? s + i * d : 0, phi ? phi + i : 0);
        else
            lanes(d, cut, param, amp, gain, radius2, a2, L, t + i * d, n, y, q,
                  s ? s + i * d : 0, phi ? phi + i : 0);
    if (i < m)
        lanes(d, cut, param, amp, gain, radius2, a2, (int)(m - i), t + i * d,
              n, y, q, s ? s + i * d : 0, phi ? phi + i : 0);
}
