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
 * Build with -O2 -ffp-contract=off and without -ffast-math: no fused
 * multiply-add, no reassociation. */

#include <math.h>

static inline __attribute__((always_inline)) void
rows(int d, int cut, double param, double amp, double gain,
     double radius2, const double *a2,
     long m, const double *t, long n, const double *y, const double *q,
     double *s, double *phi)
{
    double acc[d], vec[d];

    for (long i = 0; i < m; i++) {
        const double *x = t + i * d;
        double xx = 0.0, pot = phi ? phi[i] : 0.0;

        if (a2)
            for (int k = 0; k < d; k++)
                xx += x[k] * x[k];
        for (int k = 0; k < d; k++)
            acc[k] = s ? s[i * d + k] : 0.0;

        for (long j = 0; j < n; j++) {
            const double *z = y + j * d;
            double sep2 = 0.0, sep = 0.0, u = 0.0, r = 0.0, inv, p;

            if (a2) {
                double xz = 0.0;
                for (int k = 0; k < d; k++) {
                    xz += x[k] * z[k];
                    vec[k] = x[k] * a2[j] - z[k];
                }
                sep2 = xx * a2[j] + radius2 - 2.0 * xz;
                if (sep2 < 0.0)
                    sep2 = 0.0;
            } else {
                for (int k = 0; k < d; k++) {
                    vec[k] = x[k] - z[k];
                    sep2 += vec[k] * vec[k];
                }
            }

            if (cut) {
                sep = sqrt(sep2);
                if (sep < param)
                    sep = param;
                u = sep / param - 1.0;
                if (u > 1.0)
                    u = 1.0;
                r = u * u * u * (u * (6.0 * u - 15.0) + 10.0);
                inv = 1.0 / sep;
            } else {
                inv = 1.0 / sqrt(sep2 + param);
            }
            p = inv;
            for (int k = 3; k < d; k++)
                p *= inv;                                   /* inv^(d-2) */

            if (phi)
                pot += (cut ? r * amp : amp) * p * q[j];
            if (s) {
                double coef = p * inv * inv;                /* inv^d */
                if (cut) {
                    double rp = 30.0 * u * u * ((u - 1.0) * (u - 1.0));
                    coef = gain * (rp * sep / param + (2.0 - d) * r) * coef;
                } else {
                    coef = gain * coef;
                }
                coef = coef * q[j];
                for (int k = 0; k < d; k++)
                    acc[k] += vec[k] * coef;
            }
        }

        for (int k = 0; k < d; k++)
            if (s)
                s[i * d + k] = acc[k];
        if (phi)
            phi[i] = pot;
    }
}

void pair_rows(int d, int cut, double param, double amp, double gain,
               double radius2, const double *a2,
               long m, const double *t, long n, const double *y, const double *q,
               double *s, double *phi)
{
    /* the same loop with d fixed at compile time in d = 3, the dimension of
       the demos and benchmark workloads; the float operations do not change */
    if (d == 3)
        rows(3, cut, param, amp, gain, radius2, a2, m, t, n, y, q, s, phi);
    else
        rows(d, cut, param, amp, gain, radius2, a2, m, t, n, y, q, s, phi);
}
