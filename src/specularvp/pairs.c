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
 * be vectorised.  Where gcc targets x86-64 Linux, pair_rows and phase_cost
 * are cloned for AVX-512 and AVX2 and the loader picks the clone the CPU
 * runs, which sets the vector width and nothing else.
 *
 * Exact W_1 between two point clouds (selfconsistent.w1_exact) adds two
 * functions, built with the same flags.  phase_cost writes
 *     cost[i nb + j] = sqrt(sum_k (a_ik - b_jk)^2),
 * the squares added in coordinate order from k = 0, then one sqrt: the float
 * operations of scipy's cdist(a, b), so the two give the same bits.  b comes
 * transposed (bt[k nb + j]), so each coordinate is one loop along a row of
 * the matrix.  assignment is the shortest augmenting path method of D. F.
 * Crouse ("On implementing 2D rectangular assignment algorithms", IEEE TAES
 * 52(4), 2016) on a square matrix, as scipy's linear_sum_assignment runs it:
 * the same reduced costs and dual updates in the same order, and its tie
 * rules (the free columns scanned from the last; on an equal reduced cost,
 * an unassigned column wins), so it returns scipy's assignment.
 *
 * The event sub-stepper (flow._first_exit) adds first_exit: for each row
 * (x, v, e, h) of a round, the fraction theta of the sub-step h at which
 * the kicked path x + s v + s^2 e / 2 first leaves the half-space or the
 * ball, or NaN.  It is flow.py's Python-float reference, operation for
 * operation, in scalar doubles: the wall-distance polynomial's
 * coefficients, its real roots (the closed form up to degree 2, else
 * isolation on [0, 1] by the roots of the derivative and bisection), the
 * piece search, two Newton steps and the walk on the signed distance.
 * Python's t**j is libm's pow, called through a volatile pointer so that
 * gcc cannot rewrite pow(t, 2.0) as t * t; sum() adds from 0.0 in order;
 * numpy's short dot products and norms (d < 8) add from the first term in
 * order.  It is not cloned: its loops are short and scalar. */

#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define L 32

/* -DCLONES=... builds one ISA only (tools/samebytes.py checks each gives
   the same bytes) */
#ifndef CLONES
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif
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


CLONES void
phase_cost(long na, const double *a, long nb, const double *bt, int d, double *cost)
{
    for (long i = 0; i < na; i++) {
        double *c = cost + i * nb;

        for (long j = 0; j < nb; j++)
            c[j] = 0.0;
        for (int k = 0; k < d; k++) {
            const double x = a[i * d + k], *y = bt + k * nb;
            for (long j = 0; j < nb; j++)
                c[j] += (x - y[j]) * (x - y[j]);
        }
        for (long j = 0; j < nb; j++)
            c[j] = sqrt(c[j]);
    }
}

/* col4row[i] = the column matched to row i of the n x n cost matrix.
   Returns 0, or -1 on a NaN or -inf entry and -2 when no finite matching
   exists (scipy's two ValueErrors), or -3 when out of memory. */
int
assignment(long n, const double *cost, long *col4row)
{
    for (long i = 0; i < n * n; i++)
        if (cost[i] != cost[i] || cost[i] == -INFINITY)
            return -1;

    double *u = calloc(n ? n : 1, 3 * sizeof(double) + 3 * sizeof(long) + 2);
    if (!u)
        return -3;
    double *v = u + n, *spc = v + n;
    long *path = (long *)(spc + n), *row4col = path + n, *remaining = row4col + n;
    char *sr = (char *)(remaining + n), *sc = sr + n;
    int status = 0;

    for (long j = 0; j < n; j++)
        col4row[j] = row4col[j] = -1;
    for (long cur = 0; cur < n; cur++) {
        double min_val = 0.0;
        long i = cur, sink = -1, left = n;

        /* filled from the last column, so a constant matrix gives the identity */
        for (long it = 0; it < n; it++) {
            remaining[it] = n - it - 1;
            spc[it] = INFINITY;
        }
        memset(sr, 0, 2 * n);
        while (sink == -1) {
            long index = -1;
            double lowest = INFINITY;

            sr[i] = 1;
            for (long it = 0; it < left; it++) {
                long j = remaining[it];
                double r = min_val + cost[i * n + j] - u[i] - v[j];

                if (r < spc[j]) {
                    path[j] = i;
                    spc[j] = r;
                }
                /* on a tie, take a column that ends the path */
                if (spc[j] < lowest || (spc[j] == lowest && row4col[j] == -1)) {
                    lowest = spc[j];
                    index = it;
                }
            }
            min_val = lowest;
            if (min_val == INFINITY) {
                status = -2;
                break;
            }
            long j = remaining[index];
            if (row4col[j] == -1)
                sink = j;
            else
                i = row4col[j];
            sc[j] = 1;
            remaining[index] = remaining[--left];
        }
        if (status)
            break;

        u[cur] += min_val;
        for (long r = 0; r < n; r++)
            if (sr[r] && r != cur)
                u[r] += min_val - spc[col4row[r]];
        for (long j = 0; j < n; j++)
            if (sc[j])
                v[j] -= min_val - spc[j];
        for (long j = sink, r = -1; r != cur;) {  /* augment along the path */
            long next;
            r = path[j];
            row4col[j] = r;
            next = col4row[r];
            col4row[r] = j;
            j = next;
        }
    }
    free(u);
    return status;
}


/* ---- first exits of kicked sub-paths: flow._first_exit ---- */

#define ULP_WALK 4      /* flow.ULP_WALK */

/* libm's pow, which Python's float ** calls; through a volatile pointer gcc
   cannot rewrite pow(t, 2.0) as t * t, which may round differently */
static double (*volatile pow_)(double, double) = pow;

/* sum(c_j * t**j); Python's t**0 is 1.0 */
static double
poly(int n, const double *c, double t)
{
    double s = 0.0;

    for (int j = 0; j < n; j++)
        s += c[j] * (j ? pow_(t, j) : 1.0);
    return s;
}

static double
horner(int n, const double *c, double t)
{
    double p = c[n - 1];

    for (int j = n - 2; j >= 0; j--)
        p = p * t + c[j];
    return p;
}

/* a.b added from the first term on, as numpy adds a row of d < 8 */
static double
dot(int d, const double *a, const double *b)
{
    double s = a[0] * b[0];

    for (int k = 1; k < d; k++)
        s += a[k] * b[k];
    return s;
}

/* the signed distance of x + s v + s^2 e / 2 to the wall: its first
   coordinate (radius 0), or radius - |.| */
static double
path_distance(int d, double radius, const double *x, const double *v,
              const double *e, double s)
{
    double p[d];

    for (int k = 0; k < d; k++)
        p[k] = x[k] + s * v[k] + 0.5 * s * s * e[k];
    return radius ? radius - sqrt(dot(d, p, p)) : p[0];
}

static void
sort_doubles(int n, double *a)
{
    for (int i = 1; i < n; i++)
        for (int j = i; j > 0 && a[j] < a[j - 1]; j--) {
            double t = a[j];
            a[j] = a[j - 1];
            a[j - 1] = t;
        }
}

/* flow._real_roots: real roots of sum_j c_j t^j (n <= 5 terms) into r, at
   most 8 of them; returns how many */
static int
real_roots(int n, const double *c, double *r)
{
    while (n > 1) {
        double s = 0.0;
        for (int j = 0; j < n; j++)
            s += fabs(c[j]);
        if (!(fabs(c[n - 1]) <= DBL_EPSILON * s))
            break;
        n--;
    }
    if (n <= 3) {
        double c0 = c[0], b = n > 1 ? c[1] : 0.0, a = n > 2 ? c[2] : 0.0;
        double disc = b * b - 4.0 * a * c0, q;

        if (a == 0.0 || disc < 0.0) {
            if (a == 0.0 && b != 0.0) {
                r[0] = -c0 / b;
                return 1;
            }
            return 0;
        }
        q = -0.5 * (b + copysign(sqrt(disc), b));
        if (q == 0.0) {
            r[0] = 0.0;
            return 1;
        }
        r[0] = q / a;
        r[1] = c0 / q;
        return 2;
    }

    /* the derivative's roots split [0, 1] into monotone pieces */
    double dc[4], dr[8], cut[6], f[6];
    int m = 0, nr = 0, nd;

    for (int j = 1; j < n; j++)
        dc[j - 1] = j * c[j];
    nd = real_roots(n - 1, dc, dr);
    cut[m++] = 0.0;
    for (int i = 0; i < nd; i++)
        if (0.0 < dr[i] && dr[i] < 1.0)
            cut[m++] = dr[i];
    sort_doubles(m - 1, cut + 1);
    cut[m++] = 1.0;
    for (int i = 0; i < m; i++)
        f[i] = horner(n, c, cut[i]);
    for (int i = 1; i + 1 < m; i++)
        if (f[i] == 0.0)
            r[nr++] = cut[i];
    for (int i = 0; i + 1 < m; i++) {
        double lo = cut[i], hi = cut[i + 1], flo = f[i], mid, fm;

        if (!((flo < 0.0 && 0.0 < f[i + 1]) || (f[i + 1] < 0.0 && 0.0 < flo)))
            continue;
        for (;;) {
            mid = 0.5 * (lo + hi);
            if (mid == lo || mid == hi || (fm = horner(n, c, mid)) == 0.0)
                break;
            if ((fm < 0.0) == (flo < 0.0)) {
                lo = mid;
                flo = fm;
            } else {
                hi = mid;
            }
        }
        r[nr++] = mid;
    }
    return nr;
}

/* flow._exit_row */
static double
exit_row(int d, double radius, const double *x, const double *v,
         const double *e, double h)
{
    double c[5], sl[4], r[8], cut[10], mid[9], grid[2 * ULP_WALK + 1];
    double d0 = path_distance(d, radius, x, v, e, 0.0), th, ulp, step;
    int n, nr, m = 0, k = -1, run;

    d0 = d0 > 0.0 ? d0 : 0.0;
    if (!radius) {
        n = 3;
        c[0] = d0;
        c[1] = h * v[0];
        c[2] = 0.5 * h * h * e[0];
    } else {
        n = 5;
        c[0] = d0 * (2.0 * radius - d0);
        c[1] = -2.0 * h * dot(d, x, v);
        c[2] = -h * h * (dot(d, v, v) + dot(d, x, e));
        c[3] = -pow_(h, 3.0) * dot(d, v, e);
        c[4] = -0.25 * pow_(h, 4.0) * dot(d, e, e);
    }

    nr = real_roots(n, c, r);
    cut[m++] = 0.0;
    cut[m++] = 1.0;
    for (int i = 0; i < nr; i++)
        if (0.0 < r[i] && r[i] < 1.0)
            cut[m++] = r[i];
    sort_doubles(m, cut);
    for (int i = 0; i + 1 < m; i++)
        mid[i] = 0.5 * (cut[i] + cut[i + 1]);
    for (int i = 0; i + 1 < m && k < 0; i++)
        if (cut[i + 1] > cut[i] && poly(n, c, mid[i]) < 0.0)
            k = i;
    th = k < 0 ? 1.0 : cut[k];
    if (k > 0) {
        for (int j = 1; j < n; j++)
            sl[j - 1] = j * c[j];
        for (int it = 0; it < 2; it++)
            if (poly(n - 1, sl, th) != 0.0) {
                th = th - poly(n, c, th) / poly(n - 1, sl, th);
                th = mid[k - 1] > th ? mid[k - 1] : th;
                th = mid[k] < th ? mid[k] : th;
            }
    }
    if (k < 0 && path_distance(d, radius, x, v, e, 1.0 * h) >= 0.0)
        return NAN;

    ulp = nextafter(th, INFINITY) - th;
    for (run = 0; run <= 2 * ULP_WALK; run++) {
        double g = th + ulp * (run - ULP_WALK);
        g = 0.0 > g ? 0.0 : g;
        grid[run] = g = 1.0 < g ? 1.0 : g;
        if ((run > ULP_WALK && !(k > 0 && g < 1.0))
            || !(path_distance(d, radius, x, v, e, g * h) >= 0.0))
            break;
    }
    if (run)
        return grid[run - 1];
    th = grid[0];
    for (step = 2.0 * ULP_WALK;
         th > 0.0 && path_distance(d, radius, x, v, e, th * h) < 0.0; step *= 2.0) {
        th = th - step * (nextafter(th, INFINITY) - th);
        th = 0.0 > th ? 0.0 : th;
    }
    return th;
}

void
first_exit(int d, double radius, long m, const double *x, const double *v,
           const double *e, const double *h, double *theta)
{
    for (long i = 0; i < m; i++)
        theta[i] = exit_row(d, radius, x + i * d, v + i * d, e + i * d, h[i]);
}
