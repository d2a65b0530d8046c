#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* One collapsed Gibbs sweep over every token, in place: the compiled twin
 * of ontomap.gibbs._sweep.  Each weight takes the operations of _sweep and
 * _path_prob in their order, and native.FLAGS forbid contracting them, so
 * both round alike and pick the same topics.  Arrays are row-major:
 * n_dk[d][k], n_kw[k][w], n_comp[k][m], n_region[k][r], q[k][r] and
 * member[branch][m]. */
void ontomap_sweep(i64 n, i64 K, i64 V, i64 M, i64 R, i64 flat,
                   double alpha, double beta, double eta_beta,
                   double eps_beta, const i64 *words, const i64 *doc,
                   const i64 *comp_of, const i64 *region_of,
                   const i64 *comp_size, const double *size_beta,
                   const double *size_eta_beta, const double *region_gamma,
                   const i64 *branch_offset, const double *branch_gamma,
                   const unsigned char *member, const i64 *q, i64 *z,
                   i64 *n_dk, i64 *n_kw, i64 *n_k, i64 *n_comp,
                   i64 *n_region, const double *u, double *weights)
{
    double vbeta = V * beta;
    for (i64 i = 0; i < n; i++) {
        i64 w = words[i], m = comp_of[w], r = region_of[w], k = z[i];
        i64 *ndk = n_dk + doc[i] * K;
        ndk[k]--, n_kw[k * V + w]--, n_k[k]--;
        if (m >= 0) n_comp[k * M + m]--;
        if (r >= 0) n_region[k * R + r]--;
        double total = 0.0;
        for (k = 0; k < K; k++) {
            double nkw = n_kw[k * V + w], root = vbeta + n_k[k], p;
            if (flat) {
                total += (alpha + ndk[k]) * (beta + nkw) / root;
                weights[k] = total;
                continue;
            }
            if (m < 0) {
                p = (beta + nkw) / root;
            } else if (r < 0) {
                double nc = n_comp[k * M + m];
                p = (size_beta[m] + nc) / root * (eta_beta + nkw)
                    / (size_eta_beta[m] + nc);
            } else {
                double nc = n_comp[k * M + m], nr = n_region[k * R + r];
                i64 b = branch_offset[r] + q[k * R + r];
                double den = branch_gamma[b] + nr;
                p = (region_gamma[r] + nr) / root;
                if (!member[b * M + m])
                    p = p * (eps_beta + nkw) / den;
                else if (comp_size[m] == 1)
                    p = p * (beta + nkw) / den;
                else
                    p = p * (size_beta[m] + nc) / den * (eta_beta + nkw)
                        / (size_eta_beta[m] + nc);
            }
            total += (alpha + ndk[k]) * p;
            weights[k] = total;
        }
        /* gibbs._pick: the first cumulative weight above u * total */
        double x = u[i] * total;
        for (k = 0; k < K - 1 && weights[k] <= x; k++)
            ;
        z[i] = k;
        ndk[k]++, n_kw[k * V + w]++, n_k[k]++;
        if (m >= 0) n_comp[k * M + m]++;
        if (r >= 0) n_region[k * R + r]++;
    }
}

static int ascending(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Louvain local moves until a pass moves no node, in place on comm and
 * comm_tot: the compiled twin of the passes of graphmap._local_move_phase,
 * with its operations in their order.  Node i's neighbours are nbr[offset[i]]
 * to nbr[offset[i + 1] - 1] in the order of its dict.  links, seen and
 * touched are scratch for n communities; seen starts and ends all zero. */
void ontomap_local_move(i64 n, double two_m, const i64 *offset,
                        const i64 *nbr, const double *weight,
                        const double *degree, const i64 *order, i64 *comm,
                        double *comm_tot, double *links,
                        unsigned char *seen, i64 *touched)
{
    for (int improved = 1; improved;) {
        improved = 0;
        for (i64 o = 0; o < n; o++) {
            i64 i = order[o], ci = comm[i], best_c = ci, t = 0;
            for (i64 e = offset[i]; e < offset[i + 1]; e++) {
                i64 c = comm[nbr[e]];
                if (!seen[c])
                    seen[c] = 1, links[c] = 0.0, touched[t++] = c;
                links[c] += weight[e];
            }
            comm_tot[ci] -= degree[i];
            double best_gain = (seen[ci] ? links[ci] : 0.0)
                               - comm_tot[ci] * degree[i] / two_m;
            /* ascending community order makes the lowest id win ties */
            qsort(touched, t, sizeof *touched, ascending);
            for (i64 k = 0; k < t; k++) {
                i64 c = touched[k];
                seen[c] = 0;
                if (c == ci)
                    continue;
                double gain = links[c] - comm_tot[c] * degree[i] / two_m;
                if (gain > best_gain + 1e-12)
                    best_c = c, best_gain = gain;
            }
            improved |= best_c != ci;
            comm[i] = best_c;
            comm_tot[best_c] += degree[i];
        }
    }
}
