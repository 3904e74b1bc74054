/* Native word-matrix kernels — see kernels.h for the layout contract.
 *
 * The kernels mirror the numpy implementations in
 * repro/graph/bitset_np.py bit for bit; those stay the reference
 * oracles (pinned by tests/test_native_kernels.py, and end to end by
 * the native parameters of tests/test_extend_kernels.py and
 * tests/test_bitset_np.py).  What the C tier removes is the numpy
 * per-call dispatch and every intermediate array: each kernel is one
 * pass over the packed words with the loop fused end to end.
 */

#include <stdlib.h>
#include <string.h>

#include "kernels.h"

int repro_kernels_abi_version(void) { return REPRO_KERNELS_ABI_VERSION; }

void popcount_rows(const uint64_t *rows, int64_t m, int64_t words,
                   int64_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *row = rows + i * words;
        int64_t total = 0;
        for (int64_t w = 0; w < words; w++) {
            total += __builtin_popcountll(row[w]);
        }
        out[i] = total;
    }
}

void crossing_batch(const uint64_t *components, int64_t k,
                    const uint64_t *remainders, int64_t m, int64_t words,
                    uint8_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *rem = remainders + i * words;
        int touched = 0;
        for (int64_t c = 0; c < k && touched < 2; c++) {
            const uint64_t *comp = components + c * words;
            for (int64_t w = 0; w < words; w++) {
                if (rem[w] & comp[w]) {
                    touched++;
                    break;
                }
            }
        }
        out[i] = (uint8_t)(touched >= 2);
    }
}

void crossing_batch_gather(const uint64_t *components, int64_t k,
                           const uint64_t *matrix, int64_t words,
                           const int64_t *ids, int64_t m,
                           const uint64_t *v_row, uint8_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *cand = matrix + ids[i] * words;
        int touched = 0;
        for (int64_t c = 0; c < k && touched < 2; c++) {
            const uint64_t *comp = components + c * words;
            for (int64_t w = 0; w < words; w++) {
                if ((cand[w] & ~v_row[w]) & comp[w]) {
                    touched++;
                    break;
                }
            }
        }
        out[i] = (uint8_t)(touched >= 2);
    }
}

void union_rows(const uint64_t *matrix, int64_t words,
                const int64_t *indices, int64_t m, uint64_t *out) {
    for (int64_t j = 0; j < m; j++) {
        const uint64_t *row = matrix + indices[j] * words;
        for (int64_t w = 0; w < words; w++) {
            out[w] |= row[w];
        }
    }
}

int frontier_sweep(const uint64_t *matrix, int64_t words,
                   uint64_t *component, const uint64_t *available) {
    uint64_t *frontier = malloc((size_t)words * 16);
    if (frontier == NULL) {
        return -1;
    }
    uint64_t *reached = frontier + words;
    memcpy(frontier, component, (size_t)words * 8);
    for (;;) {
        int any = 0;
        memset(reached, 0, (size_t)words * 8);
        for (int64_t w = 0; w < words; w++) {
            uint64_t bits = frontier[w];
            while (bits) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                const uint64_t *row = matrix + v * words;
                for (int64_t x = 0; x < words; x++) {
                    reached[x] |= row[x];
                }
            }
        }
        for (int64_t w = 0; w < words; w++) {
            uint64_t grown = reached[w] & available[w] & ~component[w];
            frontier[w] = grown;
            component[w] |= grown;
            any |= grown != 0;
        }
        if (!any) {
            break;
        }
    }
    free(frontier);
    return 0;
}

/* Shared missing-pair walk: counts pairs, and fills u_out/v_out when
 * given.  Keeping bits strictly above u drops both the diagonal and
 * the reversed orientation, matching the numpy kernel's order. */
static int64_t saturate_pairs(const uint64_t *matrix, int64_t words,
                              const uint64_t *mask_row, const int64_t *idx,
                              int64_t k, int64_t *u_out, int64_t *v_out) {
    int64_t count = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t u = idx[i];
        const uint64_t *row = matrix + u * words;
        int64_t w0 = u >> 6;
        for (int64_t w = w0; w < words; w++) {
            uint64_t missing = mask_row[w] & ~row[w];
            if (w == w0) {
                /* Drop bits 0..(u % 64): unsigned wrap makes the mask
                 * all-ones at shift 63, exactly what is needed. */
                missing &= ~((2ULL << (u & 63)) - 1ULL);
            }
            while (missing) {
                int64_t v = (w << 6) + __builtin_ctzll(missing);
                missing &= missing - 1;
                if (u_out != NULL) {
                    u_out[count] = u;
                    v_out[count] = v;
                }
                count++;
            }
        }
    }
    return count;
}

int64_t saturate_count(const uint64_t *matrix, int64_t words,
                       const uint64_t *mask_row, const int64_t *idx,
                       int64_t k) {
    return saturate_pairs(matrix, words, mask_row, idx, k, NULL, NULL);
}

void saturate_fill(const uint64_t *matrix, int64_t words,
                   const uint64_t *mask_row, const int64_t *idx, int64_t k,
                   int64_t *u_out, int64_t *v_out) {
    saturate_pairs(matrix, words, mask_row, idx, k, u_out, v_out);
}

void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m) {
    for (int64_t i = 0; i < m; i++) {
        int64_t u = u_arr[i];
        int64_t v = v_arr[i];
        matrix[u * words + (v >> 6)] |= 1ULL << (v & 63);
        matrix[v * words + (u >> 6)] |= 1ULL << (u & 63);
    }
}

int is_peo_packed(const uint64_t *matrix, int64_t words,
                  const int64_t *order, int64_t k, int64_t n_slots) {
    if (k == 0) {
        return 1;
    }
    uint64_t *madj = calloc((size_t)(k * words), 8);
    uint64_t *later = calloc((size_t)words, 8);
    int64_t *pos = malloc((size_t)n_slots * 8);
    if (madj == NULL || later == NULL || pos == NULL) {
        free(madj);
        free(later);
        free(pos);
        return -1;
    }
    for (int64_t i = 0; i < k; i++) {
        pos[order[i]] = i;
    }
    /* madj rows back to front: row i = adj(order[i]) restricted to
     * vertices ordered after i. */
    for (int64_t i = k - 1; i >= 0; i--) {
        int64_t v = order[i];
        const uint64_t *row = matrix + v * words;
        uint64_t *mrow = madj + i * words;
        for (int64_t w = 0; w < words; w++) {
            mrow[w] = row[w] & later[w];
        }
        later[v >> 6] |= 1ULL << (v & 63);
    }
    int ok = 1;
    for (int64_t i = 0; i < k && ok; i++) {
        const uint64_t *mrow = madj + i * words;
        /* Parent: the earliest-ordered member of madj (min position). */
        int64_t parent = -1;
        int64_t parent_pos = k;
        for (int64_t w = 0; w < words; w++) {
            uint64_t bits = mrow[w];
            while (bits) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (pos[v] < parent_pos) {
                    parent_pos = pos[v];
                    parent = v;
                }
            }
        }
        if (parent < 0) {
            continue;
        }
        const uint64_t *prow = madj + parent_pos * words;
        for (int64_t w = 0; w < words; w++) {
            uint64_t violation = mrow[w] & ~prow[w];
            if (w == (parent >> 6)) {
                violation &= ~(1ULL << (parent & 63));
            }
            if (violation) {
                ok = 0;
                break;
            }
        }
    }
    free(madj);
    free(later);
    free(pos);
    return ok;
}

static int compare_i64(const void *a, const void *b) {
    int64_t lhs = *(const int64_t *)a;
    int64_t rhs = *(const int64_t *)b;
    return (lhs > rhs) - (lhs < rhs);
}

int64_t weight_level_rows(const int64_t *indices, const int64_t *weights,
                          int64_t m, int64_t words, uint8_t *out) {
    if (m == 0) {
        return 0;
    }
    int64_t *distinct = malloc((size_t)m * 8);
    if (distinct == NULL) {
        return -1;
    }
    memcpy(distinct, weights, (size_t)m * 8);
    qsort(distinct, (size_t)m, 8, compare_i64);
    int64_t levels = 0;
    for (int64_t i = 0; i < m; i++) {
        if (levels == 0 || distinct[i] != distinct[levels - 1]) {
            distinct[levels++] = distinct[i];
        }
    }
    int64_t row_bytes = words * 8;
    for (int64_t j = 0; j < m; j++) {
        /* Binary search: weights[j] is always present in distinct. */
        int64_t lo = 0;
        int64_t hi = levels - 1;
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (distinct[mid] < weights[j]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        int64_t bit = indices[j];
        out[lo * row_bytes + (bit >> 3)] |= (uint8_t)(1u << (bit & 7));
    }
    free(distinct);
    return levels;
}

int64_t argmax_i64(const int64_t *key, int64_t n) {
    int64_t best = 0;
    for (int64_t i = 1; i < n; i++) {
        if (key[i] > key[best]) {
            best = i;
        }
    }
    return best;
}

void queue_bump_mask(int64_t *key, int64_t *weights,
                     const uint64_t *mask_row, int64_t words,
                     int64_t stride) {
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            int64_t i = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
            weights[i] += 1;
            key[i] += stride;
        }
    }
}

int64_t mask_row_indices(const uint64_t *mask_row, int64_t words,
                         int64_t *out) {
    int64_t count = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            out[count++] = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
        }
    }
    return count;
}

int64_t masked_rows_popcount(const uint64_t *matrix, int64_t words,
                             const uint64_t *mask_row) {
    int64_t total = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            int64_t u = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
            const uint64_t *row = matrix + u * words;
            for (int64_t x = 0; x < words; x++) {
                total += __builtin_popcountll(row[x] & mask_row[x]);
            }
        }
    }
    return total;
}
