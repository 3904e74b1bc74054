/* Native word-matrix kernels — see kernels.h for the layout contract.
 *
 * Only the primitives the graph core calls on large graphs live here:
 * wide-frontier unions, component sweeps, mask-to-index conversion and
 * in-place saturation fill.  The algorithms above them (MCS-M, MCS,
 * LB-Triang, the PEO check, the separator listing and the crossing
 * oracle) are one int-mask loop on every tier, and so is the MCS
 * selection queue (the bit-sliced MaxWeightBuckets of
 * repro/graph/core.py).
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

void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m) {
    for (int64_t i = 0; i < m; i++) {
        int64_t u = u_arr[i];
        int64_t v = v_arr[i];
        matrix[u * words + (v >> 6)] |= 1ULL << (v & 63);
        matrix[v * words + (u >> 6)] |= 1ULL << (u & 63);
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
