/* Native word-matrix kernels for the packed uint64 graph tier: the
 * four primitives the packed graph core dispatches (union_rows,
 * frontier_sweep, set_edge_bits, mask_row_indices).  The MCS selection
 * queue is not among them; every tier runs the int tier's bit-sliced
 * queue.
 *
 * Every function operates on the same little-endian packed layout the
 * numpy tier uses (repro/graph/bitset_np.py): a vertex bitmask is a row
 * of `words` uint64 values, bit i of the mask living in bit (i % 64) of
 * word (i / 64).  A matrix is `rows` such rows, C-contiguous.  All
 * pointers come straight from numpy buffers via cffi; nothing here owns
 * or resizes memory except short-lived internal scratch.
 *
 * Functions returning int use 0 for success and -1 for scratch
 * allocation failure; callers fall back to the numpy tier on -1.
 *
 * Keep these declarations in sync with the _CDEF string in native.py —
 * the loader checks repro_kernels_abi_version() after dlopen and
 * rebuilds on mismatch.
 */

#ifndef REPRO_NATIVE_KERNELS_H
#define REPRO_NATIVE_KERNELS_H

#include <stdint.h>

#define REPRO_KERNELS_ABI_VERSION 4

int repro_kernels_abi_version(void);

/* OR-reduce the m selected rows of the matrix into out[words]
 * (out must be zeroed by the caller). */
void union_rows(const uint64_t *matrix, int64_t words,
                const int64_t *indices, int64_t m, uint64_t *out);

/* Reachability fixpoint: component[] starts as the seed mask and ends
 * as the seed's component within `available`.  The whole BFS — every
 * frontier round — runs natively.  Returns -1 on scratch alloc
 * failure (component is then untouched beyond the seed). */
int frontier_sweep(const uint64_t *matrix, int64_t words,
                   uint64_t *component, const uint64_t *available);

/* Set the (u, v) and (v, u) bits of a packed adjacency in place. */
void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m);

/* Set-bit indices of a packed row, ascending, into out (which must
 * hold the row's popcount).  Returns the count written. */
int64_t mask_row_indices(const uint64_t *mask_row, int64_t words,
                         int64_t *out);

#endif /* REPRO_NATIVE_KERNELS_H */
