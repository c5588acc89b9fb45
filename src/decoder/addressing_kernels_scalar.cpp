// Scalar instantiation of the blocked lane kernels: compiled with the
// auto-vectorizer disabled (-fno-tree-vectorize) so it is the genuinely
// scalar oracle every wider path is compared against, not just a copy of
// the baseline-autovectorized sse2 path.
#include "decoder/addressing_kernels.h"

#define NWDEC_ADDR_KERNEL_PATH_NAME "scalar"
#define NWDEC_ADDR_KERNEL_TABLE_FN scalar_kernel_table
#include "decoder/addressing_kernels_body.inc"
