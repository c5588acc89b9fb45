// SSE2 instantiation of the blocked lane kernels: plain loops at the
// x86-64 baseline, where the auto-vectorizer emits 2-wide SSE2 code -- the
// default path of the pre-dispatch builds. A stub (nullptr table) on
// targets without SSE2.
#include "decoder/addressing_kernels.h"

#if defined(__SSE2__)
#define NWDEC_ADDR_KERNEL_PATH_NAME "sse2"
#define NWDEC_ADDR_KERNEL_TABLE_FN sse2_kernel_table
#include "decoder/addressing_kernels_body.inc"
#else
namespace nwdec::decoder::detail {
const kernel_table* sse2_kernel_table() { return nullptr; }
}  // namespace nwdec::decoder::detail
#endif
