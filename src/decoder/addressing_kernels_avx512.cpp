// AVX-512 instantiation of the blocked lane kernels: compiled with
// -mavx512f -mavx512bw when the compiler supports them, a stub otherwise.
#include "decoder/addressing_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#define NWDEC_ADDR_KERNEL_PATH_NAME "avx512"
#define NWDEC_ADDR_KERNEL_TABLE_FN avx512_kernel_table
#include "decoder/addressing_kernels_body.inc"
#else
namespace nwdec::decoder::detail {
const kernel_table* avx512_kernel_table() { return nullptr; }
}  // namespace nwdec::decoder::detail
#endif
