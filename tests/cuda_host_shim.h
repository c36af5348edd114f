// Just enough of CUDA for a host compiler to build and run
// cuda/ecl_cc_cuda.cu: the execution-space keywords, the index builtins,
// the three atomics the kernels use, heap-backed device memory, and a
// launch that runs every block, then every thread of it, in order (the
// simulator's schedule). It executes kernels but models no cost, and it
// checks the backend's host logic, launch geometry and kernel bodies under
// that one sequential schedule, not CUDA's memory model.
//
// Include it before the .cu file.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>

#define __global__
#define __device__

struct dim3 {
  unsigned x = 1;
  unsigned y = 1;
  unsigned z = 1;
};

inline thread_local dim3 threadIdx;
inline thread_local dim3 blockIdx;
inline thread_local dim3 blockDim;
inline thread_local dim3 gridDim;
inline constexpr int warpSize = 32;

template <typename T>
T atomicCAS(T* address, T compare, T val) {
  const T old = *address;
  if (old == compare) *address = val;
  return old;
}

template <typename T>
T atomicAdd(T* address, T val) {
  const T old = *address;
  *address = old + val;
  return old;
}

template <typename T>
T atomicSub(T* address, T val) {
  const T old = *address;
  *address = old - val;
  return old;
}

enum cudaError_t { cudaSuccess = 0, cudaErrorMemoryAllocation = 2 };
enum cudaMemcpyKind { cudaMemcpyHostToDevice = 1, cudaMemcpyDeviceToHost = 2 };

/// One SM: a grid is capped at 32 blocks of 256 threads, so graphs over
/// 8192 vertices also run the kernels' grid-stride loops.
struct cudaDeviceProp {
  int multiProcessorCount = 1;
  int warpSize = 32;
};

inline const char* cudaGetErrorString(cudaError_t status) {
  return status == cudaSuccess ? "no error" : "out of memory";
}
inline cudaError_t cudaGetLastError() { return cudaSuccess; }
inline cudaError_t cudaGetDevice(int* device) {
  *device = 0;
  return cudaSuccess;
}
inline cudaError_t cudaGetDeviceProperties(cudaDeviceProp* prop, int /*device*/) {
  *prop = cudaDeviceProp{};
  return cudaSuccess;
}

template <typename T>
cudaError_t cudaMalloc(T** ptr, std::size_t bytes) {
  *ptr = static_cast<T*>(std::malloc(bytes));
  return *ptr != nullptr ? cudaSuccess : cudaErrorMemoryAllocation;
}
inline cudaError_t cudaMemcpy(void* dst, const void* src, std::size_t bytes,
                              cudaMemcpyKind /*kind*/) {
  if (bytes > 0) std::memcpy(dst, src, bytes);
  return cudaSuccess;
}
inline cudaError_t cudaFree(void* ptr) {
  std::free(ptr);
  return cudaSuccess;
}

/// kernel<<<grid, block>>>(args...), one thread at a time.
template <typename Kernel, typename... Args>
void ecl_shim_launch(Kernel kernel, unsigned grid, unsigned block, const Args&... args) {
  gridDim = dim3{grid};
  blockDim = dim3{block};
  for (unsigned b = 0; b < grid; ++b) {
    for (unsigned t = 0; t < block; ++t) {
      blockIdx = dim3{b};
      threadIdx = dim3{t};
      kernel(args...);
    }
  }
}
#define ECL_LAUNCH(kernel, grid, block, ...) ecl_shim_launch(kernel, grid, block, __VA_ARGS__)
