// Parallel compute-kernel subsystem.
//
// TrustDDL's cost model is dominated by local share arithmetic: every
// SecMatMul(-BT) invocation performs several full matrix products per
// party, and the Conv2D layers route all work through im2col + matmul.
// This module provides the shared substrate those hot paths run on:
//
//  * a persistent chunked thread pool exposed through `parallel_for`
//    with DETERMINISTIC work partitioning (chunk boundaries depend only
//    on the iteration count and the grain, never on timing),
//  * a cache-blocked matrix-multiply kernel with a packed/transposed
//    RHS for both `Tensor<std::uint64_t>` (the Z_{2^64} share domain)
//    and `Tensor<double>` (the plaintext reference engine),
//  * small helpers (parallel elementwise product, chunked reductions)
//    used by the tensor/conv/protocol layers.
//
// Determinism contract (asserted by tests/test_kernels.cpp):
//  * Ring kernels are BIT-IDENTICAL to the naive single-threaded loops
//    at any thread count — Z_{2^64} arithmetic is exact and every
//    output element is written by exactly one chunk.
//  * Double kernels use a fixed accumulation order that is independent
//    of the thread count (blocking is configured by block sizes, and
//    parallel chunks only partition disjoint output regions), so runs
//    with 1, 2 or N threads produce bit-identical doubles.  Blocked
//    double results may differ from the naive loop by normal
//    floating-point reassociation, which tests bound in ulps.
//
// Configuration: a process-global KernelConfig (env-overridable via
// TRUSTDDL_THREADS / TRUSTDDL_BLOCK_{M,K,N} / TRUSTDDL_GRAIN /
// TRUSTDDL_MATMUL_CUTOFF) feeds the free tensor
// functions; mpc::PartyContext and core::EngineConfig carry a copy so
// protocol code and the engine can pin an explicit setting.
// `threads = 1` reproduces the pre-kernel serial behaviour exactly.
// Inner loops dispatch through numeric/simd.hpp (TRUSTDDL_SIMD
// selects the backend); every backend is bit-identical (see simd.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <utility>
#include <vector>

#include "numeric/tensor.hpp"

namespace trustddl::kernels {

struct KernelConfig {
  /// Worker parallelism for all kernels. 0 = hardware concurrency,
  /// 1 = run everything inline on the calling thread (exact pre-kernel
  /// behaviour), N = at most N-way chunking.
  int threads = 0;
  /// Cache block sizes for the blocked matmul: rows of A/C per block,
  /// depth of the K panel, and columns of the packed B panel.  The
  /// compiled fallbacks below are replaced by cache-size-derived
  /// values in from_env() when the OS reports L1d/L2 sizes (block
  /// sizes never change double results: accumulation per C element is
  /// always p-ascending and blocks partition disjoint outputs).
  std::size_t block_m = 64;
  std::size_t block_k = 128;
  std::size_t block_n = 128;
  /// Minimum elements of work per parallel chunk; below this the body
  /// runs inline.  Keeps tiny tensors (bias rows, scalars) off the
  /// pool.
  std::size_t grain = 4096;
  /// Naive/blocked matmul crossover, expressed as RHS footprint
  /// (k * n * sizeof(T) bytes): blocking pays only once the RHS
  /// outgrows L2 and panel packing starts earning its cost.  0 = use
  /// the detected L2 size (see DESIGN.md §4); >0 pins the crossover
  /// explicitly.
  std::size_t matmul_cutoff_bytes = 0;

  /// Defaults overridden by TRUSTDDL_THREADS, TRUSTDDL_BLOCK_M,
  /// TRUSTDDL_BLOCK_K, TRUSTDDL_BLOCK_N, TRUSTDDL_GRAIN and
  /// TRUSTDDL_MATMUL_CUTOFF; block sizes start from detected cache
  /// sizes when available.
  static KernelConfig from_env();

  /// The effective thread count (resolves 0 to hardware concurrency).
  int resolved_threads() const;
};

/// Snapshot of the process-global kernel configuration (initialised
/// from the environment on first use).
KernelConfig global_config();

/// Replace the process-global configuration.  Thread-safe; kernels
/// already running keep the snapshot they started with.
void set_global_config(const KernelConfig& config);

/// The matmul crossover the dispatcher will use for `config`:
/// config.matmul_cutoff_bytes when pinned, otherwise the detected L2
/// size (2 MiB when the OS does not report it).
std::size_t effective_matmul_cutoff_bytes(const KernelConfig& config);

/// Deterministic chunk count `parallel_for`/`parallel_chunks` will use
/// for `count` iterations at the given grain — exposed so reductions
/// can pre-size per-chunk partial buffers.
std::size_t plan_chunk_count(const KernelConfig& config, std::size_t count,
                             std::size_t grain);

/// Run body(lo, hi) over a deterministic partition of [0, count).
/// Chunks execute concurrently on the persistent pool (the caller
/// participates); nested calls from pool workers run inline.  The
/// partition depends only on (count, grain, config.threads) — bodies
/// that write disjoint output per index are therefore deterministic at
/// any thread count.  Exceptions thrown by the body are rethrown to
/// the caller (first one wins).
void parallel_for(const KernelConfig& config, std::size_t count,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// parallel_for against the process-global configuration.
void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Like parallel_for but the body also receives the chunk index
/// (0 .. plan_chunk_count-1) for per-chunk partial reductions.
void parallel_chunks(
    const KernelConfig& config, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t chunk, std::size_t lo,
                             std::size_t hi)>& body);

/// Run a handful of independent tasks concurrently; returns when all
/// finished.  Used for e.g. the three per-component commitment digests
/// of an optimistic opening (each digest stays byte-identical — only
/// the hashers run side by side).
void parallel_invoke(const KernelConfig& config,
                     std::initializer_list<std::function<void()>> tasks);
void parallel_invoke(std::initializer_list<std::function<void()>> tasks);

/// The seed's single-threaded triple-loop matmul, kept as the
/// differential-test oracle and the bench baseline.  Its inner loop
/// routes through the SIMD axpy primitive, which is bit-identical to
/// the scalar loop (exact ring; no-FMA doubles).
template <typename T>
Tensor<T> matmul_naive(const Tensor<T>& lhs, const Tensor<T>& rhs);

/// matmul_naive partitioned across output rows on the thread pool;
/// bit-identical to matmul_naive at any thread count (each C row is
/// written by exactly one chunk, per-element order unchanged).  This
/// is the dispatcher's small-RHS path.
template <typename T>
Tensor<T> matmul_naive_parallel(const KernelConfig& config,
                                const Tensor<T>& lhs, const Tensor<T>& rhs);

/// Cache-blocked matmul over a packed (transposed-panel) RHS,
/// parallelised across row blocks of the output.  See the determinism
/// contract above.
template <typename T>
Tensor<T> matmul_blocked(const KernelConfig& config, const Tensor<T>& lhs,
                         const Tensor<T>& rhs);

/// Dispatching matmul: row-parallel naive loop while the RHS fits in
/// cache (where panel packing costs more than it saves — every
/// Table I shape lands here), blocked kernel above the L2-sized
/// crossover (see effective_matmul_cutoff_bytes).  The cutoff depends
/// only on the shape, never the thread count.
template <typename T>
Tensor<T> matmul(const KernelConfig& config, const Tensor<T>& lhs,
                 const Tensor<T>& rhs);
template <typename T>
Tensor<T> matmul(const Tensor<T>& lhs, const Tensor<T>& rhs);

/// Parallel elementwise product (exact in the ring; deterministic for
/// doubles — each element is one multiply).
template <typename T>
Tensor<T> hadamard_parallel(const KernelConfig& config, const Tensor<T>& lhs,
                            const Tensor<T>& rhs);
template <typename T>
Tensor<T> hadamard_parallel(const Tensor<T>& lhs, const Tensor<T>& rhs);

}  // namespace trustddl::kernels
