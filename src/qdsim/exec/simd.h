/**
 * @file simd.h
 * QD_SIMD: `#pragma omp simd` when compiled with OpenMP, nothing otherwise.
 *
 * This is the only OpenMP construct in src/: kernel passes run on their
 * calling thread (kernels.h), and OpenMP is used for vectorisation alone.
 * The batched execution engine's inner lane loops are independent by
 * construction; the pragma tells the vectoriser so without changing the
 * arithmetic order inside any single lane (omp simd vectorises ACROSS
 * lanes, so per-lane bitwise reproducibility is preserved).
 */
#ifndef QDSIM_EXEC_SIMD_H
#define QDSIM_EXEC_SIMD_H

#if defined(_OPENMP)
#define QD_SIMD _Pragma("omp simd")
#else
#define QD_SIMD
#endif

#endif  // QDSIM_EXEC_SIMD_H
