#include "common/matrix.h"

#include <cmath>
#include <cstring>

#include "common/isa.h"
#include "common/obs.h"
#include "common/threadpool.h"

namespace hwpr
{

namespace
{

/**
 * Minimum flop count before a GEMM fans out to the global pool, and
 * the per-chunk flop budget once it does. Chunks are whole output
 * rows, each computed serially, so results are bit-identical at every
 * thread count.
 */
constexpr std::size_t kGemmParallelFlops = std::size_t(1) << 16;
constexpr std::size_t kGemmGrainFlops = std::size_t(1) << 15;

/** Elementwise-op threshold / grain (elements). */
constexpr std::size_t kMapParallelSize = std::size_t(1) << 15;

/**
 * Register-tile shape. kMr x kNr accumulators live in registers for
 * the whole k loop, so each output element is one scalar ascending-k
 * chain — the canonical accumulation order shared with the naive
 * reference kernels. kNc is the column cache block: the k x kNc panel
 * of B stays hot while every row block of the chunk sweeps it.
 */
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
constexpr std::size_t kNc = 256;

// A * B^T always packs B's transpose into a scratch panel and reuses
// the A * B chunk worker. A dedicated kernel over the strided B rows
// looks cheaper for small panels, but its gathered inner loop is the
// one GEMM shape GCC fails to contract into fused multiply-adds, so
// its results drift one ulp from every other kernel and break the
// tiled == naive bit-identity contract (caught by the property
// suite). Packing is O(k*n) data movement against O(m*k*n) compute
// and keeps a single accumulation code path for all three variants.

/**
 * Per-variant GEMM observability. Every entry-point call records wall
 * time, multiply-add count and call count into the registry when
 * metrics are armed; only calls big enough to fan out to the pool
 * (>= kGemmParallelFlops) open a trace span — small products run
 * thousands of times per training step and would swamp the trace
 * without changing its story.
 */
struct GemmMetrics
{
    obs::Histogram &us;
    obs::Counter &flops;
    obs::Counter &calls;

    explicit GemmMetrics(const char *variant)
        : us(obs::Registry::global().histogram(
              std::string("gemm.") + variant + ".us")),
          flops(obs::Registry::global().counter(
              std::string("gemm.") + variant + ".flops")),
          calls(obs::Registry::global().counter(
              std::string("gemm.") + variant + ".calls"))
    {}
};

/** Scoped per-call recorder for one GemmMetrics set. */
class GemmTimer
{
  public:
    GemmTimer(GemmMetrics &target, std::size_t flops)
        : target_(obs::metricsEnabled() ? &target : nullptr),
          flops_(flops), start_(target_ ? obs::nowMicros() : 0.0)
    {}

    ~GemmTimer()
    {
        if (target_) {
            target_->us.record(obs::nowMicros() - start_);
            target_->flops.add(flops_);
            target_->calls.add();
        }
    }

    GemmTimer(const GemmTimer &) = delete;
    GemmTimer &operator=(const GemmTimer &) = delete;

  private:
    GemmMetrics *target_;
    std::size_t flops_;
    double start_;
};

std::size_t
rowGrain(std::size_t flops_per_row)
{
    const std::size_t rows = std::max<std::size_t>(
        1, kGemmGrainFlops / std::max<std::size_t>(1, flops_per_row));
    // Align chunks to the register-tile height: parallel chunk
    // boundaries land on multiples of the grain, so a kMr-aligned
    // grain keeps every row's full-vs-ragged tile membership — and
    // therefore its exact instruction sequence — identical at every
    // thread count.
    return (rows + kMr - 1) / kMr * kMr;
}

/*
 * ISA dispatch (common/isa.h): the chunk workers below are
 * HWPR_TARGET_CLONES'd for x86-64-v3, and the tile helpers are
 * HWPR_FORCE_INLINE so each clone vectorizes its own copy. Both the
 * tiled chunk workers and the naive reference kernels are cloned, so
 * FP contraction (fused multiply-add) applies to the same ascending-k
 * chains in both and tiled == naive stays exact on every machine.
 */

/**
 * Full MR x NR register tile of C (+)= A * B with compile-time
 * bounds: the accumulators are fully unrolled into vector registers.
 * Zero A elements skip their fma row, exactly like the naive i-k-j
 * kernel — post-ReLU activations are sparse enough that the skip
 * wins despite the per-(k,r) branch.
 */
template <std::size_t MR, std::size_t NR>
HWPR_FORCE_INLINE void
gemmTileABFull(const double *a, std::size_t lda, const double *b,
               std::size_t ldb, double *c, std::size_t ldc,
               std::size_t kk, bool accumulate)
{
    double acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = 0; j < NR; ++j)
            acc[r][j] = accumulate ? c[r * ldc + j] : 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
        const double *bk = b + k * ldb;
        for (std::size_t r = 0; r < MR; ++r) {
            const double av = a[r * lda + k];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < NR; ++j)
                acc[r][j] += av * bk[j];
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = 0; j < NR; ++j)
            c[r * ldc + j] = acc[r][j];
}

/**
 * Four doubles as one GCC vector. Only ever a local inside
 * force-inlined code, never a parameter or return value, so no clone
 * depends on the AVX calling convention (no -Wpsabi). The v3 clone
 * maps it onto one ymm register; the default clone splits it into two
 * SSE2 halves with the same per-lane arithmetic.
 */
typedef double V4d __attribute__((vector_size(4 * sizeof(double))));

/**
 * Branch-free kMr x kNr tile of C (+)= A * B for a panel of A (rows at
 * leading dimension lda) with no zero element. Each k loads the B row
 * once, broadcasts each A value and runs one multiply-add per
 * accumulator lane: the same ascending-k chain, with the same FP
 * contraction, as gemmTileABFull, whose skip never fires on such a
 * panel — so the two are bit-identical. The
 * accumulators are named vectors rather than a double[MR][NR] array:
 * without the skip branch GCC 12 spills the array form to the stack
 * and runs ~5x slower.
 */
HWPR_FORCE_INLINE void
gemmTileDense(const double *a, std::size_t lda, const double *b,
              std::size_t ldb, double *c, std::size_t ldc,
              std::size_t kk, bool accumulate)
{
    static_assert(kMr == 4 && kNr == 8, "tile is written out for 4x8");
    V4d c00 = {}, c01 = {}, c10 = {}, c11 = {};
    V4d c20 = {}, c21 = {}, c30 = {}, c31 = {};
    if (accumulate) {
        std::memcpy(&c00, c, sizeof(V4d));
        std::memcpy(&c01, c + 4, sizeof(V4d));
        std::memcpy(&c10, c + ldc, sizeof(V4d));
        std::memcpy(&c11, c + ldc + 4, sizeof(V4d));
        std::memcpy(&c20, c + 2 * ldc, sizeof(V4d));
        std::memcpy(&c21, c + 2 * ldc + 4, sizeof(V4d));
        std::memcpy(&c30, c + 3 * ldc, sizeof(V4d));
        std::memcpy(&c31, c + 3 * ldc + 4, sizeof(V4d));
    }
    const double *a0 = a, *a1 = a + lda, *a2 = a + 2 * lda,
                 *a3 = a + 3 * lda;
    for (std::size_t k = 0; k < kk; ++k) {
        V4d b0, b1;
        std::memcpy(&b0, b + k * ldb, sizeof(V4d));
        std::memcpy(&b1, b + k * ldb + 4, sizeof(V4d));
        c00 += a0[k] * b0;
        c01 += a0[k] * b1;
        c10 += a1[k] * b0;
        c11 += a1[k] * b1;
        c20 += a2[k] * b0;
        c21 += a2[k] * b1;
        c30 += a3[k] * b0;
        c31 += a3[k] * b1;
    }
    std::memcpy(c, &c00, sizeof(V4d));
    std::memcpy(c + 4, &c01, sizeof(V4d));
    std::memcpy(c + ldc, &c10, sizeof(V4d));
    std::memcpy(c + ldc + 4, &c11, sizeof(V4d));
    std::memcpy(c + 2 * ldc, &c20, sizeof(V4d));
    std::memcpy(c + 2 * ldc + 4, &c21, sizeof(V4d));
    std::memcpy(c + 3 * ldc, &c30, sizeof(V4d));
    std::memcpy(c + 3 * ldc + 4, &c31, sizeof(V4d));
}

/**
 * True when no element of the kMr x @p kk panel at @p a (rows at
 * leading dimension lda) compares equal to zero, so -0.0 counts as a
 * zero.
 * Walks k outermost and stops at the first zero: a one-hot or ReLU
 * panel is rejected within a step or two, and only a dense panel pays
 * the full O(kMr * kk) scan, which its dense tile then repays.
 */
HWPR_FORCE_INLINE bool
panelZeroFree(const double *a, std::size_t lda, std::size_t kk)
{
    static_assert(kMr == 4, "scan is written out for 4 rows");
    for (std::size_t k = 0; k < kk; ++k)
        if ((a[k] == 0.0) | (a[lda + k] == 0.0) |
            (a[2 * lda + k] == 0.0) | (a[3 * lda + k] == 0.0))
            return false;
    return true;
}

/**
 * C tile [0,mr) x [0,nr) of C (+)= A * B. @p a points at the first A
 * row (leading dimension lda), @p b at B's tile columns (ldb), @p c at
 * the output tile (ldc). Full tiles take the fixed-size register
 * path; ragged edges run the same loops with runtime bounds.
 */
HWPR_FORCE_INLINE void
gemmTileAB(const double *a, std::size_t lda, const double *b,
           std::size_t ldb, double *c, std::size_t ldc,
           std::size_t mr, std::size_t nr, std::size_t kk,
           bool accumulate)
{
    if (mr == kMr && nr == kNr) {
        gemmTileABFull<kMr, kNr>(a, lda, b, ldb, c, ldc, kk,
                                 accumulate);
        return;
    }
    double acc[kMr][kNr];
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            acc[r][j] = accumulate ? c[r * ldc + j] : 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
        const double *bk = b + k * ldb;
        for (std::size_t r = 0; r < mr; ++r) {
            const double av = a[r * lda + k];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < nr; ++j)
                acc[r][j] += av * bk[j];
        }
    }
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            c[r * ldc + j] = acc[r][j];
}

/** Full-tile variant of gemmTileAtB (zero skip on A columns). */
template <std::size_t MR, std::size_t NR>
HWPR_FORCE_INLINE void
gemmTileAtBFull(const double *a, std::size_t lda, const double *b,
                std::size_t ldb, double *c, std::size_t ldc,
                std::size_t kk, bool accumulate)
{
    double acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = 0; j < NR; ++j)
            acc[r][j] = accumulate ? c[r * ldc + j] : 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
        const double *ak = a + k * lda;
        const double *bk = b + k * ldb;
        for (std::size_t r = 0; r < MR; ++r) {
            const double av = ak[r];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < NR; ++j)
                acc[r][j] += av * bk[j];
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = 0; j < NR; ++j)
            c[r * ldc + j] = acc[r][j];
}

/**
 * C tile of C (+)= A^T * B. @p a points at A's tile columns (A is
 * k x m, lda = m), so a[k * lda + r] walks mr adjacent columns; @p b
 * at B's tile columns (ldb).
 */
HWPR_FORCE_INLINE void
gemmTileAtB(const double *a, std::size_t lda, const double *b,
            std::size_t ldb, double *c, std::size_t ldc,
            std::size_t mr, std::size_t nr, std::size_t kk,
            bool accumulate)
{
    if (mr == kMr && nr == kNr) {
        gemmTileAtBFull<kMr, kNr>(a, lda, b, ldb, c, ldc, kk,
                                  accumulate);
        return;
    }
    double acc[kMr][kNr];
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            acc[r][j] = accumulate ? c[r * ldc + j] : 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
        const double *ak = a + k * lda;
        const double *bk = b + k * ldb;
        for (std::size_t r = 0; r < mr; ++r) {
            const double av = ak[r];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < nr; ++j)
                acc[r][j] += av * bk[j];
        }
    }
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            c[r * ldc + j] = acc[r][j];
}

/**
 * Chunk workers: output rows [i0, i1) of one GEMM, looping the cache
 * and register tiles above. These are the ISA-dispatch roots — every
 * tile helper inlines into them, so the x86-64-v3 clone vectorizes
 * the whole tree with AVX2+FMA.
 *
 * Each full kMr-row panel is scanned for a zero (panelZeroFree) when
 * at least one full kNr tile follows: a zero-free panel (dense LSTM
 * gate inputs) runs gemmTileDense on its full tiles, a panel holding
 * a zero (ReLU or one-hot inputs) keeps the zero-skip tile, and
 * ragged row or column tails always do. The choice depends only on
 * the panel's values and tiles are kMr-aligned at every thread count,
 * so results stay bit-identical to the naive kernels.
 */
HWPR_TARGET_CLONES void
gemmRowsAB(const double *a, const double *b, double *c,
           std::size_t i0, std::size_t i1, std::size_t n,
           std::size_t kk, bool accumulate)
{
    for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
        const std::size_t j1 = std::min(n, j0 + kNc);
        for (std::size_t i = i0; i < i1; i += kMr) {
            const std::size_t mr = std::min(kMr, i1 - i);
            const bool dense = mr == kMr && j1 - j0 >= kNr &&
                               panelZeroFree(a + i * kk, kk, kk);
            for (std::size_t j = j0; j < j1; j += kNr) {
                const std::size_t nr = std::min(kNr, j1 - j);
                if (dense && nr == kNr)
                    gemmTileDense(a + i * kk, kk, b + j, n,
                                  c + i * n + j, n, kk, accumulate);
                else
                    gemmTileAB(a + i * kk, kk, b + j, n,
                               c + i * n + j, n, mr, nr, kk,
                               accumulate);
            }
        }
    }
}

/** Output rows [i0, i1) of A^T * B (A is kk x m, lda = m). */
HWPR_TARGET_CLONES void
gemmRowsAtB(const double *a, const double *b, double *c,
            std::size_t i0, std::size_t i1, std::size_t m,
            std::size_t n, std::size_t kk, bool accumulate)
{
    for (std::size_t i = i0; i < i1; i += kMr) {
        const std::size_t mr = std::min(kMr, i1 - i);
        for (std::size_t j = 0; j < n; j += kNr) {
            const std::size_t nr = std::min(kNr, n - j);
            gemmTileAtB(a + i, m, b + j, n, c + i * n + j, n, mr, nr,
                        kk, accumulate);
        }
    }
}

/**
 * Pack B (n x kk, row-major) as its transpose, a contiguous kk x n
 * panel. 8x8 blocked so both streams stay within a few cache lines
 * per tile (~4x faster than the naive strided sweep). Pure data
 * movement — the values feeding each fma chain are unchanged.
 */
HWPR_TARGET_CLONES void
packTransposed(const double *b, double *bt, std::size_t n,
               std::size_t kk)
{
    constexpr std::size_t blk = 8;
    for (std::size_t j0 = 0; j0 < n; j0 += blk) {
        const std::size_t j1 = std::min(j0 + blk, n);
        for (std::size_t k0 = 0; k0 < kk; k0 += blk) {
            const std::size_t k1 = std::min(k0 + blk, kk);
            for (std::size_t j = j0; j < j1; ++j) {
                const double *brow = b + j * kk;
                for (std::size_t k = k0; k < k1; ++k)
                    bt[k * n + j] = brow[k];
            }
        }
    }
}

/**
 * Naive reference loops, cloned with the same ISA set as the chunk
 * workers so FP contraction applies to the identical ascending-k
 * chains — the tiled == naive contract holds on every machine.
 * @{
 */
HWPR_TARGET_CLONES void
naiveAB(const double *a, const double *b, double *c, std::size_t m,
        std::size_t n, std::size_t kk)
{
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * kk;
        double *crow = c + i * n;
        for (std::size_t k = 0; k < kk; ++k) {
            const double av = arow[k];
            if (av == 0.0)
                continue;
            const double *brow = b + k * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

HWPR_TARGET_CLONES void
naiveAtB(const double *a, const double *b, double *c, std::size_t m,
         std::size_t n, std::size_t kk)
{
    for (std::size_t k = 0; k < kk; ++k) {
        const double *arow = a + k * m;
        const double *brow = b + k * n;
        for (std::size_t i = 0; i < m; ++i) {
            const double av = arow[i];
            if (av == 0.0)
                continue;
            double *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

HWPR_TARGET_CLONES void
naiveABt(const double *a, const double *b, double *c, std::size_t m,
         std::size_t n, std::size_t kk)
{
    // Same expression shape as the tile kernel: gather the k-th
    // column of B^T into a contiguous buffer, then run the axpy
    // acc += av * bk[j]. A dot-product form of this loop computes the
    // same ascending-k chain on paper, but the compiler contracts the
    // two shapes into fused multiply-adds differently, which broke
    // the tiled == naive bit-identity contract for A * B^T (caught by
    // the property suite).
    std::vector<double> bk(n);
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * kk;
        double *crow = c + i * n;
        for (std::size_t k = 0; k < kk; ++k) {
            const double av = arow[k];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                bk[j] = b[j * kk + k];
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * bk[j];
        }
    }
}
/** @} */

/**
 * @{
 * @name Elementwise accumulation loops
 *
 * Cloned so AVX2 machines run them 4-wide. Every caller sweeps them
 * serially over the whole buffer (only map() fans out, and it takes a
 * std::function, not these), so the vector-body/epilogue split
 * depends only on the length and results are identical at every
 * thread count.
 */
HWPR_TARGET_CLONES void
addInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i];
}

HWPR_TARGET_CLONES void
subInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] -= b[i];
}

HWPR_TARGET_CLONES void
scaleInto(double *a, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] *= s;
}

HWPR_TARGET_CLONES void
mulInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] *= b[i];
}

HWPR_TARGET_CLONES void
addScaledInto(double *a, const double *b, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += s * b[i];
}

HWPR_TARGET_CLONES void
addMulInto(double *a, const double *b, const double *c, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i] * c[i];
}
/** @} */

} // namespace

Matrix &
Matrix::operator+=(const Matrix &o)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in +=");
    addInto(data_.data(), o.data_.data(), data_.size());
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in -=");
    subInto(data_.data(), o.data_.data(), data_.size());
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    scaleInto(data_.data(), s, data_.size());
    return *this;
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    Matrix r = *this;
    r += o;
    return r;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    Matrix r = *this;
    r -= o;
    return r;
}

Matrix
Matrix::hadamard(const Matrix &o) const
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in hadamard");
    Matrix r = *this;
    mulInto(r.data_.data(), o.data_.data(), r.data_.size());
    return r;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix r = *this;
    r *= s;
    return r;
}

void
Matrix::matmulInto(const Matrix &o, Matrix &out,
                   bool accumulate) const
{
    HWPR_ASSERT(cols_ == o.rows_, "matmul inner-dim mismatch: ", cols_,
                " vs ", o.rows_);
    HWPR_ASSERT(out.rows_ == rows_ && out.cols_ == o.cols_,
                "matmulInto output shape mismatch");
    const std::size_t n = o.cols_;
    const std::size_t kk = cols_;
    auto rows_kernel = [&](std::size_t i0, std::size_t i1) {
        gemmRowsAB(data_.data(), o.data_.data(), out.data_.data(), i0,
                   i1, n, kk, accumulate);
    };
    const std::size_t flops_per_row = kk * n;
    static GemmMetrics gm("ab");
    GemmTimer timer(gm, rows_ * flops_per_row);
    if (rows_ * flops_per_row < kGemmParallelFlops) {
        rows_kernel(0, rows_);
    } else {
        HWPR_SPAN("gemm.ab", {{"m", double(rows_)},
                              {"n", double(n)},
                              {"k", double(kk)}});
        ExecContext::global().pool->parallelFor(
            0, rows_, rowGrain(flops_per_row), rows_kernel);
    }
}

Matrix
Matrix::matmul(const Matrix &o) const
{
    Matrix r(rows_, o.cols_);
    matmulInto(o, r);
    return r;
}

void
Matrix::transposedMatmulInto(const Matrix &o, Matrix &out,
                             bool accumulate) const
{
    // (this^T * o): this is (k x m), o is (k x n), result (m x n).
    HWPR_ASSERT(rows_ == o.rows_, "transposedMatmul row mismatch");
    HWPR_ASSERT(out.rows_ == cols_ && out.cols_ == o.cols_,
                "transposedMatmulInto output shape mismatch");
    const std::size_t m = cols_;
    const std::size_t n = o.cols_;
    const std::size_t kk = rows_;
    auto rows_kernel = [&](std::size_t i0, std::size_t i1) {
        gemmRowsAtB(data_.data(), o.data_.data(), out.data_.data(),
                    i0, i1, m, n, kk, accumulate);
    };
    const std::size_t flops_per_row = kk * n;
    static GemmMetrics gm("atb");
    GemmTimer timer(gm, m * flops_per_row);
    if (m * flops_per_row < kGemmParallelFlops) {
        rows_kernel(0, m);
    } else {
        HWPR_SPAN("gemm.atb", {{"m", double(m)},
                               {"n", double(n)},
                               {"k", double(kk)}});
        ExecContext::global().pool->parallelFor(
            0, m, rowGrain(flops_per_row), rows_kernel);
    }
}

Matrix
Matrix::transposedMatmul(const Matrix &o) const
{
    Matrix r(cols_, o.cols_);
    transposedMatmulInto(o, r);
    return r;
}

void
Matrix::matmulTransposedInto(const Matrix &o, Matrix &out,
                             bool accumulate) const
{
    // (this * o^T): this is (m x k), o is (n x k), result (m x n).
    HWPR_ASSERT(cols_ == o.cols_, "matmulTransposed col mismatch");
    HWPR_ASSERT(out.rows_ == rows_ && out.cols_ == o.rows_,
                "matmulTransposedInto output shape mismatch");
    const std::size_t n = o.rows_;
    const std::size_t kk = cols_;
    const std::size_t flops_per_row = kk * n;
    static GemmMetrics gm("abt");
    GemmTimer timer(gm, rows_ * flops_per_row);
    // Pack o^T once, then run the contiguous A * B chunk worker over
    // it: every row tile re-reads the whole B panel, so the strided
    // column gathers are paid once instead of per tile — and A * B^T
    // shares the A * B accumulation code (and therefore its exact FP
    // contraction) instead of keeping a gathered tile kernel the
    // compiler fuses differently. The worker's zero-skip is exact for
    // every finite contribution; it can only flip the sign of an
    // exact-zero output (-0.0 vs +0.0), which compares equal.
    thread_local std::vector<double> packed;
    packed.resize(kk * n);
    packTransposed(o.data_.data(), packed.data(), n, kk);
    // Capture the panel pointer, not the vector: the lambda runs on
    // pool threads, where the thread_local above is a different
    // (empty) instance.
    const double *panel = packed.data();
    auto rows_kernel = [&, panel](std::size_t i0, std::size_t i1) {
        gemmRowsAB(data_.data(), panel, out.data_.data(), i0, i1,
                   n, kk, accumulate);
    };
    if (rows_ * flops_per_row < kGemmParallelFlops) {
        rows_kernel(0, rows_);
    } else {
        HWPR_SPAN("gemm.abt", {{"m", double(rows_)},
                               {"n", double(n)},
                               {"k", double(kk)}});
        ExecContext::global().pool->parallelFor(
            0, rows_, rowGrain(flops_per_row), rows_kernel);
    }
}

Matrix
Matrix::matmulTransposed(const Matrix &o) const
{
    Matrix r(rows_, o.rows_);
    matmulTransposedInto(o, r);
    return r;
}

Matrix
Matrix::matmulNaive(const Matrix &o) const
{
    HWPR_ASSERT(cols_ == o.rows_, "matmulNaive inner-dim mismatch");
    Matrix r(rows_, o.cols_);
    naiveAB(data_.data(), o.data_.data(), r.data_.data(), rows_,
            o.cols_, cols_);
    return r;
}

Matrix
Matrix::transposedMatmulNaive(const Matrix &o) const
{
    HWPR_ASSERT(rows_ == o.rows_, "transposedMatmulNaive row mismatch");
    Matrix r(cols_, o.cols_);
    naiveAtB(data_.data(), o.data_.data(), r.data_.data(), cols_,
             o.cols_, rows_);
    return r;
}

Matrix
Matrix::matmulTransposedNaive(const Matrix &o) const
{
    HWPR_ASSERT(cols_ == o.cols_, "matmulTransposedNaive col mismatch");
    Matrix r(rows_, o.rows_);
    naiveABt(data_.data(), o.data_.data(), r.data_.data(), rows_,
             o.rows_, cols_);
    return r;
}

Matrix &
Matrix::addScaled(const Matrix &o, double s)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in addScaled");
    addScaledInto(data_.data(), o.data_.data(), s, data_.size());
    return *this;
}

Matrix &
Matrix::addHadamard(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(rows_ == a.rows_ && cols_ == a.cols_ &&
                    rows_ == b.rows_ && cols_ == b.cols_,
                "shape mismatch in addHadamard");
    addMulInto(data_.data(), a.data_.data(), b.data_.data(),
               data_.size());
    return *this;
}

Matrix
Matrix::transposed() const
{
    Matrix r(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

Matrix
Matrix::map(const std::function<double(double)> &f) const
{
    Matrix r = *this;
    if (r.data_.size() < kMapParallelSize) {
        for (double &v : r.data_)
            v = f(v);
        return r;
    }
    ExecContext::global().pool->parallelFor(
        0, r.data_.size(), kMapParallelSize / 4,
        [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                r.data_[i] = f(r.data_[i]);
        });
    return r;
}

Matrix
Matrix::addRowBroadcast(const Matrix &row) const
{
    HWPR_ASSERT(row.rows_ == 1 && row.cols_ == cols_,
                "broadcast row shape mismatch");
    Matrix r = *this;
    for (std::size_t i = 0; i < rows_; ++i)
        addInto(&r.data_[i * cols_], row.data_.data(), cols_);
    return r;
}

Matrix
Matrix::columnSums() const
{
    Matrix r(1, cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(0, j) += (*this)(i, j);
    return r;
}

double
Matrix::sum() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v;
    return acc;
}

Matrix
Matrix::rowSlice(std::size_t begin, std::size_t end) const
{
    HWPR_ASSERT(begin <= end && end <= rows_, "rowSlice out of range");
    Matrix r(end - begin, cols_);
    std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
              r.data_.begin());
    return r;
}

Matrix
Matrix::hconcat(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(a.rows_ == b.rows_, "hconcat row mismatch");
    Matrix r(a.rows_, a.cols_ + b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
        std::copy(&a.data_[i * a.cols_], &a.data_[(i + 1) * a.cols_],
                  &r.data_[i * r.cols_]);
        std::copy(&b.data_[i * b.cols_], &b.data_[(i + 1) * b.cols_],
                  &r.data_[i * r.cols_ + a.cols_]);
    }
    return r;
}

Matrix
Matrix::vconcat(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(a.cols_ == b.cols_, "vconcat col mismatch");
    Matrix r(a.rows_ + b.rows_, a.cols_);
    std::copy(a.data_.begin(), a.data_.end(), r.data_.begin());
    std::copy(b.data_.begin(), b.data_.end(),
              r.data_.begin() + a.data_.size());
    return r;
}

Matrix
Matrix::xavier(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix r(rows, cols);
    const double bound = std::sqrt(6.0 / double(rows + cols));
    for (double &v : r.raw())
        v = rng.uniform(-bound, bound);
    return r;
}

} // namespace hwpr
