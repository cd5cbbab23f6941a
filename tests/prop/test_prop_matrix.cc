/**
 * @file
 * Differential property tests for the GEMM stack: the cache-tiled,
 * register-blocked kernels (matmul / transposedMatmul /
 * matmulTransposed and their *Into / accumulate variants) vs a plain
 * triple-loop oracle written here from the documented contract — one
 * ascending-k accumulation chain per output element, seeded with the
 * existing output value when accumulating.
 *
 * Two comparison strengths, deliberately distinct:
 *  - Bitwise where the contract promises bit-identity: tiled vs
 *    the shipped naive kernels (same translation unit, same FP
 *    contraction), Into vs the allocating entry points, and
 *    accumulate-onto-zero vs the plain product.
 *  - Within-epsilon against the oracle in this file: the compiler may
 *    contract a*b+c into fma differently across translation units, so
 *    an independent reimplementation can legitimately differ in the
 *    last ulp while still catching real indexing/tiling bugs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/prop.h"

using namespace hwpr;

namespace
{

enum class Op
{
    AB,  // a(m x k) * b(k x n)
    AtB, // a(k x m)^T * b(k x n)
    ABt, // a(m x k) * b(n x k)^T
};

struct GemmCase
{
    Op op = Op::AB;
    bool into = false;       // use the *Into entry point
    bool accumulate = false; // seed the chain from existing output
    Matrix a, b, out;        // out pre-filled for the accumulate case
};

/** A case of the given logical shape: op(A) is m x kk, op(B) kk x n. */
GemmCase
sizedCase(Op op, std::size_t m, std::size_t kk, std::size_t n)
{
    GemmCase c;
    c.op = op;
    switch (op) {
    case Op::AB:
        c.a = Matrix(m, kk);
        c.b = Matrix(kk, n);
        break;
    case Op::AtB:
        c.a = Matrix(kk, m);
        c.b = Matrix(kk, n);
        break;
    case Op::ABt:
        c.a = Matrix(m, kk);
        c.b = Matrix(n, kk);
        break;
    }
    c.out = Matrix(m, n);
    return c;
}

/** Element (i, t) of op(A); writable when @p c is. */
template <typename Case>
decltype(auto)
lhsAt(Case &c, std::size_t i, std::size_t t)
{
    return c.op == Op::AtB ? c.a(t, i) : c.a(i, t);
}

/** Element (t, j) of op(B); writable when @p c is. */
template <typename Case>
decltype(auto)
rhsAt(Case &c, std::size_t t, std::size_t j)
{
    return c.op == Op::ABt ? c.b(j, t) : c.b(t, j);
}

/**
 * Independent reference: the documented accumulation order, nothing
 * else. Each output element is one scalar chain over ascending k,
 * starting from the existing output value when accumulating.
 */
Matrix
gemmOracle(const GemmCase &c)
{
    std::size_t m = 0, n = 0, kk = 0;
    switch (c.op) {
    case Op::AB:
        m = c.a.rows();
        kk = c.a.cols();
        n = c.b.cols();
        break;
    case Op::AtB:
        m = c.a.cols();
        kk = c.a.rows();
        n = c.b.cols();
        break;
    case Op::ABt:
        m = c.a.rows();
        kk = c.a.cols();
        n = c.b.rows();
        break;
    }
    Matrix out(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc =
                c.into && c.accumulate ? c.out(i, j) : 0.0;
            for (std::size_t t = 0; t < kk; ++t)
                acc += lhsAt(c, i, t) * rhsAt(c, t, j);
            out(i, j) = acc;
        }
    }
    return out;
}

Matrix
runTiled(const GemmCase &c)
{
    if (!c.into) {
        switch (c.op) {
        case Op::AB:
            return c.a.matmul(c.b);
        case Op::AtB:
            return c.a.transposedMatmul(c.b);
        case Op::ABt:
            return c.a.matmulTransposed(c.b);
        }
    }
    Matrix out = c.out;
    switch (c.op) {
    case Op::AB:
        c.a.matmulInto(c.b, out, c.accumulate);
        break;
    case Op::AtB:
        c.a.transposedMatmulInto(c.b, out, c.accumulate);
        break;
    case Op::ABt:
        c.a.matmulTransposedInto(c.b, out, c.accumulate);
        break;
    }
    return out;
}

Matrix
runNaive(const GemmCase &c)
{
    switch (c.op) {
    case Op::AB:
        return c.a.matmulNaive(c.b);
    case Op::AtB:
        return c.a.transposedMatmulNaive(c.b);
    case Op::ABt:
        return c.a.matmulTransposedNaive(c.b);
    }
    return {};
}

prop::Gen<GemmCase>
gemmGen()
{
    prop::Gen<GemmCase> g;
    g.sample = [](Rng &rng) {
        const Op op = Op(rng.intIn(0, 2));
        const bool into = rng.bernoulli(0.5);
        const bool accumulate = into && rng.bernoulli(0.5);
        const std::size_t m = std::size_t(rng.intIn(1, 20));
        const std::size_t kk = std::size_t(rng.intIn(1, 20));
        const std::size_t n = std::size_t(rng.intIn(1, 20));
        GemmCase c = sizedCase(op, m, kk, n);
        c.into = into;
        c.accumulate = accumulate;
        // Mix exactly-representable grid values with full-precision
        // draws: the former make mismatches obvious, the latter catch
        // any reassociation of the accumulation chain.
        auto draw = [&rng]() {
            return rng.bernoulli(0.5) ? double(rng.intIn(-3, 3))
                                      : rng.normal();
        };
        for (Matrix *mat : {&c.a, &c.b, &c.out})
            for (double &v : mat->raw())
                v = draw();
        return c;
    };
    g.shrink = [](const GemmCase &c) {
        std::vector<GemmCase> out;
        // Zero one operand at a time: isolates which input drives the
        // mismatch while keeping the (shape, op, flags) fixed.
        for (Matrix GemmCase::*field :
             {&GemmCase::a, &GemmCase::b, &GemmCase::out}) {
            bool already_zero = true;
            for (double v : (c.*field).raw())
                already_zero = already_zero && v == 0.0;
            if (!already_zero) {
                GemmCase cand = c;
                (cand.*field).fill(0.0);
                out.push_back(std::move(cand));
            }
        }
        return out;
    };
    return g;
}

/**
 * Cases aimed at the per-panel dispatch in the A * B chunk worker
 * (A * B^T reuses it): zero-free 4-row panels of A take a branch-free
 * tile, panels holding a zero keep the zero-skip tile. A^T * B runs
 * the zero-skip tile only; it gets the same cases. A is dense (no zero) with m >= 4, k up to 64 and n
 * a multiple of 8 plus an optional ragged tail, sometimes past the
 * 256-column cache block. One in three cases plants a single 0.0 or
 * -0.0 in A; with @p non_finite_b, one in three also puts inf, -inf or
 * NaN in the B element that zero multiplies, which only the skip keeps
 * out of the output (without it, half the cases plant the zero). One
 * non-finite value per case keeps every NaN payload single-sourced, so
 * results still compare bitwise.
 */
prop::Gen<GemmCase>
denseGemmGen(bool non_finite_b)
{
    prop::Gen<GemmCase> g;
    g.sample = [non_finite_b](Rng &rng) {
        const Op op = Op(rng.intIn(0, 2));
        const std::size_t m = std::size_t(rng.intIn(4, 20));
        const std::size_t kk = std::size_t(rng.intIn(1, 64));
        const std::size_t n = 8 * std::size_t(rng.intIn(1, 33)) +
                              (rng.bernoulli(0.5)
                                   ? std::size_t(rng.intIn(1, 7))
                                   : 0);
        GemmCase c = sizedCase(op, m, kk, n);
        auto nonzero = [&rng]() {
            const double v = rng.bernoulli(0.5)
                                 ? double(rng.intIn(1, 3)) *
                                       (rng.bernoulli(0.5) ? 1.0 : -1.0)
                                 : rng.normal();
            return v == 0.0 ? 1.0 : v;
        };
        for (Matrix *mat : {&c.a, &c.b, &c.out})
            for (double &v : mat->raw())
                v = nonzero();

        const int kind = rng.intIn(0, non_finite_b ? 2 : 1);
        if (kind == 0)
            return c;
        // Plant the zero at op(A)(i, t) and, for kind 2, a non-finite
        // value at the op(B) element it multiplies, op(B)(t, j).
        const std::size_t i = std::size_t(rng.intIn(0, int(m) - 1));
        const std::size_t t = std::size_t(rng.intIn(0, int(kk) - 1));
        const std::size_t j = std::size_t(rng.intIn(0, int(n) - 1));
        lhsAt(c, i, t) = rng.bernoulli(0.5) ? 0.0 : -0.0;
        const double bad[] = {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};
        if (kind == 2)
            rhsAt(c, t, j) = bad[rng.intIn(0, 2)];
        return c;
    };
    return g;
}

std::string
showGemm(const GemmCase &c)
{
    std::ostringstream msg;
    msg << "op=" << int(c.op) << " into=" << c.into
        << " accumulate=" << c.accumulate << " a(" << c.a.rows() << "x"
        << c.a.cols() << ")=" << prop::show(c.a.raw()) << " b("
        << c.b.rows() << "x" << c.b.cols() << ")="
        << prop::show(c.b.raw());
    if (c.into && c.accumulate)
        msg << " out0=" << prop::show(c.out.raw());
    return msg.str();
}

std::optional<std::string>
compareMats(const Matrix &got, const Matrix &want,
            const std::string &label, double tol)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return label + ": shape mismatch";
    for (std::size_t i = 0; i < got.raw().size(); ++i) {
        const double g = got.raw()[i], w = want.raw()[i];
        const double bound = tol * std::max(1.0, std::fabs(w));
        if (!(std::fabs(g - w) <= bound)) {
            std::ostringstream msg;
            msg << label << ": element " << i << " differs: got "
                << prop::show(g) << ", oracle " << prop::show(w);
            return msg.str();
        }
    }
    return std::nullopt;
}

/** Bit-pattern equality: tells -0.0 from 0.0 and matches NaNs. */
std::optional<std::string>
bitIdentical(const Matrix &got, const Matrix &want,
             const std::string &label)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return label + ": shape mismatch";
    for (std::size_t i = 0; i < got.raw().size(); ++i) {
        std::uint64_t g = 0, w = 0;
        std::memcpy(&g, &got.raw()[i], sizeof g);
        std::memcpy(&w, &want.raw()[i], sizeof w);
        if (g != w) {
            std::ostringstream msg;
            msg << label << ": element " << i << " differs: got "
                << prop::show(got.raw()[i]) << ", want "
                << prop::show(want.raw()[i]);
            return msg.str();
        }
    }
    return std::nullopt;
}

/**
 * The documented contract: tiling and threading never change the
 * per-element accumulation chain, so tiled == naive exactly.
 * Additionally the Into entry points (with and without a zero
 * accumulate seed) must be bit-identical to the allocating ones.
 */
std::optional<std::string>
tiledMatchesNaive(const GemmCase &c)
{
    GemmCase plain = c;
    plain.into = false;
    plain.accumulate = false;
    const Matrix reference = runTiled(plain);
    if (auto f = bitIdentical(reference, runNaive(plain),
                              "tiled vs naive"))
        return f;

    GemmCase into = c;
    into.into = true;
    into.accumulate = false;
    if (auto f = bitIdentical(runTiled(into), reference,
                              "Into vs allocating"))
        return f;

    // accumulate=true onto a zero output runs the exact same
    // chain seeded with 0.0 — bit-identical to the product.
    GemmCase acc = c;
    acc.into = true;
    acc.accumulate = true;
    acc.out.fill(0.0);
    if (auto f = bitIdentical(runTiled(acc), reference,
                              "accumulate onto zero"))
        return f;
    return std::nullopt;
}

/**
 * With accumulate, the chain starts from the existing output value;
 * the oracle reproduces that semantic independently. Finite inputs
 * only: the oracle multiplies through zeros, the kernels skip them, so
 * a non-finite input means the generator was misconfigured.
 */
std::optional<std::string>
accumulateMatchesOracle(const GemmCase &c)
{
    for (const Matrix *mat : {&c.a, &c.b})
        for (double v : mat->raw())
            if (!std::isfinite(v))
                return std::string("non-finite input: the oracle "
                                   "property needs finite cases");
    GemmCase acc = c;
    acc.into = true;
    acc.accumulate = true;
    return compareMats(runTiled(acc), gemmOracle(acc), "accumulate",
                       1e-10);
}

} // namespace

TEST(PropMatrix, TiledGemmMatchesIndependentOracle)
{
    // Cross-TU differential check: catches indexing, tiling and
    // transpose bugs. Tolerance absorbs per-term fma contraction
    // differences only (the accumulation order itself must match, or
    // errors grow far past 1e-10 on adversarial magnitudes).
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D01, 1200), gemmGen(), showGemm,
        [](const GemmCase &c) -> std::optional<std::string> {
            return compareMats(runTiled(c), gemmOracle(c), "tiled",
                               1e-10);
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropMatrix, TiledGemmBitIdenticalToShippedNaiveKernels)
{
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D02, 1200), gemmGen(), showGemm,
        tiledMatchesNaive);
    EXPECT_TRUE(r.ok) << r.message;
    // Both sides of the panel dispatch: the branch-free tile on
    // zero-free panels and the zero-skip tile on panels with a planted
    // (signed) zero, including where the skip is what keeps an inf or
    // NaN in B out of the result.
    const auto dense = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D04, 600), denseGemmGen(true),
        showGemm, tiledMatchesNaive);
    EXPECT_TRUE(dense.ok) << dense.message;
}

TEST(PropMatrix, AccumulateSeedsChainFromExistingOutput)
{
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D03, 1000), gemmGen(), showGemm,
        accumulateMatchesOracle);
    EXPECT_TRUE(r.ok) << r.message;
    // Zero-free panels seed the branch-free tile's chains from the
    // existing output. No inf/NaN in B: the oracle multiplies through
    // the planted zero.
    const auto dense = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D05, 400), denseGemmGen(false),
        showGemm, accumulateMatchesOracle);
    EXPECT_TRUE(dense.ok) << dense.message;
}
