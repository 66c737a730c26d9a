/**
 * @file
 * Tests for the trace substrate: length marginals match the published
 * Azure Conversation statistics (Fig. 5 / Sec. 6.2), caps are honored,
 * and arrival processes produce the configured rates.
 */

#include <gtest/gtest.h>

#include "trace/trace.h"
#include "util/stats.h"

namespace helix {
namespace trace {
namespace {

TEST(LengthSampler, TruncatedMeanFormula)
{
    // With a huge cap the truncated mean equals the raw log-normal
    // mean exp(mu + sigma^2/2).
    double mu = 5.0;
    double sigma = 1.0;
    double raw = std::exp(mu + 0.5 * sigma * sigma);
    EXPECT_NEAR(
        LengthSampler::truncatedLogNormalMean(mu, sigma, 1e12), raw,
        raw * 1e-6);
    // Truncation reduces the mean.
    EXPECT_LT(LengthSampler::truncatedLogNormalMean(mu, sigma, raw),
              raw);
}

TEST(LengthSampler, PromptMarginalsMatchAzureStats)
{
    LengthSampler sampler;
    Rng rng(1234);
    StatAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(sampler.samplePrompt(rng));
    // Paper: mean input 763, max 2048.
    EXPECT_NEAR(acc.mean(), 763.0, 25.0);
    EXPECT_LE(acc.max(), 2048.0);
    EXPECT_GE(acc.min(), 1.0);
}

TEST(LengthSampler, OutputMarginalsMatchAzureStats)
{
    LengthSampler sampler;
    Rng rng(77);
    StatAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(sampler.sampleOutput(rng));
    // Paper: mean output 232, max 1024.
    EXPECT_NEAR(acc.mean(), 232.0, 10.0);
    EXPECT_LE(acc.max(), 1024.0);
}

TEST(LengthSampler, CustomModelRespected)
{
    LengthModel model;
    model.targetMeanPrompt = 100.0;
    model.maxPromptLen = 256;
    LengthSampler sampler(model);
    Rng rng(9);
    StatAccumulator acc;
    for (int i = 0; i < 20000; ++i)
        acc.add(sampler.samplePrompt(rng));
    EXPECT_NEAR(acc.mean(), 100.0, 6.0);
    EXPECT_LE(acc.max(), 256.0);
}

TEST(PoissonArrivals, RateMatches)
{
    PoissonArrivals arrivals(5.0);
    Rng rng(31);
    double t = 0.0;
    int count = 0;
    while (t < 2000.0) {
        t = arrivals.nextArrival(t, rng);
        ++count;
    }
    EXPECT_NEAR(count / 2000.0, 5.0, 0.25);
}

TEST(PoissonArrivals, StrictlyIncreasing)
{
    PoissonArrivals arrivals(100.0);
    Rng rng(37);
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double next = arrivals.nextArrival(t, rng);
        EXPECT_GT(next, t);
        t = next;
    }
}

TEST(DiurnalArrivals, MeanRatePreserved)
{
    DiurnalArrivals arrivals(4.0, 0.3, 100.0);
    Rng rng(41);
    double t = 0.0;
    int count = 0;
    // Integrate over many whole periods so modulation averages out.
    while (t < 5000.0) {
        t = arrivals.nextArrival(t, rng);
        ++count;
    }
    EXPECT_NEAR(count / 5000.0, 4.0, 0.3);
}

TEST(DiurnalArrivals, RateOscillates)
{
    DiurnalArrivals arrivals(10.0, 0.5, 200.0);
    EXPECT_NEAR(arrivals.rateAt(50.0), 15.0, 1e-9);  // peak
    EXPECT_NEAR(arrivals.rateAt(150.0), 5.0, 1e-9);  // trough
    EXPECT_NEAR(arrivals.rateAt(0.0), 10.0, 1e-9);   // mean
}

TEST(TraceGenerator, GenerateWithinDuration)
{
    TraceGenerator gen(99);
    PoissonArrivals arrivals(10.0);
    auto requests = gen.generate(100.0, arrivals);
    EXPECT_NEAR(requests.size(), 1000u, 150u);
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_LT(requests[i].arrivalS, 100.0);
        EXPECT_EQ(requests[i].id, static_cast<int>(i));
        EXPECT_GE(requests[i].promptLen, 1);
        EXPECT_GE(requests[i].outputLen, 1);
        if (i > 0) {
            EXPECT_GE(requests[i].arrivalS, requests[i - 1].arrivalS);
        }
    }
}

TEST(TraceGenerator, GenerateCountExact)
{
    TraceGenerator gen(7);
    PoissonArrivals arrivals(1.0);
    auto requests = gen.generateCount(123, arrivals);
    EXPECT_EQ(requests.size(), 123u);
}

TEST(TraceGenerator, TracesCarryNoSpareCapacity)
{
    // A held trace costs exactly its requests, not the spare half of
    // a growth-doubled buffer.
    TraceGenerator gen(11);
    PoissonArrivals arrivals(10.0);
    auto timed = gen.generate(102.5, arrivals);
    ASSERT_GT(timed.size(), 0u);
    EXPECT_EQ(timed.capacity(), timed.size());
    auto counted = gen.generateCount(1025, arrivals);
    EXPECT_EQ(counted.capacity(), counted.size());
}

TEST(TraceGenerator, DeterministicForSeed)
{
    TraceGenerator a(5);
    TraceGenerator b(5);
    PoissonArrivals arr_a(2.0);
    PoissonArrivals arr_b(2.0);
    auto ra = a.generateCount(50, arr_a);
    auto rb = b.generateCount(50, arr_b);
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra[i].arrivalS, rb[i].arrivalS);
        EXPECT_EQ(ra[i].promptLen, rb[i].promptLen);
        EXPECT_EQ(ra[i].outputLen, rb[i].outputLen);
    }
}

TEST(BurstyArrivals, LongRunRateMatchesMeanRate)
{
    BurstyArrivals arrivals(4.0, 5.0, 20.0, 80.0);
    // burst fraction 0.2 -> mean rate 4 * (1 + 0.2 * 4) = 7.2 /s.
    EXPECT_NEAR(arrivals.meanRate(), 7.2, 1e-12);
    Rng rng(99);
    double t = 0.0;
    long count = 0;
    const double horizon = 50000.0;
    while (true) {
        t = arrivals.nextArrival(t, rng);
        if (t >= horizon)
            break;
        ++count;
    }
    double empirical = static_cast<double>(count) / horizon;
    EXPECT_NEAR(empirical, arrivals.meanRate(),
                0.05 * arrivals.meanRate());
}

TEST(BurstyArrivals, ArrivalsClusterBeyondPoisson)
{
    // The squared coefficient of variation of MMPP inter-arrival
    // times exceeds 1 (Poisson's value): bursts cluster arrivals.
    BurstyArrivals arrivals(2.0, 8.0, 30.0, 120.0);
    Rng rng(5);
    StatAccumulator gaps;
    double t = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double next = arrivals.nextArrival(t, rng);
        gaps.add(next - t);
        t = next;
    }
    double cv2 = (gaps.stddev() * gaps.stddev()) /
                 (gaps.mean() * gaps.mean());
    EXPECT_GT(cv2, 1.3);
}

TEST(BurstyArrivals, MonotoneAndStrictlyIncreasing)
{
    BurstyArrivals arrivals(10.0);
    Rng rng(21);
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double next = arrivals.nextArrival(t, rng);
        EXPECT_GT(next, t);
        t = next;
    }
}

/**
 * Pinned-RNG golden sequences: the exact arrival timestamps for a
 * fixed seed are part of the reproducibility contract (experiments
 * are rerun from seeds alone). Any change to the sampling order or
 * the thinning scheme shows up here.
 */
TEST(GoldenSequences, BurstyArrivalsPinned)
{
    BurstyArrivals arrivals(4.0, 5.0, 20.0, 80.0);
    Rng rng(2024);
    std::vector<double> seq;
    double t = 0.0;
    for (int i = 0; i < 5; ++i) {
        t = arrivals.nextArrival(t, rng);
        seq.push_back(t);
    }
    ASSERT_EQ(seq.size(), 5u);
    // Golden values from the pinned Xoshiro256** stream (seed 2024).
    EXPECT_NEAR(seq[0], 0.1443054426508586, 1e-9);
    EXPECT_NEAR(seq[1], 0.66023898839749029, 1e-9);
    EXPECT_NEAR(seq[2], 0.7866817251929783, 1e-9);
    EXPECT_NEAR(seq[3], 1.2575910402652037, 1e-9);
    EXPECT_NEAR(seq[4], 1.3681139265019169, 1e-9);
}

} // namespace
} // namespace trace
} // namespace helix
