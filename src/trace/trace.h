/**
 * @file
 * Request traces: the synthetic Azure-Conversation-equivalent workload
 * and arrival processes.
 *
 * The paper evaluates with the Azure Conversation dataset filtered to
 * input <= 2048 and output <= 1024 tokens, leaving 16657 requests with
 * mean input 763 and mean output 232 (Sec. 6.2, Fig. 5). We do not
 * have the proprietary trace, so we generate a synthetic equivalent:
 * truncated log-normal length marginals calibrated to those published
 * statistics, and either Poisson (offline) or diurnally-modulated
 * Poisson (online) arrivals. This exercises the same code paths (long
 * prompts, KV pressure, bursts) that the real trace does.
 */

#ifndef HELIX_TRACE_TRACE_H
#define HELIX_TRACE_TRACE_H

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace helix {
namespace trace {

/** One inference request. */
struct Request
{
    int id = 0;
    /** Arrival time at the coordinator, seconds from epoch 0. */
    double arrivalS = 0.0;
    /** Prompt length in tokens. */
    int promptLen = 0;
    /** Output length in tokens (unknown to the system until EOS). */
    int outputLen = 0;
    /** Tenant class index for fair-share serving; 0 in single-tenant
     *  traces (the default keeps existing traces valid unchanged). */
    int tenant = 0;
};

/** Length-distribution parameters for the synthetic trace. */
struct LengthModel
{
    double targetMeanPrompt = 763.0;
    int maxPromptLen = 2048;
    double promptSigma = 1.0;
    double targetMeanOutput = 232.0;
    int maxOutputLen = 1024;
    double outputSigma = 0.9;
    int minLen = 4;
};

/**
 * Samples request lengths from truncated log-normal distributions
 * whose post-truncation means match the published trace statistics
 * (calibrated numerically at construction).
 */
class LengthSampler
{
  public:
    explicit LengthSampler(LengthModel model = {});

    /** Sample a prompt length. */
    int samplePrompt(Rng &rng) const;

    /** Sample an output length. */
    int sampleOutput(Rng &rng) const;

    /** The underlying model. */
    const LengthModel &model() const { return spec; }

    /**
     * Mean of a log-normal(mu, sigma) truncated (by rejection) to
     * [0, cap]. Exposed for tests.
     */
    static double truncatedLogNormalMean(double mu, double sigma,
                                         double cap);

  private:
    int sampleTruncated(Rng &rng, double mu, double sigma,
                        int cap) const;

    LengthModel spec;
    double promptMu = 0.0;
    double outputMu = 0.0;
};

/** Arrival-process interface: produces arrival timestamps. */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Next arrival time strictly after @p now. */
    virtual double nextArrival(double now, Rng &rng) = 0;
};

/** Memoryless arrivals at a constant rate (offline saturation). */
class PoissonArrivals : public ArrivalProcess
{
  public:
    explicit PoissonArrivals(double rate_per_s) : rate(rate_per_s) {}

    double nextArrival(double now, Rng &rng) override;

  private:
    double rate;
};

/**
 * Non-homogeneous Poisson arrivals with a diurnal rate curve
 * rate(t) = mean * (1 + amplitude * sin(2 pi t / period)), sampled by
 * thinning. Mirrors the Azure trace's time-varying arrival rate
 * (Fig. 5b).
 */
class DiurnalArrivals : public ArrivalProcess
{
  public:
    explicit DiurnalArrivals(double mean_rate_per_s,
                             double amplitude = 0.3,
                             double period_s = 3600.0);

    double nextArrival(double now, Rng &rng) override;

    /** Instantaneous rate at time @p t. */
    double rateAt(double t) const;

  private:
    double meanRate;
    double amplitude;
    double periodS;
};

/**
 * Markov-modulated Poisson process (MMPP) with two states: a baseline
 * state at @p base_rate and a burst state at
 * @p base_rate * burst_multiplier. State sojourn times are
 * exponential, so burst onsets are memoryless and bursts of arrivals
 * cluster the way production traffic spikes do. Sampled by thinning
 * against the burst rate; the modulating chain advances on the same
 * RNG stream, keeping traces reproducible from one seed.
 */
class BurstyArrivals : public ArrivalProcess
{
  public:
    /**
     * @param base_rate_per_s arrival rate outside bursts
     * @param burst_multiplier rate multiplier during a burst (>= 1)
     * @param mean_burst_s mean burst duration
     * @param mean_gap_s mean quiet time between bursts
     */
    explicit BurstyArrivals(double base_rate_per_s,
                   double burst_multiplier = 5.0,
                   double mean_burst_s = 30.0,
                   double mean_gap_s = 270.0);

    double nextArrival(double now, Rng &rng) override;

    /** Whether the modulating chain is bursting at time @p t. */
    bool burstingAt(double t, Rng &rng);

    /** Instantaneous rate at time @p t (advances the chain). */
    double rateAt(double t, Rng &rng);

    /** Long-run average arrival rate implied by the parameters. */
    double meanRate() const;

  private:
    /** Advance the modulating chain to time @p t. */
    void advanceTo(double t, Rng &rng);

    double baseRate;
    double burstMultiplier;
    double meanBurstS;
    double meanGapS;
    /** Modulating-chain state: bursting until/quiet until. */
    bool bursting = false;
    double nextTransitionS = -1.0;
};

/** Generates complete request traces. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(uint64_t seed, LengthModel model = {});

    /**
     * Generate requests arriving over [0, duration_s) according to
     * @p arrivals. The vector's capacity equals its size.
     */
    std::vector<Request> generate(double duration_s,
                                  ArrivalProcess &arrivals);

    /** Generate a fixed number of requests. */
    std::vector<Request> generateCount(int count,
                                       ArrivalProcess &arrivals);

    const LengthSampler &lengths() const { return sampler; }

  private:
    Request makeRequest(int id, double arrival);

    Rng rng;
    LengthSampler sampler;
};

} // namespace trace
} // namespace helix

#endif // HELIX_TRACE_TRACE_H
