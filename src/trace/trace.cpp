#include "trace/trace.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace helix {
namespace trace {

namespace {

/** Standard normal CDF. */
double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/**
 * Find mu such that the rejection-truncated log-normal(mu, sigma)
 * capped at @p cap has the given mean, by bisection.
 */
double
calibrateMu(double target_mean, double sigma, double cap)
{
    double lo = std::log(target_mean) - 3.0;
    double hi = std::log(cap) + 2.0;
    for (int iter = 0; iter < 100; ++iter) {
        double mid = 0.5 * (lo + hi);
        double mean =
            LengthSampler::truncatedLogNormalMean(mid, sigma, cap);
        if (mean < target_mean)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace

double
LengthSampler::truncatedLogNormalMean(double mu, double sigma,
                                      double cap)
{
    // E[X | X <= cap] for X ~ LogNormal(mu, sigma):
    //   exp(mu + sigma^2/2) * Phi((ln cap - mu - sigma^2)/sigma)
    //   / Phi((ln cap - mu)/sigma)
    double a = (std::log(cap) - mu) / sigma;
    double numer = std::exp(mu + 0.5 * sigma * sigma) *
                   normalCdf(a - sigma);
    double denom = normalCdf(a);
    HELIX_ASSERT(denom > 0.0);
    return numer / denom;
}

LengthSampler::LengthSampler(LengthModel model) : spec(model)
{
    promptMu = calibrateMu(spec.targetMeanPrompt, spec.promptSigma,
                           spec.maxPromptLen);
    outputMu = calibrateMu(spec.targetMeanOutput, spec.outputSigma,
                           spec.maxOutputLen);
}

int
LengthSampler::sampleTruncated(Rng &rng, double mu, double sigma,
                               int cap) const
{
    for (int attempt = 0; attempt < 1000; ++attempt) {
        double x = rng.nextLogNormal(mu, sigma);
        if (x <= cap) {
            int len = static_cast<int>(std::lround(x));
            return std::clamp(len, spec.minLen, cap);
        }
    }
    return cap;
}

int
LengthSampler::samplePrompt(Rng &rng) const
{
    return sampleTruncated(rng, promptMu, spec.promptSigma,
                           spec.maxPromptLen);
}

int
LengthSampler::sampleOutput(Rng &rng) const
{
    return sampleTruncated(rng, outputMu, spec.outputSigma,
                           spec.maxOutputLen);
}

double
PoissonArrivals::nextArrival(double now, Rng &rng)
{
    HELIX_ASSERT(rate > 0.0);
    return now + rng.nextExponential(rate);
}

DiurnalArrivals::DiurnalArrivals(double mean_rate_per_s,
                                 double amplitude_frac,
                                 double period_s)
    : meanRate(mean_rate_per_s), amplitude(amplitude_frac),
      periodS(period_s)
{
    HELIX_ASSERT(meanRate > 0.0);
    HELIX_ASSERT(amplitude >= 0.0 && amplitude < 1.0);
}

double
DiurnalArrivals::rateAt(double t) const
{
    return meanRate *
           (1.0 + amplitude * std::sin(2.0 * M_PI * t / periodS));
}

double
DiurnalArrivals::nextArrival(double now, Rng &rng)
{
    // Ogata thinning against the max rate.
    double max_rate = meanRate * (1.0 + amplitude);
    double t = now;
    for (;;) {
        t += rng.nextExponential(max_rate);
        if (rng.nextDouble() <= rateAt(t) / max_rate)
            return t;
    }
}

BurstyArrivals::BurstyArrivals(double base_rate_per_s,
                               double burst_multiplier,
                               double mean_burst_s, double mean_gap_s)
    : baseRate(base_rate_per_s), burstMultiplier(burst_multiplier),
      meanBurstS(mean_burst_s), meanGapS(mean_gap_s)
{
    HELIX_ASSERT(baseRate > 0.0);
    HELIX_ASSERT(burstMultiplier >= 1.0);
    HELIX_ASSERT(meanBurstS > 0.0);
    HELIX_ASSERT(meanGapS > 0.0);
}

void
BurstyArrivals::advanceTo(double t, Rng &rng)
{
    if (nextTransitionS < 0.0) {
        // Lazy start in the quiet state; first transition drawn here
        // so construction itself consumes no randomness.
        bursting = false;
        nextTransitionS = rng.nextExponential(1.0 / meanGapS);
    }
    while (nextTransitionS <= t) {
        bursting = !bursting;
        double mean = bursting ? meanBurstS : meanGapS;
        nextTransitionS += rng.nextExponential(1.0 / mean);
    }
}

bool
BurstyArrivals::burstingAt(double t, Rng &rng)
{
    advanceTo(t, rng);
    return bursting;
}

double
BurstyArrivals::rateAt(double t, Rng &rng)
{
    advanceTo(t, rng);
    return bursting ? baseRate * burstMultiplier : baseRate;
}

double
BurstyArrivals::meanRate() const
{
    double burst_frac = meanBurstS / (meanBurstS + meanGapS);
    return baseRate *
           (1.0 + burst_frac * (burstMultiplier - 1.0));
}

double
BurstyArrivals::nextArrival(double now, Rng &rng)
{
    // Thinning against the burst-state (maximum) rate; the modulating
    // chain advances on the same RNG stream for reproducibility.
    double max_rate = baseRate * burstMultiplier;
    double t = now;
    for (;;) {
        t += rng.nextExponential(max_rate);
        double rate = rateAt(t, rng);
        if (rng.nextDouble() <= rate / max_rate)
            return t;
    }
}

TraceGenerator::TraceGenerator(uint64_t seed, LengthModel model)
    : rng(seed), sampler(model)
{
}

Request
TraceGenerator::makeRequest(int id, double arrival)
{
    Request req;
    req.id = id;
    req.arrivalS = arrival;
    req.promptLen = sampler.samplePrompt(rng);
    req.outputLen = sampler.sampleOutput(rng);
    return req;
}

std::vector<Request>
TraceGenerator::generate(double duration_s, ArrivalProcess &arrivals)
{
    std::vector<Request> requests;
    double t = 0.0;
    int id = 0;
    for (;;) {
        t = arrivals.nextArrival(t, rng);
        if (t >= duration_s)
            break;
        requests.push_back(makeRequest(id++, t));
    }
    // The count is known only now: drop growth's spare capacity (up
    // to one element per request) at the cost of one copy.
    requests.shrink_to_fit();
    return requests;
}

std::vector<Request>
TraceGenerator::generateCount(int count, ArrivalProcess &arrivals)
{
    std::vector<Request> requests;
    requests.reserve(count);
    double t = 0.0;
    for (int id = 0; id < count; ++id) {
        t = arrivals.nextArrival(t, rng);
        requests.push_back(makeRequest(id, t));
    }
    return requests;
}

} // namespace trace
} // namespace helix
