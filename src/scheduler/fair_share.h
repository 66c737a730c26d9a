/**
 * @file
 * Weighted fair-share admission control and preemption for
 * multi-tenant serving.
 *
 * The ROADMAP north-star is heavy traffic from millions of users:
 * contended clusters where one bursty tenant can starve everyone
 * else. FairShareController arbitrates admission over the existing
 * schedulers: each tenant declares a weight, the live serving
 * capacity C (the TopologyManager's current max-flow, tokens/s) is
 * divided weighted max-min across *demanding* tenants (those with
 * queued or in-flight work), and each tenant's usage — a decayed
 * decode-token rate, the same EWMA time constant the simulator's
 * per-node throughput estimates use — is compared against its share:
 *
 *   f_t = w_t / (sum of demanding weights) * C
 *   u_t = decayed decode tokens/s of tenant t
 *
 * Admission always serves the most under-share demanding tenant
 * first; a tenant more than (1 + starvation_tolerance) over its
 * share is held in queue while any other demanding tenant sits below
 * share. When a demanding tenant stays below
 * starvation_tolerance * f_t continuously for preemption_timeout
 * seconds while another tenant is over share, the controller names
 * the most over-share tenant as a preemption victim; the simulator
 * then restarts that tenant's newest in-flight request through the
 * epoch-safe churn machinery (LIFO victim choice, mirroring
 * ytsaurus's preempt-newest-jobs policy — newest requests have the
 * least sunk prefill work).
 *
 * The knobs (starvation tolerance defaulting to 0.8, preemption
 * timeout) follow the ytsaurus fair-share strategy config; they are
 * declared with ranges and defaults in core::specParams().
 *
 * The simulator runs every admission through this controller, with
 * one implicit tenant when fewer than two are declared. One class is
 * a plain FIFO queue: it is never held (it cannot be over share
 * while another class is below) and never preempted (the victim must
 * be a different class), so single-tenant runs are byte-identical to
 * a single-queue admission loop.
 */

#ifndef HELIX_SCHEDULER_FAIR_SHARE_H
#define HELIX_SCHEDULER_FAIR_SHARE_H

#include <deque>
#include <string>
#include <vector>

#include "core/annotations.h"

namespace helix {
namespace scheduler {

/** One tenant class sharing the cluster. */
struct Tenant
{
    std::string name;
    /** Fair-share weight (> 0). */
    double weight = 1.0;
    /** Arrival-mix fraction in [0, 1]; negative = weight-
     *  proportional (trace generation only; ignored by the
     *  controller). */
    double mix = -1.0;
    /** Time-to-first-token SLO in seconds; 0 = none declared. */
    double sloTtftS = 0.0;
    /** Time-per-output-token SLO in seconds; 0 = none declared. */
    double sloTpotS = 0.0;
};

/**
 * Fair-share admission arbiter (see file comment).
 *
 * The whole controller is coordinator-confined state: admission,
 * usage accounting, and the starvation sweep all run in the
 * simulator's coordinator phase or inside serial barrier steps,
 * never on a node-lane shard worker — hence the blanket
 * HELIX_COORDINATOR_ONLY annotations checked by helix-analyze.
 */
class FairShareController
{
  public:
    struct Config
    {
        std::vector<Tenant> tenants;
        /** Below this fraction of fair share a demanding tenant is
         *  starving (ytsaurus fair_share_starvation_tolerance). */
        double starvationTolerance = 0.8;
        /** Continuous starvation seconds before preemption
         *  (ytsaurus fair_share_preemption_timeout). */
        double preemptionTimeoutS = 5.0;
        /** Decay time constant of the usage-rate estimator; matches
         *  sim::SimConfig::throughputEwmaTauS. */
        double usageTauS = 10.0;
    };

    explicit FairShareController(Config config);

    /** Fair-share arbitration requires at least two tenants. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] bool active() const { return classes.size() >= 2; }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] int numTenants() const
    {
        return static_cast<int>(classes.size());
    }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] const Tenant &tenant(int t) const
    {
        return classes[static_cast<size_t>(t)].spec;
    }

    /** Update the live serving capacity the shares divide
     *  (TopologyManager::currentFlow(), tokens/s). */
    HELIX_COORDINATOR_ONLY
    void setCapacity(double tokens_per_s) { capacity = tokens_per_s; }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double currentCapacity() const { return capacity; }

    /** Queue an arrived request of tenant @p t for admission. */
    HELIX_COORDINATOR_ONLY
    void enqueue(int t, int request_index);

    /** Put a request back at the head of its tenant's queue (a
     *  schedule refusal, or a preempted request awaiting
     *  re-admission). */
    HELIX_COORDINATOR_ONLY
    void requeueFront(int t, int request_index);

    /**
     * Pop the next request to try admitting at time @p now: the most
     * under-share demanding tenant with queued work, skipping
     * tenants held over share while someone else is below share.
     * @return the request index, or -1 when every queue is empty or
     *         held.
     */
    HELIX_COORDINATOR_ONLY
    int popNext(double now);

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] bool queuesEmpty() const;

    /** Total queued (not yet admitted) requests. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] size_t queuedCount() const;

    /** Queued requests of tenant @p t. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] size_t queuedCount(int t) const
    {
        return classes[static_cast<size_t>(t)].queue.size();
    }

    HELIX_COORDINATOR_ONLY void onAdmitted(int t);
    HELIX_COORDINATOR_ONLY void onFinished(int t);
    HELIX_COORDINATOR_ONLY void onPreempted(int t);

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] int inFlight(int t) const
    {
        return classes[static_cast<size_t>(t)].inFlight;
    }

    /** Account one completed decode token of tenant @p t. */
    HELIX_COORDINATOR_ONLY
    void noteDecodeToken(int t, double now);

    /** Decayed decode-token rate of @p t (tokens/s) at @p now. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double usageRate(int t, double now) const;

    /** Weighted max-min fair share of @p t (tokens/s) over the
     *  currently demanding tenants; the full weighted share of the
     *  total when no tenant is demanding. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double fairShare(int t) const;

    /** usage / fair-share, with 0/0 = 0 and x/0 = +inf for x > 0. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double normalizedUsage(int t, double now) const;

    /**
     * Starvation sweep at @p now. Updates each tenant's continuous-
     * starvation clock; when some demanding tenant has starved for
     * at least the preemption timeout while another tenant with
     * in-flight work is over share beyond tolerance, returns that
     * over-share tenant (the preemption victim class) and re-arms
     * the starving tenant's clock. Returns -1 otherwise.
     */
    HELIX_COORDINATOR_ONLY
    int checkPreemption(double now);

  private:
    struct ClassState
    {
        Tenant spec;
        std::deque<int> queue;
        int inFlight = 0;
        /** Exponentially decayed decode-token mass and its last
         *  update time: rate = decayed / tau after decay to now. */
        double decayed = 0.0;
        double decayedAt = 0.0;
        /** Start of the current continuous-starvation interval;
         *  negative = not starving. */
        double starvingSince = -1.0;
    };

    [[nodiscard]] bool demanding(const ClassState &cls) const
    {
        return !cls.queue.empty() || cls.inFlight > 0;
    }

    /** Sum of demanding weights (all weights when none demand). */
    [[nodiscard]] double demandingWeight() const;

    std::vector<ClassState> classes;
    double capacity = 0.0;
    double tolerance;
    double preemptTimeoutS;
    double tauS;
};

} // namespace scheduler
} // namespace helix

#endif // HELIX_SCHEDULER_FAIR_SHARE_H
