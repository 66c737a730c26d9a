/**
 * @file
 * Discrete-event simulator for distributed LLM serving.
 *
 * This is the C++ equivalent of the 14k-LoC Python simulator the paper
 * uses for its geo-distributed and high-heterogeneity experiments
 * (Sec. 6.1, validated against the prototype to <5% error). It models:
 *
 *  - per-node dynamic best-effort batching (a node starts a new batch
 *    from everything that arrived while the previous batch ran);
 *  - prompt and decode phases with the roofline cost model from
 *    cluster::Profiler (weight reads, KV reads, FLOPs);
 *  - KV-cache occupancy per node with a swap penalty when a node is
 *    oversubscribed (offloading to host memory "significantly harms
 *    throughput", Sec. 5.2);
 *  - network transfers with per-directed-link serialization (FIFO) and
 *    propagation latency, which reproduces the congestion phenomena of
 *    the scheduling case study (Sec. 6.7);
 *  - the coordinator loop: per-request pipelines, one round trip per
 *    generated token, admission retry when the scheduler masks all
 *    candidates;
 *  - node churn mid-run: an ordered schedule of fail/recover events.
 *    A failed node's work is dropped and every affected request is
 *    rescheduled around it; a recovered node rejoins with empty KV
 *    and queue. On every event the simulator re-solves max-flow on
 *    the surviving subgraph (scheduler::TopologyManager) and swaps
 *    the fresh topology into the scheduler, so routing proportions
 *    always match the live cluster (Sec. 5 semantics).
 *
 * The event queue holds small trivially-copyable tagged-union events
 * (no std::function, no per-event heap allocation); batch vectors are
 * owned by the node states and reused across iterations. Arrivals are
 * never queued: they stream from the caller's request list
 * (ClusterSimulator::ArrivalStream), so the queue holds only events
 * already in flight.
 */

#ifndef HELIX_SIM_SIMULATOR_H
#define HELIX_SIM_SIMULATOR_H

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "core/annotations.h"
#include "placement/placement.h"
#include "scheduler/fair_share.h"
#include "scheduler/scheduler.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace helix {

namespace scheduler {
class TopologyManager;
} // namespace scheduler

namespace sim {

class ParallelExecutor;
class ParallelLane;

/** One scheduled topology change of the churn scenario. */
struct ChurnEvent
{
    enum class Kind : uint8_t
    {
        /** The node fails: work dropped, requests restart around it. */
        Fail,
        /** The node rejoins with empty KV and queue. */
        Recover,
        /**
         * Observed-throughput drift shrank the node's capacity. Never
         * appears in schedules — only in SimMetrics::FlowEvent logs
         * of drift-triggered re-solves.
         */
        Drift,
    };

    Kind kind = Kind::Fail;
    int node = -1;
    double atSeconds = 0.0;
};

/** Human-readable name of a ChurnEvent::Kind ("fail"/"recover"). */
const char *toString(ChurnEvent::Kind kind);

/**
 * Why a topology re-solve happened: a fail/recover event repaired
 * into the persistent flow network, or a drift-triggered capacity
 * shrink (a node's observed EWMA throughput fell below its planned
 * flow). Both are warm-start repairs of the same network.
 */
enum class ResolveKind : uint8_t
{
    Repair,
    Drift,
};

/** Human-readable name of a ResolveKind ("repair"/"drift"). */
const char *toString(ResolveKind kind);

/** Simulation parameters. */
struct SimConfig
{
    /** Seconds of warmup excluded from metrics. */
    double warmupSeconds = 30.0;
    /** Measurement window length after warmup. */
    double measureSeconds = 300.0;
    /** Iteration slowdown per unit of KV oversubscription. */
    double kvSwapPenalty = 4.0;
    /** Max requests batched per iteration. */
    int maxBatchRequests = 256;
    /**
     * Max tokens per iteration (vLLM's max_num_batched_tokens with
     * Sarathi-style chunked prefill): caps how much prompt work one
     * iteration can absorb, bounding the queueing delay decode tokens
     * experience behind long prompts.
     */
    int maxBatchTokens = 512;
    /** Collect per-link congestion statistics. */
    bool collectLinkStats = false;
    /**
     * Engine-level admission cap, mirroring vLLM's bound on
     * concurrently running sequences: the coordinator holds requests
     * in a host-side queue once the cluster's aggregate KV capacity is
     * fully subscribed. 0 = derive from KV capacity; negative =
     * unlimited.
     */
    int maxActiveRequests = 0;
    /**
     * Churn event schedule: fail and recover events applied in time
     * order. A failed node's queued and in-flight work is dropped,
     * affected requests restart from the prompt through the
     * scheduler, and schedulers see the node as dead
     * (SchedulerContext::nodeAlive). Each event triggers a max-flow
     * repair on the surviving subgraph and a topology swap into the
     * scheduler; the resulting flow values are logged in
     * SimMetrics::flowEvents. Events with out-of-range nodes or
     * negative times are ignored.
     */
    std::vector<ChurnEvent> churnEvents;
    /**
     * Time constant (seconds) of the per-node throughput EWMA exposed
     * to schedulers: a batch of duration d carries weight
     * 1 - exp(-d / tau), so many small batches and one long batch of
     * the same total duration influence the estimate equally.
     */
    double throughputEwmaTauS = 10.0;
    /**
     * Drift-triggered re-solve threshold, as a fraction in (0, 1):
     * after a batch completes on a node whose speed estimate has
     * matured (cumulative busy time >= throughputEwmaTauS), the
     * observed decode throughput is the profiled capacity scaled by
     * the node's speed EWMA (modeled / actual batch duration). When
     * that observed throughput falls below
     * plannedFlow * (1 - driftThreshold), the node's compute capacity
     * is shrunk to the observed rate and the topology re-solved,
     * shifting routing weight away from the straggler. 0 disables
     * drift detection.
     */
    double driftThreshold = 0.0;
    /**
     * Per-node batch-duration multipliers modeling degradation the
     * profiler did not see (thermal throttling, co-tenant
     * interference): entries > 1 slow the node down. Empty or
     * missing entries mean 1.0. Scenario/test hook for exercising
     * the drift trigger.
     */
    std::vector<double> nodeSlowdown;
    /**
     * Worker threads for the sharded event loop (sim/executor.h).
     * 1 (the default) runs the reference serial loop. Values > 1
     * partition the compute nodes into a FIXED number of shards
     * (independent of the thread count) and advance them in
     * deterministic rounds bounded by the minimum link propagation
     * latency; the merged outcome is byte-identical to the serial
     * loop at any thread count. Clusters with a zero-latency link
     * fall back to the serial loop (no conservative lookahead
     * window exists).
     */
    int simThreads = 1;
    /**
     * Tenant classes for fair-share admission arbitration
     * (scheduler::FairShareController). Fewer than two entries run
     * one implicit tenant, whose queue is plain FIFO — runs without
     * tenants (or with one) are byte-identical to pre-tenancy
     * behavior at every simThreads count, and report no per-tenant
     * statistics.
     */
    std::vector<scheduler::Tenant> tenants;
    /** Fair-share starvation tolerance in [0, 1] (see
     *  FairShareController::Config). */
    double starvationTolerance = 0.8;
    /** Continuous starvation seconds before an over-share tenant's
     *  newest in-flight request is preempted; negative disables
     *  preemption. */
    double preemptionTimeoutS = 5.0;
};

/** Per-directed-link congestion statistics (Sec. 6.7 case study). */
struct LinkStat
{
    int from = 0; // cluster::kCoordinator or node index
    int to = 0;
    long transfers = 0;
    double totalBytes = 0.0;
    double busySeconds = 0.0;
    double maxQueueDelayS = 0.0;
    double totalQueueDelayS = 0.0;
};

/** Aggregate metrics of one simulation run. */
struct SimMetrics
{
    /** Decode tokens generated per second in the window. */
    double decodeThroughput = 0.0;
    /** Prompt tokens processed per second in the window. */
    double promptThroughput = 0.0;
    /**
     * Per-request prompt latency (arrival to first token), seconds.
     * Only requests whose arrival AND first token both fall inside the
     * measurement window contribute, so warmup queueing cannot leak
     * into the distribution.
     */
    StatAccumulator promptLatency;
    /**
     * Per-request average seconds per decode token. Only requests
     * whose first token AND completion both fall inside the window
     * contribute.
     */
    StatAccumulator decodeLatency;
    long requestsArrived = 0;
    long requestsAdmitted = 0;
    long requestsCompleted = 0;
    long requestsRejected = 0;
    /** Requests restarted because a node failed mid-run. */
    long requestsRestarted = 0;
    /** Requests preempted by fair-share arbitration (restarted from
     *  the prompt once their tenant is back within share). */
    long requestsPreempted = 0;
    /**
     * One entry per applied topology re-solve: scheduled churn events
     * (fail/recover) and drift-triggered capacity shrinks, with the
     * re-solved max-flow value of the live topology right after the
     * event took effect.
     */
    struct FlowEvent
    {
        double time = 0.0;
        int node = -1;
        ChurnEvent::Kind kind = ChurnEvent::Kind::Fail;
        /** Max-flow of the live topology after the event, tokens/s. */
        double flow = 0.0;
        /** Why the re-solve happened: repair | drift. */
        ResolveKind resolveKind = ResolveKind::Repair;
    };
    std::vector<FlowEvent> flowEvents;
    long decodeTokensInWindow = 0;
    long promptTokensInWindow = 0;
    double simulatedSeconds = 0.0;
    /** Mean per-node KV utilization sampled at batch boundaries. */
    double avgKvUtilization = 0.0;
    std::vector<LinkStat> linkStats;

    /** Per-node execution statistics. */
    struct NodeStat
    {
        long batches = 0;
        long itemsProcessed = 0;
        long tokensProcessed = 0;
        double busySeconds = 0.0;
        double kvUtilization = 0.0;
    };
    std::vector<NodeStat> nodeStats;

    /**
     * Per-tenant serving statistics; populated only when fair-share
     * tenancy is active (two or more SimConfig::tenants), empty
     * otherwise so single-tenant metrics stay identical to the
     * pre-tenancy simulator.
     */
    struct TenantStat
    {
        std::string name;
        double weight = 1.0;
        long requestsArrived = 0;
        long requestsAdmitted = 0;
        long requestsCompleted = 0;
        long requestsRejected = 0;
        long requestsPreempted = 0;
        /** Decode tokens generated inside the measurement window. */
        long decodeTokensInWindow = 0;
        /** decodeTokensInWindow / measured seconds. */
        double decodeThroughput = 0.0;
        /** Declared SLOs (0 = none declared). */
        double sloTtftS = 0.0;
        double sloTpotS = 0.0;
        /** SLO attainment over in-window samples (same windowing as
         *  promptLatency / decodeLatency); -1 = no SLO declared or no
         *  samples. */
        double ttftAttainment = -1.0;
        double tpotAttainment = -1.0;
        long ttftSamples = 0;
        long ttftMet = 0;
        long tpotSamples = 0;
        long tpotMet = 0;
    };
    std::vector<TenantStat> tenantStats;
    /**
     * Jain fairness index over weight-normalized per-tenant decode
     * throughput x_t = decodeThroughput_t / weight_t:
     * J = (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair. 0 when
     * tenancy is inactive or no tenant produced tokens.
     */
    double jainIndex = 0.0;
};

/**
 * The simulator. One instance runs one experiment: a cluster with a
 * placement, a scheduler, and an arrival trace.
 */
class ClusterSimulator : public scheduler::SchedulerContext
{
  public:
    ClusterSimulator(const cluster::ClusterSpec &cluster,
                     const cluster::Profiler &profiler,
                     const placement::ModelPlacement &placement,
                     scheduler::RequestScheduler &scheduler,
                     SimConfig config = {});

    ~ClusterSimulator();

    /**
     * Run to completion of the measurement window. The request list is
     * read in place, not copied, for the duration of the call; every
     * arrival time must be finite (asserted).
     */
    HELIX_CONTEXT_DISPATCH
    SimMetrics run(const std::vector<trace::Request> &requests);

    // --- SchedulerContext (coordinator-phase feedback views) ---
    HELIX_COORDINATOR_ONLY int queueLength(int node) const override;
    HELIX_COORDINATOR_ONLY double recentThroughput(int node) const override;
    HELIX_COORDINATOR_ONLY double kvUsedBytes(int node) const override;
    HELIX_COORDINATOR_ONLY bool nodeAlive(int node) const override;

  private:
    struct WorkItem
    {
        int request = -1;
        int stage = 0;
        int numTokens = 0;
        /**
         * Scheduling epoch of the request when the item was created.
         * A node failure bumps the epoch of every affected request;
         * stale items and messages are dropped when dequeued.
         */
        uint32_t epoch = 0;
        bool isPrompt = false;
        /**
         * False for all but the last chunk of a chunked prefill; only
         * the final chunk forwards the request to the next stage.
         */
        bool finalChunk = true;
    };

    /**
     * Tagged-union event. Trivially copyable and self-contained: the
     * hot loop never allocates per event. BatchDone carries only the
     * node; the batch items live in NodeState::running.
     */
    struct Event
    {
        enum class Kind : uint8_t
        {
            /** Request item.request arrives at the coordinator. */
            Arrival,
            /** Work item delivered to node's queue. */
            WorkDelivery,
            /** Output token of item.request reaches the coordinator. */
            TokenDelivery,
            /** The batch running on node completes. */
            BatchDone,
            /** Node fails (churn scenario). */
            NodeFailure,
            /** Node rejoins with empty KV and queue (churn). */
            NodeRecovery,
            /**
             * Control-plane notification that a finished request's KV
             * pages at node can be reclaimed (kvBytes of them). Sent
             * by the coordinator at completion and delivered after the
             * coordinator->node propagation latency, so KV release is
             * a message like every other cross-node effect — the
             * sharded executor relies on no zero-latency writes
             * between shards.
             */
            KvRelease,
            /**
             * Fair-share preemption of item.request takes effect: the
             * request's work is dropped and its KV released through
             * the epoch-safe restart machinery, and it rejoins the
             * head of its tenant's admission queue. Scheduled one
             * preemption delay (the minimum link latency) after the
             * decision so the parallel executor can run it as a
             * serial barrier, like churn. item.epoch is the request
             * epoch at decision time; a mismatch (or a finished
             * request) makes the event a stale no-op. Appended last
             * so existing kinds keep their eventBefore ranks.
             */
            Preempt,
        };

        double time = 0.0;
        uint64_t seq = 0;
        double batchSeconds = 0.0; // BatchDone: actual duration
        /** BatchDone: duration the cost model alone predicts, before
         *  unprofiled multipliers (nodeSlowdown, KV paging). The
         *  ratio model/actual is the drift trigger's speed sample. */
        double modelSeconds = 0.0;
        double kvBytes = 0.0;      // KvRelease: bytes to reclaim
        WorkItem item;             // WorkDelivery / Arrival / Token
        int node = 0;              // WorkDelivery / BatchDone / Failure
        Kind kind = Kind::Arrival;
    };

    /**
     * Total order on events: time first, then a CONTENT key (kind,
     * node, request, stage, epoch), then the scheduling sequence
     * number as a last-resort tie-break. Two distinct events that can
     * coexist in a queue always differ in the content key (a request
     * has at most one in-flight item, a node at most one running
     * batch), so equal-time ties order identically no matter which
     * loop — serial or any shard of the parallel executor — created
     * or queued them. That property, not the seq counter, is what
     * makes the sharded executor's merge byte-identical to the serial
     * loop even on symmetric workloads with exact time ties.
     */
    static bool eventBefore(const Event &a, const Event &b);

    struct EventOrder
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            // priority_queue pops the maximum: invert eventBefore.
            return eventBefore(b, a);
        }
    };

    /**
     * The run's Arrival events, streamed instead of queued: request
     * indices in eventBefore order for arrivals (arrival time clamped
     * at 0, then request index). Arrival ranks first among equal-time
     * events and no queue holds one, so an event loop that dispatches
     * the stream head whenever its time is <= the queue top's runs
     * exactly the sequence of a queue seeded with every arrival. A
     * list already in that order (every generated trace) is walked in
     * place; only an unsorted one pays for an index permutation.
     * Refers to the caller's list, so it lives inside run() only.
     */
    class ArrivalStream
    {
      public:
        /** Asserts every arrival time is finite: a NaN would break
         *  the strict weak order the sort and the merge rely on. */
        explicit ArrivalStream(
            const std::vector<trace::Request> &request_list);

        /** Event time of the next arrival; +inf when none is left. */
        HELIX_COORDINATOR_ONLY
        double headTime() const;

        /** Consume the next arrival as its Arrival event. */
        HELIX_COORDINATOR_ONLY
        Event popEvent();

      private:
        /** Request index of the @p k-th arrival in stream order. */
        size_t indexAt(size_t k) const;

        const std::vector<trace::Request> &list;
        /** Stream order; empty when the list is already in order. */
        std::vector<int> order;
        size_t next = 0;
    };

    struct NodeState
    {
        std::deque<WorkItem> queue;
        /** Items of the batch currently running (reused storage). */
        std::vector<WorkItem> running;
        bool busy = false;
        bool dead = false;
        double kvUsed = 0.0;
        double kvCapacity = 0.0;
        int layersHeld = 0;
        double ewmaThroughput = 0.0;
        /** Sim time of the last EWMA update; recentThroughput decays
         *  the estimate by the elapsed time since then, so idle or
         *  dead nodes do not keep reporting their last busy rate. */
        double ewmaUpdatedAt = 0.0;
        /**
         * Speed EWMA for the drift trigger: modeled / actual batch
         * duration, 1.0 at profiled speed, < 1 when throttled. Kept
         * separate from ewmaThroughput, whose blended prompt+decode
         * token rate is not comparable to planned (decode) flow.
         */
        double ewmaSpeed = 1.0;
        /**
         * Liveness epoch: bumped when the node fails, so a BatchDone
         * scheduled before the failure is recognized as stale even if
         * the node has since recovered and started new batches.
         */
        uint32_t epoch = 0;
        int inFlight = 0;
        /** KV-utilization sampling for metrics. */
        double utilSum = 0.0;
        long utilSamples = 0;
        long batches = 0;
        long itemsProcessed = 0;
        long tokensProcessed = 0;
        double busySeconds = 0.0;
        /**
         * Prompt tokens whose pipeline completed at this node inside
         * the measurement window. Kept per node (not on SimMetrics)
         * because finishBatch runs on shard workers in parallel mode;
         * the integer per-node counters are summed once at the end of
         * the run, which is exact and order-free.
         */
        long promptTokensInWindow = 0;
    };

    struct RequestState
    {
        /** The caller's request (an element of the list run() was
         *  given); valid only while that run() executes. */
        const trace::Request *request = nullptr;
        scheduler::Pipeline pipeline;
        /**
         * KV bytes this request has actually written at each pipeline
         * stage's node (indexed like pipeline). Finish and churn
         * restarts release exactly this, so one request's teardown
         * can never drain KV accounted to others.
         */
        std::vector<double> kvWritten;
        bool admitted = false;
        bool finished = false;
        /** Ever torn down by node churn: excluded from latency
         *  samples, and regenerated work is not recounted. */
        bool restartedEver = false;
        /** Prompt completion already counted toward throughput. */
        bool promptCounted = false;
        /** A Preempt event for this request is in flight; suppresses
         *  duplicate victim selection until it lands. */
        bool preemptScheduled = false;
        int generated = 0;
        /** High-water mark of generated across restarts: only tokens
         *  beyond it are new output (not churn regeneration). */
        int peakGenerated = 0;
        uint32_t epoch = 0;
        double firstTokenTime = -1.0;
        double finishTime = -1.0;
    };

    struct LinkState
    {
        /** Serialization horizon for bulk (prompt-sized) transfers. */
        double bulkBusyUntil = 0.0;
        /**
         * Serialization horizon for interactive (token/activation)
         * messages, which use a separate priority channel and do not
         * queue behind multi-megabyte prompt transfers.
         */
        double interactiveBusyUntil = 0.0;
        /** Cached from ClusterSpec::link so the hot path is one load. */
        double bytesPerSecond = 0.0;
        double latencyS = 0.0;
        LinkStat stat;
    };

    /** Push a typed event at absolute time @p when (routes through
     *  the active lane or executor in parallel runs). */
    HELIX_CONTEXT_DISPATCH
    void scheduleEvent(double when, Event event);

    /** Dispatch one popped event to its kind's handler. */
    HELIX_CONTEXT_DISPATCH
    void dispatch(const Event &event);

    /** Admit queued requests through the scheduler: pull from the
     *  most under-share tenant's queue (FIFO with one tenant) until
     *  the scheduler refuses or the active cap binds. */
    HELIX_COORDINATOR_ONLY
    void tryAdmit();

    /** Tenant class of a request (clamped to the arbiter's classes;
     *  0 for every request when tenancy is inactive). */
    HELIX_COORDINATOR_ONLY
    int tenantOf(int request_index) const;

    /** Starvation sweep: when the controller names a victim class,
     *  schedule a Preempt event for its newest in-flight request one
     *  preemption delay from now. */
    HELIX_COORDINATOR_ONLY
    void maybeSchedulePreempt();

    /** Apply a Preempt event (epoch-safe; stale events no-op). */
    HELIX_CHURN_BARRIER_ONLY
    void applyPreempt(const Event &event);

    /**
     * Tear an admitted request back down to the admission queue: the
     * shared core of churn restarts and preemption. Releases exactly
     * RequestState::kvWritten at every live pipeline stage (skipping
     * @p skip_node, the failed node whose state was wiped wholesale;
     * -1 skips none), notifies the scheduler, bumps the request
     * epoch so in-flight work and messages go stale, and resets
     * generation progress (peakGenerated keeps regenerated tokens
     * from double-counting).
     */
    HELIX_CHURN_BARRIER_ONLY
    void restartRequest(int request_index, int skip_node);

    /** Drop queued work items whose request epoch went stale (after
     *  restartRequest), fixing up per-node inFlight. */
    HELIX_CHURN_BARRIER_ONLY
    void purgeStaleQueuedWork();

    /**
     * Account a transfer of @p bytes over (from, to) and return its
     * delivery time (serialization + propagation).
     */
    HELIX_LANE_SAFE
    double transferDelivery(int from, int to, double bytes);

    /** Deliver a work item to a node's queue. */
    HELIX_LANE_SAFE
    void enqueueWork(int node, const WorkItem &item);

    /** Start a batch on an idle node with a non-empty queue. */
    HELIX_LANE_SAFE
    void startBatch(int node);

    /** Complete the batch in NodeState::running. @p node_epoch is the
     *  node's liveness epoch when the batch started; a mismatch means
     *  the node failed meanwhile and the batch was dropped. */
    HELIX_LANE_SAFE
    void finishBatch(int node, double batch_seconds,
                     double model_seconds,
                     uint32_t node_epoch);

    /** Handle an output token arriving back at the coordinator. */
    HELIX_COORDINATOR_ONLY
    void onTokenAtCoordinator(int request, uint32_t epoch);

    /** Reclaim a finished request's KV at @p node (KvRelease). The
     *  node epoch stamped at send time guards against a failure (and
     *  possible recovery) while the message was in flight. */
    HELIX_LANE_SAFE
    void applyKvRelease(int node, double bytes, uint32_t node_epoch);

    /** Fail @p node: drop its work, restart affected requests. */
    HELIX_CHURN_BARRIER_ONLY
    void onNodeFailure(int node);

    /** Recover @p node: rejoin with empty KV and queue. */
    HELIX_CHURN_BARRIER_ONLY
    void onNodeRecovery(int node);

    /**
     * Re-solve max-flow on the surviving subgraph after a liveness
     * change, swap the fresh topology into the scheduler, and log the
     * new flow value in SimMetrics::flowEvents.
     */
    HELIX_COORDINATOR_ONLY
    void resolveTopology(int node, ChurnEvent::Kind kind);

    /** Lazily build the live-topology manager (first churn or drift
     *  event, or run start when tenancy is active). */
    HELIX_COORDINATOR_ONLY
    scheduler::TopologyManager &topologyManager();

    /**
     * Drift check after a batch on @p node: once the throughput EWMA
     * has matured, a node observed below plannedFlow * (1 - threshold)
     * has its compute capacity shrunk to the observed rate and the
     * topology re-solved (SimConfig::driftThreshold). In parallel
     * mode the node-local precheck runs on the shard worker and the
     * resolve itself is deferred as a probe to the coordinator phase,
     * which replays probes interleaved with its own events in event
     * order — the scheduler and topology manager stay confined to the
     * round-driver thread.
     */
    HELIX_CONTEXT_DISPATCH
    void maybeDriftResolve(int node);

    /** Node-local half of the drift check (no topology state read). */
    HELIX_LANE_SAFE
    bool driftCheckLocal(int node) const;

    /** Coordinator half: planned-vs-observed comparison + re-solve.
     *  @p ewma_speed is the node's speed EWMA sampled when the
     *  triggering batch finished. */
    HELIX_COORDINATOR_ONLY
    void applyDriftResolve(int node, double ewma_speed);

    /** Current context length of a request (prompt + generated). */
    double contextLen(const RequestState &rs) const;

    /** Whether @p t falls inside the measurement window. */
    bool inWindow(double t) const;

    /** State of link (from, to), created on first use. Callable only
     *  from the context owning @p from (see linkRows). */
    HELIX_LANE_SAFE
    LinkState &linkState(int from, int to);

    /**
     * Simulation time as seen by the executing context: the member
     * clock in the serial loop and during barrier steps, the owning
     * lane's clock on a shard worker or in the coordinator phase.
     * Every handler reads time through this accessor.
     */
    double curTime() const;

    /** The churn event list with invalid and drift entries dropped,
     *  in declaration order. */
    std::vector<ChurnEvent> churnSchedule() const;

    /** The original single-threaded event loop (also the reference
     *  the differential harness compares the executor against): it
     *  merges the arrival stream with the event queue. */
    HELIX_CHURN_BARRIER_ONLY
    void runSerialLoop(const std::vector<ChurnEvent> &churn,
                       double end_time, ArrivalStream &arrivals);

    /** Coordinator-visible node state, read through the parallel
     *  executor's mirror during the coordinator phase so scheduler
     *  feedback reflects exactly the node events that precede the
     *  current event in the serial order. */
    HELIX_COORDINATOR_ONLY int nodeInFlightView(int node) const;
    HELIX_COORDINATOR_ONLY bool nodeBusyView(int node) const;

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profiler;
    const placement::ModelPlacement &placementRef;
    HELIX_COORDINATOR_ONLY scheduler::RequestScheduler &sched;
    SimConfig cfg;

    double now = 0.0;
    uint64_t eventSeq = 0;
    std::priority_queue<Event, std::vector<Event>, EventOrder> events;

    std::vector<NodeState> nodes;
    /** Per-request state of the current run, indexed like the list
     *  run() was given; emptied before run() returns, so no pointer
     *  into the caller's list outlives the call. */
    std::vector<RequestState> requests;
    /**
     * Link state per source endpoint (index from + 1, row 0 = the
     * coordinator), each row sorted by destination; an entry is
     * created on the link's first use. Row r is touched only by its
     * owning context (node r - 1's lane, the coordinator for row 0),
     * so lanes never share a row.
     */
    std::vector<std::vector<LinkState>> linkRows;
    /** Scratch for prompts deferred during batch assembly (reused). */
    std::vector<WorkItem> deferredScratch;
    /**
     * Live-topology re-solver, created lazily at the first churn
     * event (runs without churn never pay for the extra max-flow
     * solves). The scheduler copies the topology it is rebound to,
     * so its lifetime stays independent of the simulator's.
     */
    HELIX_COORDINATOR_ONLY
    std::unique_ptr<scheduler::TopologyManager> topoManager;

    /**
     * Admission arbiter and queues, created per run(): one class per
     * configured tenant when two or more are declared, otherwise one
     * implicit class (FIFO, never held, never preempted).
     */
    HELIX_COORDINATOR_ONLY
    std::unique_ptr<scheduler::FairShareController> fair;
    /** Decision-to-effect delay of a preemption: the minimum link
     *  propagation latency, so Preempt events always land beyond the
     *  parallel executor's current round horizon. */
    double preemptDelayS = 0.0;

    /** Run-level counters: every write happens in coordinator or
     *  barrier context (lane-local stats live in NodeState). */
    HELIX_COORDINATOR_ONLY SimMetrics metrics;

    /**
     * Active parallel executor, set only while a sharded run is in
     * flight; scheduleEvent routes through it and the Scheduler-
     * Context views read its coordinator mirror. Null in serial runs,
     * so the serial path is exactly the original loop.
     */
    ParallelExecutor *par = nullptr;
    /**
     * Lane the calling thread is currently executing (its clock and
     * routing context). Thread-local because shard workers run the
     * same handler code concurrently on disjoint lanes; null on
     * threads not inside a lane (serial loop, barrier steps).
     */
    static thread_local ParallelLane *tlsLane;
    /**
     * Sole mutation point for tlsLane, defined in simulator.cpp so
     * every store uses local-exec TLS addressing. Cross-TU stores
     * from executor.cpp went through GCC's initial-exec TLS wrapper,
     * whose UBSan null-address check misfires at -O2 (observed with
     * GCC 12.2 under -fsanitize=address,undefined); confining the
     * stores to the defining TU keeps the sanitizer jobs clean.
     */
    static void setTlsLane(ParallelLane *lane);

    friend class ParallelExecutor;
    friend class ParallelLane;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_SIMULATOR_H
