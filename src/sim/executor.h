/**
 * @file
 * Sharded parallel executor for ClusterSimulator: conservative
 * (lookahead-based) parallel discrete-event simulation whose merged
 * outcome is byte-identical to the serial event loop at any thread
 * count.
 *
 * Design (see docs/ARCHITECTURE.md "Parallel simulation"):
 *
 *  - The compute nodes are partitioned into a FIXED number of shards
 *    (independent of the thread count), each with its own event queue
 *    and clock; the coordinator is a dedicated lane of its own.
 *  - Every cross-node effect in the simulator is a message with at
 *    least the minimum link propagation latency lambda of delay (the
 *    KvRelease event exists precisely to keep this true for KV
 *    reclamation at request completion). Events below the global safe
 *    horizon H = min(next event time) + lambda therefore cannot be
 *    affected by any event another shard still has to execute, and
 *    each round executes them in parallel (node lanes first, then the
 *    coordinator lane).
 *  - The coordinator phase replays per-shard NodeDelta logs, merged
 *    in the serial event order, into a mirror of the node states, so
 *    scheduler feedback (queue depth, EWMA throughput, KV occupancy)
 *    observes exactly the node events that precede the current
 *    coordinator event — the same values the serial loop would see.
 *  - Rounds never span a churn time: fail/recover events execute in a
 *    serial barrier step against fully-synchronized state, exactly
 *    like the serial loop.
 *  - Determinism does not depend on which worker runs which lane:
 *    event order is fixed by ClusterSimulator::eventBefore (time,
 *    then a content key), and shard count is a function of the
 *    cluster alone, so sim_threads 2, 4 and 8 execute structurally
 *    identical schedules.
 */

#ifndef HELIX_SIM_EXECUTOR_H
#define HELIX_SIM_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/annotations.h"
#include "sim/simulator.h"

namespace helix {
namespace sim {

/**
 * Coordinator-visible snapshot of one node's state taken right after
 * one node-lane event executed, keyed by that event's position in the
 * serial order. The coordinator phase applies deltas with key < its
 * current event's key, which reconstructs the exact interleaving of
 * the serial loop.
 */
struct NodeDelta
{
    double time = 0.0;
    uint8_t kindRank = 0; // Event::Kind ordinal of the causing event
    int node = 0;
    int request = -1;
    int stage = 0;
    uint32_t epoch = 0;
    // Mirrored fields (everything SchedulerContext/tryAdmit reads).
    int inFlight = 0;
    bool busy = false;
    double kvUsed = 0.0;
    double ewmaThroughput = 0.0;
    double ewmaUpdatedAt = 0.0;
};

/**
 * Drift re-solve deferred from a shard worker to the coordinator
 * phase: the node-local precheck passed when a batch finished at
 * (time, node); the planned-vs-observed comparison and the topology
 * re-solve run on the round-driver thread, interleaved with the
 * coordinator's own events in serial event order (the causing
 * BatchDone's key).
 */
struct DriftProbe
{
    double time = 0.0;
    int node = 0;
    /** Speed EWMA sampled when the triggering batch completed. */
    double ewmaSpeed = 1.0;
};

/**
 * One shard of the partitioned event loop: a private event queue,
 * clock and sequence counter, plus the per-round logs exchanged at
 * barriers. Lane 0 is the coordinator (Arrival/TokenDelivery events,
 * scheduling, admission); lanes 1..S own disjoint subsets of the
 * compute nodes.
 */
class ParallelLane
{
  public:
    using Event = ClusterSimulator::Event;

    int id = 0;
    bool coordinator = false;
    double now = 0.0;
    uint64_t seq = 0;
    std::priority_queue<Event, std::vector<Event>,
                        ClusterSimulator::EventOrder>
        queue;
    /** Cross-lane events produced this round (delivery >= horizon);
     *  flushed into the target lanes at the round barrier. */
    std::vector<Event> outbox;
    /** Node-state snapshots after each event (node lanes only). */
    std::vector<NodeDelta> deltas;
    /** Drift re-solves deferred to the coordinator phase. */
    std::vector<DriftProbe> probes;
    /** Per-lane scratch for prompts deferred during batch assembly
     *  (the serial loop's deferredScratch, made shard-private). */
    std::vector<ClusterSimulator::WorkItem> scratch;

    /** Stamp the lane-local sequence number and enqueue. Lanes are
     *  shard-private, so only the owning context may push. */
    HELIX_LANE_SAFE
    void
    push(Event event)
    {
        event.seq = seq++;
        queue.push(event);
    }
};

/**
 * The round-based parallel executor. Constructed by
 * ClusterSimulator::run when SimConfig::simThreads > 1 and the
 * cluster has a positive minimum link latency; owns the worker pool
 * for the duration of one run.
 */
class ParallelExecutor
{
  public:
    /** Fixed shard-count cap: at most this many node lanes, however
     *  many threads are requested — thread count must not change the
     *  schedule's structure, only who executes it. */
    static constexpr int kMaxShards = 16;

    ParallelExecutor(ClusterSimulator &simulator, int num_threads,
                     double min_latency,
                     std::vector<ChurnEvent> churn_schedule,
                     double end_time,
                     ClusterSimulator::ArrivalStream &arrival_stream);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Execute the full run, drawing arrivals from the stream.
     *  Drives every context: node phases, coordinator phases,
     *  barriers. */
    HELIX_CONTEXT_DISPATCH
    void run();

    /** Route a freshly scheduled event: own-lane events are pushed
     *  directly, cross-lane events go to the source lane's outbox
     *  (or straight to the target when no lane is executing, i.e.
     *  during a barrier step). */
    HELIX_LANE_SAFE
    void route(ClusterSimulator::Event event, ParallelLane *from);

    /** Lane owning @p node's events (fixed for the whole run). */
    HELIX_LANE_SAFE
    int nodeLane(int node) const { return laneOfNode[node]; }

    /** Coordinator-phase views of node state (mirror when active,
     *  live state during barrier steps and outside rounds). */
    HELIX_COORDINATOR_ONLY int viewInFlight(int node) const;
    HELIX_COORDINATOR_ONLY bool viewBusy(int node) const;
    HELIX_COORDINATOR_ONLY double viewKvUsed(int node) const;
    HELIX_COORDINATOR_ONLY double viewEwmaThroughput(int node) const;
    HELIX_COORDINATOR_ONLY double viewEwmaUpdatedAt(int node) const;

  private:
    using Event = ClusterSimulator::Event;

    /** Lane that executes @p event (0 = coordinator). */
    HELIX_LANE_SAFE
    int laneOf(const Event &event) const;

    /** Execute one lane's events below the round horizon. */
    HELIX_LANE_SAFE
    void runLane(ParallelLane &lane);

    /** Node-lane phase of one round (parallel across workers). */
    HELIX_LANE_SAFE
    void runNodePhase();

    /** Helper-thread loop: wait for a round, run assigned lanes. */
    HELIX_LANE_SAFE
    void workerLoop(int worker_index);

    /** Coordinator phase: replay deltas + probes in event order. */
    HELIX_COORDINATOR_ONLY
    void runCoordinatorPhase();

    /** Move every streamed arrival below the round horizon into the
     *  coordinator lane (between phases, lanes parked). */
    HELIX_COORDINATOR_ONLY
    void feedArrivals();

    /** Serial barrier step at churn time @p when: execute every
     *  event at exactly that time (streamed arrivals included), plus
     *  the churn entries, in serial event order against fully-
     *  synchronized state. */
    HELIX_CHURN_BARRIER_ONLY
    void runBarrier(double when);

    /** Flush every lane's outbox into the target lanes. */
    void flushOutboxes();

    /** Re-seed the coordinator mirror from the live node states. */
    void refreshMirror();

    /** Apply merged deltas with key < (time, kind, node, request,
     *  stage, epoch) to the mirror. */
    void advanceMirror(double time, uint8_t kind_rank, int node,
                       int request, int stage, uint32_t epoch);

    ClusterSimulator &sim;
    /** The run's arrivals, fed into the coordinator lane one round
     *  (or barrier) at a time. */
    HELIX_COORDINATOR_ONLY
    ClusterSimulator::ArrivalStream &arrivals;
    double lambda;
    double endTime;
    std::vector<ChurnEvent> churn;
    size_t churnIdx = 0;
    /**
     * Fair-share Preempt events held by the executor instead of any
     * lane: a preemption tears down state across shards (KV at every
     * pipeline stage, queued work at live nodes), so it runs as a
     * serial barrier step exactly like churn — but its time is only
     * known when the coordinator schedules it (decision + lambda),
     * hence a dynamic list rather than a pre-sorted schedule.
     */
    std::vector<Event> pendingPreempts;

    std::vector<ParallelLane> lanes; // [0] = coordinator
    int numShards = 0;
    int numWorkers = 1;
    /** node -> lane id (1-based; lane 0 is the coordinator). */
    std::vector<int> laneOfNode;

    /** Exclusive time bound of the current round. */
    double horizon = 0.0;

    /** Coordinator mirror (see NodeDelta). */
    bool mirrorActive = false;
    std::vector<int> mirInFlight;
    std::vector<uint8_t> mirBusy;
    std::vector<double> mirKvUsed;
    std::vector<double> mirEwmaTp;
    std::vector<double> mirEwmaAt;
    std::vector<NodeDelta> mergedDeltas;
    std::vector<DriftProbe> mergedProbes;
    size_t deltaCursor = 0;

    // Worker pool: helpers park on cvStart between rounds; the main
    // (round-driver) thread acts as worker 0 and waits on cvDone.
    // The mutex hand-offs establish the happens-before edges between
    // the phases, so shard state written in phase A is visible to the
    // coordinator phase and vice versa.
    std::vector<std::thread> helpers;
    std::mutex poolMutex;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    uint64_t roundGen = 0;
    int unfinished = 0;
    bool stopFlag = false;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_EXECUTOR_H
