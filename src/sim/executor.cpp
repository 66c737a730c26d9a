#include "sim/executor.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace sim {

namespace {

// ClusterSimulator::Event is private; ParallelLane (a friend)
// re-exports it publicly.
using Event = ParallelLane::Event;

/** Serial-order key comparison for merged NodeDelta logs: the same
 *  (time, kind, node, request, stage, epoch) key eventBefore uses.
 *  Deltas from different lanes never tie (distinct coexisting events
 *  differ in the key), so no sequence fallback is needed. */
bool
deltaBefore(const NodeDelta &a, const NodeDelta &b)
{
    // helix-lint: allow(float-eq) exact-time ties fall through to the content key, mirroring eventBefore
    if (a.time != b.time)
        return a.time < b.time;
    if (a.kindRank != b.kindRank)
        return a.kindRank < b.kindRank;
    if (a.node != b.node)
        return a.node < b.node;
    if (a.request != b.request)
        return a.request < b.request;
    if (a.stage != b.stage)
        return a.stage < b.stage;
    return a.epoch < b.epoch;
}

/** True when delta @p d precedes the key (time, kind, node, request,
 *  stage, epoch) in serial event order. */
bool
deltaBeforeKey(const NodeDelta &d, double time, uint8_t kind_rank,
               int node, int request, int stage, uint32_t epoch)
{
    NodeDelta key;
    key.time = time;
    key.kindRank = kind_rank;
    key.node = node;
    key.request = request;
    key.stage = stage;
    key.epoch = epoch;
    return deltaBefore(d, key);
}

constexpr uint8_t kBatchDoneRank =
    static_cast<uint8_t>(Event::Kind::BatchDone);

} // namespace

ParallelExecutor::ParallelExecutor(
    ClusterSimulator &simulator, int num_threads, double min_latency,
    std::vector<ChurnEvent> churn_schedule, double end_time,
    ClusterSimulator::ArrivalStream &arrival_stream)
    : sim(simulator), arrivals(arrival_stream), lambda(min_latency),
      endTime(end_time), churn(std::move(churn_schedule))
{
    HELIX_ASSERT(lambda > 0.0);
    const int n = static_cast<int>(sim.nodes.size());
    HELIX_ASSERT(n > 0);

    // Barrier steps need the schedule in time order; equal times keep
    // their insertion order (duplicate entries are intentional).
    std::stable_sort(churn.begin(), churn.end(),
                     [](const ChurnEvent &a, const ChurnEvent &b) {
                         return a.atSeconds < b.atSeconds;
                     });

    numShards = std::min(kMaxShards, n);
    numWorkers = std::max(1, std::min(num_threads, numShards));
    lanes.resize(static_cast<size_t>(numShards) + 1);
    for (size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].id = static_cast<int>(i);
        lanes[i].coordinator = i == 0;
    }
    laneOfNode.resize(n);
    for (int node = 0; node < n; ++node)
        laneOfNode[node] = 1 + node % numShards;

    mirInFlight.assign(n, 0);
    mirBusy.assign(n, 0);
    mirKvUsed.assign(n, 0.0);
    mirEwmaTp.assign(n, 0.0);
    mirEwmaAt.assign(n, 0.0);

    helpers.reserve(static_cast<size_t>(numWorkers) - 1);
    for (int w = 1; w < numWorkers; ++w)
        helpers.emplace_back([this, w] { workerLoop(w); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        stopFlag = true;
    }
    cvStart.notify_all();
    for (std::thread &helper : helpers)
        helper.join();
}

int
ParallelExecutor::laneOf(const Event &event) const
{
    switch (event.kind) {
      case Event::Kind::Arrival:
      case Event::Kind::TokenDelivery:
        return 0; // Coordinator lane.
      default:
        return laneOfNode[event.node];
    }
}

void
ParallelExecutor::route(Event event, ParallelLane *from)
{
    if (event.kind == Event::Kind::Preempt) {
        // Preemptions execute as dynamic serial barriers (see the
        // member comment). Scheduled one lambda after the decision,
        // so the event always lies at or beyond the current round's
        // horizon — holding it here cannot skip anything.
        pendingPreempts.push_back(event);
        return;
    }
    const int target = laneOf(event);
    if (from == nullptr) {
        // Barrier step (no lane executing): push directly — everything
        // is synchronized, so there is nothing to defer.
        lanes[target].push(event);
        return;
    }
    if (target == from->id) {
        from->push(event);
        return;
    }
    // Cross-lane: the conservative-lookahead invariant guarantees
    // delivery at or beyond the round horizon, so deferring the push
    // to the round barrier cannot reorder anything.
    HELIX_ASSERT(event.time >= horizon);
    from->outbox.push_back(event);
}

int
ParallelExecutor::viewInFlight(int node) const
{
    return mirrorActive ? mirInFlight[node]
                        : sim.nodes[node].inFlight;
}

bool
ParallelExecutor::viewBusy(int node) const
{
    return mirrorActive ? mirBusy[node] != 0 : sim.nodes[node].busy;
}

double
ParallelExecutor::viewKvUsed(int node) const
{
    return mirrorActive ? mirKvUsed[node] : sim.nodes[node].kvUsed;
}

double
ParallelExecutor::viewEwmaThroughput(int node) const
{
    return mirrorActive ? mirEwmaTp[node]
                        : sim.nodes[node].ewmaThroughput;
}

double
ParallelExecutor::viewEwmaUpdatedAt(int node) const
{
    return mirrorActive ? mirEwmaAt[node]
                        : sim.nodes[node].ewmaUpdatedAt;
}

void
ParallelExecutor::refreshMirror()
{
    for (size_t i = 0; i < sim.nodes.size(); ++i) {
        const ClusterSimulator::NodeState &state = sim.nodes[i];
        mirInFlight[i] = state.inFlight;
        mirBusy[i] = state.busy ? 1 : 0;
        mirKvUsed[i] = state.kvUsed;
        mirEwmaTp[i] = state.ewmaThroughput;
        mirEwmaAt[i] = state.ewmaUpdatedAt;
    }
}

void
ParallelExecutor::advanceMirror(double time, uint8_t kind_rank,
                                int node, int request, int stage,
                                uint32_t epoch)
{
    while (deltaCursor < mergedDeltas.size() &&
           deltaBeforeKey(mergedDeltas[deltaCursor], time, kind_rank,
                          node, request, stage, epoch)) {
        const NodeDelta &d = mergedDeltas[deltaCursor++];
        mirInFlight[d.node] = d.inFlight;
        mirBusy[d.node] = d.busy ? 1 : 0;
        mirKvUsed[d.node] = d.kvUsed;
        mirEwmaTp[d.node] = d.ewmaThroughput;
        mirEwmaAt[d.node] = d.ewmaUpdatedAt;
    }
}

void
ParallelExecutor::runLane(ParallelLane &lane)
{
    ClusterSimulator::setTlsLane(&lane);
    while (!lane.queue.empty()) {
        const Event &top = lane.queue.top();
        if (top.time >= horizon || top.time > endTime)
            break;
        Event event = top;
        lane.queue.pop();
        lane.now = event.time;
        sim.dispatch(event);
        // Snapshot the node state for the coordinator mirror, keyed
        // by the event that produced it.
        const ClusterSimulator::NodeState &state =
            sim.nodes[event.node];
        NodeDelta d;
        d.time = event.time;
        d.kindRank = static_cast<uint8_t>(event.kind);
        d.node = event.node;
        d.request = event.item.request;
        d.stage = event.item.stage;
        d.epoch = event.item.epoch;
        d.inFlight = state.inFlight;
        d.busy = state.busy;
        d.kvUsed = state.kvUsed;
        d.ewmaThroughput = state.ewmaThroughput;
        d.ewmaUpdatedAt = state.ewmaUpdatedAt;
        lane.deltas.push_back(d);
    }
    ClusterSimulator::setTlsLane(nullptr);
}

void
ParallelExecutor::workerLoop(int worker_index)
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(poolMutex);
            cvStart.wait(lock, [&] {
                return stopFlag || roundGen != seen;
            });
            if (stopFlag)
                return;
            seen = roundGen;
        }
        for (int lane = 1 + worker_index; lane <= numShards;
             lane += numWorkers) {
            runLane(lanes[lane]);
        }
        {
            std::lock_guard<std::mutex> lock(poolMutex);
            --unfinished;
        }
        cvDone.notify_one();
    }
}

void
ParallelExecutor::runNodePhase()
{
    bool any = false;
    for (int lane = 1; lane <= numShards; ++lane) {
        const auto &queue = lanes[lane].queue;
        if (!queue.empty() && queue.top().time < horizon &&
            queue.top().time <= endTime) {
            any = true;
            break;
        }
    }
    if (!any)
        return;
    if (helpers.empty()) {
        for (int lane = 1; lane <= numShards; ++lane)
            runLane(lanes[lane]);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        ++roundGen;
        unfinished = numWorkers - 1;
    }
    cvStart.notify_all();
    // The round-driver thread is worker 0.
    for (int lane = 1; lane <= numShards; lane += numWorkers)
        runLane(lanes[lane]);
    std::unique_lock<std::mutex> lock(poolMutex);
    cvDone.wait(lock, [&] { return unfinished == 0; });
}

void
ParallelExecutor::runCoordinatorPhase()
{
    // Merge the per-lane logs into serial event order. Deltas from
    // distinct events never tie on the key, and probes inherit the
    // (time, node) of their (unique-per-node) BatchDone.
    mergedDeltas.clear();
    mergedProbes.clear();
    deltaCursor = 0;
    for (int lane = 1; lane <= numShards; ++lane) {
        ParallelLane &shard = lanes[lane];
        mergedDeltas.insert(mergedDeltas.end(), shard.deltas.begin(),
                            shard.deltas.end());
        shard.deltas.clear();
        mergedProbes.insert(mergedProbes.end(), shard.probes.begin(),
                            shard.probes.end());
        shard.probes.clear();
    }
    std::sort(mergedDeltas.begin(), mergedDeltas.end(), deltaBefore);
    std::sort(mergedProbes.begin(), mergedProbes.end(),
              [](const DriftProbe &a, const DriftProbe &b) {
                  // helix-lint: allow(float-eq) same tie-break pattern as eventBefore
                  if (a.time != b.time)
                      return a.time < b.time;
                  return a.node < b.node;
              });

    ParallelLane &coord = lanes[0];
    ClusterSimulator::setTlsLane(&coord);
    mirrorActive = true;
    size_t probe_idx = 0;
    for (;;) {
        const bool has_event = !coord.queue.empty() &&
                               coord.queue.top().time < horizon &&
                               coord.queue.top().time <= endTime;
        const bool has_probe = probe_idx < mergedProbes.size();
        if (!has_event && !has_probe)
            break;
        bool probe_first = !has_event;
        if (has_event && has_probe) {
            const Event &top = coord.queue.top();
            const DriftProbe &probe = mergedProbes[probe_idx];
            // Interleave by serial event order: the probe carries its
            // BatchDone's key (kind rank), so drift re-solves land
            // exactly where the serial loop ran them.
            probe_first =
                probe.time < top.time ||
                (!(top.time < probe.time) &&
                 kBatchDoneRank < static_cast<uint8_t>(top.kind));
        }
        if (probe_first) {
            const DriftProbe &probe = mergedProbes[probe_idx++];
            advanceMirror(probe.time, kBatchDoneRank, probe.node, -1,
                          0, 0);
            coord.now = probe.time;
            sim.applyDriftResolve(probe.node, probe.ewmaSpeed);
        } else {
            Event event = coord.queue.top();
            coord.queue.pop();
            advanceMirror(event.time,
                          static_cast<uint8_t>(event.kind),
                          event.node, event.item.request,
                          event.item.stage, event.item.epoch);
            coord.now = event.time;
            sim.dispatch(event);
        }
    }
    // Bring the mirror fully up to date for the next round's start.
    while (deltaCursor < mergedDeltas.size()) {
        const NodeDelta &d = mergedDeltas[deltaCursor++];
        mirInFlight[d.node] = d.inFlight;
        mirBusy[d.node] = d.busy ? 1 : 0;
        mirKvUsed[d.node] = d.kvUsed;
        mirEwmaTp[d.node] = d.ewmaThroughput;
        mirEwmaAt[d.node] = d.ewmaUpdatedAt;
    }
    ClusterSimulator::setTlsLane(nullptr);
    mirrorActive = false;
}

void
ParallelExecutor::flushOutboxes()
{
    for (ParallelLane &lane : lanes) {
        for (const Event &event : lane.outbox)
            lanes[laneOf(event)].push(event);
        lane.outbox.clear();
    }
}

void
ParallelExecutor::runBarrier(double when)
{
    // All events strictly before `when` have executed; pop everything
    // at exactly `when` from every lane, add the due churn entries,
    // and run the batch serially in serial event order against fully
    // synchronized state — identical to the serial loop around a
    // churn event.
    std::vector<Event> batch;
    for (ParallelLane &lane : lanes) {
        while (!lane.queue.empty() &&
               lane.queue.top().time <= when) {
            batch.push_back(lane.queue.top());
            lane.queue.pop();
        }
    }
    while (arrivals.headTime() <= when)
        batch.push_back(arrivals.popEvent());
    uint64_t churn_seq = 0;
    while (churnIdx < churn.size() &&
           churn[churnIdx].atSeconds <= when) {
        const ChurnEvent &entry = churn[churnIdx++];
        Event event;
        event.kind = entry.kind == ChurnEvent::Kind::Fail
                         ? Event::Kind::NodeFailure
                         : Event::Kind::NodeRecovery;
        event.node = entry.node;
        event.time = when;
        // Duplicate churn entries tie on the full content key; the
        // sequence fallback preserves their schedule order.
        event.seq = churn_seq++;
        batch.push_back(event);
    }
    // Due preemptions join the same batch; distinct preempts always
    // differ in item.request, so eventBefore orders them without the
    // sequence fallback (Preempt ranks after every other kind at the
    // same time, matching the serial priority queue).
    size_t keep = 0;
    for (size_t i = 0; i < pendingPreempts.size(); ++i) {
        Event event = pendingPreempts[i];
        if (event.time <= when) {
            event.seq = churn_seq++;
            batch.push_back(event);
        } else {
            pendingPreempts[keep++] = pendingPreempts[i];
        }
    }
    pendingPreempts.resize(keep);
    std::stable_sort(batch.begin(), batch.end(),
                     ClusterSimulator::eventBefore);

    mirrorActive = false;
    ClusterSimulator::setTlsLane(nullptr);
    sim.now = when;
    for (const Event &event : batch)
        sim.dispatch(event);
    flushOutboxes();
}

void
ParallelExecutor::feedArrivals()
{
    while (arrivals.headTime() < horizon)
        lanes[0].push(arrivals.popEvent());
}

void
ParallelExecutor::run()
{
    refreshMirror();

    const double inf = std::numeric_limits<double>::infinity();
    for (;;) {
        // The arrival stream is one more event source: its head joins
        // the lane heads in the choice of the next round or barrier.
        double next = arrivals.headTime();
        for (const ParallelLane &lane : lanes) {
            if (!lane.queue.empty())
                next = std::min(next, lane.queue.top().time);
        }
        const double churn_at =
            churnIdx < churn.size() ? churn[churnIdx].atSeconds : inf;
        // Barriers come in two flavors: the static churn schedule and
        // dynamically scheduled preemptions; the earliest one bounds
        // the round.
        double barrier_at = churn_at;
        for (const Event &event : pendingPreempts)
            barrier_at = std::min(barrier_at, event.time);
        if (next > endTime && barrier_at > endTime)
            break;
        if (barrier_at <= next) {
            // Rounds never span a barrier time: execute it (and any
            // events at exactly that time) as a serial barrier step.
            runBarrier(barrier_at);
            refreshMirror();
            continue;
        }
        // Conservative round: every event below the horizon is causally
        // closed — any message it sends arrives at >= next + lambda.
        horizon = std::min(next + lambda, barrier_at);
        feedArrivals();
        runNodePhase();
        runCoordinatorPhase();
        flushOutboxes();
    }
    // Leave the simulator's master clock at the end of the run and the
    // lanes drained so a reused simulator starts clean.
    sim.now = std::max(sim.now, endTime);
    for (ParallelLane &lane : lanes) {
        while (!lane.queue.empty())
            lane.queue.pop();
        lane.outbox.clear();
    }
    pendingPreempts.clear();
}

} // namespace sim
} // namespace helix
