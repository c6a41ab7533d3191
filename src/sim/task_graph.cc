#include "sim/task_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/audit.h"
#include "base/stats.h"

namespace fsmoe::sim {

const char *
opTypeName(OpType t)
{
    switch (t) {
      case OpType::AlltoAll: return "AlltoAll";
      case OpType::GradAllReduce: return "AllReduce";
      case OpType::AllGather: return "AllGather";
      case OpType::ReduceScatter: return "ReduceScatter";
      case OpType::Experts: return "Experts";
      case OpType::Routing: return "Routing";
      case OpType::Order: return "Order";
      case OpType::Attention: return "Attention";
      case OpType::Other: return "Other";
      default: return "?";
    }
}

TaskId
TaskGraph::addTaskImpl(TaskLabel label, OpType op, Link link, int stream,
                       double duration, const TaskId *deps, size_t n_deps,
                       int priority)
{
    FSMOE_CHECK_ARG(duration >= 0.0, "task '", label.str(),
                    "' has negative duration ", duration);
    FSMOE_CHECK_ARG(stream >= 0, "negative stream index");
    TaskId id = static_cast<TaskId>(tasks_.size());
    for (size_t i = 0; i < n_deps; ++i) {
        FSMOE_CHECK_ARG(deps[i] >= 0 && deps[i] < id, "task '",
                        label.str(), "' depends on unknown task ", deps[i]);
    }
    Task t;
    t.id = id;
    t.op = op;
    t.link = link;
    t.stream = stream;
    t.duration = duration;
    t.priority = priority;
    t.label = label;
    t.depBegin = static_cast<uint32_t>(dep_pool_.size());
    t.depCount = static_cast<uint32_t>(n_deps);
    dep_pool_.insert(dep_pool_.end(), deps, deps + n_deps);
    tasks_.push_back(t);
    num_streams_ = std::max(num_streams_, stream + 1);

    return id;
}

namespace {

uint64_t
rotl(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** MurmurHash3's 64-bit finalizer: full avalanche of one lane. */
uint64_t
fmix64(uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

} // namespace

GraphDigest
TaskGraph::digest() const
{
    // Four words per task — (stream, priority), the duration's bits,
    // (op, link, dep count) and the first two deps — each times an odd
    // constant (a bijection), combined into one value per lane, so
    // changing any one field of one task always moves both lanes.
    // Deps past the second follow two per word; the dep count keeps
    // that packing unambiguous. The two lanes differ in rotations,
    // combine operators and multipliers.
    uint64_t lane_a = 0x27d4eb2f165667c5ull;
    uint64_t lane_b = 0x94d049bb133111ebull;
    const auto mix = [&](uint64_t a, uint64_t b) {
        lane_a = rotl(lane_a ^ a, 31) * 0xd6e8feb86659fd93ull;
        lane_b = rotl(lane_b + b, 27) * 0xa0761d6478bd642full;
    };
    for (const Task &t : tasks_) {
        const TaskId *deps = dep_pool_.data() + t.depBegin;
        const size_t n_deps = t.depCount;
        const auto depPair = [&](size_t i) {
            const uint64_t lo =
                i < n_deps ? static_cast<uint32_t>(deps[i]) : 0;
            const uint64_t hi =
                i + 1 < n_deps ? static_cast<uint32_t>(deps[i + 1]) : 0;
            return lo | hi << 32;
        };
        uint64_t w1;
        std::memcpy(&w1, &t.duration, sizeof w1);
        const uint64_t w0 =
            static_cast<uint32_t>(t.stream) |
            static_cast<uint64_t>(static_cast<uint32_t>(t.priority)) << 32;
        const uint64_t w2 = static_cast<uint64_t>(t.op) |
                            static_cast<uint64_t>(t.link) << 8 |
                            static_cast<uint64_t>(n_deps) << 16;
        const uint64_t w3 = depPair(0);
        mix(w0 * 0x9e3779b185ebca87ull ^
                rotl(w1 * 0xc2b2ae3d27d4eb4full, 16) ^
                rotl(w2 * 0x165667b19e3779f9ull, 32) ^
                rotl(w3 * 0x85ebca77c2b2ae63ull, 48),
            w0 * 0x27d4eb2f165667c5ull +
                rotl(w1 * 0xff51afd7ed558ccdull, 21) +
                rotl(w2 * 0xc4ceb9fe1a85ec53ull, 42) +
                rotl(w3 * 0x9fb21c651e98df25ull, 11));
        for (size_t i = 2; i < n_deps; i += 2) {
            const uint64_t w = depPair(i);
            mix(w * 0x9e3779b185ebca87ull, w * 0x27d4eb2f165667c5ull);
        }
    }
    const uint64_t n = tasks_.size();
    GraphDigest d;
    d.hi = fmix64(lane_a ^ n);
    d.lo = fmix64(lane_b + n * 0x9e3779b97f4a7c15ull);
    return d;
}

std::string
GraphDigest::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

void
auditTasksAndDeps(const Task *tasks, size_t num_tasks,
                  const TaskId *dep_pool, size_t pool_size,
                  int num_streams)
{
    for (size_t i = 0; i < num_tasks; ++i) {
        const Task &t = tasks[i];
        if (t.id != static_cast<TaskId>(i))
            FSMOE_PANIC("task graph audit: task at index ", i,
                        " carries id ", t.id, " (ids must be dense)");
        if (t.stream < 0 || t.stream >= num_streams)
            FSMOE_PANIC("task graph audit: task ", t.id, " on stream ",
                        t.stream, " outside [0, ", num_streams, ")");
        if (!(t.duration >= 0.0) || !std::isfinite(t.duration))
            FSMOE_PANIC("task graph audit: task ", t.id,
                        " has non-finite or negative duration ",
                        t.duration);
        uint64_t dep_end =
            static_cast<uint64_t>(t.depBegin) + t.depCount;
        if (dep_end > pool_size)
            FSMOE_PANIC("task graph audit: task ", t.id,
                        " CSR dep span [", t.depBegin, ", ", dep_end,
                        ") exceeds pool size ", pool_size);
        for (uint32_t j = 0; j < t.depCount; ++j) {
            TaskId d = dep_pool[t.depBegin + j];
            if (d < 0 || d >= t.id)
                FSMOE_PANIC("task graph audit: task ", t.id,
                            " depends on ", d,
                            " which is not an earlier task (dangling "
                            "edge or cycle)");
        }
    }
    // Parenthesised call keeps this exempt from fsmoe_lint's
    // static-mutable rule; the counter itself is an atomic.
    static stats::Counter &verified =
        stats::counter("audit.taskGraph.verified");
    verified.inc();
}

void
auditTaskGraph(const TaskGraph &g)
{
    auditTasksAndDeps(g.tasks().data(), g.size(), g.depPool().data(),
                      g.numDeps(), g.numStreams());
}

const Task &
TaskGraph::task(TaskId id) const
{
    FSMOE_CHECK_ARG(id >= 0 && static_cast<size_t>(id) < tasks_.size(),
                    "task id out of range");
    return tasks_[id];
}

} // namespace fsmoe::sim
