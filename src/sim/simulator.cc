#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

#include "base/audit.h"
#include "base/stats.h"
#include "sim/trace.h"

namespace fsmoe::sim {

namespace {

/**
 * Registry handles, resolved once. The hot loop counts into plain
 * locals and flushes here once per run() — the simulator's inner loop
 * never touches an atomic.
 */
struct SimStats
{
    stats::Counter &runs = stats::counter("sim.runs");
    stats::Counter &tasks = stats::counter("sim.tasks.executed");
    stats::Counter &events = stats::counter("sim.events.processed");
    stats::Counter &heapPushes = stats::counter("sim.heap.pushes");
    stats::Counter &heapPops = stats::counter("sim.heap.pops");
    std::array<stats::Gauge *, static_cast<size_t>(Link::NumLinks)>
        linkBusy{};

    SimStats()
    {
        for (size_t li = 0; li < linkBusy.size(); ++li)
            linkBusy[li] = &stats::gauge(
                std::string("sim.link.") +
                linkName(static_cast<Link>(li)) + ".busyMs");
    }

    static SimStats &instance()
    {
        static SimStats s;
        return s;
    }
};

} // namespace

/*
 * The inner loop maintains per-link binary heaps of *issuable*
 * candidates — stream heads whose dependencies have all finished —
 * ordered by the arbitration key (priority, readyTime, issue id).
 * When a task finishes, only its dependents are examined; when a task
 * starts, only the new head of its stream is. That replaces the naive
 * O(links x streams) rescan per event with O(log n) heap maintenance
 * while reproducing the naive scan's choices bit-exactly (the fuzz
 * test in tests/sim_fuzz_test.cc checks this against the retained
 * reference implementation in tests/sim_reference.h).
 *
 * Why every heap entry is eligible *now*: a task's readyTime is the
 * max finish time over its dependencies, which is fixed by the time
 * the last dependency completes — an event at or before the current
 * clock. A task enters a heap only once it is the head of its stream
 * with zero pending dependencies, so readyTime <= now holds at
 * insertion and forever after (the clock never rewinds). The naive
 * scan's `readyTime > now` filter is therefore vacuous, and the heap
 * minimum *is* the task the scan would have picked.
 */

SimResult
Simulator::run(const TaskGraph &graph) const
{
    // Debug-mode audit: full CSR/acyclicity validation of the input
    // graph (compiled out of Release; see base/audit.h).
    FSMOE_AUDIT(auditTaskGraph(graph));

    const auto &tasks = graph.tasks();
    const size_t n = tasks.size();
    SimResult result;
    result.trace.resize(n);
    SimStats &sim_stats = SimStats::instance();
    sim_stats.runs.inc();
    if (n == 0)
        return result;

    // Local telemetry, flushed to the registry once after the loop.
    uint64_t heap_pushes = 0;
    uint64_t heap_pops = 0;
    uint64_t events_processed = 0;
#if FSMOE_AUDIT_ENABLED
    uint64_t audit_pop_checks = 0;
    const bool audit_on = audit::enabled();
#endif

    // Mutable per-task state, flat (one allocation each, not per task).
    std::vector<int32_t> pending(n);
    std::vector<double> ready(n, 0.0);
    std::vector<uint8_t> finished(n, 0);

    // Reverse CSR: dependents of each task, built by counting sort
    // over the graph's flat dependency pool.
    std::vector<uint32_t> rev_off(n + 1, 0);
    for (const Task &t : tasks) {
        pending[t.id] = static_cast<int32_t>(t.depCount);
        for (TaskId d : graph.deps(t.id))
            rev_off[static_cast<size_t>(d) + 1]++;
    }
    for (size_t i = 0; i < n; ++i)
        rev_off[i + 1] += rev_off[i];
    std::vector<TaskId> rev(graph.numDeps());
    {
        std::vector<uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
        for (const Task &t : tasks)
            for (TaskId d : graph.deps(t.id))
                rev[cursor[d]++] = t.id;
    }

    // Stream CSR: per-stream FIFO issue queues in addTask order;
    // head[s] is an absolute cursor into str_tasks.
    const int num_streams = graph.numStreams();
    std::vector<uint32_t> str_off(num_streams + 1, 0);
    for (const Task &t : tasks)
        str_off[t.stream + 1]++;
    for (int s = 0; s < num_streams; ++s)
        str_off[s + 1] += str_off[s];
    std::vector<TaskId> str_tasks(n);
    std::vector<uint32_t> head(str_off.begin(), str_off.end() - 1);
    for (const Task &t : tasks)
        str_tasks[head[t.stream]++] = t.id;
    std::copy(str_off.begin(), str_off.end() - 1, head.begin());

    // Per-link candidate heaps. Entries carry their full arbitration
    // key so comparisons never chase back into the task array, and
    // std::push_heap keeps the *largest* element at the front, so the
    // comparator inverts the key: smallest (priority, readyTime, id)
    // wins the link.
    struct Cand
    {
        double ready;
        int32_t priority;
        TaskId id;
    };
    auto heap_after = [](const Cand &a, const Cand &b) {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        if (a.ready != b.ready)
            return a.ready > b.ready;
        return a.id > b.id;
    };
    std::array<std::vector<Cand>, static_cast<size_t>(Link::NumLinks)>
        cands;
    auto push_cand = [&](TaskId id) {
        const Task &t = tasks[id];
        auto &h = cands[static_cast<size_t>(t.link)];
        h.push_back({ready[id], t.priority, id});
        std::push_heap(h.begin(), h.end(), heap_after);
        ++heap_pushes;
    };

    // A task is issuable iff it is its stream's current head and has
    // no pending dependencies; it enters its link's heap exactly once,
    // at whichever of the two conditions becomes true last.
    auto push_if_issuable_head = [&](int s) {
        if (head[s] < str_off[s + 1]) {
            TaskId id = str_tasks[head[s]];
            if (pending[id] == 0)
                push_cand(id);
        }
    };
    for (int s = 0; s < num_streams; ++s)
        push_if_issuable_head(s);

    std::array<double, static_cast<size_t>(Link::NumLinks)> link_free{};
    link_free.fill(0.0);

    // Completion events ordered by (time, issue id).
    using Event = std::pair<double, TaskId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

    size_t finished_count = 0;
    double now = 0.0;

    auto start_best = [&](size_t li) {
        auto &h = cands[li];
        if (h.empty())
            return false;
        std::pop_heap(h.begin(), h.end(), heap_after);
        TaskId id = h.back().id;
        h.pop_back();
        ++heap_pops;
        const Task &t = tasks[id];
#if FSMOE_AUDIT_ENABLED
        // Ready-heap invariants: whatever wins a link must be an
        // unfinished stream head with no pending deps, eligible *now*,
        // on a link that is actually free (the header comment's "every
        // heap entry is eligible now" argument, checked live).
        if (audit_on) {
            if (finished[id])
                FSMOE_PANIC("heap audit: popped finished task ", id);
            if (pending[id] != 0)
                FSMOE_PANIC("heap audit: popped task ", id, " with ",
                            pending[id], " pending dependencies");
            if (static_cast<size_t>(t.link) != li)
                FSMOE_PANIC("heap audit: task ", id, " on link ",
                            linkName(t.link),
                            " surfaced in another link's heap");
            if (head[t.stream] >= str_off[t.stream + 1] ||
                str_tasks[head[t.stream]] != id)
                FSMOE_PANIC("heap audit: popped task ", id,
                            " is not the head of stream ", t.stream);
            if (ready[id] > now)
                FSMOE_PANIC("heap audit: popped task ", id,
                            " ready at ", ready[id],
                            " which is after now=", now);
            if (link_free[li] > now)
                FSMOE_PANIC("heap audit: link ", linkName(t.link),
                            " busy until ", link_free[li],
                            " issued a task at now=", now);
            ++audit_pop_checks;
        }
#endif
        double finish = now + t.duration;
        result.trace[id] = {id, now, finish};
        link_free[li] = finish;
        events.emplace(finish, id);
        head[t.stream]++;
        push_if_issuable_head(t.stream);
        return true;
    };

    auto try_start = [&]() {
        // Keep starting tasks until no link can accept one at `now`.
        // Pass structure (links in index order, at most one start per
        // link per pass) matches the reference scan, so the start
        // sequence — and with it every timestamp — is identical.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t li = 0; li < link_free.size(); ++li) {
                if (link_free[li] > now)
                    continue;
                if (start_best(li))
                    progressed = true;
            }
        }
    };

    try_start();
    while (finished_count < n) {
        FSMOE_ASSERT(!events.empty(),
                     "simulator deadlock: no runnable task; check for "
                     "dependency cycles or stream-order inversions");
        auto [t_now, id] = events.top();
        events.pop();
        ++events_processed;
        now = t_now;
        if (finished[id])
            continue;
        finished[id] = 1;
        finished_count++;
        result.opTime[static_cast<size_t>(tasks[id].op)] +=
            tasks[id].duration;
        result.linkBusyMs[static_cast<size_t>(tasks[id].link)] +=
            tasks[id].duration;
        result.makespan = std::max(result.makespan, t_now);
        for (uint32_t e = rev_off[id]; e < rev_off[id + 1]; ++e) {
            TaskId dep = rev[e];
            ready[dep] = std::max(ready[dep], t_now);
            if (--pending[dep] == 0) {
                int s = tasks[dep].stream;
                if (head[s] < str_off[s + 1] && str_tasks[head[s]] == dep)
                    push_cand(dep);
            }
        }
        try_start();
    }

#if FSMOE_AUDIT_ENABLED
    if (audit_pop_checks > 0) {
        static stats::Counter &pop_checks =
            stats::counter("audit.heap.popChecks");
        pop_checks.inc(audit_pop_checks);
    }
#endif
    sim_stats.tasks.inc(n);
    sim_stats.events.inc(events_processed);
    sim_stats.heapPushes.inc(heap_pushes);
    sim_stats.heapPops.inc(heap_pops);
    for (size_t li = 0; li < result.linkBusyMs.size(); ++li)
        sim_stats.linkBusy[li]->add(result.linkBusyMs[li]);
    return result;
}

/*
 * Why each term is a lower bound, against the run() loop above:
 *
 * Chain term. run() starts a task at a clock `now` that is >= every
 * dependency's finish (it is issuable only once they have all
 * completed) and >= its stream predecessor's start (FIFO: it becomes
 * the head when the predecessor starts). When the predecessor is on
 * the same link, `now` is also >= the predecessor's finish, because
 * the link stays busy until then. It sets finish = now + duration. By
 * induction in id order (dependencies and stream predecessors have
 * smaller ids), now >= est and so finish >= fl(est + duration) = eft:
 * IEEE addition is monotone in each operand. No margin is needed.
 *
 * Link term. On one link, each task starts no earlier than the
 * previous task's finish there, so by the same monotonicity the last
 * finish is >= the link's durations summed left to right in
 * *execution* order, from 0. This pass sums them in *id* order. For k
 * non-negative terms with exact sum S, any recursive summation order
 * lands within gamma = (k - 1) u / (1 - (k - 1) u) of S, relatively,
 * where u = 2^-53: execution order >= (1 - gamma) S and id order
 * <= (1 + gamma) S, so makespan >= idsum (1 - gamma) / (1 + gamma)
 * >= idsum (1 - 2 gamma). With k <= n and n u tiny, 2 gamma < 2 n u,
 * and forming idsum * (1 - margin) rounds twice more (at most u each,
 * relative), so margin = 4 (n + 1) u covers everything with room to
 * spare. At the largest graphs swept (~122k tasks) that is ~5e-11 of
 * the link sum.
 */
double
makespanLowerBound(const TaskGraph &graph)
{
    const auto &tasks = graph.tasks();
    const size_t n = tasks.size();

    // Per stream: the latest task's earliest start and finish, and its
    // link (whether the next task on the stream also waits for the
    // finish, or only the start).
    struct StreamTail
    {
        double est = 0.0;
        double eft = 0.0;
        Link link = Link::Compute;
    };
    std::vector<StreamTail> tails(static_cast<size_t>(graph.numStreams()));
    // One array per thread, kept across calls: a degree search bounds
    // up to rMax - 1 graphs in a row, and a fresh array per call raised
    // the demo tune query's peak RSS by ~0.4 MB. Dependencies point to
    // smaller ids, so each slot is written before any task reads it.
    thread_local std::vector<double> eft;
    if (eft.size() < n)
        eft.resize(n);
    LinkTimes link_sum{};
    const TaskId *pool = graph.depPool().data();

    double chain = 0.0;
    for (const Task &t : tasks) {
        StreamTail &tail = tails[static_cast<size_t>(t.stream)];
        double est = tail.link == t.link ? tail.eft : tail.est;
        const TaskId *dep = pool + t.depBegin;
        for (const TaskId *end = dep + t.depCount; dep != end; ++dep)
            est = std::max(est, eft[static_cast<size_t>(*dep)]);
        const double finish = est + t.duration;
        eft[static_cast<size_t>(t.id)] = finish;
        tail = {est, finish, t.link};
        link_sum[static_cast<size_t>(t.link)] += t.duration;
        chain = std::max(chain, finish);
    }

    const double margin = std::ldexp(4.0 * static_cast<double>(n + 1), -53);
    const double busiest = *std::max_element(link_sum.begin(), link_sum.end());
    return std::max(chain, busiest * (1.0 - margin));
}

LinkTimes
linkSums(const TaskGraph &graph)
{
    LinkTimes sums{};
    for (const Task &t : graph.tasks())
        sums[static_cast<size_t>(t.link)] += t.duration;
    return sums;
}

std::string
Simulator::gantt(const TaskGraph &graph, const SimResult &result, int columns)
{
    FSMOE_CHECK_ARG(columns >= 10, "gantt needs at least 10 columns");
    std::ostringstream oss;
    double span = std::max(result.makespan, 1e-9);
    for (int s = 0; s < graph.numStreams(); ++s) {
        std::string row(columns, '.');
        for (const Task &t : graph.tasks()) {
            if (t.stream != s || t.duration <= 0.0)
                continue;
            const TaskTrace &tr = result.trace[t.id];
            // Truncate both ends consistently, clamp into the axis,
            // and force c1 >= c0 so every executed task renders at
            // least one cell (a task starting at the makespan lands
            // in the last column instead of vanishing).
            int c0 = static_cast<int>(tr.start / span * (columns - 1));
            int c1 = static_cast<int>(tr.finish / span * (columns - 1));
            c0 = std::clamp(c0, 0, columns - 1);
            c1 = std::clamp(c1, c0, columns - 1);
            for (int c = c0; c <= c1; ++c)
                row[c] = t.label.glyph();
        }
        oss << "stream " << s << " |" << row << "|\n";
    }
    oss << "makespan " << result.makespan << " ms\n";
    return oss.str();
}

} // namespace fsmoe::sim
