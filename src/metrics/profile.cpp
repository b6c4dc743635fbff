#include "metrics/profile.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>

#include "obs/estimate.hpp"
#include "util/table.hpp"

namespace hpu::metrics {

namespace {

using trace::Span;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;

/// Nearest kPhase ancestor of `s` (kNoSpan when the span hangs directly
/// off its run root).
SpanId phase_ancestor(const TraceSession& session, const Span& s) {
    for (SpanId p = s.parent; p != trace::kNoSpan; p = session.span(p).parent) {
        const Span& anc = session.span(p);
        if (anc.kind == SpanKind::kPhase) return p;
        if (anc.kind == SpanKind::kRun) return trace::kNoSpan;
    }
    return trace::kNoSpan;
}

}  // namespace

ProfileReport derive_profile(const TraceSession& session,
                             const util::PoolTelemetry* pool) {
    ProfileReport r;

    // Bucket wall-annotated non-root spans by (run root, phase label), in
    // first-seen order so the report reads in execution order.
    std::map<SpanId, std::size_t> exec_of;       // run root -> executors index
    std::map<std::pair<SpanId, std::string>, std::size_t> bucket_of;
    std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();

    for (const Span& s : session.spans()) {
        if (s.wall_ns == 0) continue;
        // Phase spans group their children; counting both would double the
        // bucket (executors only annotate leaves-of-attribution, but stay
        // robust to future annotators).
        if (s.kind == SpanKind::kPhase) continue;
        epoch = std::min(epoch, s.wall_start_ns);
        const SpanId root = trace::run_root(session, s.id);
        auto [eit, fresh] = exec_of.try_emplace(root, r.executors.size());
        if (fresh) {
            const Span& rs = session.span(root);
            ExecutorProfile ep;
            ep.label = rs.label;
            ep.virtual_ticks = rs.duration();
            r.executors.push_back(std::move(ep));
        }
        ExecutorProfile& ep = r.executors[eit->second];
        if (s.id == root) {
            ep.wall_ns = s.wall_ns;
            continue;
        }
        const SpanId phase = phase_ancestor(session, s);
        const std::string label =
            phase == trace::kNoSpan ? "(direct)" : session.span(phase).label;
        auto [bit, new_bucket] =
            bucket_of.try_emplace({root, label}, ep.phases.size());
        if (new_bucket) {
            PhaseProfile pp;
            pp.label = label;
            ep.phases.push_back(std::move(pp));
        }
        PhaseProfile& pp = ep.phases[bit->second];
        pp.spans += 1;
        pp.virtual_ticks += s.duration();
        pp.wall_ns += s.wall_ns;
        ep.attributed_wall_ns += s.wall_ns;
    }

    if (epoch != std::numeric_limits<std::uint64_t>::max()) r.wall_epoch_ns = epoch;
    for (ExecutorProfile& ep : r.executors) {
        for (PhaseProfile& pp : ep.phases) {
            pp.ns_per_tick =
                obs::drift_ratio(static_cast<double>(pp.wall_ns), pp.virtual_ticks);
        }
        r.total_wall_ns += ep.wall_ns;
        r.total_virtual += ep.virtual_ticks;
    }

    if (pool != nullptr) {
        PoolProfile& pp = r.pool;
        pp.present = true;
        pp.workers = pool->workers;
        pp.window_ns = pool->window_ns;
        pp.busy_ns = pool->worker_busy_ns();
        pp.idle_ns = pool->worker_idle_ns();
        pp.batches = pool->batches;
        for (const auto& w : pool->per_worker) pp.chunks += w.chunks;
        const double denom = static_cast<double>(pp.workers) *
                             static_cast<double>(pp.window_ns);
        if (pp.workers > 0 && pp.window_ns > 0 && pp.busy_ns > 0) {
            pp.host_efficiency =
                std::min(1.0, static_cast<double>(pp.busy_ns) / denom);
        }
        pp.overhead_share = std::max(0.0, 1.0 - pool->accounted_share());
        pp.submit_p50_ns = pool->submit_latency_ns.p50();
        pp.submit_p90_ns = pool->submit_latency_ns.p90();
        pp.submit_p99_ns = pool->submit_latency_ns.p99();
    }
    return r;
}

void ProfileReport::print(std::ostream& os) const {
    if (executors.empty()) {
        os << "profile: no wall-annotated spans (run with ExecOptions::profile)\n";
        return;
    }
    for (const ExecutorProfile& ep : executors) {
        os << ep.label << ": virtual " << ep.virtual_ticks << " ticks, wall "
           << ep.wall_ns << " ns (" << ep.attributed_wall_ns << " ns attributed)\n";
        util::Table t({"phase", "spans", "virtual", "wall_ns", "ns/tick"});
        for (const PhaseProfile& pp : ep.phases) {
            t.add_row({pp.label, static_cast<std::int64_t>(pp.spans), pp.virtual_ticks,
                       static_cast<std::int64_t>(pp.wall_ns), pp.ns_per_tick});
        }
        t.print(os);
    }
    if (pool.present) {
        os << "pool: " << pool.workers << " workers, " << pool.batches << " batches, "
           << pool.chunks << " chunks | busy " << pool.busy_ns << " ns, idle "
           << pool.idle_ns << " ns over " << pool.window_ns
           << " ns window | host efficiency " << pool.host_efficiency
           << ", overhead share " << pool.overhead_share
           << " | submit latency p50/p90/p99 " << pool.submit_p50_ns << "/"
           << pool.submit_p90_ns << "/" << pool.submit_p99_ns << " ns\n";
    }
}

void export_profile_json(const ProfileReport& report, std::ostream& os) {
    const auto prec = os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"executors\":[";
    bool first_e = true;
    for (const ExecutorProfile& ep : report.executors) {
        if (!first_e) os << ",";
        first_e = false;
        os << "{\"label\":\"" << ep.label << "\",\"virtual_ticks\":" << ep.virtual_ticks
           << ",\"wall_ns\":" << ep.wall_ns
           << ",\"attributed_wall_ns\":" << ep.attributed_wall_ns << ",\"phases\":[";
        bool first_p = true;
        for (const PhaseProfile& pp : ep.phases) {
            if (!first_p) os << ",";
            first_p = false;
            os << "{\"label\":\"" << pp.label << "\",\"spans\":" << pp.spans
               << ",\"virtual_ticks\":" << pp.virtual_ticks
               << ",\"wall_ns\":" << pp.wall_ns << ",\"ns_per_tick\":" << pp.ns_per_tick
               << "}";
        }
        os << "]}";
    }
    os << "],\"pool\":";
    if (report.pool.present) {
        const PoolProfile& pp = report.pool;
        os << "{\"workers\":" << pp.workers << ",\"window_ns\":" << pp.window_ns
           << ",\"busy_ns\":" << pp.busy_ns << ",\"idle_ns\":" << pp.idle_ns
           << ",\"batches\":" << pp.batches << ",\"chunks\":" << pp.chunks
           << ",\"host_efficiency\":" << pp.host_efficiency
           << ",\"overhead_share\":" << pp.overhead_share
           << ",\"submit_p50_ns\":" << pp.submit_p50_ns
           << ",\"submit_p90_ns\":" << pp.submit_p90_ns
           << ",\"submit_p99_ns\":" << pp.submit_p99_ns << "}";
    } else {
        os << "null";
    }
    os << ",\"total_wall_ns\":" << report.total_wall_ns
       << ",\"total_virtual_ticks\":" << report.total_virtual << "}\n";
    os.precision(prec);
}

bool write_profile_json_file(const ProfileReport& report, const std::string& path) {
    std::ofstream f(path);
    if (!f) return false;
    export_profile_json(report, f);
    return static_cast<bool>(f);
}

}  // namespace hpu::metrics
