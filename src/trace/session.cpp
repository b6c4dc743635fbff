#include "trace/span.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hpu::trace {

const char* to_string(SpanKind k) noexcept {
    switch (k) {
        case SpanKind::kRun: return "run";
        case SpanKind::kPhase: return "phase";
        case SpanKind::kLevel: return "level";
        case SpanKind::kLeaves: return "leaves";
        case SpanKind::kWave: return "wave";
        case SpanKind::kTransfer: return "transfer";
        case SpanKind::kHook: return "hook";
    }
    return "?";
}

const char* to_string(Unit u) noexcept {
    switch (u) {
        case Unit::kHost: return "host";
        case Unit::kCpu: return "cpu";
        case Unit::kGpu: return "gpu";
        case Unit::kLink: return "link";
    }
    return "?";
}

SpanId TraceSession::record(SpanKind kind, Unit unit, std::string label, sim::Ticks start,
                            sim::Ticks duration, SpanAttrs attrs, SpanId parent) {
    HPU_CHECK(parent <= spans_.size(), "span parent does not exist");
    Span s;
    s.id = static_cast<SpanId>(spans_.size() + 1);
    s.parent = parent;
    s.kind = kind;
    s.unit = unit;
    s.label = std::move(label);
    s.start = start;
    s.end = start + duration;
    s.attrs = attrs;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void TraceSession::close(SpanId id, sim::Ticks end) {
    HPU_CHECK(id != kNoSpan && id <= spans_.size(), "closing a span that does not exist");
    spans_[id - 1].end = end;
}

void TraceSession::annotate(SpanId id, const SpanAttrs& attrs) {
    HPU_CHECK(id != kNoSpan && id <= spans_.size(), "annotating a span that does not exist");
    SpanAttrs& a = spans_[id - 1].attrs;
    if (attrs.level != SpanAttrs::kNoLevel) a.level = attrs.level;
    if (attrs.tasks != 0) a.tasks = attrs.tasks;
    if (attrs.items != 0) a.items = attrs.items;
    if (attrs.waves != 0) a.waves = attrs.waves;
    if (attrs.ops != 0.0) a.ops = attrs.ops;
    if (attrs.max_ops != 0.0) a.max_ops = attrs.max_ops;
    if (attrs.work != 0.0) a.work = attrs.work;
    if (attrs.bytes != 0) a.bytes = attrs.bytes;
    if (attrs.coalesced_transactions != 0) {
        a.coalesced_transactions = attrs.coalesced_transactions;
    }
    if (attrs.strided_transactions != 0) a.strided_transactions = attrs.strided_transactions;
    if (attrs.extent_words != 0) a.extent_words = attrs.extent_words;
    if (attrs.imbalance != 0.0) a.imbalance = attrs.imbalance;
    if (attrs.cores != 0) a.cores = attrs.cores;
}

void TraceSession::annotate_wall(SpanId id, std::uint64_t wall_start_ns,
                                 std::uint64_t wall_ns) {
    HPU_CHECK(id != kNoSpan && id <= spans_.size(), "annotating a span that does not exist");
    spans_[id - 1].wall_start_ns = wall_start_ns;
    spans_[id - 1].wall_ns = wall_ns;
}

std::size_t TraceSession::count(SpanKind kind) const noexcept {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [kind](const Span& s) { return s.kind == kind; }));
}

sim::Ticks TraceSession::total(SpanKind kind) const noexcept {
    sim::Ticks t = 0.0;
    for (const Span& s : spans_) {
        if (s.kind == kind) t += s.duration();
    }
    return t;
}

sim::Ticks TraceSession::span_end() const noexcept {
    sim::Ticks t = 0.0;
    for (const Span& s : spans_) t = std::max(t, s.end);
    return t;
}

std::vector<SpanId> TraceSession::children(SpanId id) const {
    return id <= spans_.size() ? child_index(*this)[id] : std::vector<SpanId>{};
}

bool is_work(const Span& s) noexcept {
    switch (s.kind) {
        case SpanKind::kLevel:
        case SpanKind::kLeaves:
        case SpanKind::kTransfer:
        case SpanKind::kHook:
            return true;
        case SpanKind::kRun:
        case SpanKind::kPhase:
        case SpanKind::kWave:
            return false;
    }
    return false;
}

std::vector<std::vector<SpanId>> child_index(const TraceSession& session) {
    std::vector<std::vector<SpanId>> ch(session.spans().size() + 1);
    for (const Span& s : session.spans()) ch[s.parent].push_back(s.id);
    return ch;
}

SpanId run_root(const TraceSession& session, SpanId id) {
    if (id > session.spans().size()) return kNoSpan;
    if (id == kNoSpan) {
        for (const Span& s : session.spans()) {
            if (s.parent == kNoSpan) return s.id;
        }
        return kNoSpan;
    }
    while (session.span(id).parent != kNoSpan) id = session.span(id).parent;
    return id;
}

sim::HpuParams run_machine(const Span& root, const sim::HpuParams& hw) {
    sim::HpuParams out = hw;
    if (root.attrs.cores != 0) out.cpu.p = static_cast<std::size_t>(root.attrs.cores);
    return out;
}

}  // namespace hpu::trace
