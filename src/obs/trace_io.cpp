#include "obs/trace_io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace hpu::obs {
namespace {

using trace::Span;
using trace::SpanAttrs;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;
using trace::Unit;

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (exactly the subset our
// exporter emits).

struct Json {
    enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    const Json* find(const std::string& key) const {
        for (const auto& [k, v] : obj) {
            if (k == key) return &v;
        }
        return nullptr;
    }
    double num_or(const std::string& key, double def) const {
        const Json* v = find(key);
        return v != nullptr && v->type == Type::kNumber ? v->number : def;
    }
    std::string str_or(const std::string& key, const std::string& def) const {
        const Json* v = find(key);
        return v != nullptr && v->type == Type::kString ? v->str : def;
    }
};

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    bool parse(Json& out) {
        skip_ws();
        if (!value(out)) return false;
        skip_ws();
        if (p_ != s_.size()) return fail("trailing characters after JSON value");
        return true;
    }

    const std::string& error() const noexcept { return err_; }

private:
    bool fail(const char* msg) {
        if (err_.empty()) {
            std::ostringstream os;
            os << msg << " (offset " << p_ << ")";
            err_ = os.str();
        }
        return false;
    }

    void skip_ws() {
        while (p_ < s_.size() && (s_[p_] == ' ' || s_[p_] == '\t' || s_[p_] == '\n' ||
                                  s_[p_] == '\r')) {
            ++p_;
        }
    }

    bool literal(const char* word, std::size_t len) {
        if (s_.compare(p_, len, word) != 0) return fail("bad literal");
        p_ += len;
        return true;
    }

    bool value(Json& out) {
        if (p_ >= s_.size()) return fail("unexpected end of input");
        switch (s_[p_]) {
            case '{': return object(out);
            case '[': return array(out);
            case '"':
                out.type = Json::Type::kString;
                return string(out.str);
            case 't':
                out.type = Json::Type::kBool;
                out.boolean = true;
                return literal("true", 4);
            case 'f':
                out.type = Json::Type::kBool;
                out.boolean = false;
                return literal("false", 5);
            case 'n':
                out.type = Json::Type::kNull;
                return literal("null", 4);
            default: return number(out);
        }
    }

    bool object(Json& out) {
        out.type = Json::Type::kObject;
        ++p_;  // '{'
        skip_ws();
        if (p_ < s_.size() && s_[p_] == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (p_ >= s_.size() || s_[p_] != '"' || !string(key)) {
                return fail("expected object key");
            }
            skip_ws();
            if (p_ >= s_.size() || s_[p_] != ':') return fail("expected ':'");
            ++p_;
            skip_ws();
            Json v;
            if (!value(v)) return false;
            out.obj.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (p_ >= s_.size()) return fail("unterminated object");
            if (s_[p_] == ',') {
                ++p_;
                continue;
            }
            if (s_[p_] == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool array(Json& out) {
        out.type = Json::Type::kArray;
        ++p_;  // '['
        skip_ws();
        if (p_ < s_.size() && s_[p_] == ']') {
            ++p_;
            return true;
        }
        while (true) {
            skip_ws();
            Json v;
            if (!value(v)) return false;
            out.arr.push_back(std::move(v));
            skip_ws();
            if (p_ >= s_.size()) return fail("unterminated array");
            if (s_[p_] == ',') {
                ++p_;
                continue;
            }
            if (s_[p_] == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool string(std::string& out) {
        ++p_;  // '"'
        while (p_ < s_.size()) {
            const char c = s_[p_];
            if (c == '"') {
                ++p_;
                return true;
            }
            if (c == '\\') {
                if (p_ + 1 >= s_.size()) return fail("bad escape");
                const char e = s_[p_ + 1];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'u': {
                        if (p_ + 5 >= s_.size()) return fail("bad \\u escape");
                        const unsigned long cp =
                            std::strtoul(s_.substr(p_ + 2, 4).c_str(), nullptr, 16);
                        // Labels are ASCII; the exporter only escapes
                        // control characters.
                        out += static_cast<char>(cp & 0x7f);
                        p_ += 4;
                        break;
                    }
                    default: return fail("unsupported escape");
                }
                p_ += 2;
                continue;
            }
            out += c;
            ++p_;
        }
        return fail("unterminated string");
    }

    bool number(Json& out) {
        const char* begin = s_.c_str() + p_;
        char* end = nullptr;
        out.type = Json::Type::kNumber;
        out.number = std::strtod(begin, &end);
        if (end == begin) return fail("expected a number");
        p_ += static_cast<std::size_t>(end - begin);
        return true;
    }

    const std::string& s_;
    std::size_t p_ = 0;
    std::string err_;
};

// ---------------------------------------------------------------------------
// Chrome trace-event interpretation.

bool kind_of(const std::string& cat, SpanKind& out) {
    if (cat == "run") out = SpanKind::kRun;
    else if (cat == "phase") out = SpanKind::kPhase;
    else if (cat == "level") out = SpanKind::kLevel;
    else if (cat == "leaves") out = SpanKind::kLeaves;
    else if (cat == "wave") out = SpanKind::kWave;
    else if (cat == "transfer") out = SpanKind::kTransfer;
    else if (cat == "hook") out = SpanKind::kHook;
    else return false;
    return true;
}

bool unit_of(const std::string& name, Unit& out) {
    if (name == "host") out = Unit::kHost;
    else if (name == "cpu") out = Unit::kCpu;
    else if (name == "gpu") out = Unit::kGpu;
    else if (name == "link") out = Unit::kLink;
    else return false;
    return true;
}

/// args[key] when it is a count (a non-negative integer below 2^64), else
/// `def`; a number that is not a count also names `key` in `bad`.
std::uint64_t u64_or(const Json& args, const std::string& key, std::uint64_t def,
                     std::string& bad) {
    const Json* v = args.find(key);
    if (v == nullptr || v->type != Json::Type::kNumber) return def;
    const double x = v->number;
    if (!(x >= 0.0 && x < 0x1p64 && x == std::floor(x))) {
        if (bad.empty()) bad = key;
        return def;
    }
    return static_cast<std::uint64_t>(x);
}

}  // namespace

LoadedTrace parse_chrome_trace(std::istream& is) {
    LoadedTrace out;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    Json root;
    Parser parser(text);
    if (!parser.parse(root)) {
        out.error = "JSON parse error: " + parser.error();
        return out;
    }
    const Json* events = root.find("traceEvents");
    if (events == nullptr || events->type != Json::Type::kArray) {
        out.error = "not a Chrome trace: missing traceEvents array";
        return out;
    }

    std::map<int, Unit> unit_of_tid;
    struct Rec {
        Span span;
        bool seen = false;
    };
    std::vector<Rec> recs;

    for (const Json& ev : events->arr) {
        if (ev.type != Json::Type::kObject) continue;
        const std::string ph = ev.str_or("ph", "");
        if (ph == "M") {
            const Json* args = ev.find("args");
            Unit u = Unit::kHost;
            if (args != nullptr && unit_of(args->str_or("name", ""), u)) {
                unit_of_tid[static_cast<int>(ev.num_or("tid", 0))] = u;
            }
            continue;
        }
        if (ph != "X") continue;
        const Json* args = ev.find("args");
        if (args == nullptr || args->type != Json::Type::kObject) {
            out.error = "X event without args";
            return out;
        }
        std::string bad;  // first args key holding a number that is not a count
        Span s;
        s.id = static_cast<SpanId>(u64_or(*args, "span_id", 0, bad));
        s.parent = static_cast<SpanId>(u64_or(*args, "parent", 0, bad));
        if (s.id == trace::kNoSpan) {
            out.error = "X event without span_id";
            return out;
        }
        if (!kind_of(ev.str_or("cat", ""), s.kind)) {
            out.error = "unknown span kind: " + ev.str_or("cat", "");
            return out;
        }
        const auto tid = static_cast<int>(ev.num_or("tid", 0));
        const auto uit = unit_of_tid.find(tid);
        if (uit == unit_of_tid.end()) {
            out.error = "X event on a tid with no thread_name metadata";
            return out;
        }
        s.unit = uit->second;
        s.label = ev.str_or("name", "");
        s.start = ev.num_or("ts", 0.0);
        s.end = s.start + ev.num_or("dur", 0.0);
        SpanAttrs& a = s.attrs;
        a.level = u64_or(*args, "level", SpanAttrs::kNoLevel, bad);
        a.tasks = u64_or(*args, "tasks", 0, bad);
        a.items = u64_or(*args, "items", 0, bad);
        a.waves = u64_or(*args, "waves", 0, bad);
        a.ops = args->num_or("ops", 0.0);
        a.max_ops = args->num_or("max_ops", 0.0);
        a.work = args->num_or("work", 0.0);
        a.bytes = u64_or(*args, "bytes", 0, bad);
        a.coalesced_transactions = u64_or(*args, "coalesced_transactions", 0, bad);
        a.strided_transactions = u64_or(*args, "strided_transactions", 0, bad);
        a.extent_words = u64_or(*args, "extent_words", 0, bad);
        a.imbalance = args->num_or("imbalance", 0.0);
        a.cores = u64_or(*args, "cores", 0, bad);
        // Wall stamps in the export are rebased to the session epoch; keep
        // the rebased values (only differences are meaningful anyway).
        s.wall_ns = u64_or(*args, "wall_ns", 0, bad);
        s.wall_start_ns = s.wall_ns != 0 ? u64_or(*args, "wall_start_ns", 0, bad) : 0;
        if (!bad.empty()) {
            out.error = "args." + bad + " is not a non-negative integer";
            return out;
        }

        if (recs.size() < s.id) recs.resize(s.id);
        if (recs[s.id - 1].seen) {
            out.error = "duplicate span_id in trace";
            return out;
        }
        recs[s.id - 1].span = std::move(s);
        recs[s.id - 1].seen = true;
    }

    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (!recs[i].seen) {
            out.error = "span ids are not contiguous (missing id " +
                        std::to_string(i + 1) + ")";
            return out;
        }
        const Span& s = recs[i].span;
        if (s.parent >= s.id) {
            out.error = "span " + std::to_string(s.id) + " has parent >= id";
            return out;
        }
        const SpanId id = out.session.record(s.kind, s.unit, s.label, s.start, s.duration(),
                                             s.attrs, s.parent);
        if (s.wall_ns != 0) out.session.annotate_wall(id, s.wall_start_ns, s.wall_ns);
    }
    return out;
}

LoadedTrace load_chrome_trace(const std::string& path) {
    std::ifstream f(path);
    if (!f) {
        LoadedTrace out;
        out.error = "cannot open " + path;
        return out;
    }
    return parse_chrome_trace(f);
}

trace::TraceSession copy_subtree(const TraceSession& session, SpanId root) {
    TraceSession out;
    std::vector<SpanId> remap(session.spans().size() + 1, trace::kNoSpan);
    for (const Span& s : session.spans()) {
        const bool in_scope = root == trace::kNoSpan
                                  ? true
                                  : s.id == root || (s.parent != trace::kNoSpan &&
                                                     remap[s.parent] != trace::kNoSpan);
        if (!in_scope) continue;
        const SpanId parent =
            s.id == root ? trace::kNoSpan
                         : (s.parent == trace::kNoSpan ? trace::kNoSpan : remap[s.parent]);
        const SpanId id =
            out.record(s.kind, s.unit, s.label, s.start, s.duration(), s.attrs, parent);
        if (s.wall_ns != 0) out.annotate_wall(id, s.wall_start_ns, s.wall_ns);
        remap[s.id] = id;
    }
    return out;
}

}  // namespace hpu::obs
