// bottleneck: critical-path + what-if CLI (DESIGN.md §16).
//
//   bottleneck <trace.json> [--platform=hpu1] [--whatif=gamma,lambda,...]
//              [--factors=0.25,0.5,1,2,4] [--markdown] [--top=5]
//              [--chrome-out=annotated.json] [--check]
//
// Loads a committed Chrome trace (obs/trace_io re-import, e.g. the files
// under bench/traces/), extracts each run's critical path, and answers the
// causal question: which platform parameter (g, gamma, lambda, delta,
// workers) would actually move the makespan, and by how much. --whatif
// narrows the sweep to the named parameters; --trace=<file> is accepted in
// place of the positional path.
//
// --chrome-out writes the trace back out with the critical path annotated
// ("crit" index args + flow arrows) so chrome://tracing highlights it.
// --check self-validates every report (non-empty chain, blame shares
// summing to 1, chain contiguous in time) and exits 1 on violation — CI
// runs it over the committed traces.
#include <charconv>
#include <cmath>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/trace_io.hpp"
#include "obs/whatif.hpp"
#include "platforms/platforms.hpp"
#include "trace/export.hpp"
#include "util/cli.hpp"

namespace {

using namespace hpu;

/// The platform named by --platform; false for an unknown name.
bool platform_by_name(const std::string& name, sim::HpuParams& out) {
    if (name == "hpu1") out = platforms::hpu1();
    else if (name == "hpu2") out = platforms::hpu2();
    else return false;
    return true;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

/// --check: the report must be non-empty, blame shares must sum to 1, and
/// the chain must be contiguous in time (each step at or after the
/// previous one). Returns false with a message on the first violation.
bool check_report(const obs::CritPathReport& rep) {
    if (!rep.attempted || rep.chain.empty()) {
        std::cerr << "CHECK: empty critical path for run '" << rep.run_label << "'\n";
        return false;
    }
    const double sum = rep.cpu_share + rep.gpu_share + rep.link_share + rep.hook_share +
                       rep.idle_share;
    if (std::abs(sum - 1.0) > 1e-6) {
        std::cerr << "CHECK: blame shares sum to " << sum << " (want 1) for run '"
                  << rep.run_label << "'\n";
        return false;
    }
    const double tol = 1e-9 * std::max(1.0, rep.makespan);
    sim::Ticks prev_end = rep.start;
    for (const obs::CritStep& s : rep.chain) {
        if (s.start < prev_end - tol) {
            std::cerr << "CHECK: chain step '" << s.label << "' overlaps its predecessor ("
                      << s.start << " < " << prev_end << ") in run '" << rep.run_label
                      << "'\n";
            return false;
        }
        prev_end = s.end;
    }
    if (prev_end > rep.start + rep.makespan + tol) {
        std::cerr << "CHECK: chain runs past the makespan in run '" << rep.run_label
                  << "'\n";
        return false;
    }
    return true;
}

void print_markdown_critpath(const obs::CritPathReport& rep) {
    std::cout << "**critical path**: `" << rep.run_label << "` — dominant **"
              << obs::to_string(rep.dominant) << "** (" << rep.dominant_share * 100.0
              << "% of makespan " << rep.makespan << " ticks, " << rep.chain.size()
              << " steps)\n\n";
    std::cout << "| resource | ticks | share |\n|---|---:|---:|\n";
    for (obs::CritResource r :
         {obs::CritResource::kCpu, obs::CritResource::kGpu, obs::CritResource::kLink,
          obs::CritResource::kHook, obs::CritResource::kIdle}) {
        std::cout << "| " << obs::to_string(r) << " | " << rep.ticks_of(r) << " | "
                  << rep.share_of(r) * 100.0 << "% |\n";
    }
    std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);

    std::string path = cli.get("trace", "");
    if (path.empty() && !cli.positional().empty()) path = cli.positional().front();
    if (path.empty()) {
        std::cerr << "usage: bottleneck <trace.json> [--platform=hpu1]\n"
                  << "                  [--whatif=g,gamma,lambda,delta,workers]\n"
                  << "                  [--factors=0.25,0.5,1,2,4] [--markdown]\n"
                  << "                  [--chrome-out=annotated.json] [--check]\n";
        return 2;
    }

    const obs::LoadedTrace loaded = obs::load_chrome_trace(path);
    if (!loaded.ok()) {
        std::cerr << path << ": " << loaded.error << "\n";
        return 2;
    }
    if (loaded.session.empty()) {
        std::cerr << path << ": trace has no spans\n";
        return 2;
    }

    sim::HpuParams hw;
    if (!platform_by_name(cli.get("platform", "hpu1"), hw)) {
        std::cerr << "unknown --platform=" << cli.get("platform", "")
                  << " (want hpu1|hpu2)\n";
        return 2;
    }
    const bool markdown = cli.get_bool("markdown", false);

    obs::WhatIfOptions wopts;
    if (cli.has("whatif")) {
        wopts.params.clear();
        for (const std::string& name : split_csv(cli.get("whatif", ""))) {
            obs::WhatIfParam p{};
            if (!obs::parse_param(name, p)) {
                std::cerr << "unknown --whatif parameter '" << name
                          << "' (want g|gamma|lambda|delta|p|workers)\n";
                return 2;
            }
            wopts.params.push_back(p);
        }
        if (wopts.params.empty()) {
            std::cerr << "--whatif needs at least one parameter\n";
            return 2;
        }
    }
    if (cli.has("factors")) {
        wopts.factors.clear();
        for (const std::string& f : split_csv(cli.get("factors", ""))) {
            double v = 0.0;
            const char* end = f.data() + f.size();
            const auto [ptr, ec] = std::from_chars(f.data(), end, v);
            if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0.0) {
                std::cerr << "--factors wants positive numbers, got '" << f << "'\n";
                return 2;
            }
            wopts.factors.push_back(v);
        }
        if (wopts.factors.empty()) {
            std::cerr << "--factors needs at least one value\n";
            return 2;
        }
    }

    trace::ChromeExtras extras;
    bool checks_ok = true;
    const std::vector<trace::SpanId> roots = loaded.session.children(trace::kNoSpan);
    for (trace::SpanId root : roots) {
        const obs::CritPathReport rep = obs::extract_critical_path(loaded.session, root);
        if (markdown) {
            print_markdown_critpath(rep);
        } else {
            rep.print(std::cout);
        }
        obs::add_to_extras(extras, rep);
        if (cli.get_bool("check", false) && !check_report(rep)) checks_ok = false;

        const obs::WhatIfReport wrep = obs::what_if(loaded.session, root, hw, wopts);
        if (markdown) {
            wrep.print_markdown(std::cout);
            std::cout << "\n";
        } else {
            wrep.print(std::cout);
            std::cout << "\n";
        }
    }

    if (cli.has("chrome-out")) {
        const std::string out = cli.get("chrome-out", "");
        if (!trace::write_chrome_file(loaded.session, out, extras)) {
            std::cerr << "cannot write " << out << "\n";
            return 2;
        }
        if (!markdown) {
            std::cout << "wrote " << out << " (critical path annotated, "
                      << extras.flows.size() << " flow arrow(s))\n";
        }
    }

    return checks_ok ? 0 : 1;
}
