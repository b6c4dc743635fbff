#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <system_error>
#include <type_traits>

#include "util/check.hpp"

namespace hpu::util {
namespace {

/// Parses all of `text` as a T; anything else (empty, trailing characters,
/// out of range, not finite) throws an HpuError naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& text, const char* what) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = !text.empty() && ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
    if (!ok) {
        throw HpuError("--" + name + "=" + text + " is not " + what +
                       " (values use --" + name + "=<value>)");
    }
    return v;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg.erase(0, 2);
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else {
            flags_[arg] = "true";  // boolean switch; values use --name=value
        }
    }
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::get(const std::string& name, const std::string& def) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    return parse_number<std::int64_t>(name, it->second, "an integer");
}

double Cli::get_double(const std::string& name, double def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    return parse_number<double>(name, it->second, "a number");
}

bool Cli::get_bool(const std::string& name, bool def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    return it->second != "false" && it->second != "0";
}

}  // namespace hpu::util
