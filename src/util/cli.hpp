// Minimal command-line flag parsing for the bench and example binaries.
// Values use the --name=value form; a bare --name is a boolean switch;
// everything else is positional. get_int / get_double throw an HpuError
// naming the flag when its value is not entirely a number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hpu::util {

class Cli {
public:
    Cli(int argc, const char* const* argv);

    bool has(const std::string& name) const;
    std::string get(const std::string& name, const std::string& def) const;
    std::int64_t get_int(const std::string& name, std::int64_t def) const;
    double get_double(const std::string& name, double def) const;
    bool get_bool(const std::string& name, bool def) const;

    /// Positional (non-flag) arguments in order.
    const std::vector<std::string>& positional() const noexcept { return positional_; }

private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

}  // namespace hpu::util
