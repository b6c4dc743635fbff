// Host/device buffer with explicit transfers, mirroring the OpenCL memory
// model of §3.1: the host cannot see device writes (and vice versa) until an
// explicit transfer. We physically keep two copies so stale-copy bugs in
// schedulers surface as wrong results in tests rather than silently working.
//
// Every access and transfer can additionally be recorded into an external
// BufferEvent log (set_trace); the hpu::analysis residency lint replays the
// log to flag stale-copy reads, redundant transfers, and writes through
// host() while a device copy is live.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"

namespace hpu::sim {

/// What happened to a DeviceBuffer, for the residency lint.
enum class BufferOp : std::uint8_t {
    kHostMut,       ///< host() — mutable host view acquired
    kHostRead,      ///< host_view()
    kDeviceMut,     ///< device() — mutable device view acquired
    kDeviceRead,    ///< device_view()
    kCopyToDevice,  ///< host→device transfer (full or partial)
    kCopyToHost,    ///< device→host transfer (full or partial)
};

/// One entry of a buffer's access/transfer log. Validity flags are the
/// state *before* the operation, which is what the lint rules condition on.
///
/// Synchronous operations leave `start`/`ready` at the kUntimed sentinel.
/// Streamed chunk copies (stream_to_device / stream_to_host) record the
/// link schedule: start = when the link picked the chunk up, ready = when
/// it arrived. Timed accesses (device_region) record the virtual tick the
/// kernel touches the range at in both fields, so the residency lint can
/// flag reads of chunks that have not arrived yet (kInFlightRead).
struct BufferEvent {
    /// Sentinel for the timing fields of untimed (synchronous) events.
    static constexpr Ticks kUntimed = -1.0;

    BufferOp op;
    bool host_valid_before = true;
    bool device_valid_before = false;
    std::size_t offset = 0;  ///< copied/accessed range (copies & timed accesses)
    std::size_t count = 0;
    std::size_t size = 0;  ///< buffer size, so the lint can tell full from partial
    Ticks start = kUntimed;  ///< link pickup / access tick (timed events only)
    Ticks ready = kUntimed;  ///< arrival tick (timed events only)

    bool timed() const noexcept { return ready >= 0.0; }
};

template <typename T>
class DeviceBuffer {
public:
    explicit DeviceBuffer(std::size_t n) : owned_(n), host_(owned_) {}

    /// Construct with initial host contents.
    explicit DeviceBuffer(std::vector<T> initial) : owned_(std::move(initial)), host_(owned_) {}

    /// A buffer whose host side IS `host` (borrowed; it must outlive the
    /// buffer): copies move words straight between that memory and the
    /// device side, with no private host copy in between.
    static DeviceBuffer over(std::span<T> host) { return DeviceBuffer(host); }

    // host_ may view owned_: a copy would view the source's storage. A
    // move keeps owned_'s heap block, so the view stays valid.
    DeviceBuffer(const DeviceBuffer&) = delete;
    DeviceBuffer& operator=(const DeviceBuffer&) = delete;
    DeviceBuffer(DeviceBuffer&&) noexcept = default;
    DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;
    ~DeviceBuffer() = default;

    std::size_t size() const noexcept { return host_.size(); }
    std::size_t bytes() const noexcept { return host_.size() * sizeof(T); }

    /// Attach (or detach, with nullptr) an event log. The buffer does not
    /// own the sink; it must outlive the buffer's use.
    void set_trace(std::vector<BufferEvent>* sink) noexcept { trace_ = sink; }

    /// Host-side view. Writing invalidates the device copy.
    std::span<T> host() noexcept {
        record(BufferOp::kHostMut);
        device_valid_ = false;
        return host_;
    }
    std::span<const T> host_view() const noexcept {
        record(BufferOp::kHostRead);
        return host_;
    }

    /// Device-side view, for kernel bodies. Requires a prior copy_to_device.
    std::span<T> device() {
        record(BufferOp::kDeviceMut);
        HPU_CHECK(device_valid_, "kernel touched a buffer not resident on the device");
        host_valid_ = false;
        return device_;
    }
    std::span<const T> device_view() const {
        record(BufferOp::kDeviceRead);
        HPU_CHECK(device_valid_, "kernel read a buffer not resident on the device");
        return device_;
    }

    bool device_valid() const noexcept { return device_valid_; }
    bool host_valid() const noexcept { return host_valid_; }

    /// Physical host→device copy. Time accounting happens in CommandQueue.
    void copy_to_device() {
        record(BufferOp::kCopyToDevice, 0, size());
        device_.assign(host_.begin(), host_.end());
        device_valid_ = true;
    }
    /// Physical device→host copy.
    void copy_to_host() {
        record(BufferOp::kCopyToHost, 0, size());
        HPU_CHECK(device_valid_, "reading back a buffer that was never written on the device");
        std::copy(device_.begin(), device_.end(), host_.begin());
        host_valid_ = true;
    }

    /// Asynchronous host→device chunk copy as the link schedules it:
    /// the words move now (the clock is virtual), but the event log keeps
    /// the link schedule [start, ready) so the residency lint can verify
    /// that no kernel touches the chunk before it arrives. Unlike the
    /// synchronous partial copy, streaming may target an invalid device
    /// copy: the device side becomes valid once the streamed chunks cover
    /// the whole buffer.
    void stream_to_device(std::size_t offset, std::size_t count, Ticks start, Ticks ready) {
        record(BufferOp::kCopyToDevice, offset, count, start, ready);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        device_.resize(size());
        std::copy_n(host_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    device_.begin() + static_cast<std::ptrdiff_t>(offset));
        if (!device_valid_ && cover(device_streamed_, offset, count)) {
            device_valid_ = true;
            device_streamed_.clear();
        }
    }

    /// Asynchronous device→host chunk copy (results retrieval), mirrored.
    void stream_to_host(std::size_t offset, std::size_t count, Ticks start, Ticks ready) {
        record(BufferOp::kCopyToHost, offset, count, start, ready);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        HPU_CHECK(device_valid_ || covered(device_streamed_, offset, count),
                  "streaming back a chunk that was never written on the device");
        std::copy_n(device_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    host_.begin() + static_cast<std::ptrdiff_t>(offset));
        if (!host_valid_ && cover(host_streamed_, offset, count)) {
            host_valid_ = true;
            host_streamed_.clear();
        }
    }

    /// Device-side view of chunk [offset, offset+count) acquired at virtual
    /// tick `at` — device() scoped to a streamed chunk. The chunk must be
    /// covered by prior full or streamed copies; whether it had *arrived*
    /// by `at` is the residency lint's job (kInFlightRead), not a crash.
    std::span<T> device_region(std::size_t offset, std::size_t count, Ticks at) {
        record(BufferOp::kDeviceMut, offset, count, at, at);
        HPU_CHECK(offset <= size() && count <= size() - offset, "device region out of range");
        HPU_CHECK(device_valid_ || covered(device_streamed_, offset, count),
                  "kernel touched a chunk that was never copied to the device");
        host_valid_ = false;
        host_streamed_.clear();
        return std::span<T>(device_).subspan(offset, count);
    }

    /// Partial host→device copy of [offset, offset+count). A partial copy
    /// refreshes a range of an already-valid device copy; it cannot
    /// establish validity of the rest of the buffer, so the destination
    /// must already be valid unless the range covers the whole buffer.
    void copy_to_device(std::size_t offset, std::size_t count) {
        record(BufferOp::kCopyToDevice, offset, count);
        HPU_CHECK(offset <= size() && count <= size() - offset, "partial copy out of range");
        HPU_CHECK(device_valid_ || (offset == 0 && count == size()),
                  "partial copy into a device buffer whose remaining contents are not valid");
        device_.resize(size());
        std::copy_n(host_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    device_.begin() + static_cast<std::ptrdiff_t>(offset));
        device_valid_ = true;
    }
    /// Partial device→host copy of [offset, offset+count). Same validity
    /// rule as the host→device overload, mirrored.
    void copy_to_host(std::size_t offset, std::size_t count) {
        record(BufferOp::kCopyToHost, offset, count);
        HPU_CHECK(offset <= size() && count <= size() - offset, "partial copy out of range");
        HPU_CHECK(device_valid_, "reading back a buffer that was never written on the device");
        HPU_CHECK(host_valid_ || (offset == 0 && count == size()),
                  "partial copy into a host buffer whose remaining contents are not valid");
        std::copy_n(device_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    host_.begin() + static_cast<std::ptrdiff_t>(offset));
        host_valid_ = true;
    }

private:
    using Interval = std::pair<std::size_t, std::size_t>;  ///< [first, last)

    void record(BufferOp op, std::size_t offset = 0, std::size_t count = 0,
                Ticks start = BufferEvent::kUntimed,
                Ticks ready = BufferEvent::kUntimed) const {
        if (op == BufferOp::kCopyToDevice || op == BufferOp::kCopyToHost) {
            auto& ctr = trace::counters();
            trace::count(ctr.transfers);
            trace::count(ctr.words_transferred, count);
        }
        if (trace_ != nullptr) {
            trace_->push_back(
                {op, host_valid_, device_valid_, offset, count, size(), start, ready});
        }
    }

    /// Merges [offset, offset+count) into the streamed-coverage set;
    /// returns true once the set covers the whole buffer.
    bool cover(std::vector<Interval>& set, std::size_t offset, std::size_t count) const {
        set.emplace_back(offset, offset + count);
        std::sort(set.begin(), set.end());
        std::size_t w = 0;
        for (std::size_t r = 1; r < set.size(); ++r) {
            if (set[r].first <= set[w].second) {
                set[w].second = std::max(set[w].second, set[r].second);
            } else {
                set[++w] = set[r];
            }
        }
        set.resize(w + 1);
        return set.size() == 1 && set.front().first == 0 && set.front().second >= size();
    }

    /// True when [offset, offset+count) lies inside one merged interval.
    static bool covered(const std::vector<Interval>& set, std::size_t offset,
                        std::size_t count) {
        for (const Interval& iv : set) {
            if (iv.first <= offset && offset + count <= iv.second) return true;
        }
        return count == 0;
    }

    explicit DeviceBuffer(std::span<T> host) : host_(host) {}

    std::vector<T> owned_;  ///< host storage, unless the host side is borrowed
    std::span<T> host_;
    /// Allocated by the first copy in (a full copy fills it in one pass).
    std::vector<T> device_;
    bool host_valid_ = true;
    bool device_valid_ = false;
    /// Streamed-but-not-yet-complete coverage of each side (empty once the
    /// corresponding validity flag is true).
    mutable std::vector<Interval> device_streamed_;
    mutable std::vector<Interval> host_streamed_;
    std::vector<BufferEvent>* trace_ = nullptr;
};

}  // namespace hpu::sim
