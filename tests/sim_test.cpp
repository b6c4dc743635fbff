#include <gtest/gtest.h>

#include <limits>

#include "sim/buffer.hpp"
#include "sim/cpu_unit.hpp"
#include "sim/device.hpp"
#include "sim/hpu.hpp"
#include "sim/memory_model.hpp"
#include "util/check.hpp"

namespace hpu::sim {
namespace {

DeviceParams small_device(std::uint64_t g = 4, double gamma = 0.5) {
    DeviceParams d;
    d.g = g;
    d.gamma = gamma;
    return d;
}

TEST(Params, ValidationRejectsNonsense) {
    DeviceParams d;
    d.g = 0;
    EXPECT_THROW(d.validate(), util::HpuError);
    d = DeviceParams{};
    d.gamma = 0.0;
    EXPECT_THROW(d.validate(), util::HpuError);
    d = DeviceParams{};
    d.gamma = 2.0;
    EXPECT_THROW(d.validate(), util::HpuError);
    CpuParams c;
    c.p = 0;
    EXPECT_THROW(c.validate(), util::HpuError);
}

TEST(Link, AffineTransferCost) {
    LinkParams l;
    l.lambda = 100.0;
    l.delta = 2.0;
    EXPECT_DOUBLE_EQ(l.transfer_time(0), 100.0);
    EXPECT_DOUBLE_EQ(l.transfer_time(50), 200.0);
    // Affinity: t(a+b) = t(a) + t(b) - lambda.
    EXPECT_DOUBLE_EQ(l.transfer_time(30) + l.transfer_time(20) - l.lambda,
                     l.transfer_time(50));
}

TEST(OpCounter, PricingPerUnit) {
    OpCounter c;
    c.charge_compute(10);
    c.charge_mem(6, Pattern::kCoalesced);
    c.charge_mem(2, Pattern::kStrided);
    EXPECT_EQ(c.cpu_ops(), 18u);
    EXPECT_DOUBLE_EQ(c.gpu_ops(16.0), 10 + 6 + 2 * 16.0);
    OpCounter d;
    d.charge_compute(1);
    c += d;
    EXPECT_EQ(c.compute, 11u);
}

TEST(Device, SingleItemTimeIsOpsOverGamma) {
    Device dev(small_device(4, 0.25));
    const auto r = dev.launch(1, [](WorkItem& wi) { wi.charge_compute(100); });
    EXPECT_DOUBLE_EQ(r.time, 100 / 0.25);
    EXPECT_EQ(r.waves, 1u);
}

TEST(Device, WaveCountIsCeilItemsOverG) {
    Device dev(small_device(4, 1.0));
    const auto r = dev.launch(10, [](WorkItem& wi) { wi.charge_compute(8); });
    EXPECT_EQ(r.waves, 3u);  // ceil(10/4)
    EXPECT_DOUBLE_EQ(r.time, 3 * 8.0);
}

TEST(Device, WaveTimeIsMaxItemInWave) {
    Device dev(small_device(4, 1.0));
    // Items 0..3 in wave 0 (max cost 4), items 4..7 in wave 1 (max cost 8).
    const auto r = dev.launch(8, [](WorkItem& wi) {
        wi.charge_compute(wi.global_id() + 1);
    });
    EXPECT_DOUBLE_EQ(r.time, 4.0 + 8.0);
    EXPECT_DOUBLE_EQ(r.max_item_ops, 8.0);
}

TEST(Device, StridedPenaltyApplies) {
    DeviceParams p = small_device(1, 1.0);
    p.strided_penalty = 16.0;
    Device dev(p);
    const auto strided =
        dev.launch(1, [](WorkItem& wi) { wi.charge_mem(10, Pattern::kStrided); });
    const auto coalesced =
        dev.launch(1, [](WorkItem& wi) { wi.charge_mem(10, Pattern::kCoalesced); });
    EXPECT_DOUBLE_EQ(strided.time, 16.0 * coalesced.time);
}

TEST(Device, LaunchOverheadAdds) {
    DeviceParams p = small_device(4, 1.0);
    p.launch_overhead = 7.0;
    Device dev(p);
    const auto r = dev.launch(1, [](WorkItem& wi) { wi.charge_compute(3); });
    EXPECT_DOUBLE_EQ(r.time, 10.0);
}

TEST(Device, UniformLaunchTimeMatchesExecution) {
    Device dev(small_device(8, 0.125));
    const auto r = dev.launch(20, [](WorkItem& wi) { wi.charge_compute(5); });
    EXPECT_DOUBLE_EQ(r.time, dev.params().launch_time(20, 5.0));
}

TEST(Device, StatsAccumulateAndReset) {
    Device dev(small_device());
    dev.launch(3, [](WorkItem& wi) { wi.charge_compute(1); });
    dev.launch(5, [](WorkItem& wi) { wi.charge_compute(1); });
    EXPECT_EQ(dev.stats().launches, 2u);
    EXPECT_EQ(dev.stats().items, 8u);
    EXPECT_GT(dev.stats().busy_time, 0.0);
    dev.reset_stats();
    EXPECT_EQ(dev.stats().launches, 0u);
}

TEST(Device, GlobalIdsCoverRange) {
    Device dev(small_device(3, 1.0));
    std::vector<int> seen(10, 0);
    dev.launch(10, [&](WorkItem& wi) {
        EXPECT_EQ(wi.global_size(), 10u);
        seen[wi.global_id()]++;
    });
    for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Device, RejectsEmptyLaunch) {
    Device dev(small_device());
    EXPECT_THROW(dev.launch(0, [](WorkItem&) {}), util::HpuError);
}

TEST(Device, KernelExceptionPropagates) {
    Device dev(small_device());
    EXPECT_THROW(dev.launch(4,
                            [](WorkItem& wi) {
                                if (wi.global_id() == 2) throw std::runtime_error("kernel fault");
                            }),
                 std::runtime_error);
}

TEST(Buffer, ResidencyIsEnforced) {
    DeviceBuffer<int> buf(8);
    EXPECT_THROW(buf.device(), util::HpuError);       // not copied yet
    EXPECT_THROW(buf.copy_to_host(), util::HpuError);  // nothing on device
    buf.host()[0] = 42;
    buf.copy_to_device();
    EXPECT_EQ(buf.device()[0], 42);
}

TEST(Buffer, HostAndDeviceAreDistinctCopies) {
    DeviceBuffer<int> buf(4);
    buf.host()[1] = 7;
    buf.copy_to_device();
    buf.device()[1] = 99;          // device-side write
    EXPECT_EQ(buf.host_view()[1], 7);  // host copy unchanged until readback
    buf.copy_to_host();
    EXPECT_EQ(buf.host_view()[1], 99);
}

TEST(Buffer, PartialCopies) {
    DeviceBuffer<int> buf(8);
    // A partial copy refreshes a range; it cannot *establish* validity —
    // the other 7 device words would be garbage marked valid.
    EXPECT_THROW(buf.copy_to_device(3, 1), util::HpuError);

    {
        auto h = buf.host();
        for (int i = 0; i < 8; ++i) h[i] = i;
    }
    buf.copy_to_device();
    buf.copy_to_device(3, 2);  // refresh of a valid device copy: fine
    EXPECT_EQ(buf.device_view()[3], 3);

    buf.device()[5] = 55;  // device write → host copy stale
    // Reading back one word cannot re-validate the 7 stale host words...
    EXPECT_THROW(buf.copy_to_host(5, 1), util::HpuError);
    // ...but a full-range copy can.
    buf.copy_to_host(0, 8);
    EXPECT_EQ(buf.host_view()[5], 55);
    EXPECT_EQ(buf.host_view()[3], 3);
}

TEST(Buffer, PartialCopyRangeChecksDoNotOverflow) {
    DeviceBuffer<int> buf(8);
    buf.copy_to_device();
    EXPECT_THROW(buf.copy_to_device(6, 3), util::HpuError);
    EXPECT_THROW(buf.copy_to_device(9, 0), util::HpuError);
    // offset + count wraps around std::size_t; the check must not.
    EXPECT_THROW(buf.copy_to_device(4, std::numeric_limits<std::size_t>::max()),
                 util::HpuError);
    EXPECT_THROW(buf.copy_to_host(4, std::numeric_limits<std::size_t>::max()),
                 util::HpuError);
}

TEST(Buffer, EventTraceRecordsOpsAndPriorState) {
    DeviceBuffer<int> buf(4);
    std::vector<BufferEvent> log;
    buf.set_trace(&log);
    buf.host()[0] = 1;
    buf.copy_to_device();
    buf.device()[0] = 2;
    buf.copy_to_host();
    (void)buf.host_view()[0];
    ASSERT_EQ(log.size(), 5u);
    EXPECT_EQ(log[0].op, BufferOp::kHostMut);
    EXPECT_EQ(log[1].op, BufferOp::kCopyToDevice);
    EXPECT_FALSE(log[1].device_valid_before);  // state *before* the copy
    EXPECT_EQ(log[2].op, BufferOp::kDeviceMut);
    EXPECT_EQ(log[3].op, BufferOp::kCopyToHost);
    EXPECT_FALSE(log[3].host_valid_before);
    EXPECT_EQ(log[4].op, BufferOp::kHostRead);
    EXPECT_TRUE(log[4].host_valid_before);
}

TEST(CpuUnit, UniformLevelMatchesClosedForm) {
    CpuUnit cpu(CpuParams{.p = 4});
    EXPECT_DOUBLE_EQ(cpu.params().level_time(10, 5.0), 15.0);  // ceil(10/4)*5
}

TEST(CpuUnit, RunLevelMeasuresMakespan) {
    CpuUnit cpu(CpuParams{.p = 2});
    // Tasks of cost i+1: costs 1..5, greedy on 2 cores.
    const auto r = cpu.run_level(5, [](std::uint64_t i, OpCounter& ops) {
        ops.charge_compute(i + 1);
    });
    EXPECT_EQ(r.tasks, 5u);
    EXPECT_EQ(r.max_task_ops, 5u);
    // greedy: 1→c0, 2→c1, 3→c0(1+3=4), 4→c1(2+4=6), 5→c0(4+5=9) → 9.
    EXPECT_DOUBLE_EQ(r.time, 9.0);
}

TEST(CpuUnit, ContentionInflatesLargeWorkingSets) {
    CpuParams p{.p = 4, .llc_bytes = 1 << 20, .contention = 0.1};
    CpuUnit cpu(p);
    const double base = cpu.params().level_time(8, 100.0, 1 << 20);
    const double hot = cpu.params().level_time(8, 100.0, 4u << 20);  // 4x LLC
    EXPECT_DOUBLE_EQ(base, 200.0);
    EXPECT_DOUBLE_EQ(hot, 200.0 * (1.0 + 0.1 * 2.0));  // log2(4) = 2
    // Single task → no contention regardless of working set.
    EXPECT_DOUBLE_EQ(cpu.params().level_time(1, 100.0, 64u << 20), 100.0);
}

TEST(CpuUnit, ContentionDisabledByDefaultPlatforms) {
    CpuUnit cpu(CpuParams{});
    EXPECT_DOUBLE_EQ(cpu.params().contention_factor(100, 1ull << 40), 1.0);
}

TEST(MemoryModel, FullyCoalescedWave) {
    // 4 items, each accesses addresses i, i+4, i+8 — step k touches the
    // contiguous segment [4k, 4k+4), one transaction per step at width 4.
    std::vector<AccessTrace> items(4);
    for (std::uint64_t i = 0; i < 4; ++i) items[i] = {i, i + 4, i + 8};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.steps, 3u);
    EXPECT_EQ(r.accesses, 12u);
    EXPECT_EQ(r.transactions, 3u);
    EXPECT_DOUBLE_EQ(r.expansion, 1.0);
    EXPECT_DOUBLE_EQ(effective_cost_per_word(r), 1.0);
}

TEST(MemoryModel, ScatteredWave) {
    // 4 items each touching their own distant segment at every step.
    std::vector<AccessTrace> items(4);
    for (std::uint64_t i = 0; i < 4; ++i) items[i] = {i * 1000, i * 1000 + 1};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.transactions, 8u);  // 4 segments per step × 2 steps
    EXPECT_DOUBLE_EQ(r.expansion, 8.0 * 4 / 8.0);
    EXPECT_GT(effective_cost_per_word(r), 1.0);
}

TEST(MemoryModel, RaggedTracesHandled) {
    std::vector<AccessTrace> items = {{0, 1, 2}, {3}};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.steps, 3u);
    EXPECT_EQ(r.accesses, 4u);
    EXPECT_GE(r.transactions, 3u);
}

TEST(MemoryModel, MergesortPermutationIsCheaper) {
    // The §6.3 insight, verified by trace analysis: 8 work-items each
    // walking their own 8-element slice (strided) vs the permuted layout
    // where item j touches j, j+8, j+16, ... (coalesced).
    const std::uint64_t W = 8, L = 8, width = 8;
    std::vector<AccessTrace> strided(W), permuted(W);
    for (std::uint64_t j = 0; j < W; ++j) {
        for (std::uint64_t k = 0; k < L; ++k) {
            strided[j].push_back(j * L + k);
            permuted[j].push_back(k * W + j);
        }
    }
    const auto rs = analyze_wave(strided, width);
    const auto rp = analyze_wave(permuted, width);
    EXPECT_DOUBLE_EQ(rp.expansion, 1.0);
    EXPECT_DOUBLE_EQ(rs.expansion, static_cast<double>(width));
    EXPECT_GT(effective_cost_per_word(rs), effective_cost_per_word(rp));
}

TEST(Hpu, BundleWiring) {
    HpuParams hp;
    hp.cpu.p = 2;
    hp.gpu.g = 16;
    hp.gpu.gamma = 0.5;
    hp.link.lambda = 5;
    hp.link.delta = 1;
    Hpu h(hp);
    EXPECT_DOUBLE_EQ(h.transfer_time(10), 15.0);
    EXPECT_DOUBLE_EQ(h.params().gpu_power(), 8.0);
    h.gpu().launch(1, [](WorkItem& wi) { wi.charge_compute(1); });
    EXPECT_EQ(h.gpu().stats().launches, 1u);
    h.reset();
    EXPECT_EQ(h.gpu().stats().launches, 0u);
}

}  // namespace
}  // namespace hpu::sim
