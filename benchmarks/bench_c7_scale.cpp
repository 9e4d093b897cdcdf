// C7 — substrate scalability.
//
// The reproduction-difficulty note for this paper reads "no lightweight
// processes" — the gating problem for scripts in C++. This bench shows
// the fiber substrate we built actually delivers language-level-cheap
// processes: spawn/run cost stays linear to 10k fibers, rendezvous
// throughput holds at thousands of processes, and a full script
// performance with hundreds of roles stays in the millisecond range.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scripts/broadcast.hpp"

using bench::wall_us;

int main() {
  bench::banner("C7", "substrate scalability: fibers, rendezvous, casts");

  bench::Telemetry telemetry("c7_scale");
  {
    bench::Table table({"fibers", "spawn+run wall ms", "us/fiber"});
    for (const std::size_t n : {100u, 1000u, 10000u}) {
      bench::Scheduler sched;
      const double us = wall_us([&] {
        for (std::size_t i = 0; i < n; ++i)
          sched.spawn("f" + std::to_string(i), [&sched] { sched.yield(); });
        if (!sched.run().ok()) std::abort();
      });
      table.add_row({bench::Table::integer(static_cast<std::int64_t>(n)),
                     bench::Table::num(us / 1000.0, 2),
                     bench::Table::num(us / static_cast<double>(n), 2)});
      telemetry.gauge("spawn.n" + std::to_string(n) + ".us_per_fiber",
                      us / static_cast<double>(n));
    }
    table.print();
  }

  {
    std::printf("\n");
    bench::Table table({"pairs", "msgs", "wall ms", "msgs/ms"});
    for (const std::size_t pairs : {50u, 500u, 2000u}) {
      constexpr int kMsgs = 10;
      bench::Scheduler sched;
      bench::Net net(sched);
      std::vector<bench::ProcessId> rx(pairs);
      const double us = wall_us([&] {
        for (std::size_t p = 0; p < pairs; ++p)
          rx[p] = net.spawn_process("rx" + std::to_string(p), [&net] {
            for (int m = 0; m < kMsgs; ++m)
              if (!net.recv_any<int>("m")) std::abort();
          });
        for (std::size_t p = 0; p < pairs; ++p)
          net.spawn_process("tx" + std::to_string(p), [&net, &rx, p] {
            for (int m = 0; m < kMsgs; ++m)
              if (!net.send(rx[p], "m", m)) std::abort();
          });
        if (!sched.run().ok()) std::abort();
      });
      const double total = static_cast<double>(pairs * kMsgs);
      table.add_row(
          {bench::Table::integer(static_cast<std::int64_t>(pairs)),
           bench::Table::integer(static_cast<std::int64_t>(total)),
           bench::Table::num(us / 1000.0, 2),
           bench::Table::num(total / (us / 1000.0), 0)});
      telemetry.gauge(
          "rendezvous.pairs" + std::to_string(pairs) + ".msgs_per_ms",
          total / (us / 1000.0));
    }
    table.print();
  }

  {
    // Fiber churn: repeated waves of short-lived fibers through ONE
    // scheduler, the fig.2 usage pattern distilled. Wave 1 pays the
    // mmaps; every later wave must ride the stack pool.
    std::printf("\n");
    bench::Table table({"waves x fibers", "wall ms", "us/fiber",
                        "stack reuse"});
    constexpr std::size_t kWaves = 20;
    constexpr std::size_t kPerWave = 500;
    script::runtime::SchedulerOptions opts;
    opts.stack_pool_max_idle = kPerWave;  // keep a full wave's stacks warm
    bench::Scheduler sched(opts);
    const double us = wall_us([&] {
      for (std::size_t w = 0; w < kWaves; ++w) {
        for (std::size_t i = 0; i < kPerWave; ++i)
          sched.spawn("c" + std::to_string(i), [&sched] { sched.yield(); });
        if (!sched.run().ok()) std::abort();
      }
    });
    const double per_fiber = us / static_cast<double>(kWaves * kPerWave);
    const double reuse = sched.stack_pool_stats().reuse_ratio();
    table.add_row({std::to_string(kWaves) + " x " + std::to_string(kPerWave),
                   bench::Table::num(us / 1000.0, 2),
                   bench::Table::num(per_fiber, 2),
                   bench::Table::num(reuse, 3)});
    table.print();
    telemetry.gauge("churn.us_per_fiber", per_fiber);
    telemetry.gauge("stackpool.reuse_ratio", reuse);
  }

  {
    std::printf("\n");
    bench::Table table({"cast size", "performances", "wall ms total",
                        "ms/performance"});
    for (const std::size_t n : {50u, 200u, 500u}) {
      constexpr int kPerfs = 5;
      bench::Scheduler sched;
      bench::Net net(sched);
      script::patterns::StarBroadcast<int> bc(net, n);
      const double us = wall_us([&] {
        net.spawn_process("T", [&] {
          for (int p = 0; p < kPerfs; ++p) bc.send(p);
        });
        for (std::size_t i = 0; i < n; ++i)
          net.spawn_process("R" + std::to_string(i), [&, i] {
            for (int p = 0; p < kPerfs; ++p)
              bc.receive(static_cast<int>(i));
          });
        if (!sched.run().ok()) std::abort();
      });
      table.add_row({bench::Table::integer(static_cast<std::int64_t>(n)),
                     bench::Table::integer(kPerfs),
                     bench::Table::num(us / 1000.0, 2),
                     bench::Table::num(us / 1000.0 / kPerfs, 2)});
      telemetry.gauge("cast.n" + std::to_string(n) + ".ms_per_perf",
                      us / 1000.0 / kPerfs);
    }
    table.print();
  }

  bench::note("fibers cost microseconds to spawn+run even at 10k; a "
              "500-role cast performs in single-digit milliseconds — the "
              "'no lightweight processes' objection is answered by the "
              "substrate, not avoided.");
  return 0;
}
