#include "pnm/stack.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/bits.hh"
#include "common/clock.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"

namespace ima::pnm {

namespace {

const PnmConfig& validated(const PnmConfig& cfg) {
  if (!is_pow2(cfg.vaults))
    throw std::invalid_argument("PnmStack: " + std::to_string(cfg.vaults) +
                                " vaults; the count must be a nonzero power of two");
  if (cfg.vault_dram.geometry.channels != 1)
    throw std::invalid_argument("PnmStack: vault_dram must describe one channel, not " +
                                std::to_string(cfg.vault_dram.geometry.channels));
  return cfg;
}

}  // namespace

PnmStack::PnmStack(const PnmConfig& cfg)
    : cfg_(validated(cfg)),
      vault_map_(cfg.vault_dram.geometry, dram::MapScheme::RoBaRaCoCh) {}

dram::DramConfig PnmStack::stack_dram() const {
  dram::DramConfig dram = cfg_.vault_dram;
  dram.geometry.channels = cfg_.vaults;
  return dram;
}

Addr PnmStack::mem_addr(const mem::MemorySystem& mem, Addr addr) const {
  dram::Coord c = vault_map_.decode(local_addr(addr));
  c.channel = vault_of(addr);
  return mem.mapper().encode(c);
}

PnmStack::RunResult PnmStack::run_pnm(const std::vector<VaultTrace>& traces, Cycle max_cycles) {
  if (traces.size() != cfg_.vaults)
    throw std::invalid_argument("PnmStack::run_pnm: " + std::to_string(traces.size()) +
                                " traces for " + std::to_string(cfg_.vaults) + " vaults");
  return run_traces(traces, /*near_memory=*/true, max_cycles);
}

PnmStack::RunResult PnmStack::run_host(const std::vector<VaultTrace>& traces,
                                       std::uint32_t host_cores, Cycle max_cycles) {
  if (host_cores == 0) throw std::invalid_argument("PnmStack::run_host: no host cores");
  // Merge the per-vault work and deal it round-robin to the host cores —
  // same total work, executed from across the off-package link.
  std::vector<VaultTrace> per_core(host_cores);
  std::size_t next = 0;
  for (const auto& t : traces)
    for (const auto& a : t) per_core[next++ % host_cores].push_back(a);
  return run_traces(per_core, /*near_memory=*/false, max_cycles);
}

PnmStack::RunResult PnmStack::run_traces(const std::vector<VaultTrace>& per_core,
                                         bool near_memory, Cycle max_cycles) {
  for (const auto& t : per_core)
    for (const auto& a : t)
      if (a.addr >= total_bytes())
        throw std::invalid_argument("PnmStack: access at address " + std::to_string(a.addr) +
                                    " beyond the " + std::to_string(total_bytes()) +
                                    "-byte stack");

  mem::MemorySystem mem(stack_dram(), cfg_.ctrl, vault_map_.scheme());

  const std::uint32_t width = near_memory ? cfg_.core_width : cfg_.host_core_width;
  const std::uint32_t mlp = near_memory ? cfg_.pnm_mlp : cfg_.host_mlp;
  const sim::ClockMode mode = sim::default_clock_mode();

  struct CoreState {
    std::size_t idx = 0;           // next trace entry
    std::uint32_t compute_left = 0;
    bool primed = false;
    std::uint32_t outstanding = 0;          // in-flight reads
    std::vector<Cycle> releases;            // data-return cycles (incl. link/NoC)
  };
  std::vector<CoreState> cores(per_core.size());

  std::uint64_t work_items = 0;
  for (const auto& t : per_core) work_items += t.size();
  IMA_TRACE(trace_, .cycle = 0, .kind = obs::EventKind::OffloadDispatch,
            .tid = static_cast<std::uint16_t>(near_memory ? 1 : 0), .arg0 = work_items,
            .arg1 = per_core.size(), .name = near_memory ? "run-pnm" : "run-host");

  RunResult res;
  std::uint64_t noc_lines = 0;
  std::uint64_t host_lines = 0;
  Cycle link_free = 0;  // off-package link occupancy (host mode)
  const Cycle link_window = cfg_.host_link_cycles_per_line * 4;
  bool all_done = false;
  Cycle core_wake = 0;  // earliest cycle at which some core's step can act

  // Per-vault event calendar: vault v is ticked only from cycle due[v] on.
  // A tick re-arms it at the vault's own next_event, an enqueue at the next
  // cycle; PerCycle ticks every vault every cycle.
  // Why not MemorySystem's own wake cache (mem.tick / mem.next_event): it
  // gives the same bytes, but it recomputes a vault's next_event after every
  // enqueue into a vault it did not tick, and the cores enqueue far more
  // often than the vaults tick. On C4 smoke that traded 25.39M -> 22.48M
  // controller ticks for 25.36M -> 28.91M next_event calls, and perfbench
  // pnm_graph ran 16% slower (median 0.1802 -> 0.2086 s, Release, 4-vCPU
  // Xeon). Arming an enqueued channel for the next cycle instead of
  // recomputing its wake still left pnm_graph 8% slower.
  std::vector<Cycle> due(cfg_.vaults, 0);

  // One core's work at `now`; returns the earliest cycle at which its next
  // step can do anything (a vault tick that frees queue space or fires a
  // completion is an event of its own).
  const auto step = [&](std::size_t i, Cycle now) -> Cycle {
    CoreState& cs = cores[i];
    // Retire reads whose data (including link/NoC transit) has arrived.
    Cycle first_release = kCycleNever;
    for (std::size_t r = 0; r < cs.releases.size();) {
      if (cs.releases[r] <= now) {
        cs.releases[r] = cs.releases.back();
        cs.releases.pop_back();
        if (cs.outstanding > 0) --cs.outstanding;
      } else {
        first_release = std::min(first_release, cs.releases[r]);
        ++r;
      }
    }
    const VaultTrace& trace = per_core[i];
    if (cs.idx >= trace.size()) {
      if (cs.outstanding > 0) all_done = false;
      return first_release;
    }
    all_done = false;

    const PnmAccess& a = trace[cs.idx];
    if (!cs.primed) {
      cs.compute_left = a.compute;
      cs.primed = true;
    }
    if (cs.compute_left > 0) {
      const std::uint32_t n = std::min(cs.compute_left, width);
      cs.compute_left -= n;
      res.instructions += n;
      return now + 1;
    }

    // Miss window full: stall until a completion drains.
    if (cs.outstanding >= mlp) return first_release;

    const std::uint32_t target_vault = vault_of(a.addr);
    mem::Controller& vault = mem.controller(target_vault);
    if (!vault.can_accept(a.type)) return kCycleNever;  // queue full until a vault tick

    Cycle extra = 0;
    if (!near_memory) {
      // Off-package link is a shared, bandwidth-limited resource.
      if (link_free > now + link_window) return link_free - link_window;
      link_free = std::max(link_free, now) + cfg_.host_link_cycles_per_line;
      ++host_lines;
      ++res.remote_accesses;
      extra = cfg_.host_link_latency;
    } else if (target_vault == i) {
      ++res.local_accesses;
    } else {
      ++res.remote_accesses;
      ++noc_lines;
      extra = cfg_.remote_hop_latency;
    }

    mem::Request req;
    req.addr = mem_addr(mem, a.addr);
    req.type = a.type;
    req.core = static_cast<std::uint32_t>(i % 64);
    req.arrive = now;
    if (a.type == AccessType::Read) {
      ++cs.outstanding;
      const bool ok = vault.enqueue(req, [&cs, extra](const mem::Request& done) {
        cs.releases.push_back(done.complete + extra);
      });
      if (!ok) {
        --cs.outstanding;
        return now + 1;
      }
    } else if (!vault.enqueue(req)) {
      return now + 1;
    }
    due[target_vault] = std::min(due[target_vault], now + 1);

    ++res.instructions;
    ++cs.idx;
    cs.primed = false;
    return now + 1;
  };

  const Cycle end = sim::run_event_loop(
      mode, 0, max_cycles,
      [&](Cycle now) {
        for (std::uint32_t v = 0; v < cfg_.vaults; ++v) {
          if (now < due[v]) continue;
          mem::Controller& vault = mem.controller(v);
          vault.tick(now);
          due[v] = mode == sim::ClockMode::PerCycle ? now + 1 : vault.next_event(now);
        }
        all_done = true;
        core_wake = kCycleNever;
        for (std::size_t i = 0; i < cores.size(); ++i)
          core_wake = std::min(core_wake, step(i, now));
      },
      [&] { return all_done; },
      [&](Cycle) { return std::min(core_wake, *std::min_element(due.begin(), due.end())); });
  if (!all_done)
    throw std::runtime_error(std::string("PnmStack::") + (near_memory ? "run_pnm" : "run_host") +
                             ": work still queued at the " + std::to_string(max_cycles) +
                             "-cycle limit");

  res.cycles = end;
  IMA_TRACE(trace_, .cycle = end, .kind = obs::EventKind::OffloadComplete,
            .tid = static_cast<std::uint16_t>(near_memory ? 1 : 0),
            .arg0 = res.instructions, .arg1 = end,
            .name = near_memory ? "run-pnm-done" : "run-host-done");
  ++(near_memory ? stats_.runs_pnm : stats_.runs_host);
  stats_.instructions += res.instructions;
  stats_.local_accesses += res.local_accesses;
  stats_.remote_accesses += res.remote_accesses;
  res.energy += mem.total_energy(end);
  res.energy += static_cast<double>(noc_lines) * cfg_.e_noc_per_line;
  res.energy += static_cast<double>(host_lines) * cfg_.e_host_link_per_line;
  res.energy += static_cast<double>(res.instructions) *
                (near_memory ? cfg_.e_pnm_instr : cfg_.e_host_instr);
  return res;
}

PnmStack::StreamResult PnmStack::run_stream(std::uint64_t ops_per_vault, std::uint64_t seed,
                                            unsigned shards) {
  constexpr Cycle kLimit = 2'000'000'000;
  constexpr std::uint64_t kPimEvery = 16;
  mem::MemorySystem mem(stack_dram(), cfg_.ctrl, vault_map_.scheme());
  mem.set_shards(std::max(shards, 1u));
  const auto& g = mem.dram_config().geometry;

  // Queue the PUM row copies up front (coordinator side): bulk data
  // movement the logic layer would issue before its traversal. Intra-vault
  // by construction — both rows live in the op's bank.
  StreamResult res;
  for (std::uint32_t v = 0; v < cfg_.vaults; ++v) {
    for (std::uint64_t i = 0; i < ops_per_vault / kPimEvery; ++i) {
      const std::uint64_t h = harness::job_seed(seed ^ 0x9e37u, v * 131071ull + i);
      mem::PimOp op;
      op.cmd = dram::Cmd::AapFpm;
      op.bank = dram::Coord{v, static_cast<std::uint32_t>(h) % g.ranks,
                            static_cast<std::uint32_t>(h >> 8) % g.banks, 0, 0};
      // Same subarray, distinct rows: the FPM fast-copy precondition.
      const std::uint32_t sub = static_cast<std::uint32_t>(h >> 16) % g.subarrays;
      const std::uint32_t local = static_cast<std::uint32_t>(h >> 24) % g.rows_per_subarray;
      op.args.src_row = sub * g.rows_per_subarray + local;
      op.args.dst_row = sub * g.rows_per_subarray + (local + 1) % g.rows_per_subarray;
      mem.controller(v).enqueue_pim(std::move(op));
      ++res.pim_ops;
    }
  }

  // One logic-layer agent per vault.
  auto src = mem::hashed_source(mem, ops_per_vault, seed, cfg_.vaults);
  src.on_complete = [&res](std::uint32_t ch, const mem::Request& done) {
    res.checksum = mem::fold_completion(res.checksum, ch, done);
    ++(done.type == AccessType::Write ? res.writes : res.reads);
  };

  res.cycles = mem.drain_sourced(src, 0, kLimit);
  if (mem.last_drain_clipped())
    throw std::runtime_error("PnmStack::run_stream: streams not drained at the " +
                             std::to_string(kLimit) + "-cycle limit");
  res.energy = mem.total_energy(res.cycles);
  return res;
}

}  // namespace ima::pnm
