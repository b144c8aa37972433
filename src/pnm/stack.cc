#include "pnm/stack.hh"

#include <algorithm>
#include <bit>
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
      vault_map_(cfg.vault_dram.geometry, dram::MapScheme::RoBaRaCoCh),
      stack_map_(stack_dram().geometry, vault_map_.scheme()) {}

dram::DramConfig PnmStack::stack_dram() const {
  dram::DramConfig dram = cfg_.vault_dram;
  dram.geometry.channels = cfg_.vaults;
  return dram;
}

PnmStack::Issue PnmStack::translate(const PnmAccess& a) const {
  if (a.addr >= total_bytes())
    throw std::invalid_argument("PnmStack: access at address " + std::to_string(a.addr) +
                                " beyond the " + std::to_string(total_bytes()) + "-byte stack");
  dram::Coord c = vault_map_.decode(local_addr(a.addr));
  c.channel = vault_of(a.addr);
  Issue e;
  e.addr = stack_map_.encode(c);
  e.compute = a.compute;
  e.vault = c.channel;
  e.write = a.type == AccessType::Write;
  return e;
}

PnmStack::RunResult PnmStack::run_pnm(const std::vector<VaultTrace>& traces, Cycle max_cycles) {
  if (traces.size() != cfg_.vaults)
    throw std::invalid_argument("PnmStack::run_pnm: " + std::to_string(traces.size()) +
                                " traces for " + std::to_string(cfg_.vaults) + " vaults");
  std::vector<std::vector<Issue>> per_core(traces.size());
  for (std::size_t v = 0; v < traces.size(); ++v) {
    per_core[v].reserve(traces[v].size());
    for (const auto& a : traces[v]) per_core[v].push_back(translate(a));
  }
  return run_traces(per_core, /*near_memory=*/true, max_cycles);
}

PnmStack::RunResult PnmStack::run_host(const std::vector<VaultTrace>& traces,
                                       std::uint32_t host_cores, Cycle max_cycles) {
  if (host_cores == 0) throw std::invalid_argument("PnmStack::run_host: no host cores");
  // Merge the per-vault work and deal it round-robin to the host cores —
  // same total work, executed from across the off-package link.
  std::vector<std::vector<Issue>> per_core(host_cores);
  std::size_t next = 0;
  for (const auto& t : traces)
    for (const auto& a : t) per_core[next++ % host_cores].push_back(translate(a));
  return run_traces(per_core, /*near_memory=*/false, max_cycles);
}

namespace {

// Calls fn(i) for every i with at[i] <= now, in index order, stores its
// return as the new at[i], and returns the minimum of the updated at[].
// The due test builds a branch-free mask, one 64-bit word per 64 entries,
// and takes the minimum of the entries that are not due on the same pass.
template <class Fn>
Cycle visit_due(std::vector<Cycle>& at, Cycle now, Fn&& fn) {
  Cycle next = kCycleNever;
  const std::size_t n = at.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, n - base);
    std::uint64_t bits = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const Cycle t = at[base + l];
      const bool due = t <= now;
      bits |= std::uint64_t{due} << l;
      next = std::min(next, due ? kCycleNever : t);
    }
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t i = base + static_cast<std::size_t>(std::countr_zero(bits));
      at[i] = fn(i);
      next = std::min(next, at[i]);
    }
  }
  return next;
}

}  // namespace

PnmStack::RunResult PnmStack::run_traces(const std::vector<std::vector<Issue>>& per_core,
                                         bool near_memory, Cycle max_cycles) {
  mem::MemorySystem mem(stack_dram(), cfg_.ctrl, vault_map_.scheme());

  const std::uint32_t width = near_memory ? cfg_.core_width : cfg_.host_core_width;
  const std::uint32_t mlp = near_memory ? cfg_.pnm_mlp : cfg_.host_mlp;
  const sim::ClockMode mode = sim::default_clock_mode();
  const bool per_cycle = mode == sim::ClockMode::PerCycle;

  struct CoreState {
    std::size_t idx = 0;            // next trace entry
    bool primed = false;            // idx's compute burst credited
    Cycle ready = 0;                // when primed: the cycle its access may issue
    std::uint32_t outstanding = 0;  // in-flight reads
    std::vector<Cycle> releases;    // data-return cycles (incl. link/NoC)
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

  // Two calendars. Vault v is ticked only from cycle due[v] on: a tick
  // re-arms it at the vault's own next_event, an enqueue at the next cycle
  // (PerCycle ticks every vault every cycle). Core i is stepped only from
  // cycle wake[i] on: a step re-arms it at the earliest cycle its next step
  // can act, a completion callback lowers it to the data's return, and a
  // core refused by a full vault queue waits in waiters[v] until vault v
  // ticks (only a tick frees queue space). A step before its wake would
  // change nothing, so stepping the due cores in index order after the
  // vault ticks gives the results of stepping every core at every cycle.
  std::vector<Cycle> due(cfg_.vaults, 0);
  std::vector<Cycle> wake(per_core.size(), 0);
  std::vector<std::vector<std::uint32_t>> waiters(cfg_.vaults);
  std::size_t unfinished = per_core.size();
  Cycle next_vault = 0;  // min over due[] after the current visit
  Cycle next_core = 0;   // min over wake[]

  // One core's work at `now`; returns its next wake.
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
    const std::vector<Issue>& trace = per_core[i];
    if (cs.idx >= trace.size()) {
      if (cs.outstanding > 0) return first_release;
      --unfinished;  // finished: nothing can wake it again
      return kCycleNever;
    }

    const Issue& a = trace[cs.idx];
    if (!cs.primed) {
      // The whole burst at once: `width` instructions a cycle, the access
      // on the cycle after the last of them.
      cs.primed = true;
      res.instructions += a.compute;
      cs.ready = now + (a.compute + width - 1) / width;
    }
    // A read's return wakes the core mid-burst only to retire it.
    if (now < cs.ready) return cs.ready;

    // Miss window full: stall until a completion drains.
    if (cs.outstanding >= mlp) return first_release;

    const AccessType type = a.write ? AccessType::Write : AccessType::Read;
    mem::Controller& vault = mem.controller(a.vault);
    if (!vault.can_accept(type)) {
      waiters[a.vault].push_back(static_cast<std::uint32_t>(i));
      return kCycleNever;
    }

    Cycle extra = 0;
    if (!near_memory) {
      // Off-package link is a shared, bandwidth-limited resource.
      if (link_free > now + link_window) return link_free - link_window;
      link_free = std::max(link_free, now) + cfg_.host_link_cycles_per_line;
      ++host_lines;
      ++res.remote_accesses;
      extra = cfg_.host_link_latency;
    } else if (a.vault == i) {
      ++res.local_accesses;
    } else {
      ++res.remote_accesses;
      ++noc_lines;
      extra = cfg_.remote_hop_latency;
    }

    mem::Request req;
    req.addr = a.addr;
    req.type = type;
    req.core = static_cast<std::uint32_t>(i % 64);
    req.arrive = now;
    req.tag = extra;  // the link/NoC transit the data still owes its core
    if (type == AccessType::Read) {
      ++cs.outstanding;
      const bool ok = vault.enqueue(req, [&cs, &w = wake[i]](const mem::Request& done) {
        const Cycle at = done.complete + done.tag;
        cs.releases.push_back(at);
        w = std::min(w, at);
      });
      if (!ok) {
        --cs.outstanding;
        return now + 1;
      }
    } else if (!vault.enqueue(req)) {
      return now + 1;
    }
    due[a.vault] = std::min(due[a.vault], now + 1);
    next_vault = std::min(next_vault, now + 1);

    ++res.instructions;
    ++cs.idx;
    cs.primed = false;
    return now + 1;
  };

  const Cycle end = sim::run_event_loop(
      mode, 0, max_cycles,
      [&](Cycle now) {
        next_vault = visit_due(due, now, [&](std::size_t v) {
          mem::Controller& vault = mem.controller(static_cast<std::uint32_t>(v));
          vault.tick(now);
          for (const std::uint32_t c : waiters[v]) wake[c] = std::min(wake[c], now);
          waiters[v].clear();
          return per_cycle ? now + 1 : vault.next_event(now);
        });
        next_core = visit_due(wake, now, [&](std::size_t i) { return step(i, now); });
      },
      [&] { return unfinished == 0; }, [&](Cycle) { return std::min(next_core, next_vault); });
  if (unfinished > 0)
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
