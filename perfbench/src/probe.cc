#include "bench.hh"

namespace perfbench {

Metrics layer_metrics(const Layers& l) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"mem.sched.pick_s", l.pick.seconds, "s"},
      {"mem.sched.pick_calls", n(l.pick.calls), "count"},
      {"mem.controller.tick_s", l.tick.seconds, "s"},
      {"mem.controller.tick_calls", n(l.tick.calls), "count"},
      {"common.clock.next_event_s", l.next_event.seconds, "s"},
      {"common.clock.next_event_calls", n(l.next_event.calls), "count"},
      {"common.clock.skip_ratio", ratio(n(l.cycles_ticked), n(l.tick.calls)), "cycles/call"},
      {"mem.memsys.can_accept_s", l.can_accept.seconds, "s"},
      {"mem.memsys.enqueue_s", l.enqueue.seconds, "s"},
      {"mem.memsys.admit_ratio", ratio(n(l.accepted), n(l.accept_attempts)), "ratio"},
      {"workloads.next_s", l.stream_next.seconds, "s"},
      {"workloads.graph_gen_s", l.graph_gen.seconds, "s"},
      {"workloads.tensor.next_s", l.tensor_next.seconds, "s"},
      {"pnm.stack.run_pnm_s", l.run_pnm.seconds, "s"},
      {"pnm.stack.run_host_s", l.run_host.seconds, "s"},
      {"pnm.stack.instructions", n(l.pnm_instructions), "count"},
      {"pnm.stack.local_accesses", n(l.pnm_local), "count"},
      {"pnm.stack.remote_accesses", n(l.pnm_remote), "count"},
      {"sim.system.run_s", l.system_run.seconds, "s"},
      {"core.ipc_mean", l.ipc_mean, "instr/cycle"},
      {"cache.l1_hit_rate", l.l1_hit_rate, "ratio"},
      {"cache.l2_hit_rate", l.l2_hit_rate, "ratio"},
      {"cache.prefetch_useful_ratio", l.prefetch_useful, "ratio"},
      {"sim.checkpoint.save_s", l.save.seconds, "s"},
      {"sim.checkpoint.restore_s", l.restore.seconds, "s"},
      {"sim.checkpoint.bytes", n(l.ckpt_bytes), "bytes"},
      {"mem.memsys.drain_s", l.drain.seconds, "s"},
      {"service.facade.pump_s", l.pump.seconds, "s"},
      {"service.facade.pushed", n(l.pushed), "count"},
      {"service.facade.completed", n(l.completed), "count"},
      {"mem.memsys.shard_workers_used", n(l.shard_workers), "count"},
      {"mem.memsys.drain_clips", n(l.drain_clips), "count"},
      {"mem.controller.row_hit_rate", l.row_hit_rate, "ratio"},
      {"mem.controller.read_p99_cycles", l.read_p99, "cycles"},
      {"mem.controller.span.queue_mean_cycles", l.span_queue, "cycles"},
      {"mem.controller.span.stall_mean_cycles", l.span_stall, "cycles"},
      {"mem.controller.span.refresh_mean_cycles", l.span_refresh, "cycles"},
      {"mem.controller.span.xfer_mean_cycles", l.span_xfer, "cycles"},
  };
}

CtrlTotals controller_totals(const ima::mem::MemorySystem& sys) {
  CtrlTotals t;
  for (std::uint32_t c = 0; c < sys.num_channels(); ++c) {
    const auto& ctl = sys.controller(c);
    const auto& st = ctl.stats();
    t.row_hits += st.row_hits;
    t.row_accesses += st.row_hits + st.row_misses + st.row_conflicts;
    if (const auto* sp = ctl.spans()) {
      t.span_reads += sp->queue.count();
      t.queue += sp->queue.sum();
      t.stall += sp->stall.sum();
      t.refresh += sp->refresh.sum();
      t.xfer += sp->xfer.sum();
    }
  }
  return t;
}

void fill_controller_layers(const CtrlTotals& a, const CtrlTotals& b, Layers& l) {
  l.row_hit_rate = ratio(static_cast<double>(b.row_hits - a.row_hits),
                         static_cast<double>(b.row_accesses - a.row_accesses));
  const double reads = static_cast<double>(b.span_reads - a.span_reads);
  l.span_queue = ratio(b.queue - a.queue, reads);
  l.span_stall = ratio(b.stall - a.stall, reads);
  l.span_refresh = ratio(b.refresh - a.refresh, reads);
  l.span_xfer = ratio(b.xfer - a.xfer, reads);
}

}  // namespace perfbench
