// MISE-style slowdown estimation (Subramanian et al., HPCA 2013 [117]).
//
// QoS needs each application's *alone* performance while it runs shared —
// unobservable directly. MISE's insight: an application's request service
// rate while sampled at highest priority approximates its alone rate.
// We implement the strong form: a small fraction of every epoch is an
// *exclusive* sampling window per app (no other requests issue), so the
// measured rate is clean; the remaining ~80% of cycles run plain FR-FCFS.
// Slowdown = sampled-alone-rate / shared-rate.
#include <algorithm>

#include "common/ckpt.hh"
#include "mem/sched.hh"

namespace ima::mem {

namespace {
constexpr double kSampleFraction = 0.2;  // epoch share spent sampling
}

class MiseScheduler final : public Scheduler {
 public:
  MiseScheduler(std::uint32_t num_cores, Cycle epoch)
      : num_cores_(num_cores),
        epoch_(epoch),
        sample_cycles_per_app_(
            static_cast<Cycle>(kSampleFraction * static_cast<double>(epoch)) / num_cores),
        sampled_served_(num_cores, 0),
        sampled_cycles_(num_cores, 0),
        total_served_(num_cores, 0) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Sampling applies to the read path only: write drains are posted,
    // bursty, and shared — holding them exclusive would deadlock drain
    // mode and contaminate the sample.
    const bool write_queue = !q.empty() && q.front().type == AccessType::Write;
    const std::int32_t sampled = write_queue ? -1 : sampled_app(v.now);
    // Both phases use one fused hit/ready/any scan (subset classes share a
    // pass; on an arrival-ordered queue the first of a class is its
    // oldest), and the first issuable row hit ends it.
    std::size_t ready = kNoPick, any = kNoPick;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i)) continue;
      // Exclusive window: only the sampled app may issue. The bus idles if
      // it has nothing — that idle time is the price of a clean sample.
      if (sampled >= 0 && q[i].core != static_cast<std::uint32_t>(sampled)) continue;
      if (any == kNoPick) any = i;
      const int cls = v.issue_class(i);
      if (cls == 0) continue;
      if (cls == 2) return i;
      if (ready == kNoPick) ready = i;
    }
    if (ready != kNoPick) return ready;
    return any;  // sampled phase: let it precharge/activate; else idle
  }

  void on_service(const QueuedRequest& r, const SchedView& v) override {
    const std::uint32_t core = r.core;
    if (core >= num_cores_ || r.type != AccessType::Read) return;
    ++total_served_[core];
    if (sampled_app(v.now) == static_cast<std::int32_t>(core)) ++sampled_served_[core];
  }

  void tick(const SchedView& v, std::vector<QueuedRequest>&) override {
    // The controller may consult us for both queues in one cycle; count
    // each cycle once.
    if (v.now == last_tick_ && total_cycles_ > 0) return;
    last_tick_ = v.now;
    const std::int32_t s = sampled_app(v.now);
    if (s >= 0) ++sampled_cycles_[static_cast<std::size_t>(s)];
    ++total_cycles_;
  }

  // tick() integrates sampled/total cycle counters one cycle at a time —
  // the slowdown estimates are ratios over *counted* cycles, so every
  // busy cycle must be visited. Explicitly per-cycle.
  Cycle next_event(Cycle now) const override { return now + 1; }

  // sampled_app is a pure function of now; counters advance in
  // tick/on_service only.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "MISE"; }

  /// Estimated slowdown per app: sampled alone-rate over shared rate.
  std::vector<double> estimated_slowdowns() const {
    std::vector<double> out(num_cores_, 1.0);
    std::uint64_t all_sampled_cycles = 0;
    for (auto v : sampled_cycles_) all_sampled_cycles += v;
    const std::uint64_t shared_cycles =
        total_cycles_ > all_sampled_cycles ? total_cycles_ - all_sampled_cycles : 0;
    for (std::uint32_t c = 0; c < num_cores_; ++c) {
      if (sampled_cycles_[c] == 0 || shared_cycles == 0 || total_served_[c] == 0) continue;
      const double alone_rate =
          static_cast<double>(sampled_served_[c]) / static_cast<double>(sampled_cycles_[c]);
      // Shared rate measured outside sampling windows (the windows are not
      // representative of shared operation).
      const double shared_rate =
          static_cast<double>(total_served_[c] - sampled_served_[c]) /
          static_cast<double>(shared_cycles);
      if (shared_rate > 0) out[c] = std::max(1.0, alone_rate / shared_rate);
    }
    return out;
  }

  void save_state(ckpt::Sink& s) const override { s(*this); }
  void load_state(ckpt::Source& s) override { s(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar(sampled_served_, sampled_cycles_, total_served_, total_cycles_, last_tick_);
  }

 private:
  /// Which app (if any) holds the exclusive sampling window at `now`.
  std::int32_t sampled_app(Cycle now) const {
    const Cycle in_epoch = now % epoch_;
    const Cycle sampling_span = sample_cycles_per_app_ * num_cores_;
    if (in_epoch >= sampling_span) return -1;
    return static_cast<std::int32_t>(in_epoch / sample_cycles_per_app_);
  }

  std::uint32_t num_cores_;
  Cycle epoch_;
  Cycle sample_cycles_per_app_;
  std::vector<std::uint64_t> sampled_served_;
  std::vector<std::uint64_t> sampled_cycles_;
  std::vector<std::uint64_t> total_served_;
  std::uint64_t total_cycles_ = 0;
  Cycle last_tick_ = 0;
};

std::unique_ptr<Scheduler> make_mise(std::uint32_t num_cores, Cycle epoch) {
  return std::make_unique<MiseScheduler>(num_cores, epoch);
}

std::vector<double> mise_estimated_slowdowns(const Scheduler& sched) {
  return static_cast<const MiseScheduler&>(sched).estimated_slowdowns();
}

}  // namespace ima::mem
