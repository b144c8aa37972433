#include "obs/stat_registry.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/tail.hh"

namespace ima::obs {

StatRegistry::OwnerScope::OwnerScope(StatRegistry& reg, std::weak_ptr<const void> alive)
    : reg_(reg) {
  reg_.owner_stack_.push_back(std::move(alive));
}

StatRegistry::OwnerScope::~OwnerScope() { reg_.owner_stack_.pop_back(); }

void StatRegistry::check_alive(const Entry& e) {
  if (e.watched && e.owner.expired())
    throw std::logic_error("StatRegistry: stat '" + e.path +
                           "' read after its owning component was destroyed "
                           "(see the lifetime rule in obs/stat_registry.hh)");
}

std::string join_path(std::string_view prefix, std::string_view name) {
  if (prefix.empty()) return std::string(name);
  if (name.empty()) return std::string(prefix);
  std::string out;
  out.reserve(prefix.size() + 1 + name.size());
  out.append(prefix);
  out.push_back('.');
  out.append(name);
  return out;
}

void StatRegistry::counter(std::string path, const std::uint64_t* v) {
  counter_fn(std::move(path), [v] { return static_cast<double>(*v); });
}

void StatRegistry::counter_fn(std::string path, std::function<double()> fn) {
  Entry e{std::move(path), StatKind::Counter, std::move(fn), {}, false};
  if (!owner_stack_.empty()) {
    e.owner = owner_stack_.back();
    e.watched = true;
  }
  entries_.push_back(std::move(e));
}

void StatRegistry::gauge(std::string path, std::function<double()> fn) {
  Entry e{std::move(path), StatKind::Gauge, std::move(fn), {}, false};
  if (!owner_stack_.empty()) {
    e.owner = owner_stack_.back();
    e.watched = true;
  }
  entries_.push_back(std::move(e));
}

void StatRegistry::running(const std::string& path, const RunningStat* rs) {
  counter_fn(join_path(path, "count"), [rs] { return static_cast<double>(rs->count()); });
  gauge(join_path(path, "mean"), [rs] { return rs->mean(); });
  gauge(join_path(path, "min"), [rs] { return rs->min(); });
  gauge(join_path(path, "max"), [rs] { return rs->max(); });
  gauge(join_path(path, "stddev"), [rs] { return rs->stddev(); });
}

void StatRegistry::histogram(const std::string& path, const Histogram* h) {
  counter_fn(join_path(path, "count"),
             [h] { return static_cast<double>(h->stat().count()); });
  gauge(join_path(path, "mean"), [h] { return h->stat().mean(); });
  gauge(join_path(path, "p50"), [h] { return h->percentile(0.50); });
  gauge(join_path(path, "p95"), [h] { return h->percentile(0.95); });
  gauge(join_path(path, "p99"), [h] { return h->percentile(0.99); });
  gauge(join_path(path, "p999"), [h] { return h->percentile(0.999); });
  gauge(join_path(path, "max"), [h] { return h->stat().max(); });
}

void StatRegistry::tail(const std::string& path, const TailRecorder* t) {
  counter_fn(join_path(path, "count"),
             [t] { return static_cast<double>(t->count()); });
  gauge(join_path(path, "sum"), [t] { return t->sum(); });
  gauge(join_path(path, "mean"), [t] { return t->mean(); });
  gauge(join_path(path, "min"), [t] { return t->min(); });
  gauge(join_path(path, "max"), [t] { return t->max(); });
  gauge(join_path(path, "stddev"), [t] { return t->stat().stddev(); });
  gauge(join_path(path, "p50"), [t] { return t->percentile(0.50); });
  gauge(join_path(path, "p95"), [t] { return t->percentile(0.95); });
  gauge(join_path(path, "p99"), [t] { return t->percentile(0.99); });
  gauge(join_path(path, "p999"), [t] { return t->percentile(0.999); });
}

const StatRegistry::Entry* StatRegistry::find(std::string_view path) const {
  for (const auto& e : entries_)
    if (e.path == path) return &e;
  return nullptr;
}

std::optional<double> StatRegistry::value(std::string_view path) const {
  const Entry* e = find(path);
  if (!e) return std::nullopt;
  check_alive(*e);
  return e->read();
}

std::vector<const StatRegistry::Entry*> StatRegistry::match(std::string_view prefix) const {
  std::vector<const Entry*> out;
  for (const auto& e : entries_)
    if (e.path.size() >= prefix.size() && std::string_view(e.path).substr(0, prefix.size()) == prefix)
      out.push_back(&e);
  return out;
}

StatRegistry::Snapshot StatRegistry::snapshot(std::string_view prefix) const {
  Snapshot snap;
  snap.values.reserve(entries_.size());
  for (const Entry* e : match(prefix)) {
    check_alive(*e);
    snap.values.push_back(Snapshot::Value{e->path, e->kind, e->read()});
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });
  return snap;
}

std::optional<double> StatRegistry::Snapshot::at(std::string_view path) const {
  const auto it = std::lower_bound(
      values.begin(), values.end(), path,
      [](const Value& v, std::string_view p) { return v.path < p; });
  if (it == values.end() || it->path != path) return std::nullopt;
  return it->value;
}

std::string StatRegistry::Snapshot::render() const {
  std::ostringstream os;
  for (const auto& v : values) os << v.path << '=' << v.value << '\n';
  return os.str();
}

StatRegistry::Snapshot StatRegistry::diff(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.values.reserve(after.values.size());
  for (const auto& v : after.values) {
    double value = v.value;
    if (v.kind == StatKind::Counter) {
      if (const auto prev = before.at(v.path)) value -= *prev;
    }
    out.values.push_back(Snapshot::Value{v.path, v.kind, value});
  }
  return out;
}

}  // namespace ima::obs
