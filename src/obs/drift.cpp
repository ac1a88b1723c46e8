#include "obs/drift.hpp"

#include <cmath>

namespace isoee::obs {

DriftMonitor& DriftMonitor::global() {
  static DriftMonitor* m =
      new DriftMonitor(DriftConfig{}, &MetricsRegistry::global());  // never destroyed
  return *m;
}

DriftMonitor& drift() { return DriftMonitor::global(); }

DriftMonitor::DriftMonitor(DriftConfig cfg, MetricsRegistry* registry)
    : cfg_(cfg), registry_(registry) {}

bool DriftMonitor::entry_degraded(const Entry& e) const {
  return e.samples >= cfg_.min_samples && e.ewma_abs > cfg_.threshold;
}

void DriftMonitor::refresh_metrics() {
  if (registry_ == nullptr) return;
  double max_abs = 0.0;
  std::size_t degraded = 0;
  for (const auto& [key, e] : entries_) {
    if (e.ewma_abs > max_abs) max_abs = e.ewma_abs;
    if (entry_degraded(e)) ++degraded;
  }
  registry_->gauge("drift.max_ewma_abs_err").set(max_abs);
  registry_->gauge("drift.degraded_keys").set(static_cast<double>(degraded));
  registry_->gauge("drift.model_degraded").set(degraded > 0 ? 1.0 : 0.0);
}

void DriftMonitor::record(const DriftKey& key, double predicted, double actual) {
  if (!std::isfinite(predicted) || !std::isfinite(actual) || actual <= 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (registry_ != nullptr) registry_->counter("drift.skipped").inc();
    return;
  }
  const double e = (predicted - actual) / actual;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = entries_.try_emplace(key);
  Entry& ent = it->second;
  ent.last_signed = e;
  if (fresh || ent.samples == 0) {
    ent.ewma_signed = e;
    ent.ewma_abs = std::fabs(e);
  } else {
    ent.ewma_signed = cfg_.alpha * e + (1.0 - cfg_.alpha) * ent.ewma_signed;
    ent.ewma_abs = cfg_.alpha * std::fabs(e) + (1.0 - cfg_.alpha) * ent.ewma_abs;
  }
  ++ent.samples;
  if (registry_ != nullptr) {
    registry_->counter("drift.samples").inc();
    registry_->histogram("drift.rel_error", default_rel_error_buckets()).observe(e);
  }
  refresh_metrics();
}

bool DriftMonitor::degraded() const { return degraded_count() > 0; }

std::size_t DriftMonitor::degraded_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, e] : entries_) {
    if (entry_degraded(e)) ++n;
  }
  return n;
}

std::vector<DriftKeyStats> DriftMonitor::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DriftKeyStats> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    out.push_back({key, e.samples, e.last_signed, e.ewma_signed, e.ewma_abs,
                   entry_degraded(e)});
  }
  return out;
}

std::vector<DriftKeyStats> DriftMonitor::degraded_keys() const {
  std::vector<DriftKeyStats> out;
  for (auto& s : snapshot()) {
    if (s.degraded) out.push_back(std::move(s));
  }
  return out;
}

DriftConfig DriftMonitor::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_;
}

void DriftMonitor::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  refresh_metrics();
}

}  // namespace isoee::obs
