#include "redo/metrics.h"

namespace redo::par {

void ParallelRedoMetrics::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("runs", runs);
  emit.Counter("workers_spawned", workers_spawned);
  emit.Counter("tasks", tasks);
  emit.Counter("images_superseded", images_superseded);
  emit.Counter("apply_busy_us", apply_busy_us);
  emit.Counter("apply_critical_path_us", apply_critical_path_us);
}

void InstantRedoMetrics::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("restarts", restarts.load(std::memory_order_relaxed));
  emit.Counter("pages_on_demand",
               pages_on_demand.load(std::memory_order_relaxed));
  emit.Counter("pages_background",
               pages_background.load(std::memory_order_relaxed));
  emit.Counter("tasks_applied", tasks_applied.load(std::memory_order_relaxed));
  emit.Counter("tasks_skipped", tasks_skipped.load(std::memory_order_relaxed));
  emit.Counter("images_superseded",
               images_superseded.load(std::memory_order_relaxed));
  emit.Counter("time_to_first_commit_us",
               time_to_first_commit_us.load(std::memory_order_relaxed));
}

void InstantRedoMetrics::Reset() {
  restarts.store(0, std::memory_order_relaxed);
  pages_on_demand.store(0, std::memory_order_relaxed);
  pages_background.store(0, std::memory_order_relaxed);
  tasks_applied.store(0, std::memory_order_relaxed);
  tasks_skipped.store(0, std::memory_order_relaxed);
  images_superseded.store(0, std::memory_order_relaxed);
  time_to_first_commit_us.store(0, std::memory_order_relaxed);
}

}  // namespace redo::par
