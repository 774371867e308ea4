#include "storage/async_io.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"

namespace redo::storage {

void AsyncIoStats::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("batches", batches);
  emit.Counter("ops", ops);
  emit.Counter("reads", reads);
  emit.Counter("writes", writes);
  emit.Counter("op_errors", op_errors);
  emit.Counter("sync_completions", sync_completions);
  emit.Gauge("max_in_flight", static_cast<int64_t>(max_in_flight));
}

/// Shared between the submitting thread, the completion workers, and
/// every copy of the batch handle.
struct AsyncIoBatch::State {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<AsyncIoOp> ops;
  size_t remaining = 0;       ///< ops not yet completed
  bool span_recorded = false; ///< submit→complete flight span emitted
  uint64_t submit_tick = 0;   ///< flight tick at submit (0: recorder off)
  std::chrono::steady_clock::time_point submit_time;
  uint64_t read_count = 0;
  uint64_t write_count = 0;
};

size_t AsyncIoBatch::size() const {
  return state_ == nullptr ? 0 : state_->ops.size();
}

Status AsyncIoBatch::Wait() {
  if (state_ == nullptr) return Status::Ok();
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->remaining == 0; });
  if (!state_->span_recorded) {
    state_->span_recorded = true;
    if (state_->submit_tick != 0 && !state_->ops.empty()) {
      obs::FlightRecorder::Global().EndSpan(
          obs::FlightEventType::kIoBatch, state_->submit_tick,
          state_->ops.size(), state_->read_count, state_->write_count);
    }
  }
  for (const AsyncIoOp& op : state_->ops) {
    if (!op.status.ok()) return op.status;
  }
  return Status::Ok();
}

const AsyncIoOp& AsyncIoBatch::op(size_t i) const {
  REDO_CHECK(state_ != nullptr);
  REDO_CHECK_LT(i, state_->ops.size());
  return state_->ops[i];
}

AsyncIoOp& AsyncIoBatch::op(size_t i) {
  REDO_CHECK(state_ != nullptr);
  REDO_CHECK_LT(i, state_->ops.size());
  return state_->ops[i];
}

AsyncIoBackend::AsyncIoBackend(Disk* disk, const AsyncIoOptions& options)
    : disk_(disk), options_(options) {
  REDO_CHECK(disk_ != nullptr);
  workers_.reserve(options_.queue_depth);
  for (size_t i = 0; i < options_.queue_depth; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncIoBackend::~AsyncIoBackend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

AsyncIoBatch AsyncIoBackend::Submit(std::vector<AsyncIoOp> ops) {
  AsyncIoBatch batch;
  auto state = std::make_shared<AsyncIoBatch::State>();
  state->ops = std::move(ops);
  state->remaining = state->ops.size();
  state->submit_time = std::chrono::steady_clock::now();
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (recorder.enabled() && !state->ops.empty()) {
    state->submit_tick = recorder.NowTick();
  }
  for (const AsyncIoOp& op : state->ops) {
    if (op.kind == AsyncIoOp::Kind::kRead) {
      ++state->read_count;
    } else {
      ++state->write_count;
    }
  }
  batch.state_ = state;

  const size_t n = state->ops.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.ops += n;
    stats_.reads += state->read_count;
    stats_.writes += state->write_count;
    in_flight_ += n;
    stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
    if (batch_size_histogram_ != nullptr) {
      batch_size_histogram_->Observe(n);
    }
    if (!synchronous()) {
      for (size_t i = 0; i < n; ++i) {
        ring_.push_back(Submission{state, i});
      }
    } else {
      stats_.sync_completions += n;
    }
  }

  if (synchronous()) {
    // Depth 0: execute inline, strictly in submission order — the
    // serial device model the depth sweep uses as its baseline.
    for (size_t i = 0; i < n; ++i) {
      ExecuteOp(state->ops[i]);
      CompleteOp(state, i);
    }
  } else {
    work_cv_.notify_all();
  }
  return batch;
}

void AsyncIoBackend::WorkerLoop() {
  for (;;) {
    Submission submission;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !ring_.empty(); });
      if (ring_.empty()) return;  // stop_ and fully drained
      submission = std::move(ring_.front());
      ring_.pop_front();
    }
    ExecuteOp(submission.batch->ops[submission.index]);
    CompleteOp(submission.batch, submission.index);
  }
}

void AsyncIoBackend::ExecuteOp(AsyncIoOp& op) {
  // The Disk call — where the write-fault hook and FaultInjector run,
  // i.e. the completion-time fault injection — is always serialized.
  // The simulated device time is charged inside that critical section
  // at depth 0 (one I/O in flight, however many threads submit) and
  // outside it at depth N, where it is the part queue depth overlaps.
  const uint64_t latency_us = op.kind == AsyncIoOp::Kind::kRead
                                  ? options_.read_latency_us
                                  : options_.write_latency_us;
  auto simulate_latency = [latency_us] {
    if (latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
    }
  };
  if (!synchronous()) simulate_latency();
  std::lock_guard<std::mutex> lock(disk_mu_);
  if (synchronous()) simulate_latency();
  if (op.kind == AsyncIoOp::Kind::kRead) {
    Result<Page> read = disk_->ReadPage(op.page);
    if (read.ok()) {
      op.payload = std::move(read).value();
      op.status = Status::Ok();
    } else {
      op.status = read.status();
    }
  } else {
    op.status = disk_->WritePage(op.page, op.payload);
  }
}

void AsyncIoBackend::CompleteOp(
    const std::shared_ptr<AsyncIoBatch::State>& batch, size_t index) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    REDO_CHECK_GT(in_flight_, 0u);
    --in_flight_;
    if (!batch->ops[index].status.ok()) ++stats_.op_errors;
    if (complete_us_histogram_ != nullptr) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          now - batch->submit_time);
      complete_us_histogram_->Observe(
          static_cast<uint64_t>(elapsed.count()));
    }
  }
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    REDO_CHECK_GT(batch->remaining, 0u);
    --batch->remaining;
    done = batch->remaining == 0;
  }
  if (done) batch->cv.notify_all();
}

AsyncIoStats AsyncIoBackend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AsyncIoBackend::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = AsyncIoStats{};
}

void AsyncIoBackend::RegisterMetrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) {
  registry.Register(
      prefix,
      [this](obs::MetricEmitter& emit) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.EmitMetrics(emit);
        emit.Gauge("in_flight", static_cast<int64_t>(in_flight_));
      },
      [this] { ResetStats(); });
  obs::Histogram* batch_pages = registry.GetHistogram(
      prefix + ".batch_pages", {1, 2, 4, 8, 16, 32, 64});
  obs::Histogram* complete_us =
      registry.GetHistogram(prefix + ".complete_us", obs::LatencyBucketsUs());
  std::lock_guard<std::mutex> lock(mu_);
  batch_size_histogram_ = batch_pages;
  complete_us_histogram_ = complete_us;
}

}  // namespace redo::storage
