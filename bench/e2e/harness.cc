#include "harness.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "engine/command.h"
#include "engine/minidb.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/recovery_trace.h"

namespace redo::e2e {

void Samples::Append(const Samples& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(begin_us, other.begin_us);
  append(write_us, other.write_us);
  append(read_us, other.read_us);
  append(commit_us, other.commit_us);
  append(batch_us, other.batch_us);
  acked += other.acked;
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kHost = "127.0.0.1";
constexpr int kReconnectDeadlineMs = 10000;
/// Oracle failures kept verbatim per client (all are counted).
constexpr size_t kMaxViolationsKept = 8;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- Transports ----

/// What one unit's replies and timings were.
struct UnitReplies {
  std::vector<engine::Reply> replies;  ///< batch order
  std::vector<double> step_us;         ///< per batch command
  double batch_us = 0;
  std::optional<engine::Reply> commit;
  double commit_us = 0;
};

/// How a client's commands reach the engine: over TCP, or straight into
/// engine::Dispatch. The oracle and the sample bookkeeping are shared.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Status Run(const Unit& unit, UnitReplies* out) = 0;
};

/// Sends a unit's batch back to back, then collects the replies in
/// order: each command is timed from its send to its reply.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(uint16_t port) : port_(port) {}

  Status Connect() { return client_.Connect(kHost, port_); }

  /// Drops the connection the crash closed and waits, through STATUS,
  /// until the restarted engine serves sessions.
  Status Reconnect() {
    client_.Close();
    Result<engine::Reply> serving =
        client_.AwaitServing(kHost, port_, kReconnectDeadlineMs);
    return serving.ok() ? Status::Ok() : serving.status();
  }

  Status Run(const Unit& unit, UnitReplies* out) override {
    out->replies.clear();
    out->step_us.clear();
    out->commit.reset();
    send_at_.resize(unit.batch.size());
    uint64_t first_id = 0;
    for (size_t i = 0; i < unit.batch.size(); ++i) {
      send_at_[i] = Clock::now();
      Result<uint64_t> id = client_.SendCommand(unit.batch[i].command);
      if (!id.ok()) return id.status();
      if (i == 0) first_id = id.value();
    }
    for (size_t i = 0; i < unit.batch.size(); ++i) {
      uint64_t id = 0;
      Result<engine::Reply> reply = client_.ReceiveReply(&id);
      const Clock::time_point now = Clock::now();
      if (!reply.ok()) return reply.status();
      if (id != first_id + i) {
        return Status::Corruption("reply " + std::to_string(id) +
                                  " out of order");
      }
      out->replies.push_back(std::move(reply.value()));
      out->step_us.push_back(Us(now - send_at_[i]));
      out->batch_us = Us(now - send_at_[0]);
    }
    if (unit.commit) {
      const Clock::time_point start = Clock::now();
      Result<engine::Reply> reply = client_.Call(engine::MakeCommitCommand());
      if (!reply.ok()) return reply.status();
      out->commit_us = Us(Clock::now() - start);
      out->commit = std::move(reply.value());
    }
    return Status::Ok();
  }

 private:
  uint16_t port_;
  net::NetClient client_;
  std::vector<Clock::time_point> send_at_;
};

/// Executes a unit on an in-process session, one timed Dispatch call at
/// a time; the batch time is the sum of its calls.
class DispatchTransport final : public Transport {
 public:
  explicit DispatchTransport(engine::MiniDb* db) : session_(db->NewSession()) {}

  Status Run(const Unit& unit, UnitReplies* out) override {
    out->replies.clear();
    out->step_us.clear();
    out->commit.reset();
    out->batch_us = 0;
    for (const Step& step : unit.batch) {
      const Clock::time_point start = Clock::now();
      engine::Reply reply = engine::Dispatch(session_, step.command);
      const double us = Us(Clock::now() - start);
      out->replies.push_back(std::move(reply));
      out->step_us.push_back(us);
      out->batch_us += us;
    }
    if (unit.commit) {
      const Clock::time_point start = Clock::now();
      out->commit = engine::Dispatch(session_, engine::MakeCommitCommand());
      out->commit_us = Us(Clock::now() - start);
    }
    return Status::Ok();
  }

 private:
  engine::MiniDb::Session session_;
};

// ---- One client's stream, model and oracle ----

class ClientModel {
 public:
  ClientModel(size_t index, Mix mix, uint64_t seed, uint64_t cycle)
      : index_(index),
        traffic_(mix, seed, cycle, index),
        current_(kOwnedSlots, 0),
        committed_(kOwnedSlots, 0) {}

  Traffic& traffic() { return traffic_; }

  /// Runs `unit`, checks every reply against the model, and records
  /// the timings into `samples` (null: untimed).
  Status Run(Transport& transport, const Unit& unit, Samples* samples) {
    attempted_ += unit.batch.size() + (unit.commit ? 1 : 0);
    const Status sent = transport.Run(unit, &replies_);
    if (!sent.ok()) {
      ++failed_;
      return sent;
    }
    for (size_t i = 0; i < unit.batch.size(); ++i) {
      const Step& step = unit.batch[i];
      const engine::Reply& reply = replies_.replies[i];
      if (!reply.ok()) {
        ++failed_;
        return Status(reply.code, std::string(engine::CommandTypeName(
                                      step.command.type)) +
                                      ": " + reply.message);
      }
      const double us = replies_.step_us[i];
      switch (step.command.type) {
        case engine::CommandType::kBegin:
          if (samples != nullptr) samples->begin_us.push_back(us);
          break;
        case engine::CommandType::kApply:
          current_[step.owned] = step.value;
          dirty_.push_back(step.owned);
          if (samples != nullptr) samples->write_us.push_back(us);
          break;
        case engine::CommandType::kReadSlot:
          if (step.owned >= 0 && reply.value != current_[step.owned]) {
            Violation("read slot " + std::to_string(step.owned) + " = " +
                      std::to_string(reply.value) + ", expected " +
                      std::to_string(current_[step.owned]));
          }
          if (samples != nullptr) samples->read_us.push_back(us);
          break;
        default:
          break;
      }
      if (samples != nullptr) ++samples->acked;
    }
    if (samples != nullptr && !unit.batch.empty()) {
      samples->batch_us.push_back(replies_.batch_us);
    }
    if (unit.commit) {
      if (!replies_.commit->ok()) {
        ++failed_;
        return Status(replies_.commit->code, "commit: " + replies_.commit->message);
      }
      for (int owned : dirty_) committed_[owned] = current_[owned];
      dirty_.clear();
      if (!first_commit_at_.has_value()) first_commit_at_ = Clock::now();
      if (samples != nullptr) {
        samples->commit_us.push_back(replies_.commit_us);
        ++samples->acked;
      }
    }
    return Status::Ok();
  }

  /// Runs `units` units of the traffic stream, then closes it with a
  /// Commit if writes are still uncommitted.
  Status RunTraffic(Transport& transport, size_t units, Samples* samples) {
    for (size_t i = 0; i < units; ++i) {
      REDO_RETURN_IF_ERROR(Run(transport, traffic_.Next(), samples));
    }
    const Unit flush = traffic_.Flush();
    return flush.commit ? Run(transport, flush, samples) : Status::Ok();
  }

  /// Reads back every owned slot, kHotBatch reads per batch; each read
  /// must return the model's value.
  Status ReadBack(Transport& transport, Samples* samples) {
    for (size_t first = 0; first < kOwnedSlots; first += kHotBatch) {
      Unit unit;
      for (size_t index = first; index < first + kHotBatch; ++index) {
        const SlotRef ref = OwnedSlot(index_, index);
        unit.batch.push_back({engine::MakeReadSlotCommand(ref.page, ref.slot),
                              static_cast<int>(index)});
      }
      REDO_RETURN_IF_ERROR(Run(transport, unit, samples));
    }
    return Status::Ok();
  }

  /// The crash rolls back every write no commit acknowledged.
  void DropUncommitted() {
    for (int owned : dirty_) current_[owned] = committed_[owned];
    dirty_.clear();
    first_commit_at_.reset();
  }

  /// When the first commit since the last crash was acknowledged.
  const std::optional<Clock::time_point>& first_commit_at() const {
    return first_commit_at_;
  }

  void Violation(std::string what) {
    ++violation_count_;
    if (violations_.size() < kMaxViolationsKept) {
      violations_.push_back("client " + std::to_string(index_) + ": " +
                            std::move(what));
    }
  }

  /// Adds this client's counters and oracle failures to `m`.
  void Report(Measurements* m) const {
    m->attempted += attempted_;
    m->failed += failed_;
    m->violations.insert(m->violations.end(), violations_.begin(),
                         violations_.end());
    if (violation_count_ > violations_.size()) {
      m->violations.push_back(
          "client " + std::to_string(index_) + ": " +
          std::to_string(violation_count_ - violations_.size()) +
          " more violations");
    }
  }

 private:
  size_t index_;
  Traffic traffic_;
  std::vector<int64_t> current_;    ///< last value written, acked or not
  std::vector<int64_t> committed_;  ///< last value a commit acknowledged
  std::vector<int> dirty_;          ///< written since the last commit
  std::optional<Clock::time_point> first_commit_at_;
  UnitReplies replies_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
};

// ---- Helpers ----

/// Runs fn(c) for every client on its own thread. Join() returns the
/// first error.
class ClientThreads {
 public:
  explicit ClientThreads(const std::function<Status(size_t)>& fn)
      : results_(kClients) {
    for (size_t c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, fn, c] { results_[c] = fn(c); });
    }
  }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;
  ~ClientThreads() { Join(); }

  Status Join() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    for (const Status& result : results_) {
      if (!result.ok()) return result;
    }
    return Status::Ok();
  }

 private:
  std::vector<Status> results_;
  std::vector<std::thread> threads_;
};

Status ForEachClient(const std::function<Status(size_t)>& fn) {
  return ClientThreads(fn).Join();
}

/// Reads one slot of each page in this client's quarter of the database,
/// so the measured units find the pool warm (every workload fits).
Status Warm(ClientModel& model, Transport& transport, size_t client) {
  const size_t per_client = kPages / kClients;
  for (size_t first = 0; first < per_client; first += kHotBatch) {
    Unit unit;
    for (size_t i = first; i < first + kHotBatch && i < per_client; ++i) {
      const auto page = static_cast<storage::PageId>(client * per_client + i);
      unit.batch.push_back({engine::MakeReadSlotCommand(page, 0)});
    }
    REDO_RETURN_IF_ERROR(model.Run(transport, unit, nullptr));
  }
  return Status::Ok();
}

uint64_t Counter(const obs::Snapshot& after, const obs::Snapshot& before,
                 const std::string& name) {
  return static_cast<uint64_t>(after.Value(name) - before.Value(name));
}

void AddHistogram(const obs::Snapshot& after, const obs::Snapshot& before,
                  const std::string& name, uint64_t* sum, uint64_t* count) {
  const obs::SnapshotEntry* a = after.Find(name);
  const obs::SnapshotEntry* b = before.Find(name);
  if (a == nullptr) return;
  *sum += a->sum - (b != nullptr ? b->sum : 0);
  *count += a->count - (b != nullptr ? b->count : 0);
}

/// Drains the flight recorder every 50 ms (its per-thread rings hold
/// 8192 events, a fraction of a second of traffic) and tallies the
/// session and latch spans.
class FlightDrain {
 public:
  explicit FlightDrain(LayerTally* tally)
      : tally_(tally), thread_([this] { Loop(); }) {}
  FlightDrain(const FlightDrain&) = delete;
  FlightDrain& operator=(const FlightDrain&) = delete;
  ~FlightDrain() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Tally(obs::FlightRecorder::Global().Drain());
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      lock.unlock();
      Tally(obs::FlightRecorder::Global().Drain());
      lock.lock();
    }
  }

  void Tally(const std::vector<obs::FlightEvent>& events) {
    for (const obs::FlightEvent& event : events) {
      if (event.type == obs::FlightEventType::kSessionOp) {
        ++tally_->session_ops;
      } else if (event.type == obs::FlightEventType::kLatchWait) {
        tally_->latch_wait_us += event.dur;
        // Ticks are whole microseconds: an uncontended acquire that
        // straddles a tick boundary reads 1, so only >= 2 is a wait.
        if (event.dur >= 2) ++tally_->latch_waits;
      }
    }
  }

  LayerTally* tally_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct ProbeTimes {
  Clock::time_point serving_at, wrote_at, committed_at;
};

/// The restart probe: a fresh client waits until the engine serves,
/// writes one slot and commits it — the first commit after the crash.
Status RunProbe(uint16_t port, storage::PageId page, int64_t value,
                ProbeTimes* times) {
  net::NetClient probe;
  Result<engine::Reply> serving =
      probe.AwaitServing(kHost, port, kReconnectDeadlineMs);
  if (!serving.ok()) return serving.status();
  times->serving_at = Clock::now();
  Result<engine::Reply> wrote =
      probe.Call(engine::MakeWriteSlotCommand(page, kProbeSlot, value));
  if (!wrote.ok()) return wrote.status();
  if (!wrote.value().ok()) return engine::ReplyStatus(wrote.value());
  times->wrote_at = Clock::now();
  Result<engine::Reply> committed = probe.Call(engine::MakeCommitCommand());
  if (!committed.ok()) return committed.status();
  if (!committed.value().ok()) return engine::ReplyStatus(committed.value());
  times->committed_at = Clock::now();
  return Status::Ok();
}

// ---- One TCP cycle ----

/// One cycle over TCP: a fresh engine, the workload's units, then its
/// crash/restart rounds, each checked by the oracle.
class TcpCycle {
 public:
  TcpCycle(const Workload& workload, uint64_t seed, uint64_t cycle,
           Measurements* m, LayerTally* layers)
      : workload_(workload),
        seed_(seed),
        cycle_(cycle),
        m_(m),
        layers_(layers) {}
  TcpCycle(const TcpCycle&) = delete;
  TcpCycle& operator=(const TcpCycle&) = delete;

  Status Run() {
    Status status = SetUp();
    if (status.ok()) status = History();
    for (size_t round = 0;
         status.ok() && round < workload_.restarts_per_cycle; ++round) {
      status = Restart(round);
    }
    if (status.ok()) {
      m_->serving.push_back(std::move(serving_));
      m_->window_s.push_back(window_s_);
      ++m_->cycles;
    }
    for (const auto& model : models_) model->Report(m_);
    // Teardown on every path: Crash() joins instant-restart drain
    // workers and the committer whatever state the engine is in.
    transports_.clear();
    if (server_ != nullptr) server_->Stop();
    if (db_ != nullptr) db_->Crash();
    return status;
  }

 private:
  /// Engine, server, connected clients and a warm pool: set-up ends
  /// where the first measured command starts.
  Status SetUp() {
    const Clock::time_point start = Clock::now();
    const engine::MiniDbOptions options = EngineConfig();
    db_ = std::make_unique<engine::MiniDb>(
        options, methods::MakeMethod(workload_.method, {kPages}));
    if (layers_ != nullptr) db_->Attach({nullptr, &tracer_});
    REDO_RETURN_IF_ERROR(db_->BeginConcurrent());
    server_ = std::make_unique<net::NetServer>(db_.get(), options.net);
    REDO_RETURN_IF_ERROR(server_->Start());
    for (size_t c = 0; c < kClients; ++c) {
      transports_.push_back(std::make_unique<TcpTransport>(server_->port()));
      REDO_RETURN_IF_ERROR(transports_.back()->Connect());
      models_.push_back(
          std::make_unique<ClientModel>(c, workload_.mix, seed_, cycle_));
    }
    REDO_RETURN_IF_ERROR(ForEachClient([&](size_t c) {
      return Warm(*models_[c], *transports_[c], c);
    }));
    m_->setup_s.push_back(Seconds(Clock::now() - start));
    return Status::Ok();
  }

  /// The units before the first crash, with a checkpoint at 3/4.
  Status History() {
    std::vector<Samples> per_client(kClients);
    double history_s = 0;
    auto phase = [&](size_t units) {
      const Clock::time_point start = Clock::now();
      const Status result = ForEachClient([&](size_t c) {
        return models_[c]->RunTraffic(*transports_[c], units, &per_client[c]);
      });
      history_s += Seconds(Clock::now() - start);
      return result;
    };
    const obs::Snapshot before = db_->metrics().TakeSnapshot();
    const net::NetServerStats& net = server_->stats();
    const uint64_t net_bytes = net.bytes_in.load() + net.bytes_out.load();
    const uint64_t net_commands = net.commands_executed.load();
    REDO_RETURN_IF_ERROR(phase(workload_.units_before));
    REDO_RETURN_IF_ERROR(db_->Checkpoint());
    REDO_RETURN_IF_ERROR(phase(workload_.units_after));
    const obs::Snapshot after = db_->metrics().TakeSnapshot();

    Samples history;
    for (const Samples& samples : per_client) history.Append(samples);
    m_->history_writes += history.write_us.size();
    m_->history_log_bytes += Counter(after, before, "wal.stable_bytes");
    m_->history_s += history_s;
    if (workload_.units_after_crash == 0) {
      serving_ = history;
      window_s_ = history_s;
    }
    m_->history.Append(history);
    if (layers_ != nullptr) {
      layers_->group_commits += Counter(after, before, "wal.group_commits");
      layers_->group_batches += Counter(after, before, "wal.group_batches");
      layers_->appends += Counter(after, before, "wal.appends");
      layers_->ring_stalls += Counter(after, before, "wal.group_ring_stalls");
      AddHistogram(after, before, "wal.commit.force_us", &layers_->force_sum,
                   &layers_->force_count);
      AddHistogram(after, before, "wal.commit.ack_wait_us",
                   &layers_->ack_wait_sum, &layers_->ack_wait_count);
      AddHistogram(after, before, "wal.append_bytes",
                   &layers_->append_bytes_sum, &layers_->append_bytes_count);
      layers_->pool_hits += Counter(after, before, "pool.hits");
      layers_->pool_fetches += Counter(after, before, "pool.fetches");
      layers_->net_bytes +=
          net.bytes_in.load() + net.bytes_out.load() - net_bytes;
      layers_->net_commands += net.commands_executed.load() - net_commands;
    }
    return Status::Ok();
  }

  /// One round: strand a loser, crash with every client connected,
  /// restart, check.
  Status Restart(size_t round) {
    const bool instant = round % 2 == 0;
    const uint64_t restart_id = cycle_ * workload_.restarts_per_cycle + round;

    // The loser's writes are acked, then a later commit by another
    // client forces them stable. Nothing ever commits the loser.
    REDO_RETURN_IF_ERROR(
        models_[0]->Run(*transports_[0], models_[0]->traffic().Loser(), nullptr));
    REDO_RETURN_IF_ERROR(models_[1]->Run(
        *transports_[1], models_[1]->traffic().WriteThenCommit(), nullptr));

    const Clock::time_point crash_at = Clock::now();
    db_->FreezeCommits();
    server_->DisableCommands();
    REDO_RETURN_IF_ERROR(server_->DisconnectAll());
    db_->Crash();
    for (const auto& model : models_) model->DropUncommitted();
    const obs::Snapshot crashed = db_->metrics().TakeSnapshot();
    // Re-open the command gate before recovery: clients wait in
    // AwaitServing until the engine is concurrent again, and opening the
    // gate after that would race their first command.
    server_->EnableCommands();

    std::vector<Samples> resumed_samples(kClients);
    std::optional<ClientThreads> resumed;
    if (workload_.units_after_crash > 0) {
      resumed.emplace([&](size_t c) {
        REDO_RETURN_IF_ERROR(transports_[c]->Reconnect());
        return models_[c]->RunTraffic(*transports_[c],
                                      workload_.units_after_crash,
                                      &resumed_samples[c]);
      });
    }
    const storage::PageId probe_page = ProbePage(seed_, restart_id);
    probes_.emplace(probe_page, 0);
    Status status;
    ProbeTimes probe;
    if (instant) {
      status = db_->RecoverInstant();
      const Clock::time_point open_at = Clock::now();
      const auto value = static_cast<int64_t>(0x7e57ULL << 32 | (restart_id + 1));
      if (status.ok()) {
        m_->attempted += 2;
        status = RunProbe(server_->port(), probe_page, value, &probe);
        if (!status.ok()) ++m_->failed;
      }
      if (status.ok()) {
        probes_[probe_page] = value;
        if (layers_ != nullptr) {
          layers_->await_serving_ms.push_back(Ms(probe.serving_at - open_at));
          layers_->first_write_ms.push_back(
              Ms(probe.wrote_at - probe.serving_at));
        }
        status = db_->WaitUntilRecovered();
        if (status.ok()) m_->recovered_ms.push_back(Ms(Clock::now() - crash_at));
      }
    } else {
      status = db_->Recover();
      if (status.ok()) status = db_->BeginConcurrent();
      if (status.ok()) m_->recover_ms.push_back(Ms(Clock::now() - crash_at));
    }
    if (resumed.has_value()) {
      const Status joined = resumed->Join();
      if (status.ok()) status = joined;
      window_s_ += Seconds(Clock::now() - crash_at);
      for (const Samples& samples : resumed_samples) serving_.Append(samples);
    }
    REDO_RETURN_IF_ERROR(status);
    if (instant) {
      // Time to first commit: the earliest commit any client got acked,
      // the probe's or (under load) a resumed client's.
      Clock::time_point first = probe.committed_at;
      for (const auto& model : models_) {
        if (model->first_commit_at().has_value()) {
          first = std::min(first, *model->first_commit_at());
        }
      }
      m_->ttfc_ms.push_back(Ms(first - crash_at));
    }
    if (layers_ != nullptr) TallyRestart(instant, crashed);

    // The oracle: every acked commit reads back, the loser is rolled
    // back, every probe commit is durable. Workloads without read
    // traffic time this read-back as their reads.
    std::vector<Samples> read_back(kClients);
    REDO_RETURN_IF_ERROR(ForEachClient([&](size_t c) {
      REDO_RETURN_IF_ERROR(transports_[c]->Reconnect());
      return models_[c]->ReadBack(*transports_[c], &read_back[c]);
    }));
    if (workload_.mix == Mix::kTxn) {
      for (const Samples& samples : read_back) {
        serving_.read_us.insert(serving_.read_us.end(),
                                samples.read_us.begin(), samples.read_us.end());
      }
    }
    return CheckProbes();
  }

  Status CheckProbes() {
    net::NetClient checker;
    REDO_RETURN_IF_ERROR(checker.Connect(kHost, server_->port()));
    for (const auto& [page, expected] : probes_) {
      ++m_->attempted;
      Result<engine::Reply> read =
          checker.Call(engine::MakeReadSlotCommand(page, kProbeSlot));
      if (!read.ok() || !read.value().ok()) {
        ++m_->failed;
        return read.ok() ? engine::ReplyStatus(read.value()) : read.status();
      }
      if (read.value().value != expected) {
        models_[0]->Violation("probe slot on page " + std::to_string(page) +
                              " = " + std::to_string(read.value().value) +
                              ", expected " + std::to_string(expected));
      }
    }
    return Status::Ok();
  }

  void TallyRestart(bool instant, const obs::Snapshot& crashed) {
    const obs::Snapshot now = db_->metrics().TakeSnapshot();
    layers_->restart_pool_misses += Counter(now, crashed, "pool.misses");
    layers_->restart_disk_reads += Counter(now, crashed, "disk.reads");
    if (instant) {
      ++layers_->instant_restarts;
      layers_->instant_on_demand +=
          Counter(now, crashed, "redo.instant.pages_on_demand");
      layers_->instant_background +=
          Counter(now, crashed, "redo.instant.pages_background");
      layers_->instant_applied +=
          Counter(now, crashed, "redo.instant.tasks_applied");
      layers_->instant_skipped +=
          Counter(now, crashed, "redo.instant.tasks_skipped");
    } else {
      ++layers_->quiescing_restarts;
      layers_->parallel_tasks += Counter(now, crashed, "redo.parallel.tasks");
      layers_->parallel_handoffs +=
          Counter(now, crashed, "redo.parallel.handoffs");
      layers_->parallel_critical_us +=
          Counter(now, crashed, "redo.parallel.apply_critical_path_us");
      layers_->parallel_busy_us +=
          Counter(now, crashed, "redo.parallel.apply_busy_us");
    }
    for (const obs::TraceEvent& event : tracer_.events()) {
      if (event.event == "phase-end" && !event.strings.empty()) {
        layers_->phase_ms[event.strings.front().second].push_back(
            static_cast<double>(event.wall_us) / 1000.0);
      }
    }
    layers_->verdicts += tracer_.run_verdicts().total();
    layers_->verdicts_applied += tracer_.run_verdicts().applied;
    tracer_.Clear();
  }

  const Workload& workload_;
  const uint64_t seed_;
  const uint64_t cycle_;
  Measurements* m_;
  LayerTally* layers_;
  obs::RecoveryTracer tracer_;  ///< outlives the engine it is attached to
  std::unique_ptr<engine::MiniDb> db_;
  std::unique_ptr<net::NetServer> server_;  ///< stopped before db_ dies
  std::vector<std::unique_ptr<TcpTransport>> transports_;
  std::vector<std::unique_ptr<ClientModel>> models_;
  std::map<storage::PageId, int64_t> probes_;  ///< probe slot -> committed
  Samples serving_;  ///< this cycle's measured window
  double window_s_ = 0;
};

}  // namespace

Status RunTcpArm(const Workload& workload, uint64_t seed, double seconds,
                 Measurements* m, LayerTally* layers) {
  std::optional<FlightDrain> drain;
  if (layers != nullptr) {
    obs::FlightRecorder::Global().Reset();
    drain.emplace(layers);
  }
  const Clock::time_point start = Clock::now();
  Status status;
  for (uint64_t cycle = 0;; ++cycle) {
    status = TcpCycle(workload, seed, cycle, m, layers).Run();
    if (!status.ok() || !m->violations.empty()) break;
    if (Seconds(Clock::now() - start) >= seconds) break;
  }
  if (layers != nullptr) {
    drain.reset();
    layers->flight_dropped = obs::FlightRecorder::Global().events_dropped();
  }
  return status;
}

Status RunDispatchArm(const Workload& workload, uint64_t seed, double seconds,
                      Samples* dispatch, Measurements* m) {
  const Clock::time_point start = Clock::now();
  for (uint64_t cycle = 0;; ++cycle) {
    auto db = std::make_unique<engine::MiniDb>(
        EngineConfig(), methods::MakeMethod(workload.method, {kPages}));
    REDO_RETURN_IF_ERROR(db->BeginConcurrent());
    std::vector<std::unique_ptr<DispatchTransport>> transports;
    std::vector<std::unique_ptr<ClientModel>> models;
    for (size_t c = 0; c < kClients; ++c) {
      transports.push_back(std::make_unique<DispatchTransport>(db.get()));
      models.push_back(
          std::make_unique<ClientModel>(c, workload.mix, seed, cycle));
    }
    // The same units as the TCP arm's history; the loser's Begin and
    // the read-back add begin and read timings to every workload.
    std::vector<Samples> traffic(kClients), extra(kClients);
    Status status = ForEachClient([&](size_t c) {
      REDO_RETURN_IF_ERROR(Warm(*models[c], *transports[c], c));
      return models[c]->RunTraffic(*transports[c], workload.units_before,
                                   &traffic[c]);
    });
    if (status.ok()) status = db->Checkpoint();
    if (status.ok()) {
      status = ForEachClient([&](size_t c) {
        REDO_RETURN_IF_ERROR(models[c]->RunTraffic(
            *transports[c], workload.units_after, &traffic[c]));
        Traffic& stream = models[c]->traffic();
        if (c == 0) {
          REDO_RETURN_IF_ERROR(
              models[c]->Run(*transports[c], stream.Loser(), &extra[c]));
        } else if (c == 1) {
          REDO_RETURN_IF_ERROR(models[c]->Run(
              *transports[c], stream.WriteThenCommit(), &extra[c]));
        }
        return models[c]->ReadBack(*transports[c], &extra[c]);
      });
    }
    for (size_t c = 0; c < kClients; ++c) {
      models[c]->Report(m);
      extra[c].batch_us.clear();
      dispatch->Append(traffic[c]);
      dispatch->Append(extra[c]);
    }
    // Destroying the sessions aborts the loser at run time.
    transports.clear();
    db->Crash();
    REDO_RETURN_IF_ERROR(status);
    if (!m->violations.empty() ||
        Seconds(Clock::now() - start) >= seconds) {
      return Status::Ok();
    }
  }
}

}  // namespace redo::e2e
