#include "checker/closed_loop.h"

#include <iterator>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

namespace redo::checker {
namespace {

using engine::Command;
using engine::Reply;
using storage::PageId;

/// How long a client may take to (re)connect and see the engine serve.
constexpr int kConnectDeadlineMs = 10000;

Command RandomOp(Rng& rng, PageRange pages) {
  auto pick = [&] {
    return pages.first + static_cast<PageId>(rng.Below(pages.count));
  };
  if (pages.count >= 2 && rng.Below(100) < 5) {
    engine::SplitOp split;
    split.src = pick();
    split.dst = pages.first +
                static_cast<PageId>((split.src - pages.first + 1 +
                                     rng.Below(pages.count - 1)) %
                                    pages.count);
    if (rng.Below(2) == 0) {
      split = engine::MakeSlotTransfer(
          split.src, static_cast<uint32_t>(rng.Below(kReadBackRun)),
          split.dst, static_cast<uint32_t>(rng.Below(kReadBackRun)));
    }
    return engine::MakeSplitCommand(split);
  }
  if (rng.Below(100) < 3) {
    return engine::MakeApplyCommand(engine::MakeBlindFormat(
        pick(), static_cast<int64_t>(rng.Below(1000))));
  }
  const PageId page = pick();
  const size_t slot = kReadBackBases[rng.Below(2)] + rng.Below(kReadBackRun);
  return engine::MakeWriteSlotCommand(page, static_cast<uint32_t>(slot),
                                      static_cast<int64_t>(rng.Below(100000)));
}

}  // namespace

ClientStats& ClientStats::operator+=(const ClientStats& other) {
  for (size_t ClientStats::*field :
       {&ClientStats::ops, &ClientStats::splits, &ClientStats::commits_acked,
        &ClientStats::refused, &ClientStats::in_doubt,
        &ClientStats::txns_committed, &ClientStats::txns_aborted,
        &ClientStats::reconnects, &ClientStats::reconnects_during_serving,
        &ClientStats::slots_verified}) {
    this->*field += other.*field;
  }
  request_us.Merge(other.request_us);
  commit_us.Merge(other.commit_us);
  return *this;
}

/// Journaling is fate-driven: plain and committed writes enter the
/// journal with the LSNs their replies carry; a rolled-back or cut-off
/// transaction never does (a guaranteed loser); a transaction whose
/// commit was refused or lost enters tagged with its id, for a winners
/// filter to decide.
bool ClosedLoopClient::RunBatches(size_t op_budget,
                                  Clock::time_point deadline) {
  auto fail = [this](const std::string& what, const std::string& why) {
    if (ledger_.failure.empty()) ledger_.failure = what + " failed: " + why;
    return false;
  };
  auto cut_off_now = [this] { Close(); return true; };
  // One command; nullopt when a crash cut it off.
  auto run_one = [this](const Command& command,
                        obs::Histogram* latency_us) -> std::optional<Reply> {
    std::vector<Reply> replies = Send({command}, latency_us);
    if (replies.empty()) {
      ++stats_.in_doubt;
    } else if (replies[0].code == StatusCode::kUnavailable) {
      ++stats_.refused;
    } else {
      return std::move(replies[0]);
    }
    return std::nullopt;
  };
  if (!connected()) {
    const Status connect = Connect(/*min_restarts=*/0);
    if (!connect.ok()) return fail("connect", connect.ToString());
  }
  for (size_t issued = 0; issued < op_budget && Clock::now() < deadline;) {
    uint64_t txn_id = 0;
    if (spec_.txn) {
      const std::optional<Reply> begun =
          run_one(engine::MakeBeginCommand(), nullptr);
      if (!begun.has_value()) return cut_off_now();
      if (!begun->ok()) {
        return fail("begin", engine::ReplyStatus(*begun).ToString());
      }
      txn_id = begun->txn_id;
    }
    std::vector<Command> batch;
    for (; batch.size() < spec_.commit_every && issued < op_budget; ++issued) {
      batch.push_back(RandomOp(rng_, spec_.pages));
    }
    const std::vector<Reply> replies = Send(batch, &stats_.request_us);
    std::vector<JournalEntry> logged;
    bool cut_off = replies.size() < batch.size();
    for (size_t i = 0; i < replies.size(); ++i) {
      if (replies[i].code == StatusCode::kUnavailable) {
        ++stats_.refused;
        cut_off = true;
      } else if (!replies[i].ok()) {
        return fail(engine::CommandTypeName(batch[i].type),
                    engine::ReplyStatus(replies[i]).ToString());
      } else {
        JournalReply(batch[i], replies[i], txn_id, &logged);
        ++stats_.ops;
        if (batch[i].type == engine::CommandType::kSplit) ++stats_.splits;
      }
    }
    auto journal = [&] {
      std::ranges::move(logged, std::back_inserter(ledger_.journal));
    };
    if (cut_off) {
      // An open transaction can never commit now: its writes are a
      // loser's. Plain writes leave their fate to the log, and the
      // requests whose replies never arrived are in doubt.
      if (txn_id == 0) {
        journal();
        if (replies.size() < batch.size()) {
          InDoubt& doubt = ledger_.cut_off.emplace(
              InDoubt{spec_.pages.first, spec_.pages.count, 0, {}});
          for (size_t i = replies.size(); i < batch.size(); ++i) {
            JournalReply(batch[i], Reply{}, /*txn_id=*/0, &doubt.entries);
          }
          stats_.in_doubt += batch.size() - replies.size();
        }
      }
      return cut_off_now();
    }
    if (txn_id != 0 && rng_.Below(100) < spec_.abort_percent) {
      const std::optional<Reply> aborted =
          run_one(engine::MakeAbortCommand(), nullptr);
      if (!aborted.has_value()) return cut_off_now();  // a loser either way
      if (!aborted->ok()) {
        return fail("abort", engine::ReplyStatus(*aborted).ToString());
      }
      ++stats_.txns_aborted;
      continue;
    }
    const std::optional<Reply> ack =
        run_one(engine::MakeCommitCommand(), &stats_.commit_us);
    if (!ack.has_value()) {
      journal();  // no promise was made: the commit's fate is the log's
      return cut_off_now();
    }
    if (!ack->ok() || ack->stable_lsn < ack->lsn) {
      return fail("commit", engine::ReplyStatus(*ack).ToString() +
                                " (acked LSN " + std::to_string(ack->lsn) +
                                ", reply's stable LSN " +
                                std::to_string(ack->stable_lsn) + ")");
    }
    std::atomic_ref<size_t>(stats_.commits_acked).fetch_add(1);
    journal();
    ledger_.acked.push_back(ack->lsn);
    if (txn_id != 0) {
      ++stats_.txns_committed;
      ledger_.acked_txns.push_back(txn_id);
    }
    durable_ = ledger_.journal.size();
    last_commit_lsn_ = ack->lsn;
  }
  return false;
}

Status ClosedLoopClient::Run(Clock::time_point deadline) {
  REDO_CHECK(!spec_.txn) << "a stand-alone client runs plain batches";
  for (bool cut_off = true; cut_off;) {
    cut_off = RunBatches(std::numeric_limits<size_t>::max(), deadline);
    if (!ledger_.failure.empty()) return Status::Corruption(ledger_.failure);
    REDO_RETURN_IF_ERROR(Verify());
  }
  return Status::Ok();
}

Status ClosedLoopClient::Verify() {
  // Every request after the last acked commit is in doubt, replied or
  // not, since no force need have covered it: the journal's tail, then
  // the requests that never got a reply, in send order.
  std::vector<JournalEntry>& journal = ledger_.journal;
  std::vector<InDoubt> in_doubt;
  if (durable_ < journal.size() || ledger_.cut_off.has_value()) {
    InDoubt& doubt = in_doubt.emplace_back(ledger_.cut_off.value_or(
        InDoubt{spec_.pages.first, spec_.pages.count, 0, {}}));
    doubt.boundary = last_commit_lsn_;
    doubt.entries.insert(doubt.entries.begin(),
                         journal.begin() + static_cast<ptrdiff_t>(durable_),
                         journal.end());
    journal.resize(durable_);
    ledger_.cut_off.reset();
  }
  // The crash that decides them need not have happened yet: read only
  // what a later restart recovered.
  const uint64_t min_restarts = in_doubt.empty() ? 0 : restarts_seen_ + 1;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kConnectDeadlineMs);
  for (;;) {
    if (!connected()) REDO_RETURN_IF_ERROR(Connect(min_restarts));
    Result<std::vector<size_t>> prefix =
        ReadBack(spec_.pages, journal, in_doubt);
    if (prefix.ok()) {
      // The survivors are on the stable log now.
      KeepSurvivors(prefix.value(), &in_doubt, &journal);
      durable_ = journal.size();
      return Status::Ok();
    }
    // Refused (the gate opens after the restart) or dropped (a new
    // crash): read again, over a new connection if this one dropped.
    if (prefix.status().code() != StatusCode::kUnavailable ||
        Clock::now() >= deadline) {
      return prefix.status();
    }
    if (net_.has_value() && !net_->connected()) Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Result<std::vector<size_t>> ClosedLoopClient::ReadBack(
    PageRange pages, const std::vector<JournalEntry>& journal,
    const std::vector<InDoubt>& in_doubt) {
  if (!connected()) REDO_RETURN_IF_ERROR(Connect(/*min_restarts=*/0));
  std::vector<storage::Page> recovered(pages.end());
  for (PageId p = pages.first; p < pages.end(); ++p) {
    std::vector<Command> reads;
    for (size_t i = 0; i < 2 * kReadBackRun; ++i) {
      reads.push_back(engine::MakeReadSlotCommand(
          p, kReadBackBases[i / kReadBackRun] + i % kReadBackRun));
    }
    const std::vector<Reply> replies = Send(reads, nullptr);
    if (replies.size() < reads.size()) {
      return Status::Unavailable("read-back: connection dropped");
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      REDO_RETURN_IF_ERROR(engine::ReplyStatus(replies[i]));
      recovered[p].WriteSlot(reads[i].slot, replies[i].value);
    }
  }
  Result<std::vector<size_t>> matched = MatchRecovered(
      journal, in_doubt, recovered, PageCompare::kReadBackSlots);
  if (matched.ok()) stats_.slots_verified += pages.count * 2 * kReadBackRun;
  return matched;
}

Ledger ClosedLoopClient::TakeLedger() {
  durable_ = 0;
  return std::exchange(ledger_, Ledger{});
}

Status ClosedLoopClient::Connect(uint64_t min_restarts) {
  if (spec_.db != nullptr) {
    session_.emplace(spec_.db->NewSession());
    return Status::Ok();
  }
  net::NetClient client;
  Result<Reply> serving = client.AwaitServing(spec_.host, spec_.port,
                                              kConnectDeadlineMs, min_restarts);
  if (!serving.ok()) return serving.status();
  const engine::EngineStatus& status = serving.value().status;
  if (connected_before_) {
    ++stats_.reconnects;
    if (status.phase ==
        static_cast<uint8_t>(engine::MiniDb::RecoveryPhase::kServing)) {
      ++stats_.reconnects_during_serving;
    }
  }
  connected_before_ = true;
  restarts_seen_ = status.restarts;
  net_.emplace(std::move(client));
  return Status::Ok();
}

/// Runs `batch` in order (pipelined over TCP) and returns the replies
/// that arrived: a short answer means the connection dropped. Each
/// reply's latency since its send goes to `latency_us` if not null.
std::vector<Reply> ClosedLoopClient::Send(const std::vector<Command>& batch,
                                          obs::Histogram* latency_us) {
  std::vector<Reply> replies;
  std::vector<Clock::time_point> sent;
  auto received = [&](Reply reply) {
    if (latency_us != nullptr) {
      latency_us->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - sent[replies.size()])
              .count()));
    }
    replies.push_back(std::move(reply));
  };
  for (const Command& command : batch) {
    if (session_.has_value()) {
      sent.push_back(Clock::now());
      received(engine::Dispatch(*session_, command));
    } else if (net_->SendCommand(command).ok()) {
      sent.push_back(Clock::now());
    } else {
      break;
    }
  }
  for (uint64_t id = 0; replies.size() < sent.size();) {
    Result<Reply> reply = net_->ReceiveReply(&id);
    if (!reply.ok()) break;
    received(std::move(reply).value());
  }
  return replies;
}

Status RunClients(const std::vector<ClientSpec>& specs,
                  Clock::time_point deadline, ClientStats* total) {
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PageRange a = specs[j].pages;
      const PageRange b = specs[i].pages;
      if (a.first < b.end() && b.first < a.end()) {
        return Status::InvalidArgument(
            "client partitions at pages " + std::to_string(a.first) +
            " and " + std::to_string(b.first) +
            " overlap: a read-back needs pages no other client writes");
      }
    }
  }
  std::vector<std::unique_ptr<ClosedLoopClient>> clients;
  for (const ClientSpec& spec : specs) {
    clients.push_back(std::make_unique<ClosedLoopClient>(spec));
  }
  std::vector<Status> outcomes(specs.size(), Status::Ok());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < specs.size(); ++i) {
    threads.emplace_back([&, i] { outcomes[i] = clients[i]->Run(deadline); });
  }
  Status first = Status::Ok();
  for (size_t i = 0; i < specs.size(); ++i) {
    threads[i].join();
    *total += clients[i]->stats();
    if (first.ok()) first = outcomes[i];
  }
  return first;
}

}  // namespace redo::checker
