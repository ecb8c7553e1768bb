#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/str_util.h"
#include "exec/operators/star_join_filter.h"
#include "obs/metrics.h"
#include "server/admission.h"

namespace starshare {
namespace {

// Process-wide server metrics (obs/metrics.h); the per-server atomics on
// QueryServer exist so tests can assert on one instance in isolation.
struct ServerMetrics {
  obs::Counter& submitted = obs::Metrics().counter("server.submitted");
  obs::Counter& completed = obs::Metrics().counter("server.completed");
  obs::Counter& admitted = obs::Metrics().counter("server.admitted");
  obs::Counter& classes_opened =
      obs::Metrics().counter("server.classes_opened");
  obs::Counter& attached = obs::Metrics().counter("server.attached");
  obs::Counter& cache_hits = obs::Metrics().counter("server.cache_hits");
  obs::Counter& denied = obs::Metrics().counter("server.denied");
  obs::Counter& cancelled = obs::Metrics().counter("server.cancelled");
  obs::Counter& fallbacks = obs::Metrics().counter("server.fallbacks");
  obs::Gauge& queue_depth = obs::Metrics().gauge("server.queue_depth");
  obs::Gauge& inflight_classes =
      obs::Metrics().gauge("server.inflight_classes");
  obs::Gauge& sessions_open = obs::Metrics().gauge("server.sessions_open");
  obs::Histogram& latency_us = obs::Metrics().histogram("server.latency_us");
};

ServerMetrics& SMetrics() {
  static ServerMetrics metrics;
  return metrics;
}

}  // namespace

// ---- Session forwarding ----------------------------------------------------

QueryHandle Session::Submit(const DimensionalQuery& query) {
  SS_CHECK_MSG(valid(), "Submit on an invalid Session");
  return server_->Submit(id_, query);
}

std::vector<QueryHandle> Session::SubmitBatch(
    const std::vector<DimensionalQuery>& queries) {
  SS_CHECK_MSG(valid(), "SubmitBatch on an invalid Session");
  return server_->SubmitBatch(id_, queries);
}

void Session::Close() {
  if (server_ != nullptr) server_->CloseSession(id_);
}

// ---- Lifecycle -------------------------------------------------------------

QueryServer::QueryServer(Engine& engine, ServerConfig config,
                         ResultCache* cache, const MemoryBudget* budget,
                         const Executor* executor)
    : engine_(engine),
      config_(std::move(config)),
      cache_(cache),
      budget_(budget),
      executor_(executor) {
  controller_ = std::thread([this] { ControllerLoop(); });
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  work_ready_.notify_all();
  if (controller_.joinable()) controller_.join();
}

// ---- Sessions --------------------------------------------------------------

Session QueryServer::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_session_++;
  open_sessions_.insert(id);
  SMetrics().sessions_open.Add(1);
  return Session(this, id);
}

void QueryServer::CloseSession(uint64_t session_id) {
  std::vector<std::weak_ptr<serverdetail::HandleState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Session 0 is the implicit default (Engine::Submit) and always stays
    // open; ids never opened, or closed already, are ignored so the
    // sessions_open gauge only moves for real open->closed transitions.
    if (session_id == 0 || open_sessions_.erase(session_id) == 0) return;
    auto it = session_states_.find(session_id);
    if (it != session_states_.end()) {
      states = std::move(it->second);
      session_states_.erase(it);
    }
  }
  SMetrics().sessions_open.Add(-1);
  for (auto& weak : states) {
    if (auto state = weak.lock()) {
      state->cancelled.store(true, std::memory_order_release);
    }
  }
  work_ready_.notify_one();  // pending cancellations drain promptly
}

// ---- Submission ------------------------------------------------------------

QueryHandle QueryServer::Submit(uint64_t session_id,
                                const DimensionalQuery& query) {
  return SubmitBatch(session_id, {query})[0];
}

std::vector<QueryHandle> QueryServer::SubmitBatch(
    uint64_t session_id, const std::vector<DimensionalQuery>& queries) {
  std::vector<QueryHandle> handles;
  handles.reserve(queries.size());
  std::vector<std::shared_ptr<serverdetail::HandleState>> states;
  states.reserve(queries.size());
  const auto now = std::chrono::steady_clock::now();
  for (const DimensionalQuery& query : queries) {
    auto state = std::make_shared<serverdetail::HandleState>();
    state->query = query;
    state->session_id = session_id;
    state->submitted_at = now;
    handles.emplace_back(state);
    states.push_back(std::move(state));
  }

  // One lock hold for the whole batch: the controller's next admission
  // round sees either none or all of these queries, so they are planned
  // together exactly like one batch Execute.
  std::vector<std::pair<std::shared_ptr<serverdetail::HandleState>, Status>>
      refused;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Completed queries whose clients dropped the handle leave expired
    // weak_ptrs behind; prune on append so the vector tracks in-flight
    // queries instead of growing with the session's total traffic.
    auto tracked = session_states_.find(session_id);
    if (tracked != session_states_.end()) {
      auto& vec = tracked->second;
      vec.erase(std::remove_if(
                    vec.begin(), vec.end(),
                    [](const std::weak_ptr<serverdetail::HandleState>& weak) {
                      return weak.expired();
                    }),
                vec.end());
    }
    for (auto& state : states) {
      if (stop_requested_.load(std::memory_order_acquire)) {
        refused.emplace_back(state,
                             Status::ShuttingDown("query server stopped"));
        continue;
      }
      if (session_id != 0 && open_sessions_.count(session_id) == 0) {
        refused.emplace_back(
            state, Status::FailedPrecondition(StrFormat(
                       "session %llu is closed",
                       static_cast<unsigned long long>(session_id))));
        continue;
      }
      if (pending_.size() >= config_.max_pending) {
        refused.emplace_back(
            state, Status::ResourceExhausted(StrFormat(
                       "admission queue full (%zu pending)", pending_.size())));
        continue;
      }
      state->token = next_token_++;
      pending_.push_back(state);
      session_states_[session_id].emplace_back(state);
      submitted_.fetch_add(1, std::memory_order_relaxed);
      SMetrics().submitted.Add();
    }
    SMetrics().queue_depth.Set(static_cast<int64_t>(pending_.size()));
  }
  for (auto& [state, status] : refused) {
    if (status.code() == StatusCode::kResourceExhausted) {
      denied_.fetch_add(1, std::memory_order_relaxed);
      SMetrics().denied.Add();
    }
    QueryOutcome out;
    out.status = std::move(status);
    CompleteState(state, std::move(out));
  }
  work_ready_.notify_one();
  return handles;
}

// ---- Controller ------------------------------------------------------------

void QueryServer::ControllerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] {
        return stop_requested_.load(std::memory_order_acquire) ||
               !pending_.empty();
      });
    }
    if (stop_requested()) break;
    AdmissionRound();
    while (!run_queue_.empty() && !stop_requested()) {
      ClassJob job = std::move(run_queue_.front());
      run_queue_.pop_front();
      UpdateInflightGauge();
      RunJob(std::move(job));
    }
    if (stop_requested()) break;
  }

  // Drain: everything still parked or queued completes typed, never hangs.
  const Status down = Status::ShuttingDown("query server stopped");
  std::deque<std::shared_ptr<serverdetail::HandleState>> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(pending_);
    SMetrics().queue_depth.Set(0);
  }
  for (auto& state : leftover) {
    QueryOutcome out;
    out.status = down;
    CompleteState(state, std::move(out));
  }
  for (ClassJob& job : run_queue_) {
    for (auto& state : job.states) {
      QueryOutcome out;
      out.status = down;
      CompleteState(state, std::move(out));
    }
  }
  run_queue_.clear();
  UpdateInflightGauge();
}

void QueryServer::AdmissionRound() {
  std::vector<std::shared_ptr<serverdetail::HandleState>> round;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round.assign(pending_.begin(), pending_.end());
    pending_.clear();
    SMetrics().queue_depth.Set(0);
  }
  if (round.empty()) return;

  std::vector<std::shared_ptr<serverdetail::HandleState>> to_plan;
  for (auto& state : round) {
    if (state->cancelled.load(std::memory_order_acquire)) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      SMetrics().cancelled.Add();
      QueryOutcome out;
      out.status = Status::Unavailable("client disconnected");
      CompleteState(state, std::move(out));
      continue;
    }
    if (cache_ != nullptr && config_.use_result_cache) {
      const std::string key =
          ResultCache::KeyOf(state->query, engine_.schema());
      if (const QueryResult* hit = cache_->Lookup(key)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        SMetrics().cache_hits.Add();
        QueryOutcome out;
        out.result = *hit;
        out.cache_hit = true;
        CompleteState(state, std::move(out));
        continue;
      }
    }
    if (budget_ != nullptr &&
        !BudgetAdmits(*budget_, state->query, engine_.schema())) {
      denied_.fetch_add(1, std::memory_order_relaxed);
      SMetrics().denied.Add();
      QueryOutcome out;
      out.status = Status::ResourceExhausted(StrFormat(
          "admission denied: Q%d's estimated aggregation state (%llu bytes) "
          "exceeds the whole memory budget (%llu bytes)",
          state->query.id(),
          static_cast<unsigned long long>(
              EstimatedAggBytes(state->query, engine_.schema())),
          static_cast<unsigned long long>(budget_->total_bytes())));
      CompleteState(state, std::move(out));
      continue;
    }
    to_plan.push_back(std::move(state));
  }

  // Plan in waves of distinct query ids: the optimizers (and the executor's
  // id-ordered results) assume ids are unique within one plan, which holds
  // per batch Execute but not across independent sessions.
  while (!to_plan.empty()) {
    std::vector<std::shared_ptr<serverdetail::HandleState>> wave;
    std::vector<std::shared_ptr<serverdetail::HandleState>> rest;
    std::unordered_set<int> wave_ids;
    for (auto& state : to_plan) {
      if (wave_ids.insert(state->query.id()).second) {
        wave.push_back(std::move(state));
      } else {
        rest.push_back(std::move(state));
      }
    }
    to_plan = std::move(rest);
    PlanWave(std::move(wave));
  }
}

void QueryServer::PlanWave(
    std::vector<std::shared_ptr<serverdetail::HandleState>> wave) {
  admitted_.fetch_add(wave.size(), std::memory_order_relaxed);
  SMetrics().admitted.Add(wave.size());
  std::vector<const DimensionalQuery*> queries;
  queries.reserve(wave.size());
  for (auto& state : wave) queries.push_back(&state->query);
  GlobalPlan plan = engine_.Optimize(queries, config_.optimizer);
  for (ClassPlan& cls : plan.classes) {
    ClassJob job;
    job.cls = cls;
    job.states.reserve(cls.members.size());
    for (const LocalPlan& member : cls.members) {
      for (auto& state : wave) {
        if (&state->query == member.query) {
          job.states.push_back(state);
          break;
        }
      }
    }
    SS_CHECK_MSG(job.states.size() == cls.members.size(),
                 "admission plan lost a member");
    if (TryAttach(job)) continue;
    classes_opened_.fetch_add(1, std::memory_order_relaxed);
    SMetrics().classes_opened.Add();
    run_queue_.push_back(std::move(job));
  }
  UpdateInflightGauge();
}

bool QueryServer::TryAttach(ClassJob& job) {
  if (active_run_ == nullptr || active_run_->empty()) return false;
  if (attach_paused_) return false;
  if (!config_.allow_late_attach) return false;
  if (!ScanOnlyClass(job.cls)) return false;
  if (job.cls.base != &active_run_->view()) return false;
  if (active_run_->num_members() + job.cls.members.size() > kMaxClassQueries) {
    return false;
  }
  const JoinOrOpen decision = EvaluateJoinOrOpen(
      engine_.cost_model(), active_run_->view(), active_run_->queries(),
      job.cls, active_run_->cursor());
  if (!decision.join) return false;

  const uint64_t cursor = active_run_->cursor();
  for (auto& state : job.states) {
    Status bind = active_run_->Attach(&state->query, state->token);
    if (!bind.ok()) {
      FallbackMember(state, bind, /*attached_late=*/true, cursor);
      continue;
    }
    active_states_[state->token] = ActiveMember{state, /*attached_late=*/true};
    attached_.fetch_add(1, std::memory_order_relaxed);
    SMetrics().attached.Add();
  }
  return true;
}

// ---- Execution -------------------------------------------------------------

bool QueryServer::Continuable(const ClassPlan& cls) const {
  if (!ScanOnlyClass(cls)) return false;
  if (cls.members.size() > kMaxClassQueries) return false;
  if (cls.base == nullptr || cls.base->table().num_rows() == 0) return false;
  // A bounded budget means aggregation may need to spill; the continuous
  // runner folds in memory, so budgeted servers take the batch path (which
  // spills) and forgo late attachment.
  if (budget_ != nullptr && budget_->bounded()) return false;
  return true;
}

void QueryServer::RunJob(ClassJob job) {
  // Members whose client disconnected while the job was queued drop out
  // before any work happens.
  ClassJob live;
  live.cls.base = job.cls.base;
  live.cls.est_shared_io_ms = job.cls.est_shared_io_ms;
  live.cls.est_shared_cpu_ms = job.cls.est_shared_cpu_ms;
  for (size_t i = 0; i < job.states.size(); ++i) {
    if (job.states[i]->cancelled.load(std::memory_order_acquire)) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      SMetrics().cancelled.Add();
      QueryOutcome out;
      out.status = Status::Unavailable("client disconnected");
      CompleteState(job.states[i], std::move(out));
      continue;
    }
    live.cls.members.push_back(job.cls.members[i]);
    live.states.push_back(std::move(job.states[i]));
  }
  if (live.states.empty()) return;
  if (Continuable(live.cls)) {
    RunContinuous(std::move(live));
  } else {
    RunBatch(std::move(live));
  }
}

void QueryServer::RunContinuous(ClassJob job) {
  ContinuousScanRun run(engine_.schema(), *job.cls.base, engine_.disk(),
                        executor_->parallel_policy(), config_.segment_rows);
  active_run_ = &run;

  const auto on_done = [this](uint64_t token, Result<QueryResult> result,
                              uint64_t attach_cursor) {
    auto it = active_states_.find(token);
    SS_CHECK_MSG(it != active_states_.end(),
                 "continuous scan completed an unknown member");
    ActiveMember member = std::move(it->second);
    active_states_.erase(it);
    if (result.ok()) {
      QueryOutcome out;
      out.result = std::move(result).value();
      out.attached_late = member.attached_late;
      out.attach_cursor = attach_cursor;
      CacheInsert(member.state->query, out.result);
      CompleteState(member.state, std::move(out));
      return;
    }
    if (result.status().code() == StatusCode::kShuttingDown) {
      QueryOutcome out;
      out.status = result.status();
      out.attached_late = member.attached_late;
      out.attach_cursor = attach_cursor;
      CompleteState(member.state, std::move(out));
      return;
    }
    FallbackMember(member.state, result.status(), member.attached_late,
                   attach_cursor);
  };

  for (auto& state : job.states) {
    Status bind = run.Attach(&state->query, state->token);
    if (!bind.ok()) {
      FallbackMember(state, bind, /*attached_late=*/false, 0);
      continue;
    }
    active_states_[state->token] = ActiveMember{state, false};
  }

  while (!run.empty()) {
    if (stop_requested()) {
      run.FailAll(Status::ShuttingDown("query server stopped"), on_done);
      break;
    }
    run.DriveSegment(on_done);
    // Segment boundary: the only points where membership changes. Order
    // matters for tests — the hook observes the paused cursor, then
    // disconnects detach, then new arrivals may attach at this cursor.
    if (config_.on_segment_boundary) config_.on_segment_boundary(run.cursor());
    DetachCancelled(run);
    // Starvation guard: with non-attachable class jobs waiting in
    // run_queue_, sustained attach traffic could keep this run alive for
    // ever. After max_absorb_revolutions with jobs waiting, stop absorbing
    // — new compatible classes queue behind the waiters and the run drains
    // on the wraparound of its current members.
    attach_paused_ = !run_queue_.empty() &&
                     run.revolutions() >= config_.max_absorb_revolutions;
    AdmissionRound();
  }

  attach_paused_ = false;
  active_run_ = nullptr;
  SS_CHECK_MSG(active_states_.empty(),
               "continuous scan ended with members unaccounted for");
}

void QueryServer::DetachCancelled(ContinuousScanRun& run) {
  for (auto it = active_states_.begin(); it != active_states_.end();) {
    if (!it->second.state->cancelled.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    run.Detach(it->first);
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    SMetrics().cancelled.Add();
    QueryOutcome out;
    out.status = Status::Unavailable("client disconnected mid-scan");
    CompleteState(it->second.state, std::move(out));
    it = active_states_.erase(it);
  }
}

void QueryServer::RunBatch(ClassJob job) {
  GlobalPlan plan;
  plan.classes.push_back(job.cls);
  std::vector<ExecutedQuery> results = engine_.Execute(plan);
  for (ExecutedQuery& entry : results) {
    std::shared_ptr<serverdetail::HandleState> state;
    for (auto& candidate : job.states) {
      if (&candidate->query == entry.query) {
        state = candidate;
        break;
      }
    }
    SS_CHECK_MSG(state != nullptr, "batch job lost a member");
    QueryOutcome out;
    out.status = std::move(entry.status);
    out.result = std::move(entry.result);
    out.degraded = entry.degraded;
    if (out.ok()) CacheInsert(state->query, out.result);
    CompleteState(state, std::move(out));
  }
}

void QueryServer::FallbackMember(
    const std::shared_ptr<serverdetail::HandleState>& state,
    const Status& planned_error, bool attached_late, uint64_t attach_cursor) {
  QueryOutcome out;
  out.attached_late = attached_late;
  out.attach_cursor = attach_cursor;
  MaterializedView* base = engine_.base_view();
  if (planned_error.code() == StatusCode::kShuttingDown || base == nullptr) {
    out.status = planned_error;
    CompleteState(state, std::move(out));
    return;
  }
  SMetrics().fallbacks.Add();
  // The same degradation ladder as batch execution: the failed member
  // re-runs standalone as a hash scan of the base fact table.
  GlobalPlan plan;
  ClassPlan cls;
  cls.base = base;
  LocalPlan local;
  local.query = &state->query;
  local.method = JoinMethod::kHashScan;
  cls.members.push_back(local);
  plan.classes.push_back(cls);
  std::vector<ExecutedQuery> results = engine_.Execute(plan);
  SS_CHECK(results.size() == 1);
  out.status = std::move(results[0].status);
  out.result = std::move(results[0].result);
  out.degraded = true;
  if (out.ok()) CacheInsert(state->query, out.result);
  CompleteState(state, std::move(out));
}

void QueryServer::CacheInsert(const DimensionalQuery& query,
                              const QueryResult& result) {
  if (cache_ == nullptr || !config_.use_result_cache) return;
  cache_->Insert(ResultCache::KeyOf(query, engine_.schema()), result);
}

void QueryServer::CompleteState(
    const std::shared_ptr<serverdetail::HandleState>& state,
    QueryOutcome outcome) {
  const auto now = std::chrono::steady_clock::now();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      now - state->submitted_at)
                      .count();
  SMetrics().latency_us.Observe(static_cast<uint64_t>(std::max<int64_t>(us, 0)));
  SMetrics().completed.Add();
  completed_.fetch_add(1, std::memory_order_relaxed);
  state->Complete(std::move(outcome));
}

void QueryServer::UpdateInflightGauge() {
  SMetrics().inflight_classes.Set(
      static_cast<int64_t>(run_queue_.size() + (active_run_ != nullptr)));
}

double QueryServer::SharedClassHitRate() const {
  const uint64_t admitted = admitted_.load();
  if (admitted == 0) return 0;
  const uint64_t opened = classes_opened_.load();
  return static_cast<double>(admitted - std::min(opened, admitted)) /
         static_cast<double>(admitted);
}

}  // namespace starshare
