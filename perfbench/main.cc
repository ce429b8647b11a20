// REACH end-to-end benchmark: the reach_perfbench program.
//
//   reach_perfbench --workload <eca_session|extent_query|mixed_rw>
//                   --seed N --seconds S --trace 0|1 --dir SCRATCH
//                   [--trace-dir DIR]
//
// Runs one workload against the public ReachDb / Session / QueryPm API with
// the shipped defaults (group commit, 256-page buffer pool, default query
// executor, serial rule firing), checks every result, and prints one JSON
// line: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md describes the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/reach/reach_db.h"
#include "obs/metric_names.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using reach::ClassBuilder;
using reach::CompositeScope;
using reach::ConsumptionPolicy;
using reach::CouplingMode;
using reach::DbObject;
using reach::EventExpr;
using reach::EventOccurrence;
using reach::Oid;
using reach::ReachDb;
using reach::Result;
using reach::RuleSpec;
using reach::Session;
using reach::Status;
using reach::Value;
using reach::ValueType;
namespace fs = std::filesystem;
namespace obs = reach::obs;

// ---------------------------------------------------------------------------
// Workload definitions

/// Sizes and traffic of one workload. The numbers are part of the benchmark:
/// changing one changes what every later result is compared against.
struct Workload {
  std::string name;
  std::string cls;          // class of the data objects
  size_t objects = 0;       // data objects loaded at set-up
  size_t pad_bytes = 0;     // string payload per object (sets object size)
  std::string index_attr;   // ordered index on this attribute
  bool report_rules = false;  // immediate + deferred rules on report()
  int setup_reps = 3;       // set-ups per run; setup_s is their median
  // Closed-loop ECA sessions (eca_session).
  int eca_clients = 0;
  int calls_per_txn = 0;
  int trip_every = 0;       // an ECA transaction trips with 1/trip_every odds
  // Closed-loop analyst (extent_query): one rotated query per transaction.
  bool analyst = false;
  // mixed_rw: open-loop writer beside a closed-loop 50% scanner.
  double writer_rate = 0;   // writer transactions per second
  int writer_calls = 0;
};

// The writer's rate in mixed_rw is fixed at about a quarter of its
// closed-loop capacity beside the scanner, measured once at the default
// seed on a 4-vCPU host. It is never recalibrated: an open-loop rate that
// followed the system's speed would hide a slowdown.
constexpr double kMixedWriterRate = 22.0;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "eca_session") {
    w.cls = "Sensor";
    w.objects = 4000;
    w.pad_bytes = 0;
    w.index_attr = "id";
    w.report_rules = true;
    w.setup_reps = 5;
    w.eca_clients = 2;
    w.calls_per_txn = 64;
    w.trip_every = 10;
  } else if (name == "extent_query") {
    w.cls = "Reading";
    w.objects = 50000;
    w.pad_bytes = 80;
    w.index_attr = "key";
    w.analyst = true;
  } else if (name == "mixed_rw") {
    w.cls = "Reading";
    w.objects = 50000;
    w.pad_bytes = 80;
    w.index_attr = "key";
    w.report_rules = true;
    w.writer_rate = kMixedWriterRate;
    w.writer_calls = 16;
  } else {
    w.name.clear();
  }
  return w;
}

constexpr int64_t kKeyRange = 100000;
constexpr int64_t kGroups = 16;
constexpr int64_t kAlarmThreshold = 90;  // report(x) raises an alarm if x > 90
constexpr uint64_t kTripValidityUs = 1000000;
constexpr size_t kMaxTrips = size_t{1} << 18;

// ---------------------------------------------------------------------------
// Queries. Every query reads only attributes that no workload writes, so
// the generator can compute each expected result from the seed alone.

enum QueryShape : int {
  kFilter1Pct = 0,   // fast-prefix filter selecting ~1%
  kProject50Pct,     // projection of ~50% of the extent
  kGroupResidual,    // group by with a residual (non-simple) predicate
  kIndexRange,       // ordered-index range probe
  kPointLookup,      // eca_session read-back of one of the session's sensors
};

struct QuerySpec {
  QueryShape shape = kFilter1Pct;
  int64_t param = 0;
};

/// Order-independent digest of a result: row count and the position-weighted
/// sum of every projected integer.
struct Digest {
  int64_t rows = 0;
  int64_t sum = 0;
  bool operator==(const Digest&) const = default;
  void AddRow(const std::vector<int64_t>& values) {
    ++rows;
    for (size_t j = 0; j < values.size(); ++j) {
      sum += static_cast<int64_t>(j + 1) * values[j];
    }
  }
};

std::string QueryText(const std::string& cls, const QuerySpec& q) {
  const std::string p = std::to_string(q.param);
  switch (q.shape) {
    case kFilter1Pct:
      return "select id from " + cls + " where key >= " + p +
             " && key < " + std::to_string(q.param + kKeyRange / 100);
    case kProject50Pct:
      return "select id, grp from " + cls + " where key >= " + p +
             " && key < " + std::to_string(q.param + kKeyRange / 2);
    case kGroupResidual:
      return "select grp, count(*), sum(key) from " + cls +
             " where (key + id) % 4 == " + p + " group by grp";
    case kIndexRange:
      return "select id, key from " + cls + " where key >= " + p;
    case kPointLookup:
      return "select id, v from " + cls + " where id == " + p;
  }
  return {};
}

QuerySpec DrawQuery(QueryShape shape, std::mt19937_64& rng) {
  QuerySpec q{shape, 0};
  switch (shape) {
    case kFilter1Pct: q.param = static_cast<int64_t>(rng() % 99000); break;
    case kProject50Pct: q.param = static_cast<int64_t>(rng() % 50000); break;
    case kGroupResidual: q.param = static_cast<int64_t>(rng() % 4); break;
    case kIndexRange: q.param = 99000 + static_cast<int64_t>(rng() % 600); break;
    case kPointLookup: break;
  }
  return q;
}

// ---------------------------------------------------------------------------
// Run state

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_dir;
};

enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2, kStopped = 3 };

struct QueryRecord {
  QuerySpec spec;
  Digest got;
};

/// Everything one client thread measured. Merged after the threads join.
struct ClientStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // status code -> count
  uint64_t committed[4] = {0, 0, 0, 0};      // by phase at request start
  std::vector<double> txn_ms, invoke_us, query_ms, late_ms;
  std::vector<QueryRecord> queries;
  uint64_t queries_run = 0;  // warm-up included
  uint64_t wrong_results = 0;
  // QueryResult fields (the query layer's own accounting).
  uint64_t q_scanned = 0, q_rows = 0, q_morsels = 0, q_workers = 0;
  std::vector<double> q_exec_ns;
  // Span coverage of traced requests.
  double request_ns = 0, covered_ns = 0;
  size_t queue_depth_max = 0;
  bool open_loop = false;  // the mixed_rw writer: its rate is fixed
};

class Bench {
 public:
  Bench(Args args, Workload w) : args_(std::move(args)), w_(std::move(w)) {}
  ~Bench() {
    db_.reset();
    RemoveDbFiles();
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Set up `w_.setup_reps` times, keeping the last database open.
  Status SetupAll(std::vector<double>* setup_s);
  /// Warm up, then measure for the configured time.
  Status Run();
  /// Drain asynchronous work and check every output. Returns the problems
  /// found (empty = correct).
  std::vector<std::string> Check();
  /// Prints the result line (and, when traced, the per-layer table).
  void Report(const std::vector<double>& setup_s,
              const std::vector<std::string>& problems);

 private:
  Status Setup(int rep);
  void RemoveDbFiles() {
    std::error_code ec;
    fs::remove(base_ + ".db", ec);
    fs::remove(base_ + ".wal", ec);
  }
  Status DefineSchemaAndRules();
  Status Load();
  void Generate();

  // Client loops.
  void EcaClient(int client, ClientStats* st);
  void AnalystClient(ClientStats* st);
  void WriterClient(ClientStats* st);
  void ScannerClient(ClientStats* st);

  struct TxnPlan {
    std::vector<std::pair<uint32_t, int64_t>> reports;  // (object, x)
    bool has_query = false;
    QuerySpec query;
    bool trip = false;
  };
  /// Runs one client transaction; `due_ns` != 0 marks an open-loop request
  /// whose latency counts from when it was due.
  void RunTxn(Session& s, int client, const TxnPlan& plan, uint64_t due_ns,
              ClientStats* st);
  /// Keeps the query's result digest for the correctness check and, in the
  /// window, the query layer's own accounting.
  bool RecordQuery(const QuerySpec& q, const reach::QueryResult& r,
                   bool measured, ClientStats* st);

  Digest Expected(const QuerySpec& q) const;
  /// Trip return -> detached action start, for trips of the window.
  std::vector<double> FireLagsMs() const;
  struct Metric {
    std::string name, unit;
    double value;
    size_t samples;
  };
  /// The gated end-to-end metrics, or (gated = false) the tail latencies
  /// that are printed but not gated.
  std::vector<Metric> EndToEnd(const std::vector<double>& setup_s, bool gated);
  struct LayerMetric {
    std::string layer, name, unit, source;
    double value;
  };
  std::vector<LayerMetric> PerLayer();
  std::string RunInfo(const std::vector<double>& setup_s);

  Args args_;
  Workload w_;
  std::unique_ptr<ReachDb> db_;
  std::string base_;

  // Generated population (static attributes).
  std::vector<int64_t> key_, grp_;
  std::string pad_;
  std::vector<Oid> oids_;
  std::vector<Oid> consoles_;
  Oid reactor_;

  // Model of committed writes, per data object. Each object is written by
  // at most one client thread (disjoint slices, or the single writer).
  std::vector<int64_t> model_v_, model_alarms_;
  // Deferred pair actions run in committed transactions, by console.
  int64_t model_pairs_[2] = {0, 0};

  // Trip bookkeeping: ids are issued by the benchmark; the detached action
  // stamps its start against the terminating trip's id.
  std::atomic<uint64_t> next_trip_{0};
  std::atomic<uint64_t> trips_signaled_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> trip_ret_ns_, trip_start_ns_,
      trip_request_;
  std::unique_ptr<std::atomic<uint32_t>[]> trip_terminated_;
  std::atomic<uint64_t> detached_actions_{0};
  std::atomic<uint64_t> pairs_expected_{0}, pairs_run_{0};
  std::atomic<uint64_t> action_errors_{0};

  std::atomic<int> phase_{kWarmup};
  uint64_t window_start_ns_ = 0, window_end_ns_ = 0;
  std::atomic<uint64_t> next_request_{1};
  double phase_seconds_[4] = {0, 0, 0, 0};
  uint64_t backlog_mid_ = 0, backlog_end_ = 0;

  std::vector<ClientStats> stats_;
  ClientStats all_;  // merged

  // Accessor snapshots at the start and the end of the measured window.
  struct Counters {
    uint64_t signaled = 0, composed = 0, deadlocks = 0;
    uint64_t pool_hits = 0, pool_misses = 0, wal_bytes = 0;
  };
  Counters Snap();
  Counters at_start_, at_end_;
  double fsync_probe_ns_ = 0;
  // PersistencePm::faults() is not atomic: read only while no client runs.
  uint64_t faults_before_ = 0, faults_after_ = 0;
  reach::EventTypeId trip_pair_ = reach::kInvalidEventType;
};

thread_local uint64_t t_request = 0;  // request id of the running client txn
// Client of the running transaction, and the deferred pair actions it ran
// (deferred rules run on the committing thread).
thread_local int t_client = 0;
thread_local int64_t t_pairs = 0;

std::string CodeOf(const Status& st) {
  std::string s = st.ToString();
  return s.substr(0, s.find(':'));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Set-up

void Bench::Generate() {
  std::mt19937_64 rng(args_.seed);
  key_.resize(w_.objects);
  grp_.resize(w_.objects);
  for (size_t i = 0; i < w_.objects; ++i) {
    key_[i] = static_cast<int64_t>(rng() % kKeyRange);
    grp_[i] = static_cast<int64_t>(rng() % kGroups);
  }
  pad_.assign(w_.pad_bytes, 'p');
}

Status Bench::DefineSchemaAndRules() {
  REACH_RETURN_IF_ERROR(db_->RegisterClass(
      ClassBuilder(w_.cls)
          .Attribute("id", ValueType::kInt, Value(0))
          .Attribute("key", ValueType::kInt, Value(0))
          .Attribute("grp", ValueType::kInt, Value(0))
          .Attribute("v", ValueType::kInt, Value(0))
          .Attribute("alarms", ValueType::kInt, Value(0))
          .Attribute("pad", ValueType::kString, Value(""))
          .Method("report",
                  [](Session& s, DbObject& self,
                     const std::vector<Value>& args) -> Result<Value> {
                    REACH_RETURN_IF_ERROR(s.SetAttr(self.oid(), "v", args[0]));
                    return Value();
                  })));
  REACH_RETURN_IF_ERROR(db_->RegisterClass(
      ClassBuilder("Console")
          .Attribute("pairs", ValueType::kInt, Value(0))
          .Attribute("probes", ValueType::kInt, Value(0))
          .Method("trip", [](Session&, DbObject&,
                             const std::vector<Value>&) -> Result<Value> {
            return Value();
          })));
  REACH_RETURN_IF_ERROR(db_->RegisterClass(
      ClassBuilder("Reactor").Attribute("trips", ValueType::kInt, Value(0))));

  reach::EventManager* events = db_->events();
  if (w_.report_rules) {
    REACH_ASSIGN_OR_RETURN(reach::EventTypeId report,
                           events->DefineMethodEvent("report_ev", w_.cls,
                                                     "report"));
    RuleSpec alarm;
    alarm.name = "alarm";
    alarm.event = report;
    alarm.coupling = CouplingMode::kImmediate;
    alarm.condition = [](Session&, const EventOccurrence& occ) -> Result<bool> {
      return occ.params[0].as_int() > kAlarmThreshold;
    };
    alarm.action = [this](Session& s, const EventOccurrence& occ) -> Status {
      ScopedSpan span(SpanName::kAction, t_request);
      REACH_ASSIGN_OR_RETURN(Value n, s.GetAttr(occ.source, "alarms"));
      return s.SetAttr(occ.source, "alarms", Value(n.as_int() + 1));
    };
    REACH_RETURN_IF_ERROR(db_->rules()->DefineRule(std::move(alarm)).status());

    REACH_ASSIGN_OR_RETURN(
        reach::EventTypeId report_pair,
        events->DefineComposite(
            "report_pair",
            EventExpr::Seq(EventExpr::Prim(report), EventExpr::Prim(report)),
            CompositeScope::kSingleTxn));
    RuleSpec pair;
    pair.name = "pair";
    pair.event = report_pair;
    pair.coupling = CouplingMode::kDeferred;
    // The deferred rule counts pairs on the session's own Console: a small
    // object, so the rule adds little log volume beside the reports.
    pair.action = [this](Session& s, const EventOccurrence&) -> Status {
      ScopedSpan span(SpanName::kAction, t_request);
      const Oid console = consoles_[t_client];
      REACH_ASSIGN_OR_RETURN(Value n, s.GetAttr(console, "pairs"));
      REACH_RETURN_IF_ERROR(s.SetAttr(console, "pairs", Value(n.as_int() + 1)));
      ++t_pairs;
      return Status::OK();
    };
    REACH_RETURN_IF_ERROR(db_->rules()->DefineRule(std::move(pair)).status());
  }

  REACH_ASSIGN_OR_RETURN(reach::EventTypeId trip,
                         events->DefineMethodEvent("trip_ev", "Console",
                                                   "trip"));
  REACH_ASSIGN_OR_RETURN(
      trip_pair_,
      events->DefineComposite(
          "trip_pair", EventExpr::Seq(EventExpr::Prim(trip),
                                      EventExpr::Prim(trip)),
          CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
          kTripValidityUs));
  RuleSpec react;
  react.name = "react";
  react.event = trip_pair_;
  react.coupling = CouplingMode::kDetached;
  react.action = [this](Session& s, const EventOccurrence& occ) -> Status {
    const uint64_t start = NowNs();
    std::vector<const EventOccurrence*> leaves;
    occ.CollectLeaves(&leaves);
    const int64_t id = leaves.back()->params[0].as_int();
    if (id < 0 || static_cast<uint64_t>(id) >= kMaxTrips) {
      action_errors_.fetch_add(1);
      return Status::OutOfRange("trip id");
    }
    trip_start_ns_[id].store(start);
    trip_terminated_[id].fetch_add(1);
    // The Reactor is shared by every detached transaction: take its X lock
    // first so concurrent firings queue instead of deadlocking on an S->X
    // upgrade.
    REACH_RETURN_IF_ERROR(s.db()->txns()->locks()->Acquire(
        s.current_txn(), reactor_, reach::LockMode::kExclusive));
    REACH_ASSIGN_OR_RETURN(Value n, s.GetAttr(reactor_, "trips"));
    REACH_RETURN_IF_ERROR(s.SetAttr(reactor_, "trips", Value(n.as_int() + 1)));
    detached_actions_.fetch_add(1);
    SpanLog::Instance().Record(SpanName::kAction, trip_request_[id].load(),
                               start, NowNs());
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(db_->rules()->DefineRule(std::move(react)).status());
  return Status::OK();
}

Status Bench::Load() {
  Session s(db_->database());
  REACH_RETURN_IF_ERROR(s.Begin());
  REACH_RETURN_IF_ERROR(db_->database()->indexing()->CreateIndex(
      s.current_txn(), w_.cls, w_.index_attr, reach::IndexKind::kOrdered));
  REACH_ASSIGN_OR_RETURN(reactor_, s.PersistNew("Reactor", {}));
  consoles_.clear();
  for (int c = 0; c < 2; ++c) {
    REACH_ASSIGN_OR_RETURN(Oid console, s.PersistNew("Console", {}));
    consoles_.push_back(console);
  }
  REACH_RETURN_IF_ERROR(s.Commit());

  constexpr size_t kBatch = 1000;
  oids_.assign(w_.objects, Oid{});
  for (size_t i = 0; i < w_.objects; i += kBatch) {
    REACH_RETURN_IF_ERROR(s.Begin());
    for (size_t j = i; j < std::min(w_.objects, i + kBatch); ++j) {
      REACH_ASSIGN_OR_RETURN(
          oids_[j], s.PersistNew(w_.cls, {{"id", Value(static_cast<int64_t>(j))},
                                          {"key", Value(key_[j])},
                                          {"grp", Value(grp_[j])},
                                          {"pad", Value(pad_)}}));
    }
    REACH_RETURN_IF_ERROR(s.Commit());
  }
  db_->Drain();
  return Status::OK();
}

Status Bench::Setup(int rep) {
  db_.reset();
  if (!base_.empty()) RemoveDbFiles();
  base_ = args_.dir + "/db" + std::to_string(rep);
  RemoveDbFiles();
  REACH_ASSIGN_OR_RETURN(db_, ReachDb::Open(base_));
  REACH_RETURN_IF_ERROR(DefineSchemaAndRules());
  return Load();
}

Status Bench::SetupAll(std::vector<double>* setup_s) {
  Generate();
  trip_ret_ns_ = std::make_unique<std::atomic<uint64_t>[]>(kMaxTrips);
  trip_start_ns_ = std::make_unique<std::atomic<uint64_t>[]>(kMaxTrips);
  trip_request_ = std::make_unique<std::atomic<uint64_t>[]>(kMaxTrips);
  trip_terminated_ = std::make_unique<std::atomic<uint32_t>[]>(kMaxTrips);
  for (int rep = 0; rep < w_.setup_reps; ++rep) {
    const uint64_t t0 = NowNs();
    REACH_RETURN_IF_ERROR(Setup(rep));
    setup_s->push_back((NowNs() - t0) / 1e9);
  }
  model_v_.assign(w_.objects, 0);
  model_alarms_.assign(w_.objects, 0);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Client transactions

bool Bench::RecordQuery(const QuerySpec& q, const reach::QueryResult& r,
                        bool measured, ClientStats* st) {
  ++st->queries_run;
  if (measured) {
    st->q_scanned += r.scanned;
    st->q_rows += r.rows.size();
    st->q_morsels += r.morsels;
    st->q_workers += r.workers;
    st->q_exec_ns.push_back(static_cast<double>(r.exec_ns));
  }
  if (q.shape == kPointLookup) return true;
  Digest d;
  std::vector<int64_t> row;
  for (const reach::QueryRow& qr : r.rows) {
    row.clear();
    for (const Value& v : qr.values) {
      if (!v.is_numeric()) return false;
      row.push_back(static_cast<int64_t>(std::llround(v.AsNumber())));
    }
    d.AddRow(row);
  }
  st->queries.push_back({q, d});
  return true;
}

void Bench::RunTxn(Session& s, int client, const TxnPlan& plan,
                   uint64_t due_ns, ClientStats* st) {
  const int phase = phase_.load();
  const bool measured = phase == kUntraced || phase == kTraced;
  const uint64_t req = next_request_.fetch_add(1);
  t_request = req;
  SpanLog& spans = SpanLog::Instance();
  uint64_t covered = 0;
  std::unordered_map<uint32_t, int64_t> pending_v;
  Status st_fail;

  t_client = client;
  t_pairs = 0;
  const uint64_t t_begin = NowNs();
  if (measured && due_ns != 0) {
    st->late_ms.push_back(t_begin > due_ns ? (t_begin - due_ns) / 1e6 : 0.0);
  }
  auto fail = [&](const Status& status) {
    st_fail = status;
    (void)s.AbortAll();
  };
  do {
    Status b = s.Begin();
    uint64_t t = NowNs();
    spans.Record(SpanName::kBegin, req, t_begin, t);
    covered += t - t_begin;
    if (!b.ok()) { fail(b); break; }

    for (const auto& [obj, x] : plan.reports) {
      const uint64_t t0 = NowNs();
      Result<Value> r = s.Invoke(oids_[obj], "report", {Value(x)});
      const uint64_t t1 = NowNs();
      spans.Record(SpanName::kInvoke, req, t0, t1);
      covered += t1 - t0;
      if (measured) st->invoke_us.push_back((t1 - t0) / 1e3);
      if (!r.ok()) { fail(r.status()); break; }
      pending_v[obj] = x;
    }
    if (!st_fail.ok()) break;

    if (plan.has_query) {
      QuerySpec q = plan.query;
      const uint64_t t0 = NowNs();
      Result<reach::QueryResult> r = db_->Query(s, QueryText(w_.cls, q));
      const uint64_t t1 = NowNs();
      spans.Record(SpanName::kExecute, req, t0, t1);
      covered += t1 - t0;
      if (!r.ok()) { fail(r.status()); break; }
      if (measured) st->query_ms.push_back((t1 - t0) / 1e6);
      if (!RecordQuery(q, *r, measured, st)) {
        ++st->wrong_results;
        fail(Status::Internal("non-numeric query result"));
        break;
      }
      if (q.shape == kPointLookup) {
        // The session reads back one of its own sensors: the value it
        // expects is its own last write, committed or in this transaction.
        auto it = pending_v.find(static_cast<uint32_t>(q.param));
        const int64_t want = it != pending_v.end() ? it->second
                                                   : model_v_[q.param];
        const bool ok = r->rows.size() == 1 &&
                        r->rows[0].values.size() == 2 &&
                        r->rows[0].values[0] == Value(q.param) &&
                        r->rows[0].values[1] == Value(want);
        if (!ok) {
          ++st->wrong_results;
          fail(Status::Internal("wrong read-back result"));
          break;
        }
      }
    }

    if (plan.trip) {
      const uint64_t id = next_trip_.fetch_add(1);
      if (id >= kMaxTrips) { fail(Status::OutOfRange("too many trips")); break; }
      trip_request_[id].store(req);
      const uint64_t t0 = NowNs();
      Result<Value> r = s.Invoke(consoles_[client], "trip",
                                 {Value(static_cast<int64_t>(id))});
      const uint64_t t1 = NowNs();
      trip_ret_ns_[id].store(t1);
      spans.Record(SpanName::kInvoke, req, t0, t1);
      covered += t1 - t0;
      if (measured) st->invoke_us.push_back((t1 - t0) / 1e3);
      if (!r.ok()) { fail(r.status()); break; }
      trips_signaled_.fetch_add(1);
    }

    const uint64_t t0 = NowNs();
    Status c = s.Commit();
    const uint64_t t1 = NowNs();
    spans.Record(SpanName::kCommit, req, t0, t1);
    covered += t1 - t0;
    if (!c.ok()) { fail(c); break; }
  } while (false);
  const uint64_t t_end = NowNs();
  t_request = 0;

  if (measured) {
    ++st->attempted;
    if (phase == kTraced) {
      spans.Record(SpanName::kRequest, req, t_begin, t_end);
      st->request_ns += t_end - t_begin;
      st->covered_ns += covered;
      st->queue_depth_max =
          std::max(st->queue_depth_max, db_->events()->composition_queue_depth());
    }
  }
  if (!st_fail.ok()) {
    if (measured) {
      ++st->failed;
      ++st->failures[CodeOf(st_fail)];
    }
    return;
  }
  ++st->committed[phase];
  // Transaction latency covers the transactions that make sentried calls
  // (every one but the mixed_rw scanner's, which is timed as a query).
  if (measured && (!plan.reports.empty() || plan.trip)) {
    st->txn_ms.push_back((t_end - (due_ns != 0 ? due_ns : t_begin)) / 1e6);
  }
  // Committed: fold the transaction's writes into the model. Every report
  // after the first ends one Seq(report, report) pair; the deferred rule's
  // actions are folded in as they ran, and pairs that never reached the
  // rule are counted as lost.
  for (const auto& [obj, x] : plan.reports) {
    model_v_[obj] = x;
    if (x > kAlarmThreshold) ++model_alarms_[obj];
  }
  model_pairs_[client] += t_pairs;
  if (!plan.reports.empty()) {
    pairs_expected_.fetch_add(plan.reports.size() - 1);
    pairs_run_.fetch_add(t_pairs);
  }
}

void Bench::EcaClient(int client, ClientStats* st) {
  Session s(db_->database());
  std::mt19937_64 rng(args_.seed * 1000003 + client);
  const uint32_t slice = static_cast<uint32_t>(w_.objects / w_.eca_clients);
  const uint32_t lo = slice * client;
  TxnPlan plan;
  while (phase_.load() != kStopped) {
    plan.reports.clear();
    for (int k = 0; k < w_.calls_per_txn; ++k) {
      plan.reports.emplace_back(lo + static_cast<uint32_t>(rng() % slice),
                                static_cast<int64_t>(rng() % 101));
    }
    plan.has_query = true;
    plan.query = {kPointLookup, lo + static_cast<int64_t>(rng() % slice)};
    plan.trip = rng() % w_.trip_every == 0;
    RunTxn(s, client, plan, 0, st);
  }
}

void Bench::AnalystClient(ClientStats* st) {
  Session s(db_->database());
  std::mt19937_64 rng(args_.seed * 1000003 + 7);
  std::vector<QueryShape> rotation = {kFilter1Pct, kProject50Pct,
                                      kGroupResidual, kIndexRange};
  std::shuffle(rotation.begin(), rotation.end(), rng);
  TxnPlan plan;
  plan.has_query = true;
  plan.trip = true;
  for (size_t n = 0; phase_.load() != kStopped; ++n) {
    plan.query = DrawQuery(rotation[n % rotation.size()], rng);
    RunTxn(s, 0, plan, 0, st);
  }
}

void Bench::WriterClient(ClientStats* st) {
  st->open_loop = true;
  Session s(db_->database());
  std::mt19937_64 rng(args_.seed * 1000003 + 11);
  // Poisson arrivals: independent users, and no fixed phase against the
  // scanner's cycle that would differ from run to run.
  std::exponential_distribution<double> gap_s(w_.writer_rate);
  uint64_t due = NowNs();
  TxnPlan plan;
  while (phase_.load() != kStopped) {
    due += static_cast<uint64_t>(gap_s(rng) * 1e9);
    const uint64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (phase_.load() == kStopped) break;
    }
    // A burst of readings for one object. The writer then never waits for
    // a lock while holding another, so it cannot deadlock with the
    // scanner's S locks, which parallel scan workers take in no global
    // order; it still waits out every scan that holds the object.
    plan.reports.clear();
    const uint32_t obj = static_cast<uint32_t>(rng() % w_.objects);
    for (int c = 0; c < w_.writer_calls; ++c) {
      plan.reports.emplace_back(obj, static_cast<int64_t>(rng() % 101));
    }
    plan.trip = true;
    RunTxn(s, 1, plan, due, st);
  }
}

void Bench::ScannerClient(ClientStats* st) {
  Session s(db_->database());
  std::mt19937_64 rng(args_.seed * 1000003 + 13);
  TxnPlan plan;
  plan.has_query = true;
  while (phase_.load() != kStopped) {
    plan.query = DrawQuery(kProject50Pct, rng);
    RunTxn(s, 0, plan, 0, st);
  }
}

// ---------------------------------------------------------------------------
// Measurement window

Bench::Counters Bench::Snap() {
  Counters c;
  c.signaled = db_->events()->signaled_count();
  c.composed = db_->events()->composite_count();
  c.deadlocks = db_->database()->txns()->locks()->deadlocks_detected();
  c.pool_hits = db_->database()->storage()->buffer_pool()->hit_count();
  c.pool_misses = db_->database()->storage()->buffer_pool()->miss_count();
  std::error_code ec;
  c.wal_bytes = fs::file_size(base_ + ".wal", ec);
  return c;
}

Status Bench::Run() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.SetEnabled(false);
  stats_.resize(2);
  faults_before_ = db_->database()->persistence()->faults();
  std::vector<std::thread> threads;
  if (w_.eca_clients > 0) {
    for (int c = 0; c < w_.eca_clients; ++c) {
      threads.emplace_back([this, c] { EcaClient(c, &stats_[c]); });
    }
  } else if (w_.analyst) {
    threads.emplace_back([this] { AnalystClient(&stats_[0]); });
  } else {
    threads.emplace_back([this] { ScannerClient(&stats_[0]); });
    threads.emplace_back([this] { WriterClient(&stats_[1]); });
  }

  auto trip_backlog = [this] {
    const uint64_t done = detached_actions_.load();
    const uint64_t signaled = trips_signaled_.load();
    return signaled > done + 1 ? signaled - done - 1 : 0;
  };
  // Warm-up: caches fill and lazy start-up finishes before timing starts.
  const double warmup = std::clamp(args_.seconds / 10.0, 0.5, 2.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));

  at_start_ = Snap();
  window_start_ns_ = NowNs();
  // Untraced runs measure one window. Traced runs alternate untraced and
  // traced quarters so that the tracing overhead is measured on the same
  // database state; per-layer metrics come from the traced quarters.
  std::vector<Phase> plan = {kUntraced};
  if (args_.trace) plan = {kUntraced, kTraced, kUntraced, kTraced};
  const double slice = args_.seconds / plan.size();
  bool reset = false;
  bool mid_taken = false;
  for (size_t i = 0; i < plan.size(); ++i) {
    const bool traced = plan[i] == kTraced;
    if (traced && !reset) {
      reg.ResetAll();
      reset = true;
    }
    reg.SetEnabled(traced);
    SpanLog::Instance().set_enabled(traced);
    phase_.store(plan[i]);
    const uint64_t t0 = NowNs();
    for (int half = 0; half < 2; ++half) {
      std::this_thread::sleep_for(std::chrono::duration<double>(slice / 2));
      if (!mid_taken && NowNs() - window_start_ns_ >= args_.seconds * 5e8) {
        backlog_mid_ = trip_backlog();
        mid_taken = true;
      }
    }
    phase_seconds_[plan[i]] += (NowNs() - t0) / 1e9;
  }
  backlog_end_ = trip_backlog();
  window_end_ns_ = NowNs();
  phase_.store(kStopped);
  for (auto& t : threads) t.join();
  {
    ScopedSpan span(SpanName::kDrain, 0);
    db_->Drain();
  }
  SpanLog::Instance().set_enabled(false);
  reg.SetEnabled(false);
  at_end_ = Snap();
  faults_after_ = db_->database()->persistence()->faults();

  for (ClientStats& st : stats_) {
    all_.attempted += st.attempted;
    all_.failed += st.failed;
    for (const auto& [code, n] : st.failures) all_.failures[code] += n;
    for (int p = 0; p < 4; ++p) all_.committed[p] += st.committed[p];
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all_.txn_ms, st.txn_ms);
    append(&all_.invoke_us, st.invoke_us);
    append(&all_.query_ms, st.query_ms);
    append(&all_.late_ms, st.late_ms);
    append(&all_.q_exec_ns, st.q_exec_ns);
    all_.queries.insert(all_.queries.end(), st.queries.begin(),
                        st.queries.end());
    all_.queries_run += st.queries_run;
    all_.wrong_results += st.wrong_results;
    all_.q_scanned += st.q_scanned;
    all_.q_rows += st.q_rows;
    all_.q_morsels += st.q_morsels;
    all_.q_workers += st.q_workers;
    all_.request_ns += st.request_ns;
    all_.covered_ns += st.covered_ns;
    all_.queue_depth_max = std::max(all_.queue_depth_max, st.queue_depth_max);
  }

  if (!args_.trace) {
    // Host disk check outside the window: time the log force of a few
    // single-write commits with the program's own fsync histogram, so disk
    // throttling on the host shows next to the run's figures.
    reg.ResetAll();
    reg.SetEnabled(true);
    Session s(db_->database());
    for (int i = 0; i < 32; ++i) {
      REACH_RETURN_IF_ERROR(s.Begin());
      REACH_RETURN_IF_ERROR(s.SetAttr(consoles_[0], "probes", Value(i + 1)));
      REACH_RETURN_IF_ERROR(s.Commit());
    }
    reg.SetEnabled(false);
  }
  fsync_probe_ns_ = static_cast<double>(
      reg.histogram(obs::kWalFsyncNs)->Snapshot().ValueAtPercentile(50));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Correctness

std::vector<double> Bench::FireLagsMs() const {
  std::vector<double> lags;
  for (uint64_t id = 0; id < std::min<uint64_t>(next_trip_.load(), kMaxTrips);
       ++id) {
    const uint64_t ret = trip_ret_ns_[id].load();
    const uint64_t start = trip_start_ns_[id].load();
    if (ret < window_start_ns_ || ret > window_end_ns_ || start == 0) continue;
    lags.push_back(start > ret ? (start - ret) / 1e6 : 0.0);
  }
  return lags;
}

Digest Bench::Expected(const QuerySpec& q) const {
  Digest d;
  const size_t n = w_.objects;
  switch (q.shape) {
    case kFilter1Pct:
      for (size_t i = 0; i < n; ++i) {
        if (key_[i] >= q.param && key_[i] < q.param + kKeyRange / 100) {
          d.AddRow({static_cast<int64_t>(i)});
        }
      }
      break;
    case kProject50Pct:
      for (size_t i = 0; i < n; ++i) {
        if (key_[i] >= q.param && key_[i] < q.param + kKeyRange / 2) {
          d.AddRow({static_cast<int64_t>(i), grp_[i]});
        }
      }
      break;
    case kGroupResidual: {
      std::vector<int64_t> count(kGroups, 0), sum(kGroups, 0);
      for (size_t i = 0; i < n; ++i) {
        if ((key_[i] + static_cast<int64_t>(i)) % 4 == q.param) {
          ++count[grp_[i]];
          sum[grp_[i]] += key_[i];
        }
      }
      for (int64_t g = 0; g < kGroups; ++g) {
        if (count[g] > 0) d.AddRow({g, count[g], sum[g]});
      }
      break;
    }
    case kIndexRange:
      for (size_t i = 0; i < n; ++i) {
        if (key_[i] >= q.param) d.AddRow({static_cast<int64_t>(i), key_[i]});
      }
      break;
    case kPointLookup:
      break;
  }
  return d;
}

std::vector<std::string> Bench::Check() {
  std::vector<std::string> problems;
  auto problem = [&](std::string s) { problems.push_back(std::move(s)); };

  if (all_.wrong_results > 0) {
    problem(std::to_string(all_.wrong_results) + " wrong query results");
  }
  for (const QueryRecord& rec : all_.queries) {
    if (!(rec.got == Expected(rec.spec))) {
      problem("query result differs from the generator: " +
              QueryText(w_.cls, rec.spec));
      break;
    }
  }

  // Committed state of every data object against the model of committed
  // writes: v is the last write and alarms count reports with x > 90 (the
  // immediate rule). Each Console's pairs count the deferred actions its
  // session's committed transactions ran.
  Session s(db_->database());
  Status st = s.Begin();
  Result<reach::QueryResult> r =
      st.ok() ? db_->Query(s, "select id, v, alarms from " + w_.cls)
              : Result<reach::QueryResult>(st);
  if (!r.ok()) {
    problem("state read failed: " + r.status().ToString());
  } else {
    size_t mismatched = 0;
    int64_t alarms = 0, want_alarms = 0;
    for (const reach::QueryRow& row : r->rows) {
      const int64_t id = row.values[0].as_int();
      alarms += row.values[2].as_int();
      if (row.values[1].as_int() != model_v_[id] ||
          row.values[2].as_int() != model_alarms_[id]) {
        ++mismatched;
      }
    }
    for (size_t i = 0; i < w_.objects; ++i) want_alarms += model_alarms_[i];
    if (r->rows.size() != w_.objects) problem("extent size changed");
    if (alarms != want_alarms) {
      problem("alarms " + std::to_string(alarms) + " != committed reports " +
              "with x > 90: " + std::to_string(want_alarms));
    }
    if (mismatched > 0) {
      problem(std::to_string(mismatched) + " objects differ from the model");
    }
  }
  for (int c = 0; c < 2; ++c) {
    Result<Value> pairs = s.GetAttr(consoles_[c], "pairs");
    if (!pairs.ok() || pairs->as_int() != model_pairs_[c]) {
      problem("Console " + std::to_string(c) +
              " pairs differ from the deferred actions run in its committed "
              "transactions: " + std::to_string(model_pairs_[c]));
    }
  }
  Result<Value> reactor_trips = s.GetAttr(reactor_, "trips");
  (void)s.Commit();

  // Detached firings: every completed Seq(trip, trip) composite ran the
  // detached action exactly once, and composites are exactly the trips that
  // did not stay behind as an open or expired initiator.
  const reach::CompositorStats cs =
      db_->events()->CompositorOf(trip_pair_)->stats();
  const uint64_t live = db_->events()->CompositorOf(trip_pair_)
                            ->LivePartialCount();
  const uint64_t actions = detached_actions_.load();
  if (!reactor_trips.ok() ||
      static_cast<uint64_t>(reactor_trips->as_int()) != actions) {
    problem("Reactor.trips does not match the detached actions run");
  }
  if (cs.completions != actions) {
    problem("detached actions " + std::to_string(actions) +
            " != completed trip composites " + std::to_string(cs.completions));
  }
  if (cs.fed != trips_signaled_.load() ||
      cs.completions + cs.expired_partials + live != cs.fed) {
    problem("trip composites do not account for the trips signaled");
  }
  if (action_errors_.load() != 0) problem("detached action saw a bad trip id");
  for (uint64_t id = 0; id < std::min<uint64_t>(next_trip_.load(), kMaxTrips);
       ++id) {
    if (trip_terminated_[id].load() > 1) {
      problem("a trip terminated more than one composite");
      break;
    }
  }
  if (db_->rules()->stats().failures != 0) {
    problem(std::to_string(db_->rules()->stats().failures) +
            " rule executions failed");
  }
  if (backlog_end_ > 128 && backlog_end_ > 2 * backlog_mid_ + 64) {
    problem("detached backlog still growing at the end of the run: " +
            std::to_string(backlog_mid_) + " -> " +
            std::to_string(backlog_end_));
  }
  if (all_.committed[kUntraced] + all_.committed[kTraced] == 0) {
    problem("no transaction committed in the measured window");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Reporting

std::vector<Bench::Metric> Bench::EndToEnd(
    const std::vector<double>& setup_s, bool gated) {
  const double window = phase_seconds_[kUntraced];
  std::vector<double> lags = FireLagsMs();
  if (!gated) {
    // Tail latencies: printed for every run, not gated. Across seeds their
    // spread on a shared 4-vCPU host exceeds the largest bound the gate can
    // take (perfbench/README.md, "Steadiness").
    return {
        {"txn_p99_ms", "ms", Percentile(&all_.txn_ms, 99), all_.txn_ms.size()},
        {"invoke_p99_us", "us", Percentile(&all_.invoke_us, 99),
         all_.invoke_us.size()},
        {"fire_lag_p99_ms", "ms", Percentile(&lags, 99), lags.size()},
        {"query_p99_ms", "ms", Percentile(&all_.query_ms, 99),
         all_.query_ms.size()},
    };
  }
  std::vector<double> setup = setup_s;
  const uint64_t committed = all_.committed[kUntraced];
  // Log volume per committed transaction that makes sentried calls: the
  // mixed_rw scanner's read-only transactions would dilute it by a share
  // that follows the scan rate.
  const size_t eca_txns = all_.txn_ms.size();
  const double wal_growth =
      static_cast<double>(at_end_.wal_bytes - at_start_.wal_bytes);
  return {
      {"setup_s", "s", Percentile(&setup, 50), setup.size()},
      {"txn_per_s", "1/s", committed / window, committed},
      {"txn_p50_ms", "ms", Percentile(&all_.txn_ms, 50), all_.txn_ms.size()},
      {"invoke_p50_us", "us", Percentile(&all_.invoke_us, 50),
       all_.invoke_us.size()},
      {"fire_lag_p50_ms", "ms", Percentile(&lags, 50), lags.size()},
      {"query_per_s", "1/s", all_.query_ms.size() / window,
       all_.query_ms.size()},
      {"query_p50_ms", "ms", Percentile(&all_.query_ms, 50),
       all_.query_ms.size()},
      {"log_bytes_per_txn", "B", eca_txns > 0 ? wal_growth / eca_txns : 0.0,
       eca_txns},
      {"peak_rss_mb", "MiB", PeakRssMb(), 1},
  };
}

std::vector<Bench::LayerMetric> Bench::PerLayer() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  auto hist = [&](const std::string& name, double p) {
    return static_cast<double>(
        reg.histogram(name)->Snapshot().ValueAtPercentile(p));
  };
  auto count = [&](const std::string& name) {
    return static_cast<double>(reg.counter(name)->value());
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // Spans of the traced quarters.
  std::vector<double> begin_us, invoke_us, commit_us, execute_ms, action_us;
  for (const Span& s : SpanLog::Instance().Collect()) {
    const double us = (s.end_ns - s.start_ns) / 1e3;
    switch (s.name) {
      case SpanName::kBegin: begin_us.push_back(us); break;
      case SpanName::kInvoke: invoke_us.push_back(us); break;
      case SpanName::kCommit: commit_us.push_back(us); break;
      case SpanName::kExecute: execute_ms.push_back(us / 1e3); break;
      case SpanName::kAction: action_us.push_back(us); break;
      default: break;
    }
  }
  const double traced_txns = static_cast<double>(all_.committed[kTraced]);
  const double window_txns =
      static_cast<double>(all_.committed[kUntraced] + all_.committed[kTraced]);
  const double queries = static_cast<double>(all_.q_exec_ns.size());

  uint64_t triggered = 0, cond_true = 0;
  for (const std::string& name : db_->rules()->RuleNames()) {
    Result<reach::RuleStats> rs = db_->rules()->StatsOf(name);
    if (!rs.ok()) continue;
    triggered += rs->triggered;
    cond_true += rs->conditions_true;
  }
  const double batched = static_cast<double>(
      reg.histogram(obs::kEventsBatchSize)->Snapshot().sum);
  const double fallbacks = count(obs::kEventsBatchFallbacks);
  const double useful = count(obs::kBusAnnounceUseful);
  const double useless = count(obs::kBusAnnounceUseless);
  const double top_level =
      traced_txns + count(obs::kRulesDetachedRuns);
  // Tracing overhead from the closed-loop clients' throughput in the
  // untraced against the traced quarters.
  double closed[4] = {0, 0, 0, 0};
  for (const ClientStats& st : stats_) {
    if (st.open_loop) continue;
    for (int p = 0; p < 4; ++p) closed[p] += st.committed[p];
  }
  const double rate_untraced =
      closed[kUntraced] / std::max(phase_seconds_[kUntraced], 1e-9);
  const double rate_traced =
      closed[kTraced] / std::max(phase_seconds_[kTraced], 1e-9);
  std::vector<double> late = all_.late_ms;
  const double hits = static_cast<double>(at_end_.pool_hits - at_start_.pool_hits);
  const double misses =
      static_cast<double>(at_end_.pool_misses - at_start_.pool_misses);

  return {
      {"oodb", "oodb.begin_us", "us", "S", Percentile(&begin_us, 50)},
      {"oodb", "oodb.invoke_us.p50", "us", "S", Percentile(&invoke_us, 50)},
      {"oodb", "oodb.invoke_us.p99", "us", "S", Percentile(&invoke_us, 99)},
      {"oodb", "oodb.commit_us.p50", "us", "S", Percentile(&commit_us, 50)},
      {"oodb", "oodb.commit_us.p99", "us", "S", Percentile(&commit_us, 99)},
      {"oodb", "oodb.persistence.cached_objects", "count", "P",
       static_cast<double>(db_->database()->persistence()->cached_objects())},
      {"oodb", "oodb.persistence.faults_per_query", "count", "P",
       ratio(faults_after_ - faults_before_, all_.queries_run)},
      {"oodb", "oodb.sentry.announced_per_txn", "count", "R",
       ratio(count(obs::kSentryAnnounced), traced_txns)},
      {"oodb", "oodb.bus.useful_ratio", "ratio", "R",
       ratio(useful, useful + useless)},
      {"events", "pipeline.sentry_to_signal_ns.p50", "ns", "R",
       hist(obs::kSpanSentryToSignal, 50)},
      {"events", "pipeline.signal_to_dispatch_ns.p50", "ns", "R",
       hist(obs::kSpanSignalToDispatch, 50)},
      {"events", "pipeline.signal_to_compose_ns.p50", "ns", "R",
       hist(obs::kSpanSignalToCompose, 50)},
      {"events", "pipeline.signal_to_compose_ns.p99", "ns", "R",
       hist(obs::kSpanSignalToCompose, 99)},
      {"events", "events.compositor.lock_wait_ns.p99", "ns", "R",
       hist(obs::kCompositorLockWaitNs, 99)},
      {"events", "events.batch.fallback_ratio", "ratio", "R",
       ratio(fallbacks, fallbacks + batched)},
      {"events", "events.history.logged_per_txn", "count", "R",
       ratio(count(obs::kEventHistoryLogged), traced_txns)},
      {"events", "events.signaled_per_txn", "count", "P",
       ratio(at_end_.signaled - at_start_.signaled, window_txns)},
      {"events", "events.composed_per_txn", "count", "P",
       ratio(at_end_.composed - at_start_.composed, window_txns)},
      {"events", "events.composition.queue_depth.max", "count", "P",
       static_cast<double>(all_.queue_depth_max)},
      {"rules", "rules.exec_ns.immediate.p50", "ns", "R",
       hist(std::string(obs::kRulesExecNsPrefix) + "immediate", 50)},
      {"rules", "rules.exec_ns.deferred.p50", "ns", "R",
       hist(std::string(obs::kRulesExecNsPrefix) + "deferred", 50)},
      {"rules", "rules.exec_ns.detached.p50", "ns", "R",
       hist(std::string(obs::kRulesExecNsPrefix) + "detached", 50)},
      {"rules", "rules.fire_lag_ns.detached.p50", "ns", "R",
       hist(std::string(obs::kRulesFireLagNsPrefix) + "detached", 50)},
      {"rules", "rules.fire_lag_ns.detached.p99", "ns", "R",
       hist(std::string(obs::kRulesFireLagNsPrefix) + "detached", 99)},
      {"rules", "rules.failures", "count", "R", count(obs::kRulesFailures)},
      {"rules", "rules.action_us", "us", "S", Percentile(&action_us, 50)},
      {"rules", "rules.condition_true_ratio", "ratio", "P",
       ratio(static_cast<double>(cond_true), static_cast<double>(triggered))},
      {"txn", "txn.commit_ns.p50", "ns", "R", hist(obs::kTxnCommitNs, 50)},
      {"txn", "txn.commit_ns.p99", "ns", "R", hist(obs::kTxnCommitNs, 99)},
      {"txn", "txn.subtxn_per_txn", "count", "R",
       ratio(count(obs::kTxnBegun) - top_level, traced_txns)},
      {"txn", "txn.aborted_per_txn", "count", "R",
       ratio(count(obs::kTxnAborted), traced_txns)},
      {"txn", "txn.lock.deadlocks", "count", "P",
       static_cast<double>(at_end_.deadlocks - at_start_.deadlocks)},
      {"storage", "storage.wal.fsync_per_txn", "count", "R",
       ratio(count(obs::kWalFsyncCount), traced_txns)},
      {"storage", "storage.wal.fsync_ns.p50", "ns", "R",
       hist(obs::kWalFsyncNs, 50)},
      {"storage", "storage.wal.group.size.p50", "count", "R",
       hist(obs::kWalGroupSize, 50)},
      {"storage", "storage.wal.group.wait_ns.p50", "ns", "R",
       hist(obs::kWalGroupWaitNs, 50)},
      {"storage", "storage.wal.group.wait_ns.p99", "ns", "R",
       hist(obs::kWalGroupWaitNs, 99)},
      {"storage", "storage.wal.flushed_bytes_per_txn", "B", "R",
       ratio(count(obs::kWalFlushedBytes), traced_txns)},
      {"storage", "storage.bufferpool.evict_writeback_per_txn", "count", "R",
       ratio(count(obs::kBufEvictWriteback), traced_txns)},
      {"storage", "storage.disk.batch.pages.p50", "count", "R",
       hist(obs::kDiskBatchPages, 50)},
      {"storage", "storage.disk.complete_ns.p50", "ns", "R",
       hist(obs::kDiskCompleteNs, 50)},
      {"storage", "storage.bufferpool.hit_rate", "ratio", "P",
       ratio(hits, hits + misses)},
      {"storage", "storage.bufferpool.miss_per_query", "count", "P",
       ratio(misses, queries)},
      {"query", "query.execute_ms.p50", "ms", "S", Percentile(&execute_ms, 50)},
      {"query", "query.exec_ns.p50", "ns", "P", Percentile(&all_.q_exec_ns, 50)},
      {"query", "query.scanned_per_row", "count", "P",
       ratio(static_cast<double>(all_.q_scanned),
             static_cast<double>(all_.q_rows))},
      {"query", "query.morsels", "count", "P",
       ratio(static_cast<double>(all_.q_morsels), queries)},
      {"query", "query.workers", "count", "P",
       ratio(static_cast<double>(all_.q_workers), queries)},
      {"harness", "harness.late_ms.p99", "ms", "S", Percentile(&late, 99)},
      {"harness", "harness.unaccounted_pct", "pct", "S",
       all_.request_ns > 0
           ? 100.0 * (all_.request_ns - all_.covered_ns) / all_.request_ns
           : 0.0},
      {"obs", "obs.trace_overhead_pct", "pct", "S",
       rate_traced > 0 ? 100.0 * (rate_untraced / rate_traced - 1.0) : 0.0},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Bench::RunInfo(const std::vector<double>& setup_s) {
  std::ostringstream o;
  o << "{\"run_info\": {\"workload\": " << JsonString(w_.name)
    << ", \"seed\": " << args_.seed << ", \"seconds\": " << args_.seconds
    << ", \"trace\": " << (args_.trace ? 1 : 0)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"objects\": " << w_.objects
    << ", \"data_pages\": "
    << db_->database()->storage()->buffer_pool()->disk_pages()
    << ", \"pool_pages\": "
    << db_->database()->storage()->buffer_pool()->pool_size()
    << ", \"storage.wal.fsync_ns.p50\": " << JsonNumber(fsync_probe_ns_)
    << ", \"trips\": " << trips_signaled_.load()
    << ", \"detached_actions\": " << detached_actions_.load()
    << ", \"backlog_mid\": " << backlog_mid_
    << ", \"backlog_end\": " << backlog_end_
    << ", \"report_pairs_expected\": " << pairs_expected_
    << ", \"report_pairs_lost\": " << pairs_expected_ - pairs_run_
    << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    o << (i ? ", " : "") << JsonNumber(setup_s[i]);
  }
  o << "], \"ungated\": {";
  bool first = true;
  if (!args_.trace) {
    for (const Metric& m : EndToEnd(setup_s, false)) {
      o << (first ? "" : ", ") << JsonString(m.name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
        << ", \"samples\": " << m.samples << "}";
      first = false;
    }
  }
  o << "}, \"failures\": {";
  first = true;
  for (const auto& [code, n] : all_.failures) {
    o << (first ? "" : ", ") << JsonString(code) << ": " << n;
    first = false;
  }
  o << "}}}";
  return o.str();
}

void Bench::Report(const std::vector<double>& setup_s,
                   const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const std::string& name, double value, const char* unit) {
    metrics << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
            << JsonNumber(value) << ", \"unit\": " << JsonString(unit) << "}";
    first = false;
  };
  if (args_.trace) {
    std::vector<LayerMetric> layers = PerLayer();
    std::string table;
    char line[256];
    for (const LayerMetric& m : layers) {
      std::snprintf(line, sizeof(line), "%-8s %-45s %16.4f %-6s %s\n",
                    m.layer.c_str(), m.name.c_str(), m.value, m.unit.c_str(),
                    m.source.c_str());
      table += line;
      emit(m.name, m.value, m.unit.c_str());
    }
    std::fprintf(stderr, "layer    metric%40s value unit   source\n%s", "",
                 table.c_str());
    if (SpanLog::Instance().dropped() > 0) {
      std::fprintf(stderr, "perfbench: %llu spans dropped (buffer full)\n",
                   static_cast<unsigned long long>(
                       SpanLog::Instance().dropped()));
    }
    std::error_code ec;
    fs::create_directories(args_.trace_dir, ec);
    std::ofstream(args_.trace_dir + "/layers.txt") << table;
    if (!obs::MetricsRegistry::Instance().DumpJson(args_.trace_dir +
                                                   "/registry.json") ||
        !SpanLog::Instance().WriteJsonLines(args_.trace_dir + "/spans.jsonl")) {
      std::fprintf(stderr, "perfbench: cannot write the trace to %s\n",
                   args_.trace_dir.c_str());
    }
  } else {
    for (const Metric& m : EndToEnd(setup_s, true)) {
      emit(m.name, m.value, m.unit.c_str());
    }
  }
  std::printf("%s\n", RunInfo(setup_s).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      problems.empty() ? "true" : "false", all_.attempted,
      all_.failed + (problems.empty() ? 0 : 1), metrics.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--dir") args->dir = value;
    else if (flag == "--trace-dir") args->trace_dir = value;
    else return false;
  }
  if (args->trace_dir.empty()) args->trace_dir = args->dir + "/trace";
  return argc % 2 == 1 && !args->dir.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "REACH_", 6) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: the benchmark "
                   "measures the shipped defaults only\n",
                   std::string(*e).substr(0, std::strcspn(*e, "=")).c_str());
      return 2;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: reach_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --dir SCRATCH [--trace-dir DIR]\n");
    return 2;
  }
  Workload w = MakeWorkload(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.dir.c_str());
    return 2;
  }

  Bench bench(args, w);
  std::vector<double> setup_s;
  Status st = bench.SetupAll(&setup_s);
  if (st.ok()) st = bench.Run();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<std::string> problems = bench.Check();
  bench.Report(setup_s, problems);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
