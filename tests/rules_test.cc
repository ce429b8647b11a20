// Rule engine: Table 1 legality matrix, coupling-mode execution semantics,
// priorities and tie-breaks, serial vs parallel execution, deferred rounds.
#include <gtest/gtest.h>

#include <atomic>

#include "core/reach/reach_db.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override { OpenDb({}); }

  void OpenDb(ReachOptions options) {
    db_.reset();
    options.database.clock = &clock_;
    options.events.async_composition = false;
    auto db = ReachDb::Open(dir_.DbPath(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(
        db_->RegisterClass(
               ClassBuilder("Counter")
                   .Attribute("n", ValueType::kInt, Value(0))
                   .Attribute("log", ValueType::kString, Value(""))
                   .Method("bump",
                           [](Session& s, DbObject& self,
                              const std::vector<Value>& args) -> Result<Value> {
                             int64_t delta = args.empty() ? 1 : args[0].as_int();
                             int64_t now = self.Get("n").as_int() + delta;
                             REACH_RETURN_IF_ERROR(
                                 s.SetAttr(self.oid(), "n", Value(now)));
                             return Value(now);
                           }))
            .ok());
  }

  Oid MakeCounter() {
    Session s(db_->database());
    EXPECT_TRUE(s.Begin().ok());
    auto oid = s.PersistNew("Counter", {});
    EXPECT_TRUE(s.Bind("counter" + std::to_string(++counter_seq_), *oid).ok());
    EXPECT_TRUE(s.Commit().ok());
    return *oid;
  }

  TempDir dir_;
  VirtualClock clock_;
  std::unique_ptr<ReachDb> db_;
  int counter_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Table 1: event category x coupling mode admission matrix.
// ---------------------------------------------------------------------------

struct Table1Case {
  EventCategory category;
  CouplingMode mode;
  bool supported;
};

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, MatrixMatchesPaper) {
  const Table1Case& c = GetParam();
  Status st = CheckCoupling(c.category, c.mode);
  EXPECT_EQ(st.ok(), c.supported)
      << EventCategoryName(c.category) << " x " << CouplingModeName(c.mode)
      << ": " << st.ToString();
  if (!st.ok()) {
    EXPECT_TRUE(st.IsNotSupported());
  }
}

std::vector<Table1Case> Table1Cases() {
  using EC = EventCategory;
  using CM = CouplingMode;
  std::vector<Table1Case> cases;
  auto add = [&](EC category, CM mode, bool yes) {
    cases.push_back({category, mode, yes});
  };
  // Column 1: single method events — all six modes supported.
  for (CM m : {CM::kImmediate, CM::kDeferred, CM::kDetached,
               CM::kParallelCausallyDependent,
               CM::kSequentialCausallyDependent,
               CM::kExclusiveCausallyDependent}) {
    add(EC::kSingleMethod, m, true);
  }
  // Column 2: purely temporal — only detached.
  add(EC::kPurelyTemporal, CM::kImmediate, false);
  add(EC::kPurelyTemporal, CM::kDeferred, false);
  add(EC::kPurelyTemporal, CM::kDetached, true);
  add(EC::kPurelyTemporal, CM::kParallelCausallyDependent, false);
  add(EC::kPurelyTemporal, CM::kSequentialCausallyDependent, false);
  add(EC::kPurelyTemporal, CM::kExclusiveCausallyDependent, false);
  // Column 3: composite single-transaction — all but immediate.
  add(EC::kCompositeSingleTx, CM::kImmediate, false);
  add(EC::kCompositeSingleTx, CM::kDeferred, true);
  add(EC::kCompositeSingleTx, CM::kDetached, true);
  add(EC::kCompositeSingleTx, CM::kParallelCausallyDependent, true);
  add(EC::kCompositeSingleTx, CM::kSequentialCausallyDependent, true);
  add(EC::kCompositeSingleTx, CM::kExclusiveCausallyDependent, true);
  // Column 4: composite across transactions — detached family only.
  add(EC::kCompositeMultiTx, CM::kImmediate, false);
  add(EC::kCompositeMultiTx, CM::kDeferred, false);
  add(EC::kCompositeMultiTx, CM::kDetached, true);
  add(EC::kCompositeMultiTx, CM::kParallelCausallyDependent, true);
  add(EC::kCompositeMultiTx, CM::kSequentialCausallyDependent, true);
  add(EC::kCompositeMultiTx, CM::kExclusiveCausallyDependent, true);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, Table1Test,
                         ::testing::ValuesIn(Table1Cases()));

// ---------------------------------------------------------------------------
// Coupling-mode execution semantics
// ---------------------------------------------------------------------------

TEST_F(RulesTest, DefineRuleRejectsIllegalCombination) {
  auto timer = db_->events()->DefinePeriodicEvent("tick", 1000000);
  RuleSpec spec;
  spec.name = "bad";
  spec.event = *timer;
  spec.coupling = CouplingMode::kImmediate;
  spec.action = [](Session&, const EventOccurrence&) { return Status::OK(); };
  EXPECT_TRUE(db_->rules()->DefineRule(spec).status().IsNotSupported());
  spec.coupling = CouplingMode::kDetached;
  EXPECT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
}

TEST_F(RulesTest, ImmediateRuleRunsInsideTriggeringTransaction) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "echo";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.action = [counter](Session& s, const EventOccurrence&) -> Status {
    return s.SetAttr(counter, "log", Value("rule ran"));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  // The immediate rule already ran (inside a subtransaction of ours).
  EXPECT_EQ(*s.GetAttr(counter, "log"), Value("rule ran"));
  ASSERT_TRUE(s.Abort().ok());

  // Abort of the triggering transaction rolls the rule's effect back too.
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_EQ(*s.GetAttr(counter, "log"), Value(""));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(RulesTest, ImmediateConditionFalseSkipsAction) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> actions{0};
  RuleSpec spec;
  spec.name = "guarded";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.condition = [](Session&, const EventOccurrence& occ) -> Result<bool> {
    return occ.params[0].as_int() > 100;  // bump delta > 100
  };
  spec.action = [&](Session&, const EventOccurrence&) -> Status {
    actions++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(5)}).ok());
  EXPECT_EQ(actions.load(), 0);
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(500)}).ok());
  EXPECT_EQ(actions.load(), 1);
  ASSERT_TRUE(s.Commit().ok());
  auto stats = *db_->rules()->StatsOf("guarded");
  EXPECT_EQ(stats.triggered, 2u);
  EXPECT_EQ(stats.conditions_true, 1u);
  EXPECT_EQ(stats.actions_run, 1u);
}

TEST_F(RulesTest, DeferredRuleRunsAtPreCommit) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> runs{0};
  RuleSpec spec;
  spec.name = "deferred";
  spec.event = *ev;
  spec.coupling = CouplingMode::kDeferred;
  spec.action = [&](Session&, const EventOccurrence&) -> Status {
    runs++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(runs.load(), 0);  // nothing yet
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(runs.load(), 2);  // both firings at pre-commit
}

TEST_F(RulesTest, DeferredRuleDroppedOnAbort) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> runs{0};
  RuleSpec spec;
  spec.name = "deferred";
  spec.event = *ev;
  spec.coupling = CouplingMode::kDeferred;
  spec.action = [&](Session&, const EventOccurrence&) -> Status {
    runs++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Abort().ok());
  EXPECT_EQ(runs.load(), 0);
}

TEST_F(RulesTest, DeferredCascadeRuns) {
  // A deferred rule whose action raises the event again: the pre-commit
  // loop must execute the cascade (bounded).
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "cascade";
  spec.event = *ev;
  spec.coupling = CouplingMode::kDeferred;
  spec.condition = [counter](Session& s,
                             const EventOccurrence&) -> Result<bool> {
    REACH_ASSIGN_OR_RETURN(Value n, s.GetAttr(counter, "n"));
    return n.as_int() < 5;
  };
  spec.action = [counter](Session& s, const EventOccurrence&) -> Status {
    auto r = s.Invoke(counter, "bump");
    return r.ok() ? Status::OK() : r.status();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());  // n = 1
  ASSERT_TRUE(s.Commit().ok());
  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  EXPECT_EQ(check.GetAttr(counter, "n")->as_int(), 5);
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(RulesTest, DetachedRuleRunsInIndependentTransaction) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "detached";
  spec.event = *ev;
  spec.coupling = CouplingMode::kDetached;
  spec.action = [counter](Session& s, const EventOccurrence&) -> Status {
    return s.SetAttr(counter, "log", Value("detached ran"));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  db_->rules()->WaitDetachedIdle();
  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  EXPECT_EQ(*check.GetAttr(counter, "log"), Value("detached ran"));
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(RulesTest, ParallelCausallyDependentFollowsTriggerOutcome) {
  Oid counter = MakeCounter();
  Oid sink = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "par_dep";
  spec.event = *ev;
  spec.coupling = CouplingMode::kParallelCausallyDependent;
  spec.action = [sink](Session& s, const EventOccurrence&) -> Status {
    // Read-modify-write directly: invoking bump() would re-raise the
    // triggering event and recurse.
    auto n = s.GetAttr(sink, "n");
    if (!n.ok()) return n.status();
    return s.SetAttr(sink, "n", Value(n->as_int() + 1));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  // Trigger commits -> rule effect commits.
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  db_->rules()->WaitDetachedIdle();
  Session c1(db_->database());
  ASSERT_TRUE(c1.Begin().ok());
  EXPECT_EQ(c1.GetAttr(sink, "n")->as_int(), 1);
  ASSERT_TRUE(c1.Commit().ok());

  // Trigger aborts -> rule transaction aborts with it.
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Abort().ok());
  db_->rules()->WaitDetachedIdle();
  Session c2(db_->database());
  ASSERT_TRUE(c2.Begin().ok());
  EXPECT_EQ(c2.GetAttr(sink, "n")->as_int(), 1);  // unchanged
  ASSERT_TRUE(c2.Commit().ok());
  auto stats = *db_->rules()->StatsOf("par_dep");
  EXPECT_EQ(stats.skipped_dependency, 1u);
}

TEST_F(RulesTest, SequentialCausallyDependentWaitsForCommit) {
  Oid counter = MakeCounter();
  Oid sink = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> ran{0};
  RuleSpec spec;
  spec.name = "seq_dep";
  spec.event = *ev;
  spec.coupling = CouplingMode::kSequentialCausallyDependent;
  spec.action = [&, sink](Session& s, const EventOccurrence&) -> Status {
    ran++;
    auto n = s.GetAttr(sink, "n");
    if (!n.ok()) return n.status();
    return s.SetAttr(sink, "n", Value(n->as_int() + 1));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  // Rule must not start while the trigger is active.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ran.load(), 0);
  ASSERT_TRUE(s.Commit().ok());
  db_->rules()->WaitDetachedIdle();
  EXPECT_EQ(ran.load(), 1);

  // Aborted trigger: the rule never initiates.
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Abort().ok());
  db_->rules()->WaitDetachedIdle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(db_->rules()->StatsOf("seq_dep")->skipped_dependency, 1u);
}

TEST_F(RulesTest, ExclusiveCausallyDependentContingency) {
  Oid counter = MakeCounter();
  Oid sink = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "contingency";
  spec.event = *ev;
  spec.coupling = CouplingMode::kExclusiveCausallyDependent;
  spec.action = [sink](Session& s, const EventOccurrence&) -> Status {
    // Read-modify-write directly: invoking bump() would re-raise the
    // triggering event and recurse.
    auto n = s.GetAttr(sink, "n");
    if (!n.ok()) return n.status();
    return s.SetAttr(sink, "n", Value(n->as_int() + 1));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  // Trigger commits: contingency must NOT commit.
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  db_->rules()->WaitDetachedIdle();
  Session c1(db_->database());
  ASSERT_TRUE(c1.Begin().ok());
  EXPECT_EQ(c1.GetAttr(sink, "n")->as_int(), 0);
  ASSERT_TRUE(c1.Commit().ok());

  // Trigger aborts: contingency commits.
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Abort().ok());
  db_->rules()->WaitDetachedIdle();
  Session c2(db_->database());
  ASSERT_TRUE(c2.Begin().ok());
  EXPECT_EQ(c2.GetAttr(sink, "n")->as_int(), 1);
  ASSERT_TRUE(c2.Commit().ok());
}

TEST_F(RulesTest, PriorityOrdersRuleExecution) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::vector<std::string> order;
  std::mutex order_mu;
  auto make_rule = [&](const std::string& name, int prio) {
    RuleSpec spec;
    spec.name = name;
    spec.event = *ev;
    spec.priority = prio;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [&, name](Session&, const EventOccurrence&) -> Status {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
      return Status::OK();
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  };
  make_rule("low", 1);
  make_rule("high", 10);
  make_rule("mid", 5);

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "low");
}

TEST_F(RulesTest, TieBreakNewestFirstOption) {
  ReachOptions options;
  options.rules.tie_break = RuleEngineOptions::TieBreak::kNewestFirst;
  OpenDb(std::move(options));
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::vector<std::string> order;
  std::mutex order_mu;
  for (const char* name : {"first", "second"}) {
    RuleSpec spec;
    spec.name = name;
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [&, name](Session&, const EventOccurrence&) -> Status {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
      return Status::OK();
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  }
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "second");  // newest registration first
}

TEST_F(RulesTest, ParallelSubtransactionExecution) {
  ReachOptions options;
  options.rules.multi_rule_execution =
      RuleEngineOptions::Execution::kParallelSubtransactions;
  options.rules.parallel_rule_threads = 4;
  OpenDb(std::move(options));
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    RuleSpec spec;
    spec.name = "par" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [&](Session&, const EventOccurrence&) -> Status {
      ran++;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return Status::OK();
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  }
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(ran.load(), 4);  // all ran before the go-ahead
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(RulesTest, ParallelRulesWritingSameObjectStaySerializable) {
  ReachOptions options;
  options.rules.multi_rule_execution =
      RuleEngineOptions::Execution::kParallelSubtransactions;
  OpenDb(std::move(options));
  Oid counter = MakeCounter();
  Oid sink = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  for (int i = 0; i < 4; ++i) {
    RuleSpec spec;
    spec.name = "w" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [sink](Session& s, const EventOccurrence&) -> Status {
      auto n = s.GetAttr(sink, "n");
      if (!n.ok()) return n.status();
      return s.SetAttr(sink, "n", Value(n->as_int() + 1));
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  }
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(s.GetAttr(sink, "n")->as_int(), 4);  // no lost updates
  ASSERT_TRUE(s.Commit().ok());
}

// Forces the upgrade deadlock instead of waiting for the scheduler to find
// it: both sibling subtransactions hold S on `sink` before either asks for
// X, so the lock manager must refuse one as a deadlock victim. The parent
// re-runs the victim once the set finishes; that first attempt is no rule
// failure, so it neither counts nor aborts the trigger.
TEST_F(RulesTest, ParallelRuleDeadlockVictimIsRerun) {
  ReachOptions options;
  options.rules.multi_rule_execution =
      RuleEngineOptions::Execution::kParallelSubtransactions;
  options.rules.parallel_rule_threads = 2;
  OpenDb(std::move(options));
  Oid counter = MakeCounter();
  Oid sink = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> calls{0};
  std::atomic<int> read{0};
  for (int i = 0; i < 2; ++i) {
    RuleSpec spec;
    spec.name = "w" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    // Either rule may end up the victim; whichever does must not abort the
    // trigger on its first attempt.
    spec.abort_triggering_on_failure = true;
    spec.action = [&, sink](Session& s, const EventOccurrence&) -> Status {
      const bool first_round = calls.fetch_add(1) < 2;
      auto n = s.GetAttr(sink, "n");
      if (!n.ok()) return n.status();
      if (first_round) {
        read.fetch_add(1);
        while (read.load() < 2) std::this_thread::yield();
      }
      return s.SetAttr(sink, "n", Value(n->as_int() + 1));
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  }
  const uint64_t deadlocks_before =
      db_->database()->txns()->locks()->deadlocks_detected();
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_GE(db_->database()->txns()->locks()->deadlocks_detected(),
            deadlocks_before + 1);
  EXPECT_EQ(calls.load(), 3);  // two siblings plus one re-run
  EXPECT_EQ(db_->rules()->stats().failures, 0u);
  EXPECT_TRUE(db_->database()->txns()->IsActive(s.current_txn()));
  EXPECT_EQ(s.GetAttr(sink, "n")->as_int(), 2);
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(RulesTest, AbortTriggeringOnFailure) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "veto";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.condition = [](Session&, const EventOccurrence& occ) -> Result<bool> {
    return occ.params[0].as_int() > 1000;  // forbid big bumps
  };
  spec.action = [](Session&, const EventOccurrence&) -> Status {
    return Status::Aborted("constraint violated");
  };
  spec.abort_triggering_on_failure = true;
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(5000)}).ok());
  // The rule aborted the root transaction out from under us.
  EXPECT_FALSE(db_->database()->txns()->IsActive(s.current_txn()));
  EXPECT_FALSE(s.Commit().ok());
  // The forbidden update never became durable.
  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  EXPECT_EQ(check.GetAttr(counter, "n")->as_int(), 0);
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(RulesTest, CompositeEventRuleDeferred) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  auto twice = db_->events()->DefineComposite(
      "twice", EventExpr::History(EventExpr::Prim(*ev), 2),
      CompositeScope::kSingleTxn);
  ASSERT_TRUE(twice.ok());
  std::atomic<int> fired{0};
  RuleSpec spec;
  spec.name = "double_bump";
  spec.event = *twice;
  spec.coupling = CouplingMode::kDeferred;
  spec.action = [&](Session&, const EventOccurrence& occ) -> Status {
    EXPECT_EQ(occ.constituents.size(), 2u);
    fired++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(RulesTest, CrossTxnCompositeDetachedRule) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  auto cross = db_->events()->DefineComposite(
      "cross", EventExpr::History(EventExpr::Prim(*ev), 2),
      CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
      /*validity=*/60LL * 1000000);
  ASSERT_TRUE(cross.ok());
  std::atomic<int> fired{0};
  RuleSpec spec;
  spec.name = "cross_rule";
  spec.event = *cross;
  spec.coupling = CouplingMode::kDetached;
  spec.action = [&](Session&, const EventOccurrence& occ) -> Status {
    EXPECT_EQ(occ.InvolvedTxns().size(), 2u);
    fired++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  for (int i = 0; i < 2; ++i) {
    Session s(db_->database());
    ASSERT_TRUE(s.Begin().ok());
    ASSERT_TRUE(s.Invoke(counter, "bump").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  db_->Drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(RulesTest, EnableDisableDrop) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  std::atomic<int> runs{0};
  RuleSpec spec;
  spec.name = "toggled";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.action = [&](Session&, const EventOccurrence&) -> Status {
    runs++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(runs.load(), 1);
  ASSERT_TRUE(db_->rules()->SetRuleEnabled("toggled", false).ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(runs.load(), 1);
  ASSERT_TRUE(db_->rules()->SetRuleEnabled("toggled", true).ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(runs.load(), 2);
  ASSERT_TRUE(db_->rules()->DropRule("toggled").ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(db_->rules()->DropRule("toggled").IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(RulesTest, DeferredPhaseFiresSimpleEventRulesFirst) {
  // §6.4's third deferred-phase ordering policy: with equal priorities,
  // rules triggered by simple events fire ahead of rules triggered by
  // composite events.
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  auto pair = db_->events()->DefineComposite(
      "pair", EventExpr::History(EventExpr::Prim(*ev), 2),
      CompositeScope::kSingleTxn);
  ASSERT_TRUE(pair.ok());

  std::vector<std::string> order;
  std::mutex order_mu;
  auto record = [&](const char* name) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(name);
  };
  // Define the composite-event rule FIRST so registration order would put
  // it ahead under the plain oldest-first tie-break.
  RuleSpec comp;
  comp.name = "on_composite";
  comp.event = *pair;
  comp.coupling = CouplingMode::kDeferred;
  comp.action = [&](Session&, const EventOccurrence&) -> Status {
    record("composite");
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(comp)).ok());
  RuleSpec simple;
  simple.name = "on_simple";
  simple.event = *ev;
  simple.coupling = CouplingMode::kDeferred;
  simple.action = [&](Session&, const EventOccurrence&) -> Status {
    record("simple");
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(simple)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  ASSERT_EQ(order.size(), 3u);  // two simple firings + one composite
  EXPECT_EQ(order[0], "simple");
  EXPECT_EQ(order[1], "simple");
  EXPECT_EQ(order[2], "composite");
}

TEST_F(RulesTest, PriorityStillBeatsSimpleFirstPolicy) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  auto pair = db_->events()->DefineComposite(
      "pair", EventExpr::History(EventExpr::Prim(*ev), 2),
      CompositeScope::kSingleTxn);
  std::vector<std::string> order;
  std::mutex order_mu;
  RuleSpec comp;
  comp.name = "urgent_composite";
  comp.event = *pair;
  comp.priority = 100;
  comp.coupling = CouplingMode::kDeferred;
  comp.action = [&](Session&, const EventOccurrence&) -> Status {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("composite");
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(comp)).ok());
  RuleSpec simple;
  simple.name = "casual_simple";
  simple.event = *ev;
  simple.priority = 1;
  simple.coupling = CouplingMode::kDeferred;
  simple.action = [&](Session&, const EventOccurrence&) -> Status {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("simple");
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(simple)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  ASSERT_TRUE(s.Commit().ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "composite");  // priority dominates the policy
}

TEST_F(RulesTest, RuleEffectsOnOtherObjectsRollBackWithTrigger) {
  // Regression: the rule writes an object the triggering transaction never
  // touches. When the trigger aborts, the rule's (sub)transaction effects
  // must disappear from the object cache and any indexes too, not just
  // from storage.
  Oid counter = MakeCounter();
  Oid other = MakeCounter();
  Session setup(db_->database());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(db_->database()
                  ->indexing()
                  ->CreateIndex(setup.current_txn(), "Counter", "n")
                  .ok());
  ASSERT_TRUE(setup.Commit().ok());

  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "sidewriter";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.action = [other](Session& s, const EventOccurrence&) -> Status {
    return s.SetAttr(other, "n", Value(777));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  EXPECT_EQ(s.GetAttr(other, "n")->as_int(), 777);
  ASSERT_TRUE(s.Abort().ok());

  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  EXPECT_EQ(check.GetAttr(other, "n")->as_int(), 0);  // cache invalidated
  // Index reverted as well: no entry under 777, `other` back under 0.
  EXPECT_EQ(db_->database()
                ->indexing()
                ->Lookup("Counter", "n", Value(777))
                ->size(),
            0u);
  auto zeros = db_->database()->indexing()->Lookup("Counter", "n", Value(0));
  ASSERT_TRUE(zeros.ok());
  EXPECT_NE(std::find(zeros->begin(), zeros->end(), other), zeros->end());
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(RulesTest, RuleTraceRecordsFirings) {
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  RuleSpec spec;
  spec.name = "traced";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.condition = [](Session&, const EventOccurrence& occ) -> Result<bool> {
    return occ.params[0].as_int() > 10;
  };
  spec.action = [](Session&, const EventOccurrence&) { return Status::OK(); };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  db_->rules()->trace()->set_enabled(true);
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(5)}).ok());
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(50)}).ok());
  ASSERT_TRUE(s.Commit().ok());

  auto entries = db_->rules()->trace()->ForRule("traced");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].condition_true);
  EXPECT_FALSE(entries[0].action_ran);
  EXPECT_TRUE(entries[1].condition_true);
  EXPECT_TRUE(entries[1].action_ran);
  EXPECT_TRUE(entries[1].succeeded);
  EXPECT_EQ(entries[1].mode, CouplingMode::kImmediate);
  EXPECT_FALSE(entries[1].ToString().empty());

  // Disabled trace records nothing further.
  db_->rules()->trace()->set_enabled(false);
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump", {Value(50)}).ok());
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(db_->rules()->trace()->ForRule("traced").size(), 2u);
}

TEST_F(RulesTest, TemporalRuleRunsDetached) {
  Oid counter = MakeCounter();
  auto tick = db_->events()->DefinePeriodicEvent("tick", 1000);
  RuleSpec spec;
  spec.name = "on_tick";
  spec.event = *tick;
  spec.coupling = CouplingMode::kDetached;
  spec.action = [counter](Session& s, const EventOccurrence&) -> Status {
    auto r = s.Invoke(counter, "bump");
    return r.ok() ? Status::OK() : r.status();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  clock_.Advance(1000);
  // Wait until the timer fired and the detached rule committed.
  for (int i = 0; i < 200; ++i) {
    db_->rules()->WaitDetachedIdle();
    Session s(db_->database());
    ASSERT_TRUE(s.Begin().ok());
    int64_t n = s.GetAttr(counter, "n")->as_int();
    ASSERT_TRUE(s.Commit().ok());
    if (n >= 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "temporal rule never ran";
}

// The per-rule exec histogram table is bounded (32 slots) with
// evict-and-replace admission: once every slot is held, a newly executing
// rule evicts the least-recently-executed holder after that holder has been
// idle long enough. A rule past the cap must eventually get its
// "rules.exec_ns.rule.<name>" histogram instead of being dropped forever.
TEST_F(RulesTest, PerRuleHistogramEvictsColdRules) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.SetEnabled(true);
  Oid counter = MakeCounter();
  auto ev = db_->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
  // 32 filler rules occupy every slot, then go cold (disabled); one late
  // rule keeps executing until the idle-eviction window lets it in.
  for (int i = 0; i < 32; ++i) {
    RuleSpec spec;
    spec.name = "filler" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [](Session&, const EventOccurrence&) -> Status {
      return Status::OK();
    };
    ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());
  }
  RuleSpec late;
  late.name = "late_comer";
  late.event = *ev;
  late.coupling = CouplingMode::kImmediate;
  late.action = [](Session&, const EventOccurrence&) -> Status {
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(late)).ok());
  ASSERT_TRUE(db_->rules()->SetRuleEnabled("late_comer", false).ok());

  const uint64_t evicted_before =
      reg.counter(obs::kRulesHistogramEvicted)->value();
  Session s(db_->database());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Invoke(counter, "bump").ok());  // fillers claim their slots
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        db_->rules()->SetRuleEnabled("filler" + std::to_string(i), false)
            .ok());
  }
  ASSERT_TRUE(db_->rules()->SetRuleEnabled("late_comer", true).ok());
  // Each execution advances the admission clock by one tick; the idle
  // window is 64 ticks, so ~100 executions guarantee an eviction.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.Invoke(counter, "bump").ok());
  }
  ASSERT_TRUE(s.Commit().ok());

  EXPECT_GT(reg.counter(obs::kRulesHistogramEvicted)->value(),
            evicted_before);
  obs::HistogramSnapshot snap =
      reg.histogram(std::string(obs::kRulesExecNsRulePrefix) + "late_comer")
          ->Snapshot();
  EXPECT_GT(snap.count, 0u);
  reg.SetEnabled(false);
  reg.ResetAll();
}

}  // namespace
}  // namespace reach
