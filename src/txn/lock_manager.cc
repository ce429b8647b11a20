#include "txn/lock_manager.h"

#include <chrono>

namespace reach {

void LockManager::RegisterTxn(TxnId txn, TxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_[txn] = parent;
}

void LockManager::UnregisterTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_.erase(txn);
  deadlock_victims_.erase(txn);
}

bool LockManager::WasDeadlockVictim(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadlock_victims_.contains(txn);
}

bool LockManager::IsSelfOrAncestor(TxnId maybe_ancestor, TxnId txn) const {
  TxnId cur = txn;
  while (cur != kNoTxn) {
    if (cur == maybe_ancestor) return true;
    auto it = parent_.find(cur);
    cur = (it == parent_.end()) ? kNoTxn : it->second;
  }
  return false;
}

bool LockManager::CanGrant(const Resource& res, TxnId txn,
                           LockMode mode) const {
  for (const Grant& g : res.grants) {
    if (g.txn == txn) continue;  // own grant: upgrade handled by caller
    bool conflict =
        (mode == LockMode::kExclusive || g.mode == LockMode::kExclusive);
    if (!conflict) continue;
    // Moss rule: conflicting holders that are ancestors do not block.
    if (!IsSelfOrAncestor(g.txn, txn)) return false;
  }
  return true;
}

void LockManager::DoGrant(Resource* res, TxnId txn, LockMode mode) {
  for (Grant& g : res->grants) {
    if (g.txn == txn) {
      if (mode == LockMode::kExclusive) g.mode = LockMode::kExclusive;
      return;
    }
  }
  res->grants.push_back({txn, mode});
}

bool LockManager::WaitReaches(TxnId waiter, TxnId target,
                              std::unordered_set<TxnId>* visited) const {
  if (waiter == target) return true;
  if (!visited->insert(waiter).second) return false;
  auto wit = waiting_on_.find(waiter);
  if (wit == waiting_on_.end()) return false;
  auto rit = table_.find(wit->second);
  if (rit == table_.end()) return false;
  for (const Grant& g : rit->second.grants) {
    if (g.txn == waiter) continue;
    if (WaitReaches(g.txn, target, visited)) return true;
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, const Oid& resource, LockMode mode,
                            int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  Resource& res = table_[resource];

  // Fast path: already held in a covering mode.
  for (const Grant& g : res.grants) {
    if (g.txn == txn &&
        (g.mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::OK();
    }
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_us);
  res.waiters.insert(txn);
  waiting_on_[txn] = resource;
  Status result = Status::OK();
  while (!CanGrant(res, txn, mode)) {
    // Deadlock check: would blocking here close a cycle? A cycle exists if
    // some conflicting holder (transitively) waits on us.
    bool deadlock = false;
    for (const Grant& g : res.grants) {
      if (g.txn == txn) continue;
      bool conflict =
          (mode == LockMode::kExclusive || g.mode == LockMode::kExclusive);
      if (!conflict || IsSelfOrAncestor(g.txn, txn)) continue;
      std::unordered_set<TxnId> visited;
      if (WaitReaches(g.txn, txn, &visited)) {
        deadlock = true;
        break;
      }
    }
    if (deadlock) {
      ++deadlocks_;
      deadlock_victims_.insert(txn);
      result = Status::Aborted("deadlock on " + resource.ToString());
      break;
    }
    if (timeout_us >= 0) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          !CanGrant(res, txn, mode)) {
        result = Status::TimedOut("lock wait on " + resource.ToString());
        break;
      }
    } else {
      cv_.wait(lock);
    }
  }
  res.waiters.erase(txn);
  waiting_on_.erase(txn);
  if (result.ok()) DoGrant(&res, txn, mode);
  return result;
}

Status LockManager::AcquireSharedBatch(TxnId txn,
                                       const std::vector<Oid>& resources,
                                       int64_t timeout_us) {
  std::vector<Oid> contended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Oid& oid : resources) {
      Resource& res = table_[oid];
      bool held = false;
      for (const Grant& g : res.grants) {
        if (g.txn == txn) {  // any own grant covers a shared request
          held = true;
          break;
        }
      }
      if (held) continue;
      if (CanGrant(res, txn, LockMode::kShared)) {
        DoGrant(&res, txn, LockMode::kShared);
      } else {
        contended.push_back(oid);
      }
    }
  }
  for (const Oid& oid : contended) {
    Status st = Acquire(txn, oid, LockMode::kShared, timeout_us);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = table_.begin(); it != table_.end();) {
      auto& grants = it->second.grants;
      for (size_t i = 0; i < grants.size();) {
        if (grants[i].txn == txn) {
          grants.erase(grants.begin() + i);
        } else {
          ++i;
        }
      }
      if (grants.empty() && it->second.waiters.empty()) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }
  cv_.notify_all();
}

void LockManager::TransferLocks(TxnId child, TxnId parent) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [oid, res] : table_) {
      int child_idx = -1, parent_idx = -1;
      for (size_t i = 0; i < res.grants.size(); ++i) {
        if (res.grants[i].txn == child) child_idx = static_cast<int>(i);
        if (res.grants[i].txn == parent) parent_idx = static_cast<int>(i);
      }
      if (child_idx < 0) continue;
      if (parent_idx >= 0) {
        if (res.grants[child_idx].mode == LockMode::kExclusive) {
          res.grants[parent_idx].mode = LockMode::kExclusive;
        }
        res.grants.erase(res.grants.begin() + child_idx);
      } else {
        res.grants[child_idx].txn = parent;
      }
    }
  }
  cv_.notify_all();
}

bool LockManager::Holds(TxnId txn, const Oid& resource, LockMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  for (const Grant& g : it->second.grants) {
    if (!IsSelfOrAncestor(g.txn, txn)) continue;
    if (g.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;
    }
  }
  return false;
}

}  // namespace reach
