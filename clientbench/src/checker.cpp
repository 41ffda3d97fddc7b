#include "checker.hpp"

#include <cstdio>
#include <unordered_map>

namespace clientbench {

using fastbft::smr::OpKind;

namespace {

void note(CheckResult& result, const char* what, const OpRecord& op) {
  ++result.violations;
  if (result.examples.size() >= 5) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: session %u key %u issued %lld ns",
                what, op.session, op.key,
                static_cast<long long>(op.issue_ns));
  result.examples.emplace_back(buf);
}

}  // namespace

CheckResult check_history(const std::vector<std::deque<OpRecord>>& sessions) {
  CheckResult result;
  std::vector<const OpRecord*> ops;
  for (const auto& records : sessions) {
    for (const auto& op : records) ops.push_back(&op);
  }
  std::unordered_map<std::uint32_t, std::vector<const OpRecord*>> puts_by_key;
  std::unordered_map<std::uint32_t, std::uint32_t> owner;

  for (const OpRecord* op_ptr : ops) {
    const OpRecord& op = *op_ptr;
    auto [it, fresh] = owner.emplace(op.key, op.session);
    if (!fresh && it->second != op.session) {
      note(result, "key used by two sessions", op);
    }
    if (op.kind == OpKind::Put) puts_by_key[op.key].push_back(&op);
  }

  for (const OpRecord* op_ptr : ops) {
    const OpRecord& op = *op_ptr;
    if (!op.done()) {
      ++result.undrained;
      continue;
    }
    if (op.timed_out) {
      ++result.timeouts;
      continue;
    }
    ++result.checked;
    if (op.reply_op != op.kind || !op.ok) {
      note(result, "reply does not match the request", op);
      continue;
    }
    if (op.kind != OpKind::Get) continue;

    static const std::vector<const OpRecord*> kNone;
    auto it = puts_by_key.find(op.key);
    const auto& puts = it == puts_by_key.end() ? kNone : it->second;

    // Latest issue time among puts that completed before the get began.
    std::int64_t overwritten_after = -1;
    for (const OpRecord* put : puts) {
      if (put->done() && !put->timed_out && put->complete_ns < op.issue_ns &&
          put->issue_ns > overwritten_after) {
        overwritten_after = put->issue_ns;
      }
    }

    if (!op.found) {
      if (overwritten_after >= 0) note(result, "absent after a completed put", op);
      continue;
    }
    const OpRecord* source = nullptr;
    for (const OpRecord* put : puts) {
      if (put->tag == op.got_tag) {
        source = put;
        break;
      }
    }
    if (source == nullptr || source->value_hash != op.got_hash) {
      note(result, "value never put to this key", op);
    } else if (source->issue_ns > op.complete_ns) {
      note(result, "value put after the get completed", op);
    } else if (source->done() && !source->timed_out &&
               overwritten_after > source->complete_ns) {
      note(result, "stale read", op);
    }
  }
  return result;
}

}  // namespace clientbench
