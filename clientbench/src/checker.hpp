#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "smr/command.hpp"

/// \file checker.hpp
/// Output checking for one round's history of client ops.
///
/// Every key is owned by one session (workload.hpp), so each key is a
/// single-writer register and a get must return the value of a put to
/// that key by its owner — and not a stale one:
///  * absent is allowed only if no put to the key had completed before
///    the get was issued;
///  * a returned value must carry the tag and full contents of a put to
///    that key issued before the get completed;
///  * that put must not be overwritten before the get began: if another
///    put Q was issued after the returned put P completed, and Q itself
///    completed before the get was issued, the read is stale.
/// Puts must complete Ok with a Put echo; every op must complete before
/// the drain ends, without Reply::Status::Timeout.

namespace clientbench {

struct OpRecord {
  std::uint32_t session = 0;
  std::uint32_t key = 0;
  fastbft::smr::OpKind kind = fastbft::smr::OpKind::Put;
  std::uint64_t tag = 0;         // puts: value tag
  std::uint64_t value_hash = 0;  // puts: hash of the full value
  std::int64_t due_ns = 0;       // open loop: scheduled send time
  std::int64_t issue_ns = 0;     // just before the put/get call
  std::int64_t submitted_ns = 0; // just after it returned
  // Completion, written by the reply callback before `done` is counted.
  std::int64_t complete_ns = -1;
  bool timed_out = false;
  bool ok = false;
  bool found = false;
  fastbft::smr::OpKind reply_op = fastbft::smr::OpKind::Noop;
  std::uint64_t got_tag = 0;
  std::uint64_t got_hash = 0;

  bool done() const { return complete_ns >= 0; }
};

struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t violations = 0;  // wrong results
  std::uint64_t timeouts = 0;    // Reply::Status::Timeout
  std::uint64_t undrained = 0;   // never completed
  std::vector<std::string> examples;  // first few violations, for the log

  std::uint64_t failed() const { return violations + timeouts + undrained; }
};

/// Checks the records of every session of one round.
CheckResult check_history(const std::vector<std::deque<OpRecord>>& sessions);

}  // namespace clientbench
