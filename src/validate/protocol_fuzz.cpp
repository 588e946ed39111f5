// Protocol/session fuzzer: the wire codec must be a stable round trip
// and the session FSM must only move along its documented edges, for
// any line a client can put on the socket.
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb::validate {

namespace {

using serve::Request;
using serve::Response;
using serve::SessionState;
using serve::Verb;

constexpr const char* kToken = "tok";
/// Request lines fed to each session.
constexpr int kLinesPerCase = 40;
/// Failures stored verbatim; the count stays exact.
constexpr std::size_t kMaxFailures = 16;

const Verb kVerbs[] = {
    Verb::kHello,    Verb::kAuth,   Verb::kSubmit,   Verb::kKill,
    Verb::kQuery,    Verb::kWhatIf, Verb::kStatus,   Verb::kSnapshot,
    Verb::kResume,   Verb::kDrain,  Verb::kShutdown,
};

/// Tokens spliced into lines: option shapes with bad values, numeric
/// edge cases, stray verbs and flags, control and high bytes.
constexpr std::string_view kJunkTokens[] = {
    "=",         "at=",        "id=0",  "runtime=0", "user=-7",
    "offset=-1", "--simulate", "-1",    "0",         "+3",
    "99999999999999999999",    "9223372036854775807",
    "-9223372036854775808",    "1e5",   "0x10",      "HELLO",
    "submit",    "DRAIN",      "\r",    "\v",        "\xff\xfe",
    std::string_view("\0x", 2),         "k=v=w",     "tok",
    "AUTH",
};

bool same_request(const Request& a, const Request& b) {
  return a.verb == b.verb && a.procs == b.procs && a.estimate == b.estimate &&
         a.at == b.at && a.runtime == b.runtime && a.id == b.id &&
         a.user == b.user && a.offset == b.offset &&
         a.simulate == b.simulate && a.job_id == b.job_id && a.arg == b.arg;
}

std::int64_t random_count(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return 1;
    case 1:
      return std::numeric_limits<std::int64_t>::max();
    case 2:
      return rng.uniform_int(1, 1'000'000'000'000);
    default:
      return rng.uniform_int(1, 4096);
  }
}

/// A token free of the separators the grammar splits on.
std::string random_word(util::Rng& rng) {
  if (rng.bernoulli(0.3)) return kToken;
  static const char kAlphabet[] =
      "abcxyzABC0123456789_-./=:@%\r\v\x01\x7f\xc3\xa9";
  std::string word(std::size_t(rng.uniform_int(1, 12)), 'a');
  for (char& c : word) {
    c = kAlphabet[rng.uniform_int(0, std::int64_t(sizeof(kAlphabet)) - 2)];
  }
  return word;
}

Request random_request(util::Rng& rng) {
  Request r;
  r.verb = kVerbs[rng.uniform_int(0, std::int64_t(std::size(kVerbs)) - 1)];
  switch (r.verb) {
    case Verb::kHello:
      if (rng.bernoulli(0.5)) r.arg = random_word(rng);
      break;
    case Verb::kAuth:
    case Verb::kSnapshot:
    case Verb::kResume:
      r.arg = random_word(rng);
      break;
    case Verb::kSubmit:
      r.procs = random_count(rng);
      r.estimate = random_count(rng);
      if (rng.bernoulli(0.5)) r.at = rng.uniform_int(0, 1'000'000);
      if (rng.bernoulli(0.5)) r.runtime = random_count(rng);
      if (rng.bernoulli(0.3)) r.id = random_count(rng);
      if (rng.bernoulli(0.3)) r.user = rng.uniform_int(-3, 500);
      break;
    case Verb::kWhatIf:
      r.procs = random_count(rng);
      r.estimate = random_count(rng);
      if (rng.bernoulli(0.4)) r.offset = rng.uniform_int(0, 100'000);
      r.simulate = rng.bernoulli(0.3);
      break;
    case Verb::kKill:
    case Verb::kQuery:
      r.job_id = random_count(rng);
      break;
    case Verb::kStatus:
    case Verb::kDrain:
    case Verb::kShutdown:
      break;
  }
  return r;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (const auto& t : tokens) {
    if (!line.empty()) line += ' ';
    line += t;
  }
  return line;
}

void mutate(std::string& line, util::Rng& rng) {
  const int rounds = int(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::string> tokens;
    for (const auto token : util::split_ws(line)) tokens.emplace_back(token);
    const auto pick = [&] {
      return std::size_t(rng.uniform_int(0, std::int64_t(tokens.size()) - 1));
    };
    switch (rng.uniform_int(0, 7)) {
      case 0:  // bit flip
        if (!line.empty()) {
          const auto pos = std::size_t(
              rng.uniform_int(0, std::int64_t(line.size()) - 1));
          line[pos] = char(line[pos] ^ (1 << rng.uniform_int(0, 7)));
        }
        continue;
      case 1:  // drop a token
        if (!tokens.empty()) tokens.erase(tokens.begin() + pick());
        break;
      case 2:  // duplicate a token
        if (!tokens.empty()) {
          const auto i = pick();
          tokens.insert(tokens.begin() + i, tokens[i]);
        }
        break;
      case 3:  // swap two tokens
        if (tokens.size() > 1) {
          const auto i = pick();
          std::swap(tokens[i], tokens[pick()]);
        }
        break;
      case 4: {  // splice a junk token
        const std::string junk(kJunkTokens[rng.uniform_int(
            0, std::int64_t(std::size(kJunkTokens)) - 1)]);
        tokens.insert(tokens.begin() + (tokens.empty() ? 0 : pick()), junk);
        break;
      }
      case 5:  // lowercase the verb
        if (!tokens.empty()) {
          for (char& c : tokens[0]) {
            if (c >= 'A' && c <= 'Z') c = char(c - 'A' + 'a');
          }
        }
        break;
      case 6:  // truncate
        line.resize(std::size_t(
            rng.uniform_int(0, std::int64_t(line.size()))));
        continue;
      default:  // stray whitespace
        line = (rng.bernoulli(0.5) ? "\t " : "") + line +
               (rng.bernoulli(0.5) ? " \t" : "");
        continue;
    }
    line = join_tokens(tokens);
  }
}

std::string junk_line(util::Rng& rng) {
  std::string line(std::size_t(rng.bernoulli(0.05)
                                   ? rng.uniform_int(1000, 5000)
                                   : rng.uniform_int(0, 64)),
                   ' ');
  for (char& c : line) c = char(rng.uniform_int(0, 255));
  return line;
}

/// One request line as a client might send it; '\n' never appears
/// because the transport splits lines on it.
std::string random_line(util::Rng& rng) {
  std::string line;
  const auto kind = rng.uniform_int(0, 9);
  if (kind < 5) {
    line = serve::serialize_request(random_request(rng));
  } else if (kind < 9) {
    line = serve::serialize_request(random_request(rng));
    mutate(line, rng);
  } else {
    line = junk_line(rng);
  }
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  return line;
}

/// Answers every delegated verb with a seeded verdict and logs it.
class FuzzCore final : public serve::ServerCore {
 public:
  FuzzCore(util::Rng& rng, std::string token)
      : rng_(rng), token_(std::move(token)) {}

  Response submit(const Request&) override { return answer(Verb::kSubmit); }
  Response kill(std::int64_t) override { return answer(Verb::kKill); }
  Response query(std::int64_t) override { return answer(Verb::kQuery); }
  Response whatif(const Request&) override { return answer(Verb::kWhatIf); }
  Response status() override { return answer(Verb::kStatus); }
  Response snapshot(const std::string&) override {
    return answer(Verb::kSnapshot);
  }
  Response resume(const std::string&) override {
    return answer(Verb::kResume);
  }
  Response drain() override {
    Response r = answer(Verb::kDrain);
    if (r.ok) draining_ = true;
    return r;
  }
  Response shutdown() override { return answer(Verb::kShutdown); }
  bool draining() const override { return draining_; }
  const std::string& auth_token() const override { return token_; }

  bool draining_ = false;
  std::vector<Verb> calls;
  Response last;

 private:
  Response answer(Verb verb) {
    calls.push_back(verb);
    last = rng_.bernoulli(0.85)
               ? serve::ok_response().with("via", serve::to_string(verb))
               : serve::error_response(serve::kErrIo, "mock failure");
    return last;
  }

  util::Rng& rng_;
  std::string token_;
};

bool is_mutation(Verb verb) {
  return verb == Verb::kSubmit || verb == Verb::kKill ||
         verb == Verb::kResume;
}

/// The FSM of serve/session.hpp as a transition function: the state
/// one request must leave the session in, given what the core said.
SessionState next_state(SessionState state, const Request& request,
                        bool core_draining, const std::string& token,
                        bool core_ok) {
  if (state == SessionState::kServing && core_draining) {
    state = SessionState::kDraining;
  }
  const SessionState serving =
      core_draining ? SessionState::kDraining : SessionState::kServing;
  switch (state) {
    case SessionState::kHandshake:
      if (request.verb != Verb::kHello) return state;
      return token.empty() ? serving : SessionState::kAuth;
    case SessionState::kAuth:
      return request.verb == Verb::kAuth && request.arg == token ? serving
                                                                 : state;
    case SessionState::kClosed:
      return state;
    case SessionState::kServing:
    case SessionState::kDraining:
      if (request.verb == Verb::kDrain && core_ok) {
        return SessionState::kDraining;
      }
      if (request.verb == Verb::kShutdown && core_ok) {
        return SessionState::kClosed;
      }
      return state;
  }
  return state;
}

std::string quote(const std::string& line) {
  std::string out = "'";
  for (unsigned char c : line.substr(0, 120)) {
    if (c >= 0x20 && c < 0x7f) {
      out += char(c);
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out + (line.size() > 120 ? "'..." : "'");
}

/// A request must cross the wire unchanged; for a parsed one that
/// makes parse -> serialize a fixpoint.
std::string check_request_identity(const Request& original) {
  const std::string wire = serve::serialize_request(original);
  std::string error;
  const auto parsed = serve::parse_request(wire, &error);
  if (!parsed) return "serialized " + quote(wire) + " rejected: " + error;
  if (!same_request(*parsed, original)) {
    return "serialized " + quote(wire) + " loses or alters a field";
  }
  return "";
}

std::string check_request_codec(const std::string& line) {
  std::string error;
  const auto request = serve::parse_request(line, &error);
  if (!request) return error.empty() ? "rejected without a diagnostic" : "";
  return check_request_identity(*request);
}

/// A reply line must parse and re-serialize unchanged.
std::string check_response_line(const std::string& line) {
  if (line.find('\n') != std::string::npos) return "reply spans lines";
  std::string error;
  const auto parsed = serve::parse_response(line, &error);
  if (!parsed) return "reply " + quote(line) + " unparseable: " + error;
  if (serve::serialize_response(*parsed) != line) {
    return "reply " + quote(line) + " does not round-trip";
  }
  return "";
}

/// Feed one line to the session and check codec, reply and FSM.
std::string check_line(serve::Session& session, FuzzCore& core,
                       const std::string& token, const std::string& line) {
  if (auto failure = check_request_codec(line); !failure.empty()) {
    return failure;
  }
  const SessionState before = session.state();
  const bool core_draining = core.draining();
  const std::size_t calls_before = core.calls.size();
  const std::string reply = session.handle_line(line);
  const SessionState after = session.state();
  if (auto failure = check_response_line(reply); !failure.empty()) {
    return failure;
  }

  const auto request = serve::parse_request(line, nullptr);
  const std::size_t calls = core.calls.size() - calls_before;
  const auto transition = std::string(serve::to_string(before)) + " -> " +
                          serve::to_string(after);
  if (!request) {
    if (calls != 0) return "malformed line reached the core";
    if (after != before) return "malformed line moved the FSM " + transition;
    if (reply.rfind(std::string("ERR ") + serve::kErrBadRequest, 0) != 0) {
      return "malformed line answered " + quote(reply);
    }
    return "";
  }

  const bool delegated = before == SessionState::kServing ||
                         before == SessionState::kDraining;
  if (calls > 1) return "one line made " + std::to_string(calls) + " calls";
  if (calls == 1) {
    const Verb called = core.calls.back();
    if (!delegated) {
      return std::string(serve::to_string(called)) + " reached the core in " +
             serve::to_string(before);
    }
    if (called != request->verb) return "verb delegated as another verb";
    const bool draining = before == SessionState::kDraining || core_draining;
    if (draining && is_mutation(called)) {
      return std::string(serve::to_string(called)) +
             " delegated while draining";
    }
    if (reply != serve::serialize_response(core.last)) {
      return "reply " + quote(reply) + " is not the core's answer";
    }
  }
  const bool core_ok = calls == 1 && core.last.ok;
  const SessionState expected =
      next_state(before, *request, core_draining, token, core_ok);
  if (after != expected) {
    return "illegal transition " + transition + " on " +
           serve::to_string(request->verb) + " (expected " +
           serve::to_string(expected) + ")";
  }
  return "";
}

std::string run_case(util::Rng& rng, std::int64_t* fed) {
  const std::string token = rng.bernoulli(0.4) ? kToken : "";
  FuzzCore core(rng, token);
  serve::Session session(core, 1);
  for (int i = 0; i < kLinesPerCase; ++i) {
    // Another session may drain the server at any time.
    if (rng.bernoulli(0.02)) core.draining_ = true;
    if (auto failure = check_request_identity(random_request(rng));
        !failure.empty()) {
      return failure;
    }
    const std::string line = random_line(rng);
    ++*fed;
    if (auto failure = check_line(session, core, token, line);
        !failure.empty()) {
      return "line " + std::to_string(i) + " " + quote(line) + ": " +
             failure;
    }
  }
  return "";
}

}  // namespace

std::string ProtocolFuzzReport::summary() const {
  std::string s = "protocol fuzzer: " + std::to_string(cases) + " cases, " +
                  std::to_string(lines) + " lines, " +
                  std::to_string(failure_count) + " failure(s)";
  if (failure_count > failures.size()) {
    s += " (first " + std::to_string(failures.size()) + " shown)";
  }
  for (const auto& f : failures) s += "\n  " + f;
  return s;
}

ProtocolFuzzReport run_protocol_fuzzer(const ProtocolFuzzOptions& options) {
  ProtocolFuzzReport report;
  for (int c = 0; c < options.cases; ++c) {
    const std::uint64_t case_seed =
        util::derive_seed(options.seed, std::uint64_t(c));
    util::Rng rng(case_seed);
    ++report.cases;
    std::string failure;
    try {
      failure = run_case(rng, &report.lines);
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
    if (failure.empty()) continue;
    ++report.failure_count;
    if (report.failures.size() < kMaxFailures) {
      report.failures.push_back("[case=" + std::to_string(c) +
                                " seed=" + std::to_string(options.seed) +
                                " (derived " + std::to_string(case_seed) +
                                ")] " + failure);
    }
  }
  return report;
}

}  // namespace pjsb::validate
