#include "serve/protocol.hpp"

#include <algorithm>
#include <sstream>

#include "util/string_util.hpp"

namespace pjsb::serve {

namespace {

/// key=value split; nullopt when `token` carries no '='.
std::optional<std::pair<std::string_view, std::string_view>> split_kv(
    std::string_view token) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return std::make_pair(token.substr(0, eq), token.substr(eq + 1));
}

bool parse_positional_i64(const std::vector<std::string_view>& tokens,
                          std::size_t index, const char* what,
                          std::int64_t min_value, std::int64_t* out,
                          std::string* error) {
  if (index >= tokens.size()) {
    *error = std::string("missing ") + what;
    return false;
  }
  const auto value = util::parse_i64(tokens[index]);
  if (!value || *value < min_value) {
    *error = std::string("bad ") + what + " '" +
             std::string(tokens[index]) + "'";
    return false;
  }
  *out = *value;
  return true;
}

}  // namespace

const char* to_string(Verb verb) {
  switch (verb) {
    case Verb::kHello:
      return "HELLO";
    case Verb::kAuth:
      return "AUTH";
    case Verb::kSubmit:
      return "SUBMIT";
    case Verb::kKill:
      return "KILL";
    case Verb::kQuery:
      return "QUERY";
    case Verb::kWhatIf:
      return "WHATIF";
    case Verb::kStatus:
      return "STATUS";
    case Verb::kSnapshot:
      return "SNAPSHOT";
    case Verb::kResume:
      return "RESUME";
    case Verb::kDrain:
      return "DRAIN";
    case Verb::kShutdown:
      return "SHUTDOWN";
  }
  return "?";
}

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error) {
  std::string scratch;
  if (!error) error = &scratch;
  error->clear();
  const auto tokens = util::split_ws(line);
  if (tokens.empty()) {
    *error = "empty request";
    return std::nullopt;
  }
  Request req;
  const std::string_view verb = tokens[0];
  if (verb == "HELLO") {
    req.verb = Verb::kHello;
    if (tokens.size() > 1) req.arg = std::string(tokens[1]);
    if (tokens.size() > 2) {
      *error = "HELLO takes at most one token (client name)";
      return std::nullopt;
    }
    return req;
  }
  if (verb == "AUTH") {
    req.verb = Verb::kAuth;
    if (tokens.size() != 2) {
      *error = "usage: AUTH <token>";
      return std::nullopt;
    }
    req.arg = std::string(tokens[1]);
    return req;
  }
  if (verb == "SUBMIT") {
    req.verb = Verb::kSubmit;
    if (!parse_positional_i64(tokens, 1, "procs", 1, &req.procs, error) ||
        !parse_positional_i64(tokens, 2, "estimate", 1, &req.estimate,
                              error)) {
      return std::nullopt;
    }
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      const auto kv = split_kv(tokens[i]);
      const auto value = kv ? util::parse_i64(kv->second) : std::nullopt;
      if (!kv || !value) {
        *error = "bad SUBMIT option '" + std::string(tokens[i]) +
                 "' (want at=/runtime=/id=/user=)";
        return std::nullopt;
      }
      if (kv->first == "at" && *value >= 0) {
        req.at = *value;
      } else if (kv->first == "runtime" && *value >= 1) {
        req.runtime = *value;
      } else if (kv->first == "id" && *value >= 1) {
        req.id = *value;
      } else if (kv->first == "user") {
        req.user = *value;
      } else {
        *error = "bad SUBMIT option '" + std::string(tokens[i]) + "'";
        return std::nullopt;
      }
    }
    return req;
  }
  if (verb == "KILL" || verb == "QUERY") {
    req.verb = verb == "KILL" ? Verb::kKill : Verb::kQuery;
    if (tokens.size() != 2 ||
        !parse_positional_i64(tokens, 1, "job id", 1, &req.job_id, error)) {
      if (error->empty()) *error = "usage: " + std::string(verb) + " <id>";
      return std::nullopt;
    }
    return req;
  }
  if (verb == "WHATIF") {
    req.verb = Verb::kWhatIf;
    if (!parse_positional_i64(tokens, 1, "procs", 1, &req.procs, error) ||
        !parse_positional_i64(tokens, 2, "estimate", 1, &req.estimate,
                              error)) {
      return std::nullopt;
    }
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      if (tokens[i] == "--simulate") {
        req.simulate = true;
        continue;
      }
      const auto kv = split_kv(tokens[i]);
      const auto value = kv ? util::parse_i64(kv->second) : std::nullopt;
      if (!kv || kv->first != "offset" || !value || *value < 0) {
        *error = "bad WHATIF option '" + std::string(tokens[i]) +
                 "' (want offset=<s> or --simulate)";
        return std::nullopt;
      }
      req.offset = *value;
    }
    return req;
  }
  if (verb == "STATUS" || verb == "DRAIN" || verb == "SHUTDOWN") {
    if (tokens.size() != 1) {
      *error = std::string(verb) + " takes no arguments";
      return std::nullopt;
    }
    req.verb = verb == "STATUS"  ? Verb::kStatus
               : verb == "DRAIN" ? Verb::kDrain
                                 : Verb::kShutdown;
    return req;
  }
  if (verb == "SNAPSHOT" || verb == "RESUME") {
    req.verb = verb == "SNAPSHOT" ? Verb::kSnapshot : Verb::kResume;
    if (tokens.size() != 2) {
      *error = "usage: " + std::string(verb) + " <path>";
      return std::nullopt;
    }
    req.arg = std::string(tokens[1]);
    return req;
  }
  *error = "unknown verb '" + std::string(verb) + "'";
  return std::nullopt;
}

std::string serialize_request(const Request& request) {
  std::ostringstream out;
  out << to_string(request.verb);
  switch (request.verb) {
    case Verb::kHello:
      if (!request.arg.empty()) out << ' ' << request.arg;
      break;
    case Verb::kAuth:
    case Verb::kSnapshot:
    case Verb::kResume:
      out << ' ' << request.arg;
      break;
    case Verb::kSubmit:
      out << ' ' << request.procs << ' ' << request.estimate;
      if (request.at) out << " at=" << *request.at;
      if (request.runtime) out << " runtime=" << *request.runtime;
      if (request.id) out << " id=" << *request.id;
      // Any value but the default: parse_request accepts negatives.
      if (request.user != Request{}.user) out << " user=" << request.user;
      break;
    case Verb::kKill:
    case Verb::kQuery:
      out << ' ' << request.job_id;
      break;
    case Verb::kWhatIf:
      out << ' ' << request.procs << ' ' << request.estimate;
      if (request.offset > 0) out << " offset=" << request.offset;
      if (request.simulate) out << " --simulate";
      break;
    case Verb::kStatus:
    case Verb::kDrain:
    case Verb::kShutdown:
      break;
  }
  return out.str();
}

std::optional<std::string> Response::field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Response::field_i64(
    const std::string& key) const {
  const auto value = field(key);
  if (!value) return std::nullopt;
  return util::parse_i64(*value);
}

Response& Response::with(std::string key, std::string value) {
  fields.emplace_back(std::move(key), std::move(value));
  return *this;
}

Response& Response::with(std::string key, std::int64_t value) {
  return with(std::move(key), std::to_string(value));
}

Response ok_response() { return Response{}; }

Response error_response(std::string code, std::string message) {
  Response r;
  r.ok = false;
  r.code = std::move(code);
  r.message = std::move(message);
  return r;
}

std::string serialize_response(const Response& response) {
  std::ostringstream out;
  if (response.ok) {
    out << "OK";
    for (const auto& [key, value] : response.fields) {
      out << ' ' << key << '=' << value;
    }
  } else {
    out << "ERR " << (response.code.empty() ? kErrInternal : response.code);
    if (!response.message.empty()) out << ' ' << response.message;
  }
  return out.str();
}

std::optional<Response> parse_response(const std::string& line,
                                       std::string* error) {
  std::string scratch;
  if (!error) error = &scratch;
  const auto tokens = util::split_ws(line);
  if (tokens.empty()) {
    *error = "empty response";
    return std::nullopt;
  }
  Response r;
  if (tokens[0] == "OK") {
    r.ok = true;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto kv = split_kv(tokens[i]);
      if (!kv) {
        *error = "bad OK field '" + std::string(tokens[i]) + "'";
        return std::nullopt;
      }
      r.fields.emplace_back(std::string(kv->first),
                            std::string(kv->second));
    }
    return r;
  }
  if (tokens[0] == "ERR") {
    if (tokens.size() < 2) {
      *error = "ERR without a code";
      return std::nullopt;
    }
    r.ok = false;
    r.code = std::string(tokens[1]);
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      if (!r.message.empty()) r.message += ' ';
      r.message += std::string(tokens[i]);
    }
    return r;
  }
  *error = "response must start with OK or ERR";
  return std::nullopt;
}

}  // namespace pjsb::serve
