// madc — command-line client for a running madd.
//
// Usage:
//   madc [--host=A] [--port=N] [--retries=N] [--endpoint=H:P ...]
//        [--min-epoch=N] <verb> [args]
//
// Verbs:
//   ping
//   query PRED [ARG...]      ARG is a key value; `_` leaves the position
//                            unbound (integer/real/true/false lexemes map to
//                            the corresponding value kinds, anything else is
//                            a symbol). Omit all args for a full scan.
//   query 'ATOM'             demand-driven point query: a single argument
//                            containing '(' is sent as an `.mdl` atom (e.g.
//                            "s(a, Y, C)") and answered by the certified
//                            magic-sets slice when one applies. --mode=demand
//                            makes a bail-out an error, --mode=full forces
//                            the full-evaluation oracle (default: auto).
//   insert FACTS|-           FACTS is `.mdl` fact text; `-` reads stdin.
//   dump
//   stats
//   sync [checkpoint]        fsync the WAL; `checkpoint` also forces one.
//   recover                  clear writer poison / reopen a degraded WAL.
//   shutdown
//
// --retries=N resends through transient transport failures (connection
// refused while the server restarts, a reset mid-call) with capped
// exponential backoff — safe because madd's inserts are idempotent lattice
// joins. Non-transient errors never retry.
//
// Replication-aware routing:
//   --endpoint=H:P           repeatable; the fleet to route over. Reads try
//                            each endpoint in order and fail over on
//                            transport errors or replica lag; writes do the
//                            same but additionally follow the kNotPrimary
//                            redirect a replica answers with, so pointing
//                            madc at any node of the fleet works.
//   --min-epoch=N            read-your-writes: attach the epoch token an
//                            insert acknowledgment returned. A replica
//                            holds the read until it has applied that epoch
//                            (bounded by --min-epoch-wait-ms) and answers
//                            ReplicaLagging rather than stale.
//   --min-epoch-wait-ms=N    per-endpoint lag deadline (server default 2s).
//
// The raw JSON response prints on stdout. Exit codes:
//   0  server answered ok:true
//   1  server answered ok:false (application error; see "error" in the JSON)
//   2  usage error
//   3  transport failure that persisted through every retry
//   4  non-retryable client-side failure (bad address, protocol violation)
//
// Examples:
//   madc --port=7407 query sp a _
//   echo 'edge(a, b, 3.0).' | madc --retries=5 insert -

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "server/client.h"
#include "util/string_util.h"

using namespace mad;

namespace {

int Usage() {
  std::cerr << "usage: madc [--host=A] [--port=N] [--retries=N] "
               "[--mode=auto|demand|full]\n"
               "            [--endpoint=H:P ...] [--min-epoch=N] "
               "[--min-epoch-wait-ms=N]\n"
               "            "
               "ping|query|insert|dump|stats|sync|recover|shutdown [args]\n"
               "       madc query PRED [ARG|_ ...]\n"
               "       madc query 's(a, Y, C)'\n"
               "       madc insert 'fact(a, 1).' | madc insert -\n"
               "       madc sync [checkpoint]\n";
  return 2;
}

struct Endpoint {
  std::string host;
  int port = 0;
};

bool ParseEndpoint(const std::string& text, Endpoint* out) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out->host = text.substr(0, colon);
  return ParseNumber(std::string_view(text).substr(colon + 1), &out->port) &&
         out->port > 0 && out->port <= 65535;
}

/// CLI argument -> JSON request value, mirroring the server's JsonToValue
/// mapping (integral lexeme -> Int, numeric -> Double, bools, else symbol).
server::Json ParseArg(const std::string& arg) {
  if (arg == "true") return server::Json::Bool(true);
  if (arg == "false") return server::Json::Bool(false);
  try {
    size_t used = 0;
    long long i = std::stoll(arg, &used);
    if (used == arg.size()) return server::Json::Int(i);
  } catch (...) {
  }
  try {
    size_t used = 0;
    double d = std::stod(arg, &used);
    if (used == arg.size()) return server::Json::Double(d);
  } catch (...) {
  }
  return server::Json::Str(arg);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7407;
  int retries = 1;
  int64_t min_epoch = 0;
  int64_t min_epoch_wait_ms = -1;
  std::string mode;
  std::vector<Endpoint> endpoints;
  std::vector<std::string> rest;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!ParseNumber(std::string_view(arg).substr(7), &port)) return Usage();
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!ParseNumber(std::string_view(arg).substr(10), &retries) ||
          retries < 1) {
        return Usage();
      }
    } else if (arg.rfind("--endpoint=", 0) == 0) {
      Endpoint ep;
      if (!ParseEndpoint(arg.substr(11), &ep)) return Usage();
      endpoints.push_back(ep);
    } else if (arg.rfind("--min-epoch=", 0) == 0) {
      if (!ParseNumber(std::string_view(arg).substr(12), &min_epoch) ||
          min_epoch < 0) {
        return Usage();
      }
    } else if (arg.rfind("--min-epoch-wait-ms=", 0) == 0) {
      if (!ParseNumber(std::string_view(arg).substr(20), &min_epoch_wait_ms) ||
          min_epoch_wait_ms < 0) {
        return Usage();
      }
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
      if (mode != "auto" && mode != "demand" && mode != "full") {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return Usage();
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.empty()) return Usage();
  const std::string verb = rest[0];

  server::Json request = server::Json::Object();
  request.Set("verb", server::Json::Str(verb));
  if (verb == "query") {
    if (rest.size() < 2) return Usage();
    if (rest.size() == 2 && rest[1].find('(') != std::string::npos) {
      // Atom form: demand-driven point query.
      request.Set("atom", server::Json::Str(rest[1]));
      if (!mode.empty()) request.Set("mode", server::Json::Str(mode));
    } else {
      if (!mode.empty()) return Usage();  // --mode= is atom-form only
      request.Set("pred", server::Json::Str(rest[1]));
      if (rest.size() > 2) {
        server::Json key = server::Json::Array();
        for (size_t i = 2; i < rest.size(); ++i) {
          key.Push(rest[i] == "_" ? server::Json::Null() : ParseArg(rest[i]));
        }
        request.Set("key", std::move(key));
      }
    }
  } else if (verb == "insert") {
    if (rest.size() != 2) return Usage();
    std::string facts = rest[1];
    if (facts == "-") {
      std::stringstream buffer;
      buffer << std::cin.rdbuf();
      facts = buffer.str();
    }
    request.Set("facts", server::Json::Str(facts));
  } else if (verb == "sync") {
    if (rest.size() > 2 || (rest.size() == 2 && rest[1] != "checkpoint")) {
      return Usage();
    }
    if (rest.size() == 2) request.Set("checkpoint", server::Json::Bool(true));
  } else if (verb != "ping" && verb != "dump" && verb != "stats" &&
             verb != "recover" && verb != "shutdown") {
    return Usage();
  } else if (rest.size() != 1) {
    return Usage();
  }

  const bool is_read =
      verb == "ping" || verb == "query" || verb == "dump" || verb == "stats";
  if (min_epoch > 0) {
    request.Set("min_epoch", server::Json::Int(min_epoch));
    if (min_epoch_wait_ms >= 0) {
      request.Set("min_epoch_wait_ms", server::Json::Int(min_epoch_wait_ms));
    }
  }
  if (endpoints.empty()) endpoints.push_back(Endpoint{host, port});

  server::RetryOptions retry;
  retry.max_attempts = retries;

  // Route over the fleet: reads take the first endpoint that answers without
  // transport failure or replica lag; writes do the same but also follow the
  // kNotPrimary redirect a replica responds with. The last response (or
  // error) wins if every endpoint falls short.
  Status last_error;
  std::optional<server::Json> last_response;
  for (size_t e = 0; e < endpoints.size(); ++e) {
    Endpoint target = endpoints[e];
    // A redirect chain longer than the fleet means misconfiguration.
    for (size_t hops = 0; hops <= endpoints.size(); ++hops) {
      auto client = server::Client::ConnectWithRetry(target.host, target.port,
                                                     retry);
      if (!client.ok()) {
        last_error = client.status();
        break;  // next endpoint
      }
      auto response = client->CallWithRetry(request, retry);
      if (!response.ok()) {
        last_error = response.status();
        break;  // next endpoint
      }
      last_error = Status::OK();
      last_response = *response;
      const std::string code = response->At("error").StrOr("code", "");
      if (!is_read && code == "NotPrimary" &&
          response->At("redirect").is_object()) {
        const server::Json& redirect = response->At("redirect");
        target.host = redirect.StrOr("host", target.host);
        target.port = static_cast<int>(redirect.IntOr("port", target.port));
        continue;  // re-send at the primary
      }
      if (is_read && code == "ReplicaLagging" && e + 1 < endpoints.size()) {
        break;  // this replica is behind the token; try the next endpoint
      }
      std::cout << response->Dump() << "\n";
      return response->At("ok").boolean ? 0 : 1;
    }
  }
  if (last_response.has_value()) {
    // Every endpoint answered but none satisfied the request (all lagging,
    // or a redirect loop): report the final answer as an application error.
    std::cout << last_response->Dump() << "\n";
    return 1;
  }
  std::cerr << "madc: " << last_error << "\n";
  return last_error.code() == StatusCode::kUnavailable ? 3 : 4;
}
