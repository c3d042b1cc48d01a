// madd — the monotonic-aggregation Datalog daemon.
//
// Loads a `.mdl` program, runs the static check-and-certify pipeline,
// evaluates the initial least model, then serves it over a loopback TCP
// socket speaking the framed-JSON protocol of src/server/wire.h. One writer
// applies `insert` batches incrementally (Engine::Update) and publishes
// immutable snapshots; any number of concurrent readers `query`/`dump`
// against their pinned snapshot — see DESIGN.md "Serving".
//
// Usage:
//   madd [options] program.mdl
//
// Options:
//   --port=N                            listen port (default 7407; 0 = ephemeral)
//   --host=A                            bind address (default 127.0.0.1)
//   --strategy=naive|seminaive|greedy   initial-evaluation strategy
//   --threads=N                         evaluation threads (at most 256)
//   --max-iterations=N                  fixpoint round budget
//   --data-dir=DIR                      enable durability: WAL + checkpoints
//                                       in DIR, crash recovery on startup
//   --fsync-policy=always|never         fsync each accepted batch (default
//                                       always) or leave it to the OS
//   --checkpoint-every-epochs=N         checkpoint cadence by insert count
//                                       (default 256; 0 disables)
//   --checkpoint-every-bytes=N          ... or by WAL growth (default 16 MiB;
//                                       0 disables)
//   --no-verify-recovery                skip the differential recovery check
//                                       (recovered state vs from-scratch
//                                       evaluation of program + history)
//   --replica-of=HOST:PORT              run as a read replica of the primary
//                                       at HOST:PORT: pull its WAL over the
//                                       wire and serve reads; writes are
//                                       refused with a redirect. The program
//                                       is fetched from the primary, so the
//                                       program.mdl argument is optional
//                                       (if given, it must match). Mutually
//                                       exclusive with --data-dir.
//
// On startup madd prints exactly one line to stdout:
//   madd: serving on <host>:<port>
// so scripts (and the test harness) can scrape the resolved ephemeral port.
//
// Shutdown: SIGINT/SIGTERM or the `shutdown` verb. Either way the listener
// closes, in-flight requests drain to completion, and long evaluations are
// interrupted through the shared CancellationToken (their responses degrade
// to certified under-approximations rather than being dropped).

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "server/replication/replicator.h"
#include "server/server.h"
#include "util/string_util.h"

using namespace mad;

namespace {

int Usage() {
  std::cerr << "usage: madd [--port=N] [--host=A] "
               "[--strategy=naive|seminaive|greedy]\n"
               "            [--threads=N] [--max-iterations=N]\n"
               "            [--data-dir=DIR] [--fsync-policy=always|never]\n"
               "            [--checkpoint-every-epochs=N] "
               "[--checkpoint-every-bytes=N]\n"
               "            [--no-verify-recovery] "
               "[--replica-of=HOST:PORT] [program.mdl]\n";
  return 2;
}

// "HOST:PORT" (the last colon splits, so bracketless IPv6 is out of scope
// — same as the rest of the loopback-oriented tooling).
bool ParseEndpoint(const std::string& text, std::string* host, int* port) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = text.substr(0, colon);
  return ParseNumber(std::string_view(text).substr(colon + 1), port) &&
         *port > 0 && *port <= 65535;
}

// Signal handling: the handler only flips lock-free atomics (both
// async-signal-safe); the main thread polls and runs the actual drain.
CancellationToken* g_cancel = nullptr;
volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) {
  g_stop = 1;
  if (g_cancel != nullptr) g_cancel->Cancel();
}

}  // namespace

int main(int argc, char** argv) {
  server::Server::Options net;
  net.port = 7407;
  server::ServerState::LoadOptions load;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--port=", 0) == 0) {
      if (!ParseNumber(value_of("--port="), &net.port)) return Usage();
    } else if (arg.rfind("--host=", 0) == 0) {
      net.host = value_of("--host=");
    } else if (arg.rfind("--strategy=", 0) == 0) {
      std::string s = value_of("--strategy=");
      if (s == "naive") {
        load.eval.strategy = core::Strategy::kNaive;
      } else if (s == "seminaive") {
        load.eval.strategy = core::Strategy::kSemiNaive;
      } else if (s == "greedy") {
        load.eval.strategy = core::Strategy::kGreedy;
      } else {
        return Usage();
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseNumber(value_of("--threads="), &load.eval.num_threads) ||
          load.eval.num_threads < 1 ||
          load.eval.num_threads > core::kMaxThreads) {
        return Usage();
      }
    } else if (arg.rfind("--max-iterations=", 0) == 0) {
      if (!ParseNumber(value_of("--max-iterations="),
                       &load.eval.max_iterations)) {
        return Usage();
      }
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      load.durability.data_dir = value_of("--data-dir=");
      if (load.durability.data_dir.empty()) return Usage();
    } else if (arg.rfind("--fsync-policy=", 0) == 0) {
      std::string p = value_of("--fsync-policy=");
      if (p == "always") {
        load.durability.fsync = server::FsyncPolicy::kAlways;
      } else if (p == "never") {
        load.durability.fsync = server::FsyncPolicy::kNever;
      } else {
        return Usage();
      }
    } else if (arg.rfind("--checkpoint-every-epochs=", 0) == 0) {
      if (!ParseNumber(value_of("--checkpoint-every-epochs="),
                       &load.durability.checkpoint_every_epochs)) {
        return Usage();
      }
    } else if (arg.rfind("--checkpoint-every-bytes=", 0) == 0) {
      if (!ParseNumber(value_of("--checkpoint-every-bytes="),
                       &load.durability.checkpoint_every_bytes)) {
        return Usage();
      }
    } else if (arg == "--no-verify-recovery") {
      load.durability.verify_recovery = false;
    } else if (arg.rfind("--replica-of=", 0) == 0) {
      load.replica.enabled = true;
      if (!ParseEndpoint(value_of("--replica-of="), &load.replica.primary_host,
                         &load.replica.primary_port)) {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty() && !load.replica.enabled) return Usage();

  std::string program_text;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "madd: cannot open " << path << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    program_text = buffer.str();
  } else {
    // Replica with no local .mdl: the primary is the source of truth for
    // the program too.
    server::RetryOptions retry;
    retry.max_attempts = 10;
    auto fetched = server::Replicator::FetchProgram(
        load.replica.primary_host, load.replica.primary_port, retry);
    if (!fetched.ok()) {
      std::cerr << "madd: cannot fetch program from primary "
                << load.replica.primary_host << ":"
                << load.replica.primary_port << ": " << fetched.status()
                << "\n";
      return 1;
    }
    program_text = std::move(fetched).value();
  }

  load.cancellation = std::make_shared<CancellationToken>();
  g_cancel = load.cancellation.get();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  auto state = server::ServerState::Load(program_text, load);
  if (!state.ok()) {
    std::cerr << "madd: " << state.status() << "\n";
    return 1;
  }
  if (!load.durability.data_dir.empty()) {
    std::cerr << "madd: durable in " << load.durability.data_dir
              << " (recovered to epoch " << (*state)->epoch() << ")\n";
  }

  auto srv = server::Server::Start(std::move(*state), net);
  if (!srv.ok()) {
    std::cerr << "madd: " << srv.status() << "\n";
    return 1;
  }
  server::Server& server = **srv;

  std::unique_ptr<server::Replicator> replicator;
  if (load.replica.enabled) {
    server::Replicator::Options ropts;
    ropts.primary_host = load.replica.primary_host;
    ropts.primary_port = load.replica.primary_port;
    ropts.program_text = program_text;
    replicator = std::make_unique<server::Replicator>(&server.state(), ropts);
    replicator->Start();
    std::cerr << "madd: replicating from " << ropts.primary_host << ":"
              << ropts.primary_port << "\n";
  }

  std::cout << "madd: serving on " << net.host << ":" << server.port()
            << std::endl;

  // The accept and connection threads do the work; this thread just waits
  // for a reason to drain.
  while (g_stop == 0 && !server.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "madd: draining...\n";
  if (replicator != nullptr) replicator->Stop();
  server.RequestShutdown();
  server.Wait();
  std::cerr << "madd: bye (final epoch " << server.state().epoch() << ")\n";
  return 0;
}
