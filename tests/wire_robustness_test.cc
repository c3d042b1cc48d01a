// Wire-protocol robustness: a hostile or broken peer must produce a clean
// per-connection error — never a crash, a hung accept loop, or a leaked
// connection thread. Each abuse case talks raw bytes to a live server, then
// proves the server still answers a well-formed request and drains cleanly.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

#include "server/client.h"
#include "server/server.h"
#include "server/state.h"
#include "server/wire.h"

namespace mad {
namespace server {
namespace {

constexpr const char* kProgram = R"(
.decl arc(from, to, c: min_real)
.decl s(from, to, c: min_real)
s(X, Y, C) :- arc(X, Y, C).
arc(a, b, 1).
)";

std::unique_ptr<ServerState> MustLoad() {
  auto state = ServerState::Load(kProgram, {});
  EXPECT_TRUE(state.ok()) << state.status();
  return std::move(state).value();
}

/// Raw TCP connection for speaking deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }
  ~RawConn() { Close(); }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Half-close: we stop sending (the mid-frame drop), keep reading.
  void DropWrites() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until the peer closes; returns everything received.
  std::string DrainToEof() {
    std::string all;
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0) {
      all.append(buf, static_cast<size_t>(n));
    }
    return all;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// The post-abuse invariant: the server still serves and drains. Wait()
/// joins the accept loop and every connection thread, so its return is the
/// no-leaked-thread proof.
void ExpectStillHealthy(Server* server) {
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->At("ok").boolean);
  server->RequestShutdown();
  server->Wait();
}

TEST(WireRobustnessTest, GarbageLengthPrefixClosesConnectionOnly) {
  auto srv = Server::Start(MustLoad(), {});
  ASSERT_TRUE(srv.ok()) << srv.status();
  {
    RawConn conn((*srv)->port());
    conn.Send("not-a-number\n{\"verb\":\"ping\"}\n");
    // The server rejects the frame and closes; no response bytes for a
    // malformed header (there is no frame to respond inside of).
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  ExpectStillHealthy(srv->get());
}

TEST(WireRobustnessTest, OversizeFrameIsRejectedBeforeAllocation) {
  auto srv = Server::Start(MustLoad(), {});
  ASSERT_TRUE(srv.ok()) << srv.status();
  {
    RawConn conn((*srv)->port());
    // Over the 64 MiB cap: the server must refuse from the header alone —
    // we never send (and it must never try to read) the claimed payload.
    conn.Send("999999999999\n");
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  {
    RawConn conn((*srv)->port());
    conn.Send(std::to_string(kMaxFrameBytes + 1) + "\n");
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  ExpectStillHealthy(srv->get());
}

TEST(WireRobustnessTest, TruncatedFrameClosesCleanly) {
  auto srv = Server::Start(MustLoad(), {});
  ASSERT_TRUE(srv.ok()) << srv.status();
  {
    // Claim 100 bytes, deliver 10, then vanish mid-frame.
    RawConn conn((*srv)->port());
    conn.Send("100\n{\"verb\":\"");
    conn.DropWrites();
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  {
    // Header itself cut off.
    RawConn conn((*srv)->port());
    conn.Send("10");
    conn.DropWrites();
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  ExpectStillHealthy(srv->get());
}

TEST(WireRobustnessTest, MissingTerminatorIsRejected) {
  auto srv = Server::Start(MustLoad(), {});
  ASSERT_TRUE(srv.ok()) << srv.status();
  {
    // Correct length, but the byte after the payload is not '\n'.
    const std::string payload = "{\"verb\":\"ping\"}";
    RawConn conn((*srv)->port());
    conn.Send(std::to_string(payload.size()) + "\n" + payload + "X");
    conn.DropWrites();
    EXPECT_EQ(conn.DrainToEof(), "");
  }
  ExpectStillHealthy(srv->get());
}

TEST(WireRobustnessTest, AbuseDoesNotDisturbConcurrentWellFormedTraffic) {
  auto srv = Server::Start(MustLoad(), {});
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = Client::Connect("127.0.0.1", (*srv)->port());
  ASSERT_TRUE(client.ok());

  for (int round = 0; round < 8; ++round) {
    RawConn abuse((*srv)->port());
    abuse.Send(round % 2 == 0 ? "garbage\n" : "999999999999\n");
    // Interleave a real request on the long-lived connection.
    auto pong = client->Ping();
    ASSERT_TRUE(pong.ok()) << "round " << round << ": " << pong.status();
    EXPECT_TRUE(pong->At("ok").boolean);
  }
  // Malformed JSON inside a well-formed frame: per-request error response,
  // connection stays up.
  {
    RawConn conn((*srv)->port());
    const std::string payload = "{this is not json";
    conn.Send(std::to_string(payload.size()) + "\n" + payload + "\n");
    conn.DropWrites();  // so the server sees EOF after responding
    std::string reply = conn.DrainToEof();
    EXPECT_NE(reply.find("not valid JSON"), std::string::npos) << reply;
  }
  ExpectStillHealthy(srv->get());
}

// Request integers at and past the int64 range must each get a structured
// response. These overflowed before they were clamped: deadline_ms in the
// conversion to nanoseconds, max_records in repl_frames' one-record
// overscan, and 1e300 in the double-to-int64 cast. Under the asan-ubsan
// preset any remaining overflow aborts the test; GCC's -fsanitize=undefined
// leaves out float-cast-overflow, so the cast's clamp is checked by value.
TEST(WireRobustnessTest, ExtremeRequestIntegersGetStructuredResponses) {
  EXPECT_EQ(ParseJson("1e300")->AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseJson("-1e300")->AsInt(), std::numeric_limits<int64_t>::min());
  std::string dir = ::testing::TempDir() + "mad_wire_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ServerState::LoadOptions options;
  options.durability.data_dir = dir;  // repl_frames needs a WAL
  auto state = ServerState::Load(kProgram, options);
  ASSERT_TRUE(state.ok()) << state.status();
  for (const char* text : {
           R"({"verb":"query","pred":"s",)"
           R"("limits":{"deadline_ms":9223372036854775807}})",
           R"({"verb":"query","pred":"s","limits":{"deadline_ms":1e300,)"
           R"("max_tuples":1e300,"max_rows":-1e300}})",
           R"j({"verb":"query","atom":"s(a, Y, C)",)j"
           R"("limits":{"deadline_ms":9223372036854775807}})",
           R"({"verb":"insert","facts":"arc(b, c, 2).",)"
           R"("limits":{"deadline_ms":9223372036854775807}})",
           R"({"verb":"repl_frames","max_records":9223372036854775807})",
           R"({"verb":"repl_frames","max_records":1e300,"max_bytes":1e300,)"
           R"("seq":-1e300,"offset":1e300,"wait_ms":1e300})",
           R"({"verb":"query","pred":"s","min_epoch":1e300,)"
           R"("min_epoch_wait_ms":-1e300})",
       }) {
    std::optional<Json> request = ParseJson(text);
    ASSERT_TRUE(request.has_value()) << text;
    Json response = (*state)->Handle(*request);
    EXPECT_TRUE(response.At("ok").is_bool()) << text << "\n-> "
                                             << response.Dump();
  }
  state->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace mad
