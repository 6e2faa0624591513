#include "io/framing.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"

namespace sramlp::io {

namespace {

obs::Counter& bytes_sent_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "sramlp_bytes_sent_total", "Bytes framed and sent over LineChannels");
  return c;
}

obs::Counter& bytes_received_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "sramlp_bytes_received_total", "Bytes received over LineChannels");
  return c;
}

constexpr std::string_view kUnixPrefix = "unix:";
constexpr std::string_view kTcpPrefix = "tcp:";

struct ParsedAddress {
  bool is_unix = false;
  std::string path;          // unix
  std::string host = "127.0.0.1";  // tcp
  std::uint16_t port = 0;          // tcp
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind(kUnixPrefix, 0) == 0) {
    parsed.is_unix = true;
    parsed.path = address.substr(kUnixPrefix.size());
    SRAMLP_REQUIRE(!parsed.path.empty(), "empty unix socket path");
    // sun_path is a fixed 108-byte field; a longer path would silently
    // truncate into a different filesystem name.
    SRAMLP_REQUIRE(parsed.path.size() < sizeof(sockaddr_un{}.sun_path),
                   "unix socket path too long: " + parsed.path);
    return parsed;
  }
  SRAMLP_REQUIRE(address.rfind(kTcpPrefix, 0) == 0,
                 "address must start with unix: or tcp:, got '" + address +
                     "'");
  std::string rest = address.substr(kTcpPrefix.size());
  const std::size_t colon = rest.rfind(':');
  std::string port_text;
  if (colon == std::string::npos) {
    port_text = rest;
  } else {
    parsed.host = rest.substr(0, colon);
    port_text = rest.substr(colon + 1);
  }
  SRAMLP_REQUIRE(!port_text.empty() && port_text.find_first_not_of(
                                           "0123456789") == std::string::npos,
                 "tcp address needs a numeric port, got '" + address + "'");
  const unsigned long port = std::stoul(port_text);
  SRAMLP_REQUIRE(port <= 65535, "tcp port out of range in '" + address + "'");
  parsed.port = static_cast<std::uint16_t>(port);
  return parsed;
}

Socket make_socket(const ParsedAddress& parsed) {
  const int fd = ::socket(parsed.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  SRAMLP_REQUIRE(fd >= 0,
                 std::string("socket() failed: ") + std::strerror(errno));
  return Socket(fd);
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_sockaddr(const ParsedAddress& parsed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(parsed.port);
  SRAMLP_REQUIRE(
      ::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) == 1,
      "tcp host must be a dotted IPv4 address, got '" + parsed.host + "'");
  return addr;
}

/// The steal protocol is small request/response frames; with Nagle on,
/// every lease round-trip stalls ~40 ms against delayed ACKs and the
/// whole service becomes RTT-bound instead of compute-bound.  No-op on
/// Unix sockets (the option is TCP-only; failure is ignored).
void disable_nagle(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// --- Socket ------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- listen / connect --------------------------------------------------------

Socket listen_socket(const std::string& address, int backlog) {
  const ParsedAddress parsed = parse_address(address);
  Socket sock = make_socket(parsed);
  int rc = 0;
  if (parsed.is_unix) {
    ::unlink(parsed.path.c_str());  // stale endpoint from a killed daemon
    const sockaddr_un addr = unix_sockaddr(parsed.path);
    rc = ::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  } else {
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = tcp_sockaddr(parsed);
    rc = ::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  }
  SRAMLP_REQUIRE(rc == 0, "cannot bind " + address + ": " +
                              std::strerror(errno));
  SRAMLP_REQUIRE(::listen(sock.fd(), backlog) == 0,
                 "cannot listen on " + address + ": " + std::strerror(errno));
  return sock;
}

std::string local_address(const Socket& listener) {
  sockaddr_storage storage{};
  socklen_t len = sizeof storage;
  SRAMLP_REQUIRE(::getsockname(listener.fd(),
                               reinterpret_cast<sockaddr*>(&storage),
                               &len) == 0,
                 std::string("getsockname failed: ") + std::strerror(errno));
  if (storage.ss_family == AF_UNIX) {
    const auto* addr = reinterpret_cast<const sockaddr_un*>(&storage);
    return std::string(kUnixPrefix) + addr->sun_path;
  }
  const auto* addr = reinterpret_cast<const sockaddr_in*>(&storage);
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr->sin_addr, host, sizeof host);
  return std::string(kTcpPrefix) + host + ":" +
         std::to_string(ntohs(addr->sin_port));
}

Socket accept_connection(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      disable_nagle(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // A listener shut down (or closed) from another thread is the normal
    // stop signal, not an error.
    if (errno == EINVAL || errno == EBADF || errno == ECONNABORTED)
      return Socket();
    throw Error(std::string("accept failed: ") + std::strerror(errno));
  }
}

Socket connect_socket(const std::string& address, int timeout_ms) {
  const ParsedAddress parsed = parse_address(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    Socket sock = make_socket(parsed);
    int rc = 0;
    if (parsed.is_unix) {
      const sockaddr_un addr = unix_sockaddr(parsed.path);
      rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } else {
      const sockaddr_in addr = tcp_sockaddr(parsed);
      rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    }
    if (rc == 0) {
      disable_nagle(sock.fd());
      return sock;
    }
    const int err = errno;
    // A signal landing mid-connect is not a dead peer: the attempt is
    // abandoned with the socket (a fresh one is made next iteration) and
    // retried immediately, without burning the backoff sleep.  The stress
    // suite's signal storm (test_steal_queue_stress) turned this from a
    // theoretical case into a reliable connect failure.
    if (err == EINTR) continue;
    // A daemon that has not bound its endpoint yet shows up as refused
    // (TCP, or a stale unix inode) or missing (unix path not created);
    // within the timeout those are "try again", everything else is fatal.
    const bool retryable =
        err == ECONNREFUSED || err == ENOENT || err == ECONNRESET;
    if (!retryable || std::chrono::steady_clock::now() >= deadline)
      throw Error("cannot connect to " + address + ": " +
                  std::strerror(err));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// --- LineChannel -------------------------------------------------------------

bool LineChannel::send(const JsonValue& value) {
  const std::string frame = value.dump() + '\n';
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (!socket_.valid()) return false;
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(socket_.fd(), frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  bytes_sent_counter().inc(sent);
  return true;
}

std::optional<JsonValue> LineChannel::receive() {
  for (;;) {
    // Frames are consumed by advancing read_pos_, and only bytes appended
    // since the last scan are searched, so a multi-MiB frame arriving in
    // 4 KiB pieces costs linear time, not a rescan per piece.
    const std::size_t newline = read_buffer_.find('\n', scan_pos_);
    if (newline != std::string::npos) {
      const std::string_view line(read_buffer_.data() + read_pos_,
                                  newline - read_pos_);
      read_pos_ = scan_pos_ = newline + 1;
      if (line.empty()) continue;
      try {
        return JsonValue::parse(line);
      } catch (const Error&) {
        return std::nullopt;  // garbled frame: treat the peer as dead
      }
    }
    scan_pos_ = read_buffer_.size();
    if (peer_dead_ || !socket_.valid()) return std::nullopt;
    // Every complete frame is consumed: drop them once before refilling.
    read_buffer_.erase(0, read_pos_);
    scan_pos_ -= read_pos_;
    read_pos_ = 0;
    char chunk[4096];
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      read_buffer_.append(chunk, static_cast<std::size_t>(n));
      bytes_received_counter().inc(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF or error: whatever is buffered without a newline is a truncated
    // frame from a dying peer — drop it, report end-of-stream.
    peer_dead_ = true;
    return std::nullopt;
  }
}

}  // namespace sramlp::io
