#include "net/tcp/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sigma::net {
namespace {

std::string errno_text(const std::string& op) {
  return op + ": " + std::strerror(errno);
}

/// Resolve host:port into an IPv4 sockaddr. Numeric addresses resolve
/// without any network; names go through getaddrinfo (/etc/hosts covers
/// "localhost" offline).
sockaddr_in resolve(const TcpAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) == 1) return sa;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = getaddrinfo(addr.host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    throw SocketError("resolve " + addr.host + ": " + gai_strerror(rc));
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return sa;
}

SocketFd make_tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw SocketError(errno_text("socket"));
  SocketFd sock(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace

std::string TcpAddress::to_string() const {
  return host + ":" + std::to_string(port);
}

unsigned long parse_number(const std::string& text, unsigned long max,
                           const std::string& what) {
  std::size_t pos = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(text, &pos);
  } catch (const std::exception&) {
    throw SocketError("bad " + what + " '" + text + "'");
  }
  if (pos != text.size() || value > max ||
      text.find_first_of("-+ ") != std::string::npos) {
    throw SocketError("bad " + what + " '" + text + "'");
  }
  return value;
}

TcpAddress parse_tcp_address(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw SocketError("bad address '" + spec + "' (expected host:port)");
  }
  TcpAddress addr;
  addr.host = spec.substr(0, colon);
  addr.port = static_cast<std::uint16_t>(
      parse_number(spec.substr(colon + 1), 65535, "port in '" + spec + "'"));
  return addr;
}

TcpAddress resolve_numeric(const TcpAddress& addr) {
  in_addr probe{};
  if (inet_pton(AF_INET, addr.host.c_str(), &probe) == 1) return addr;
  const sockaddr_in sa = resolve(addr);
  char text[INET_ADDRSTRLEN] = {};
  if (inet_ntop(AF_INET, &sa.sin_addr, text, sizeof(text)) == nullptr) {
    throw SocketError(errno_text("inet_ntop"));
  }
  return TcpAddress{text, addr.port};
}

std::vector<TcpNodeAddress> parse_tcp_nodes(const std::string& csv,
                                            EndpointId default_endpoint) {
  std::vector<TcpNodeAddress> nodes;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    std::string entry = csv.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    // host:port or host:port:endpoint
    TcpNodeAddress node;
    const auto first = entry.find(':');
    const auto last = entry.rfind(':');
    if (first != last && first != std::string::npos) {
      node.endpoint = static_cast<EndpointId>(
          parse_number(entry.substr(last + 1), 0xFFFFFFFFul,
                       "endpoint id in '" + entry + "'"));
      entry = entry.substr(0, last);
    } else {
      node.endpoint = default_endpoint;
    }
    node.address = parse_tcp_address(entry);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

void SocketFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

SocketFd tcp_listen(const TcpAddress& addr, int backlog) {
  SocketFd sock = make_tcp_socket();
  int one = 1;
  ::setsockopt(sock.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = resolve(addr);
  if (::bind(sock.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    throw SocketError(errno_text("bind " + addr.to_string()));
  }
  if (::listen(sock.get(), backlog) < 0) {
    throw SocketError(errno_text("listen " + addr.to_string()));
  }
  return sock;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    throw SocketError(errno_text("getsockname"));
  }
  return ntohs(sa.sin_port);
}

SocketFd tcp_connect_start(const TcpAddress& addr, bool& in_progress) {
  SocketFd sock = make_tcp_socket();
  sockaddr_in sa = resolve(addr);
  in_progress = false;
  if (::connect(sock.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) <
      0) {
    if (errno == EINPROGRESS) {
      in_progress = true;
    } else {
      throw SocketError(errno_text("connect " + addr.to_string()));
    }
  }
  return sock;
}

int take_socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

}  // namespace sigma::net
