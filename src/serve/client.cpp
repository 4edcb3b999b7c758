#include "serve/client.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace retscan::serve {

Client::Client(const std::string& socket_path) : socket_path_(socket_path) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw Error("socket path too long: '" + socket_path + "'");
  }
  fd_ = connect_socket(socket_path);
  if (fd_ < 0) {
    throw Error("no retscan daemon at '" + socket_path +
                "' (connect: " + std::strerror(errno) +
                "); start one with `retscan serve`");
  }
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Client::send(const Json& request) {
  if (!send_line(fd_, request)) {
    throw Error("daemon connection lost while sending");
  }
}

Json Client::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (line.empty()) {
        continue;
      }
      return Json::parse(line);
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    throw Error("daemon connection closed");
  }
}

Json Client::request(const Json& request) {
  send(request);
  const Json response = read_line();
  if (response.has("ok") && !response.at("ok").as_bool()) {
    throw Error("daemon: " + response.at("error").as_string());
  }
  return response;
}

}  // namespace retscan::serve
